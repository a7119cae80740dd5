//! 0-1 knapsack solver for placement decisions.
//!
//! "Given the DRAM size limitation, our data placement problem is to
//! maximize total weights of data objects in DRAM while satisfying the DRAM
//! size constraint. This is a 0-1 knapsack problem \[solved\] by dynamic
//! programming in pseudo-polynomial time." (§3.1.3)
//!
//! Sizes are bytes (up to hundreds of MiB), so the DP quantizes capacity
//! into at most [`MAX_GRANULES`] granules of `ceil(capacity / 4096)` bytes
//! ([`granule_for`]) — items' sizes round **up** (never overcommit DRAM)
//! and optimality holds at granule resolution, which is orders of
//! magnitude finer than object sizes. Items with non-positive weight are
//! never selected (leaving an object in NVM costs nothing).
//!
//! The DP table covers only the totals a selection can reach, and this is
//! exact, not an approximation. Let `cap_g` be the capacity in granules,
//! `g` the gcd of the viable items' granule sizes and `Σ` their sum. Every
//! selection's total is a multiple of `g` and at most `Σ`, so the table has
//! `min(cap_g, Σ) / g + 1` columns and an item of `s` granules spans
//! `s / g` of them. By induction over the items, a full `cap_g + 1`-column
//! table holds:
//! - the same value and decision bit in every column of one `g`-block,
//!   because an item's pass at `c` reads `c - s`, which lies in the
//!   matching block;
//! - the same value and decision bit in every column from `Σ` upward,
//!   because that read lands at or above the sum of the earlier items.
//!
//! f64 addition is monotone, so the table is non-decreasing in capacity
//! and its top column holds the optimum; reconstruction starts there. The
//! chosen indices and the bits of the achieved weight are therefore those
//! of the full table.

use unimem_sim::Bytes;

/// One placement candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Eq. 5 weight (seconds of predicted saving; may be ≤ 0).
    pub weight: f64,
    pub size: Bytes,
}

/// Maximum number of capacity granules the DP table uses.
pub const MAX_GRANULES: usize = 4096;

/// The granule [`solve`] quantizes at for a given capacity: item sizes
/// round up to multiples of this, capacity rounds down. Exposed so tests
/// can state the DP's optimality contract at granule resolution without
/// duplicating the formula.
pub fn granule_for(capacity: Bytes) -> u64 {
    capacity.get().div_ceil(MAX_GRANULES as u64).max(1)
}

/// Solve the 0-1 knapsack: choose a subset of `items` with total size ≤
/// `capacity` maximizing total weight. Returns the chosen indices (sorted)
/// and the achieved weight. Items with `weight <= 0` are never chosen.
pub fn solve(items: &[Item], capacity: Bytes) -> (Vec<usize>, f64) {
    let viable: Vec<usize> = items
        .iter()
        .enumerate()
        .filter(|(_, it)| it.weight > 0.0 && !it.size.is_zero() && it.size <= capacity)
        .map(|(i, _)| i)
        .collect();
    if viable.is_empty() || capacity.is_zero() {
        return (Vec::new(), 0.0);
    }

    let granule = granule_for(capacity);
    let cap_g = (capacity.get() / granule) as usize;
    // Size in granules, rounded up so a selection never exceeds capacity.
    let size_g: Vec<usize> = viable
        .iter()
        .map(|&i| (items[i].size.get().div_ceil(granule)) as usize)
        .collect();
    // Reachable-size lattice (see the module docs): columns are multiples
    // of the sizes' gcd, up to the smaller of capacity and their sum.
    let g = size_g.iter().fold(0, |a, &s| gcd(a, s));
    let top = cap_g.min(size_g.iter().sum()) / g;

    // DP over capacity (1-D reverse sweep). `took[k]` records, per capacity,
    // whether item k's pass improved the optimum there — i.e. whether the
    // optimum over items 0..=k at that capacity includes item k. That is
    // exactly the decision bit the standard 2-D reconstruction needs.
    let words = (top + 1).div_ceil(64);
    let mut best = vec![0.0f64; top + 1];
    let mut took = vec![vec![0u64; words]; viable.len()];
    for (k, &i) in viable.iter().enumerate() {
        let w = items[i].weight;
        let s = size_g[k] / g;
        if s > top {
            continue;
        }
        for c in (s..=top).rev() {
            let cand = best[c - s] + w;
            if cand > best[c] {
                best[c] = cand;
                took[k][c / 64] |= 1 << (c % 64);
            }
        }
    }

    // `best` is non-decreasing in capacity, so the top column is optimal.
    let mut c = top;
    let achieved = best[c];
    let mut chosen = Vec::new();
    for k in (0..viable.len()).rev() {
        if took[k][c / 64] & (1 << (c % 64)) != 0 {
            chosen.push(viable[k]);
            c -= size_g[k] / g;
        }
    }
    chosen.sort_unstable();
    (chosen, achieved)
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Exhaustive reference solver for testing (n ≤ 20).
pub fn solve_exhaustive(items: &[Item], capacity: Bytes) -> (Vec<usize>, f64) {
    assert!(items.len() <= 20);
    let mut best_mask = 0usize;
    let mut best_w = 0.0f64;
    for mask in 0..(1usize << items.len()) {
        let mut size = 0u64;
        let mut w = 0.0;
        for (i, it) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                size += it.size.get();
                w += it.weight;
            }
        }
        if size <= capacity.get() && w > best_w {
            best_w = w;
            best_mask = mask;
        }
    }
    let chosen = (0..items.len())
        .filter(|i| best_mask & (1 << i) != 0)
        .collect();
    (chosen, best_w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn it(weight: f64, size: u64) -> Item {
        Item {
            weight,
            size: Bytes(size),
        }
    }

    #[test]
    fn picks_best_single_item() {
        let items = [it(1.0, 60), it(2.0, 60)];
        let (chosen, w) = solve(&items, Bytes(100));
        assert_eq!(chosen, vec![1]);
        assert!((w - 2.0).abs() < 1e-12);
    }

    #[test]
    fn picks_pair_over_heavier_single() {
        // Two items of weight 1.5 each beat one of weight 2.5 when all fit
        // pairwise but not all three.
        let items = [it(2.5, 80), it(1.5, 40), it(1.5, 40)];
        let (chosen, w) = solve(&items, Bytes(100));
        assert_eq!(chosen, vec![1, 2]);
        assert!((w - 3.0).abs() < 1e-12);
    }

    #[test]
    fn negative_weights_never_chosen() {
        let items = [it(-1.0, 10), it(0.0, 10), it(0.5, 10)];
        let (chosen, w) = solve(&items, Bytes(100));
        assert_eq!(chosen, vec![2]);
        assert!((w - 0.5).abs() < 1e-12);
    }

    #[test]
    fn oversized_item_excluded() {
        let items = [it(10.0, 200), it(1.0, 50)];
        let (chosen, _) = solve(&items, Bytes(100));
        assert_eq!(chosen, vec![1]);
    }

    #[test]
    fn zero_capacity_chooses_nothing() {
        let items = [it(1.0, 1)];
        let (chosen, w) = solve(&items, Bytes(0));
        assert!(chosen.is_empty());
        assert_eq!(w, 0.0);
    }

    #[test]
    fn granule_rounding_never_overcommits() {
        // Capacity forces granule > 1; chosen sizes must still fit exactly.
        let cap = Bytes(1 << 24); // 16 MiB → granule 4 KiB
        let items: Vec<Item> = (0..10).map(|i| it(1.0 + i as f64, 3 << 20)).collect();
        let (chosen, _) = solve(&items, cap);
        let total: u64 = chosen.iter().map(|&i| items[i].size.get()).sum();
        assert!(total <= cap.get(), "overcommitted: {total}");
        assert_eq!(chosen.len(), 5); // 5 × 3 MiB = 15 MiB ≤ 16 MiB
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        // Deterministic pseudo-random instances.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..200 {
            let n = 1 + (next() % 10) as usize;
            let items: Vec<Item> = (0..n)
                .map(|_| {
                    let w = ((next() % 2000) as f64 - 500.0) / 100.0;
                    let s = 1 + next() % 128;
                    it(w, s)
                })
                .collect();
            let cap = Bytes(1 + next() % 512);
            let (_, w_dp) = solve(&items, cap);
            let (_, w_ex) = solve_exhaustive(&items, cap);
            assert!(
                (w_dp - w_ex).abs() < 1e-9,
                "trial {trial}: dp={w_dp} exhaustive={w_ex} items={items:?} cap={cap:?}"
            );
        }
    }

    #[test]
    fn nan_weights_are_filtered_not_fatal() {
        // NaN fails the `weight > 0.0` viability filter; the solver must
        // neither panic nor select the item.
        let items = [it(f64::NAN, 10), it(1.0, 10)];
        let (chosen, w) = solve(&items, Bytes(100));
        assert_eq!(chosen, vec![1]);
        assert!((w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_far_above_total_size_takes_every_item() {
        // Σ size = 60 bytes against 1 GiB: the table stops at the sum.
        let items = [it(1.0, 10), it(2.0, 20), it(-1.0, 5), it(4.0, 30)];
        let (chosen, w) = solve(&items, Bytes::gib(1));
        assert_eq!(chosen, vec![0, 1, 3]);
        assert_eq!(w.to_bits(), (1.0f64 + 2.0 + 4.0).to_bits());
    }

    #[test]
    fn common_size_factor_is_exact() {
        // Sizes 3, 6 and 9 MiB share a factor: at 16 MiB (4 KiB granule)
        // the lattice step is 768 granules, at 14 MiB it is 878.
        let items = [it(2.0, 3 << 20), it(5.0, 6 << 20), it(4.0, 9 << 20)];
        let (chosen, w) = solve(&items, Bytes::mib(16));
        assert_eq!(chosen, vec![1, 2]);
        assert_eq!(w.to_bits(), 9.0f64.to_bits());
        let (chosen, w) = solve(&items, Bytes::mib(14));
        assert_eq!(chosen, vec![0, 1]);
        assert_eq!(w.to_bits(), 7.0f64.to_bits());
    }

    #[test]
    fn chosen_indices_refer_to_original_items() {
        let items = [it(-5.0, 10), it(3.0, 10), it(-1.0, 10), it(2.0, 10)];
        let (chosen, w) = solve(&items, Bytes(20));
        assert_eq!(chosen, vec![1, 3]);
        assert!((w - 5.0).abs() < 1e-12);
    }
}
