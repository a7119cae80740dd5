//! Refactor guard for the PR-9 hot-path work: the sharded bandwidth
//! ledger, the lock-free job queue, the in-place rank scheduler, and the
//! arena-backed object registry must not move a single byte of the
//! committed `BENCH_sweep.json`.
//!
//! The sweep's output is virtual-time and schedule-independent by
//! construction; these rewrites touch exactly the machinery that could
//! break that — cross-thread visibility in the ledger, job ordering in
//! the queue, name storage in the registry. So the guard is maximal:
//! regenerate the reduced matrix on the serial path (`--jobs 1`), a
//! medium pool (`--jobs 4`) and a wide pool (`--jobs 8`, oversubscribed
//! on small hosts on purpose) and require each to equal the committed
//! baseline byte-for-byte.
//!
//! The same comparison is the zero-cost guard for the crash-consistency
//! journal: with journaling disabled (the default — no `JournalRig`
//! attached) the driver must reproduce the pre-journal bytes, and the
//! committed report is those bytes (it differs from the pre-journal v4
//! baseline only in the schema tag).

use unimem_repro::bench::sweep::{run_sweep_cached, run_sweep_jobs, SweepCache, SweepConfig};

const GOLDEN: &str = include_str!("../BENCH_sweep.json");

fn assert_matches_golden(jobs: usize) {
    let report = run_sweep_jobs(&SweepConfig::reduced(), jobs).expect("reduced sweep runs");
    let got = report.to_json().to_pretty();
    if got != GOLDEN {
        let line = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1);
        panic!(
            "reduced sweep at {jobs} job(s) diverges from the committed \
             BENCH_sweep.json ({} vs {} bytes; first differing line: \
             {line:?}) — the hot-path refactor changed simulated behavior",
            got.len(),
            GOLDEN.len(),
        );
    }
}

#[test]
fn serial_path_reproduces_the_committed_sweep_bytes() {
    assert_matches_golden(1);
}

#[test]
fn wide_pool_reproduces_the_committed_sweep_bytes() {
    assert_matches_golden(8);
}

/// The journal integration threads an `Option<JournalHandle>` through the
/// driver, the policies, and the migration engine; this pins that the
/// `None` path is not merely cheap but *invisible*: identical placement,
/// identical virtual times, identical serialized stats on every cell.
#[test]
fn journal_disabled_path_reproduces_the_committed_sweep_bytes() {
    assert_matches_golden(4);
}

/// The PR-10 reuse layer under the same maximal guard: a cold cached run
/// and a fully-warm rerun of the reduced matrix must both reproduce the
/// committed bytes exactly — on a warm run every cell is reconstructed
/// from disk, so this exercises the cache's decode path (report form plus
/// migration split) on every cell the golden file contains.
#[test]
fn cached_runs_reproduce_the_committed_sweep_bytes() {
    let dir = std::env::temp_dir().join(format!("unimem-golden-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = SweepCache::open(&dir).expect("cache opens");
    let cfg = SweepConfig::reduced();

    let cold = run_sweep_cached(&cfg, 1, Some(&store)).expect("cold cached sweep runs");
    assert_eq!(cold.cache_hits, 0, "cold cache cannot hit");
    assert_eq!(
        cold.to_json().to_pretty(),
        GOLDEN,
        "cold cached run diverges from the committed BENCH_sweep.json"
    );

    let warm = run_sweep_cached(&cfg, 1, Some(&store)).expect("warm cached sweep runs");
    assert_eq!(
        warm.cache_hits, warm.cache_lookups,
        "a rerun of the identical matrix must answer every lookup from disk"
    );
    assert_eq!(
        warm.to_json().to_pretty(),
        GOLDEN,
        "warm (all-cells-from-disk) run diverges from the committed BENCH_sweep.json"
    );
    std::fs::remove_dir_all(&dir).ok();
}
