//! Refactor guard for the placement-policy extraction: the four legacy
//! policies, regenerated through the `PlacementPolicy` trait machinery,
//! must reproduce the pre-refactor report byte-for-byte.
//!
//! The baseline is the four-legacy-policy subset of the committed
//! `BENCH_sweep.json`: its cells filtered to those policies, with the
//! `policies` axis and `n_cells` header rewritten to match. That subset is
//! the reduced matrix as emitted by the enum-dispatch implementation the
//! trait replaced (v4 only widened the policy axis and v5 added the
//! off-by-default topology axis; neither touched a per-cell byte).
//! Restricting today's reduced matrix to the same four policies must
//! produce the same bytes. Any drift here means the refactor changed
//! simulated behavior, not just code structure.

use unimem_repro::bench::sweep::{run_sweep_jobs, PolicyKind, SweepConfig};
use unimem_repro::sim::Json;

const LEGACY: [PolicyKind; 4] = [
    PolicyKind::Unimem,
    PolicyKind::Xmem,
    PolicyKind::DramOnly,
    PolicyKind::NvmOnly,
];

/// The committed report restricted to the legacy policies.
fn legacy_subset_of_committed_report() -> String {
    let committed =
        Json::parse(include_str!("../BENCH_sweep.json")).expect("committed report parses");
    let legacy = |v: &Json| {
        let name = v.as_str().expect("policy names are strings");
        LEGACY.iter().any(|p| p.name() == name)
    };
    let Json::Obj(members) = committed else {
        panic!("committed report is not an object")
    };
    let n_cells = members
        .iter()
        .find(|(k, _)| k == "cells")
        .and_then(|(_, cells)| cells.as_arr())
        .expect("committed report has cells")
        .iter()
        .filter(|c| legacy(c.get("policy").expect("cell names its policy")))
        .count();
    assert!(n_cells > 0, "committed report has legacy-policy cells");
    let subset: Vec<(String, Json)> = members
        .into_iter()
        .map(|(k, v)| {
            let v = match (k.as_str(), v) {
                ("policies", Json::Arr(names)) => {
                    Json::Arr(names.into_iter().filter(|n| legacy(n)).collect())
                }
                ("n_cells", _) => Json::from(n_cells),
                ("cells", Json::Arr(cells)) => Json::Arr(
                    cells
                        .into_iter()
                        .filter(|c| legacy(c.get("policy").expect("cell names its policy")))
                        .collect(),
                ),
                (_, v) => v,
            };
            (k, v)
        })
        .collect();
    Json::Obj(subset).to_pretty()
}

#[test]
fn legacy_policies_reproduce_the_v3_golden_bytes() {
    let mut cfg = SweepConfig::reduced();
    cfg.policies = LEGACY.to_vec();
    let report = run_sweep_jobs(&cfg, 4).expect("reduced legacy sweep runs");
    let got = report.to_json().to_pretty();
    let golden = legacy_subset_of_committed_report();
    if got != golden {
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1);
        panic!(
            "regenerated report diverges from the legacy-policy subset of \
             the committed BENCH_sweep.json ({} vs {} bytes; first differing \
             line: {line:?}) — the policy refactor changed simulated behavior",
            got.len(),
            golden.len(),
        );
    }
}
