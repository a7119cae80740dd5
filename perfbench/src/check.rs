//! The output check every pass goes through, and its self-test.

use std::path::Path;
use unimem_bench::sweep::{check_report, NvmProfile, PolicyKind, SweepReport, Tolerances};
use unimem_sim::Json;

/// The single-tenant cells of the committed reduced-matrix report.
pub fn load_committed(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{} has no cells array", path.display()))?;
    if cells.is_empty() {
        return Err(format!("{} has no cells", path.display()));
    }
    Ok(cells.to_vec())
}

/// The committed cells whose bytes differ from the report's cell at the
/// same (workload, policy, profile, ranks, ranks-per-node) coordinates,
/// or that the report lacks, each described in one line.
pub fn reduced_mismatches(report: &SweepReport, committed: &[Json]) -> Vec<String> {
    let mut out = Vec::new();
    for c in committed {
        let field = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("?");
        let num = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0) as usize;
        let coords = format!(
            "{}/{}/{}/r{}x{}",
            field("workload"),
            field("profile"),
            field("policy"),
            num("nranks"),
            num("ranks_per_node")
        );
        let found = match (
            PolicyKind::from_name(field("policy")),
            NvmProfile::parse(field("profile")),
        ) {
            (Some(policy), Some(profile)) => report.get(
                field("workload"),
                policy,
                profile,
                num("nranks"),
                num("ranks_per_node"),
            ),
            _ => None,
        };
        match found {
            None => out.push(format!("{coords}: missing from the report")),
            Some(cell) if cell.to_json().to_compact() != c.to_compact() => {
                out.push(format!("{coords}: bytes differ from the committed cell"))
            }
            Some(_) => {}
        }
    }
    out
}

/// Problems with one pass (bytes unlike the reference pass, a cache hit
/// rate other than `want_hit_rate`, any conformance violation), empty when
/// the pass is correct, and the number of conformance violations.
pub fn pass_problems(
    report: &SweepReport,
    bytes: &str,
    reference: &str,
    want_hit_rate: Option<f64>,
) -> (Vec<String>, usize) {
    let mut out = Vec::new();
    if bytes != reference {
        out.push(format!(
            "report bytes differ from the reference pass ({} vs {} bytes)",
            bytes.len(),
            reference.len()
        ));
    }
    if report.cache_hit_rate() != want_hit_rate {
        out.push(format!(
            "cache hit rate {:?}, expected {want_hit_rate:?}",
            report.cache_hit_rate()
        ));
    }
    let violations = check_report(report, &Tolerances::default());
    if let Some(v) = violations.first() {
        out.push(format!(
            "{} conformance violation(s), first {}: {} ({})",
            violations.len(),
            v.check,
            v.cell,
            v.detail
        ));
    }
    (out, violations.len())
}

/// Feed both comparisons one altered cell and require each to notice, so
/// a check that has gone blind fails the run instead of passing it.
pub fn self_test(report: &SweepReport, bytes: &str, committed: &[Json]) -> Result<(), String> {
    let mut altered = committed.to_vec();
    bump_time(&mut altered[committed.len() / 2])?;
    let found = reduced_mismatches(report, &altered).len();
    if found != 1 {
        return Err(format!(
            "self-test: one altered committed cell gave {found} mismatches, expected 1"
        ));
    }

    let mut doc = report.to_json();
    let cell = match &mut doc {
        Json::Obj(members) => members
            .iter_mut()
            .find(|(k, _)| k == "cells")
            .and_then(|(_, v)| match v {
                Json::Arr(cells) => cells.first_mut(),
                _ => None,
            }),
        _ => None,
    }
    .ok_or("self-test: the report has no cell to alter")?;
    bump_time(cell)?;
    if pass_problems(report, &doc.to_pretty(), bytes, report.cache_hit_rate())
        .0
        .is_empty()
    {
        return Err("self-test: a pass with one altered cell passed the byte check".into());
    }
    Ok(())
}

/// Nudge a cell's `time_s` by one part in a million.
fn bump_time(cell: &mut Json) -> Result<(), String> {
    let Json::Obj(members) = cell else {
        return Err("self-test: cell is not an object".into());
    };
    let (_, v) = members
        .iter_mut()
        .find(|(k, _)| k == "time_s")
        .ok_or("self-test: cell has no time_s")?;
    let t = v.as_f64().ok_or("self-test: time_s is not a number")?;
    *v = Json::from(t * (1.0 + 1e-6));
    Ok(())
}
