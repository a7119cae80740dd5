//! `BENCH_sweep.json` emission: a deterministic, machine-readable form of
//! a [`SweepReport`].
//!
//! Schema (`unimem-bench-sweep/v5`):
//!
//! ```text
//! {
//!   "schema":    "unimem-bench-sweep/v5",
//!   "class":     "C",
//!   "workloads": ["CG", ...],
//!   "policies":  ["unimem", ...],
//!   "profiles":  ["bw-half", ...],
//!   "ranks":     [4, ...],
//!   "ranks_per_node": [1, 2, ...],
//!   "topologies": ["flat", "nodes16", ...],   // only off the flat default
//!   "mixes":     ["CG+FT", ...],
//!   "arbiters":  ["fair-share", ...],
//!   "n_cells":   112,
//!   "n_corun_cells": 6,
//!   "cells": [
//!     {
//!       "workload": "CG", "full_name": "CG.C",
//!       "policy": "unimem", "profile": "bw-half",
//!       "nranks": 4, "ranks_per_node": 2,
//!       "topology": "nodes16",                // only on clustered cells
//!       "time_s": ..., "normalized_to_dram": ...,
//!       "plan_kind": "global"|"local"|null,
//!       "migration_count": ..., "migrated_bytes": ...,
//!       "overlap_pct": <pct>|null,
//!       "contention_time_s": ..., "neighbor_contention_time_s": ...,
//!       "pure_runtime_cost": ..., "reprofiles": ...,
//!       "run": { <full RunReport: job + per-rank stats> }
//!     }, ...
//!   ],
//!   "corun_cells": [
//!     {
//!       "mix": "CG+FT", "workload": "CG", "tenant": "CG",
//!       "weight": 4, "start_epoch": 0,
//!       "arbiter": "priority", "profile": "bw-half", "nranks": 4,
//!       "time_s": ..., "solo_time_s": ..., "slowdown": ...,
//!       "lease_min": ..., "lease_max": ..., "lease_replans": ...,
//!       "run": { <full co-run RunReport> }
//!     }, ...
//!   ]
//! }
//! ```
//!
//! v5 adds the cluster-topology axis: a `topologies` list and a per-cell
//! `topology` name, both emitted **only when clustered rooms are
//! configured** — a sweep of the default flat world serializes exactly
//! as v4 did apart from the schema tag, so the committed golden needed a
//! tag bump and nothing else. Clustered cells run the hierarchical
//! collective path (`unimem::exec::run_workload_clustered`) and
//! normalize against a DRAM-only baseline in the same machine room.
//!
//! v4 widens the `policies` axis to the full placement-policy registry
//! (`unimem::policy::PolicyId`): two new entries, `online-guidance`
//! (interval-sampled hotness promotion, Olson et al.) and `hw-cache`
//! (hardware-managed DRAM cache over NVM, Wen et al.). No per-cell
//! field changed — a v3 reader that ignores unknown policy names can
//! read a v4 report.
//!
//! v3 adds the shared-bandwidth contention axis: a `ranks_per_node` axis
//! list, per-cell `ranks_per_node`, and per-cell contention stats
//! (`contention_time_s`, `neighbor_contention_time_s` — extra compute
//! time from helper traffic sharing the tier pools, total and the
//! neighbor-caused portion). `overlap_pct` became nullable: a run that
//! never migrated reports `null`, not a vacuous `100`.
//!
//! v2 added the multi-tenant co-run section (`mixes`, `arbiters`,
//! `n_corun_cells`, `corun_cells[]`): per-tenant slowdown vs. solo under
//! each arbitration policy, with the lease range the arbiter granted.
//!
//! Identical sweeps serialize to byte-identical text (insertion-ordered
//! members, shortest-round-trip floats); the determinism conformance
//! check compares these bytes across repeated multi-threaded runs.

use crate::sweep::matrix::{ArbiterPolicy, NvmProfile, PolicyKind, TopologySpec};
use crate::sweep::runner::{CorunCell, SweepCell, SweepReport};
use std::io;
use std::path::Path;
use unimem::exec::RunReport;
use unimem_sim::{Bytes, Json};

/// The schema tag written to `BENCH_sweep.json`.
pub const SCHEMA: &str = "unimem-bench-sweep/v5";

impl SweepCell {
    /// Deterministic JSON form of one single-tenant cell.
    pub fn to_json(&self) -> Json {
        let job = &self.report.job;
        let mut o = Json::obj();
        o.push("workload", self.workload.as_str())
            .push("full_name", self.full_name.as_str())
            .push("policy", self.policy.name())
            .push("profile", self.profile.name())
            .push("nranks", self.nranks)
            .push("ranks_per_node", self.ranks_per_node);
        // Clustered cells name their room; flat cells keep the exact v4
        // byte shape.
        if self.topology != TopologySpec::Flat {
            o.push("topology", self.topology.name());
        }
        o.push("time_s", self.time_s())
            .push("normalized_to_dram", self.normalized_to_dram)
            .push("plan_kind", self.report.plan_kind_json())
            .push("migration_count", job.migration_count())
            .push("migrated_bytes", job.migrated_bytes())
            .push("overlap_pct", job.overlap_pct())
            .push("contention_time_s", job.contention_time)
            .push("neighbor_contention_time_s", job.neighbor_contention_time)
            .push("pure_runtime_cost", job.pure_runtime_cost())
            .push("reprofiles", job.reprofiles)
            .push("run", self.report.to_json());
        o
    }

    /// Inverse of [`SweepCell::to_json`]. Derived members (`time_s` and
    /// the cell-level copies of the job stats) are ignored; a missing
    /// `topology` is the flat world. The run's migration overlapped/
    /// exposed split is not in this form (see
    /// [`RunReport::set_migration_split`]).
    pub fn from_json(v: &Json) -> Result<SweepCell, String> {
        let policy = v.string("policy")?;
        let profile = v.string("profile")?;
        let topology = match v.get("topology") {
            None => TopologySpec::Flat,
            Some(_) => {
                let t = v.string("topology")?;
                TopologySpec::parse(&t).ok_or_else(|| format!("unknown topology {t:?}"))?
            }
        };
        Ok(SweepCell {
            workload: v.string("workload")?,
            full_name: v.string("full_name")?,
            policy: PolicyKind::from_name(&policy)
                .ok_or_else(|| format!("unknown policy {policy:?}"))?,
            profile: NvmProfile::parse(&profile)
                .ok_or_else(|| format!("unknown profile {profile:?}"))?,
            nranks: v.uint("nranks")? as usize,
            ranks_per_node: v.uint("ranks_per_node")? as usize,
            topology,
            normalized_to_dram: v.float("normalized_to_dram")?,
            report: v.decode("run", RunReport::from_json)?,
        })
    }
}

impl CorunCell {
    /// Deterministic JSON form of one per-tenant co-run cell.
    pub fn to_json(&self) -> Json {
        let job = &self.report.job;
        let mut o = Json::obj();
        o.push("mix", self.mix.as_str())
            .push("workload", self.workload.as_str())
            .push("tenant", self.tenant.as_str())
            .push("weight", u64::from(self.weight))
            .push("start_epoch", self.start_epoch)
            .push("arbiter", self.arbiter.name())
            .push("profile", self.profile.name())
            .push("nranks", self.nranks)
            .push("time_s", self.time_s())
            .push("solo_time_s", self.solo_time_s)
            .push("slowdown", self.slowdown)
            .push("lease_min", self.lease_min)
            .push("lease_max", self.lease_max)
            .push("lease_replans", job.lease_replans)
            .push("run", self.report.to_json());
        o
    }

    /// Inverse of [`CorunCell::to_json`]. Derived members (`time_s`,
    /// `lease_replans`) are ignored, as in [`SweepCell::from_json`].
    pub fn from_json(v: &Json) -> Result<CorunCell, String> {
        let arbiter = v.string("arbiter")?;
        let profile = v.string("profile")?;
        Ok(CorunCell {
            mix: v.string("mix")?,
            workload: v.string("workload")?,
            tenant: v.string("tenant")?,
            weight: u32::try_from(v.uint("weight")?)
                .map_err(|_| "member \"weight\" exceeds u32")?,
            start_epoch: v.uint("start_epoch")? as usize,
            arbiter: ArbiterPolicy::parse(&arbiter)
                .ok_or_else(|| format!("unknown arbiter {arbiter:?}"))?,
            profile: NvmProfile::parse(&profile)
                .ok_or_else(|| format!("unknown profile {profile:?}"))?,
            nranks: v.uint("nranks")? as usize,
            solo_time_s: v.float("solo_time_s")?,
            slowdown: v.float("slowdown")?,
            lease_min: Bytes(v.uint("lease_min")?),
            lease_max: Bytes(v.uint("lease_max")?),
            report: v.decode("run", RunReport::from_json)?,
        })
    }
}

impl SweepReport {
    /// Deterministic JSON form of the whole sweep (schema above).
    pub fn to_json(&self) -> Json {
        let cfg = &self.config;
        let strings = |v: Vec<&str>| Json::Arr(v.into_iter().map(Json::from).collect());
        let mut o = Json::obj();
        o.push("schema", SCHEMA)
            .push("class", cfg.class.name())
            .push(
                "workloads",
                strings(cfg.workloads.iter().map(String::as_str).collect()),
            )
            .push(
                "policies",
                strings(cfg.policies.iter().map(|p| p.name()).collect()),
            )
            .push(
                "profiles",
                strings(cfg.profiles.iter().map(|p| p.name()).collect()),
            )
            .push(
                "ranks",
                Json::Arr(cfg.ranks.iter().map(|&r| Json::from(r)).collect()),
            )
            .push(
                "ranks_per_node",
                Json::Arr(cfg.ranks_per_node.iter().map(|&r| Json::from(r)).collect()),
            );
        // The topology axis appears only when clustered rooms are
        // configured, so a default (flat-only) sweep's report differs
        // from v4 by the schema tag alone.
        if cfg.topologies != [TopologySpec::Flat] {
            o.push(
                "topologies",
                Json::Arr(
                    cfg.topologies
                        .iter()
                        .map(|t| Json::from(t.name()))
                        .collect(),
                ),
            );
        }
        o.push(
            "mixes",
            Json::Arr(cfg.coruns.iter().map(|m| Json::from(m.label())).collect()),
        )
        .push(
            "arbiters",
            strings(cfg.arbiters.iter().map(|a| a.name()).collect()),
        )
        .push("n_cells", self.cells.len())
        .push("n_corun_cells", self.corun_cells.len())
        .push(
            "cells",
            Json::Arr(self.cells.iter().map(SweepCell::to_json).collect()),
        )
        .push(
            "corun_cells",
            Json::Arr(self.corun_cells.iter().map(CorunCell::to_json).collect()),
        );
        o
    }

    /// Write the pretty JSON form to `path`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sweep::matrix::SweepConfig;
    use crate::sweep::runner::run_sweep;
    use unimem::search::SearchKind;
    use unimem::stats::RunStats;
    use unimem_sim::VDur;
    use unimem_workloads::Class;

    fn micro_cfg() -> SweepConfig {
        SweepConfig {
            class: Class::C,
            workloads: vec!["LU".into()],
            policies: vec![
                PolicyKind::DramOnly,
                PolicyKind::NvmOnly,
                PolicyKind::Unimem,
            ],
            profiles: vec![NvmProfile::BwHalf],
            ranks: vec![2],
            ranks_per_node: vec![1],
            topologies: vec![TopologySpec::Flat],
            dram_capacity: None,
            coruns: vec![],
            arbiters: vec![],
        }
    }

    fn micro_report() -> SweepReport {
        run_sweep(&micro_cfg()).unwrap()
    }

    #[test]
    fn json_has_schema_axes_and_cells() {
        let j = micro_report().to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(j.get("class").and_then(Json::as_str), Some("C"));
        assert_eq!(j.get("n_cells").and_then(Json::as_f64), Some(3.0));
        let cells = j.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 3);
        for c in cells {
            assert!(c.get("time_s").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(c.get("run").and_then(|r| r.get("job")).is_some());
            assert!(c.get("normalized_to_dram").and_then(Json::as_f64).is_some());
        }
    }

    #[test]
    fn topology_keys_appear_only_off_the_flat_default() {
        // Flat-only sweep: no topology keys anywhere (v4 byte shape).
        let flat = micro_report().to_json();
        assert!(flat.get("topologies").is_none());
        for c in flat.get("cells").and_then(Json::as_arr).unwrap() {
            assert!(c.get("topology").is_none());
        }
        // Clustered rooms turn both keys on, but flat cells stay bare.
        let mut cfg = micro_cfg();
        cfg.topologies.push(TopologySpec::Nodes { count: 2 });
        let j = run_sweep(&cfg).unwrap().to_json();
        let axis = j.get("topologies").and_then(Json::as_arr).unwrap();
        assert_eq!(axis.len(), 2);
        assert_eq!(axis[1].as_str(), Some("nodes2"));
        let cells = j.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 6);
        let named: Vec<Option<&str>> = cells
            .iter()
            .map(|c| c.get("topology").and_then(Json::as_str))
            .collect();
        assert_eq!(
            named,
            [
                None,
                None,
                None,
                Some("nodes2"),
                Some("nodes2"),
                Some("nodes2")
            ]
        );
    }

    #[test]
    fn serialization_is_byte_identical_across_sweeps() {
        let a = micro_report().to_json().to_pretty();
        let b = micro_report().to_json().to_pretty();
        assert_eq!(a, b);
    }

    fn sample_stats(seed: u64) -> RunStats {
        let f = seed as f64;
        let mut s = RunStats {
            total_time: VDur(10.125 + f),
            app_time: VDur(8.0625 + f),
            profiling_overhead: VDur(0.031),
            modeling_overhead: VDur(0.011),
            sync_overhead: VDur(0.007),
            migration_stall: VDur(0.503),
            contention_time: VDur(0.101),
            neighbor_contention_time: VDur(0.041),
            reprofiles: 2,
            lease_replans: seed,
            iterations: 50,
            ..RunStats::default()
        };
        s.migrations.count = 12 + seed;
        s.migrations.bytes = Bytes(u64::MAX - seed); // above 2^53: must not round through f64
        s.migrations.to_dram_count = 7;
        s.migrations.to_nvm_count = 5 + seed;
        s.migrations.overlapped = VDur(0.375);
        s.migrations.exposed = VDur(0.128 + f / 3.0);
        s
    }

    pub(crate) fn sample_report() -> RunReport {
        RunReport {
            workload: "CG.C".into(),
            policy: "Unimem".into(),
            per_rank: vec![sample_stats(0), sample_stats(1)],
            job: sample_stats(2),
            plan_kind: Some(SearchKind::Global),
        }
    }

    /// A cell with every member set, two ranks and a clustered room.
    pub(crate) fn sample_cell() -> SweepCell {
        SweepCell {
            workload: "CG".into(),
            full_name: "CG.C".into(),
            policy: PolicyKind::Unimem,
            profile: NvmProfile::BwHalf,
            nranks: 2,
            ranks_per_node: 1,
            topology: TopologySpec::Nodes { count: 2 },
            normalized_to_dram: 1.3706293706293706,
            report: sample_report(),
        }
    }

    pub(crate) fn sample_corun_cell() -> CorunCell {
        CorunCell {
            mix: "CG+FT".into(),
            workload: "CG".into(),
            tenant: "CG".into(),
            weight: 4,
            start_epoch: 1,
            arbiter: ArbiterPolicy::Priority,
            profile: NvmProfile::Pcram,
            nranks: 2,
            solo_time_s: 4.203125,
            slowdown: 1.2109375,
            lease_min: Bytes(1 << 27),
            lease_max: Bytes(1 << 28),
            report: sample_report(),
        }
    }

    /// The object at `path` inside `v` (member names, or array indices).
    fn at_mut<'a>(v: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(v, |v, step| match v {
            Json::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            other => panic!("no {step:?} in {other:?}"),
        })
    }

    /// Table-driven decode errors. For every member of every object in a
    /// cell's report form: deleting a required member, or giving any
    /// member the wrong type, is an `Err` naming that member; deleting a
    /// derived member changes nothing (the decoder recomputes it), and
    /// deleting an optional one still decodes.
    #[test]
    fn decoders_name_every_missing_or_mistyped_member() {
        const STATS: &[&str] = &[
            "total_time_s",
            "app_time_s",
            "profiling_overhead_s",
            "modeling_overhead_s",
            "sync_overhead_s",
            "migration_stall_s",
            "contention_time_s",
            "neighbor_contention_time_s",
            "migration_count",
            "migrated_bytes",
            "migrations_to_dram",
            "migrations_to_nvm",
            "reprofiles",
            "lease_replans",
            "iterations",
        ];
        const REPORT: &[&str] = &["workload", "policy", "plan_kind", "job", "per_rank"];
        const CELL: &[&str] = &[
            "workload",
            "full_name",
            "policy",
            "profile",
            "nranks",
            "ranks_per_node",
            "normalized_to_dram",
            "run",
        ];
        const CORUN: &[&str] = &[
            "mix",
            "workload",
            "tenant",
            "weight",
            "start_epoch",
            "arbiter",
            "profile",
            "nranks",
            "solo_time_s",
            "slowdown",
            "lease_min",
            "lease_max",
            "run",
        ];
        const OPTIONAL: &[&str] = &["topology"];
        type Decode = fn(&Json, &Json) -> Result<String, String>;
        let cell_decode: Decode = |v, split| {
            let mut c = SweepCell::from_json(v)?;
            c.report.set_migration_split(split)?;
            Ok(c.to_json().to_compact())
        };
        let corun_decode: Decode = |v, split| {
            let mut c = CorunCell::from_json(v)?;
            c.report.set_migration_split(split)?;
            Ok(c.to_json().to_compact())
        };
        let cell = sample_cell();
        let corun = sample_corun_cell();
        let cases: [(Json, Json, Decode, &[&str]); 2] = [
            (
                cell.to_json(),
                cell.report.migration_split(),
                cell_decode,
                CELL,
            ),
            (
                corun.to_json(),
                corun.report.migration_split(),
                corun_decode,
                CORUN,
            ),
        ];
        let mut checked = 0;
        for (form, split, decode, top) in cases {
            let text = form.to_compact();
            assert_eq!(decode(&form, &split).as_deref(), Ok(text.as_str()));
            let objects: [(&[&str], &[&str]); 4] = [
                (&[], top),
                (&["run"], REPORT),
                (&["run", "job"], STATS),
                (&["run", "per_rank", "1"], STATS),
            ];
            for (path, required) in objects {
                let mut probe = form.clone();
                let Json::Obj(members) = at_mut(&mut probe, path) else {
                    panic!("{path:?} is not an object")
                };
                let names: Vec<String> = members.iter().map(|(k, _)| k.clone()).collect();
                for name in &names {
                    let quoted = format!("{name:?}");
                    let mut deleted = form.clone();
                    let Json::Obj(m) = at_mut(&mut deleted, path) else {
                        unreachable!()
                    };
                    m.retain(|(k, _)| k != name);
                    let mut mistyped = form.clone();
                    let member: Vec<&str> = path.iter().copied().chain([name.as_str()]).collect();
                    *at_mut(&mut mistyped, &member) = Json::Bool(true);
                    let got = decode(&deleted, &split);
                    if required.contains(&name.as_str()) {
                        let err = got.expect_err(&format!("{path:?}.{name} deleted"));
                        assert!(err.contains(&quoted), "{path:?}.{name} deleted: {err}");
                    } else if OPTIONAL.contains(&name.as_str()) {
                        assert!(got.is_ok(), "{path:?}.{name} is optional: {got:?}");
                    } else {
                        assert_eq!(got.as_deref(), Ok(text.as_str()), "{path:?}.{name} derived");
                        continue;
                    }
                    let err = decode(&mistyped, &split).expect_err(&format!("{path:?}.{name}"));
                    assert!(err.contains(&quoted), "{path:?}.{name} mistyped: {err}");
                    checked += 1;
                }
            }
        }
        let expected = 2 * (REPORT.len() + 2 * STATS.len()) + CELL.len() + 1 + CORUN.len();
        assert_eq!(checked, expected, "every required member was probed");
    }

    /// A migration split must hold exactly one numeric pair per stats
    /// block (job + each rank).
    #[test]
    fn migration_split_shape_is_checked() {
        let report = sample_report();
        let good = report.migration_split();
        let Json::Arr(pairs) = &good else {
            panic!("split is an array")
        };
        assert_eq!(pairs.len(), 1 + report.per_rank.len());
        let pair = pairs[0].clone();
        let bad = [
            Json::Arr(pairs[..2].to_vec()),
            Json::Arr([pairs.clone(), vec![pair.clone()]].concat()),
            Json::Arr(vec![]),
            Json::obj(),
            Json::Arr(vec![
                Json::Arr(vec![Json::from(1.0)]),
                pair.clone(),
                pair.clone(),
            ]),
            Json::Arr(vec![
                Json::Arr(vec![Json::from(1.0), Json::from("x")]),
                pair.clone(),
                pair,
            ]),
        ];
        for split in bad {
            let mut r = sample_report();
            assert!(r.set_migration_split(&split).is_err(), "{split} accepted");
        }
        let mut r = RunReport::from_json(&report.to_json()).unwrap();
        r.set_migration_split(&good).unwrap();
        assert_eq!(r.to_json().to_compact(), report.to_json().to_compact());
        assert_eq!(r.migration_split().to_compact(), good.to_compact());
    }
}
