//! The traced layer decomposition: the same cells a sweep runs, executed
//! serially through the program's public entry points, one span per call.
//! The sweep runner's pool and cache sit above these calls, so the spans
//! attribute the engine's work to policies, the clustered path and the
//! co-run stage without instrumenting the program itself.

use crate::trace::Tracer;
use unimem::exec::{run_workload, run_workload_clustered, Policy, RunReport};
use unimem::tenancy::{run_corun_with_solos, CorunTenant};
use unimem_bench::sweep::jobs::{enumerate_coruns, enumerate_rows};
use unimem_bench::sweep::{NvmProfile, PolicyKind, SweepConfig, TopologySpec};
use unimem_cache::CacheModel;
use unimem_hms::topology::{ClusterSpec, ClusterTopology};
use unimem_hms::MachineConfig;
use unimem_workloads::select;
use unimem_xmem::xmem_policy;

/// Compact JSON of every run, in the report's cell and co-run cell order,
/// so the caller can prove the decomposition did the sweep's exact work.
pub struct Decomposition {
    pub cell_runs: Vec<String>,
    pub corun_runs: Vec<String>,
    /// Rank-iterations simulated by the DRAM-only runs (flat and clustered).
    pub dram_rank_iters: u64,
}

fn rank_iters(r: &RunReport) -> u64 {
    r.per_rank.iter().map(|s| s.iterations).sum()
}

fn policy_of(
    kind: PolicyKind,
    w: &dyn unimem::Workload,
    m: &MachineConfig,
    c: &CacheModel,
    n: usize,
) -> Policy {
    match kind {
        PolicyKind::DramOnly => Policy::DramOnly,
        PolicyKind::NvmOnly => Policy::NvmOnly,
        PolicyKind::Xmem => xmem_policy(w, m, c, n),
        PolicyKind::Unimem => Policy::unimem(),
        PolicyKind::OnlineGuidance => Policy::online_guidance(),
        PolicyKind::HwCache => Policy::hw_cache(),
    }
}

/// Run every cell and co-run group of `cfg` serially under spans named
/// `exec.<policy>` (flat cells), `exec.clustered.<policy>` (clustered
/// cells) and `tenancy.corun` (one co-run group: its solos under
/// `tenancy.solo`, each arbiter under `tenancy.run_corun_with_solos`).
/// X-Mem's span includes its offline profiling (`xmem_policy`), which the
/// sweep pays per cell too.
pub fn decompose(cfg: &SweepConfig, tr: &mut Tracer) -> Result<Decomposition, String> {
    let names: Vec<&str> = cfg.workloads.iter().map(String::as_str).collect();
    let selection = select(&names, cfg.class)?;
    let mut cfg = cfg.clone();
    cfg.workloads = selection.iter().map(|(n, _)| n.clone()).collect();
    cfg.normalize_axes();
    let cache = CacheModel::platform_a();
    if cfg.dram_capacity.is_some() {
        return Err("the decomposition runs profile-default DRAM capacities only".into());
    }
    let machine = |profile: NvmProfile, rpn: usize| profile.machine().with_ranks_per_node(rpn);
    let mut out = Decomposition {
        cell_runs: Vec::new(),
        corun_runs: Vec::new(),
        dram_rank_iters: 0,
    };

    tr.span("layers", |tr| {
        for row in enumerate_rows(&cfg, selection.len()) {
            let w = selection[row.workload].1.as_ref();
            let n = row.nranks;
            let topology = &cfg.topologies[row.topology];
            let room = match topology {
                TopologySpec::Flat => None,
                TopologySpec::Nodes { count } => {
                    let slots = topology.slots_for(n);
                    Some(ClusterTopology::contiguous(
                        ClusterSpec::homogeneous(machine(row.profile, slots), *count, slots),
                        n,
                    ))
                }
                TopologySpec::Mixed { .. } => {
                    return Err("the decomposition runs homogeneous rooms only".to_string())
                }
            };
            let rpn = match topology {
                TopologySpec::Flat => row.ranks_per_node,
                t => t.slots_for(n),
            };
            let m = machine(row.profile, rpn);
            for &kind in &cfg.policies {
                let report = match &room {
                    None => tr.span(format!("exec.{}", kind.name()), |_| {
                        run_workload(w, &m, &cache, n, &policy_of(kind, w, &m, &cache, n))
                    }),
                    Some(room) => tr.span(format!("exec.clustered.{}", kind.name()), |_| {
                        let policy = policy_of(kind, w, &m, &cache, n);
                        run_workload_clustered(w, room, &cache, &policy)
                    }),
                };
                if kind == PolicyKind::DramOnly {
                    out.dram_rank_iters += rank_iters(&report);
                }
                out.cell_runs.push(report.to_json().to_compact());
            }
        }

        for job in enumerate_coruns(&cfg) {
            tr.span("tenancy.corun", |tr| {
                let m = machine(job.profile, 1);
                let members = cfg.coruns[job.mix].instantiate(cfg.class);
                let tenants: Vec<CorunTenant<'_>> = members
                    .iter()
                    .map(|(slot, w)| {
                        CorunTenant::new(slot.tenant.clone(), w.as_ref())
                            .weight(slot.weight)
                            .start_epoch(slot.start_epoch)
                    })
                    .collect();
                let solos: Vec<RunReport> = tenants
                    .iter()
                    .map(|t| {
                        tr.span("tenancy.solo", |_| {
                            run_workload(t.workload, &m, &cache, job.nranks, &Policy::unimem())
                        })
                    })
                    .collect();
                for &arbiter in &cfg.arbiters {
                    let outcomes = tr.span("tenancy.run_corun_with_solos", |_| {
                        run_corun_with_solos(&tenants, &m, &cache, job.nranks, arbiter, &solos)
                    })?;
                    out.corun_runs
                        .extend(outcomes.iter().map(|o| o.corun.to_json().to_compact()));
                }
                Ok::<(), String>(())
            })?;
        }
        Ok(out)
    })
}
