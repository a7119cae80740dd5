//! Wall-clock micro-benchmarks of the runtime machinery (criterion).
//!
//! These measure the *real* cost of the pieces the simulation charges
//! virtual costs for: the knapsack solver, the sampler, the analytic cache
//! model, the contended-bandwidth query, the real helper thread + FIFO
//! queue (actual memcpy between the accounted pools), mini-MPI
//! collectives, and a full driver step — plus the JSON codec a warm
//! sweep spends its time in: parsing one cell-cache entry and writing a
//! sweep report.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use unimem::exec::{run_workload, Policy};
use unimem::knapsack::{solve, Item};
use unimem_bench::sweep::{run_sweep, run_sweep_cached, PolicyKind, SweepCache, SweepConfig};
use unimem_cache::{AccessPattern, CacheModel, ObjAccess};
use unimem_hms::object::ObjId;
use unimem_hms::pools::{HelperThread, RealHms};
use unimem_hms::tier::TierKind;
use unimem_hms::{FlowScope, MachineConfig, SharedBandwidth};
use unimem_mpi::{CommWorld, NetParams};
use unimem_perf::kernels::{build_chase_ring, pointer_chase, stream_triad};
use unimem_perf::sampler::{GroundTruth, Sampler, SamplerConfig};
use unimem_sim::{Bytes, DetRng, Json, VDur, VTime};
use unimem_workloads::{by_name, Class};

fn bench_knapsack(c: &mut Criterion) {
    let mut rng = DetRng::seed(42);
    let items: Vec<Item> = (0..96)
        .map(|_| Item {
            weight: rng.range_f64(-1.0, 10.0),
            size: Bytes(1 + rng.u64() % (64 << 20)),
        })
        .collect();
    // Random byte sizes: gcd 1 and a total far above capacity, so the
    // reachable-size lattice spans the full 4,096-granule table.
    c.bench_function("knapsack_dp_96_items_256MB", |b| {
        b.iter(|| solve(black_box(&items), Bytes::mib(256)))
    });
    // Shaped like the sweep's solves. Sizes sharing a 6 MiB factor put the
    // lattice step at 96 granules (a 43-column table) although not every
    // item fits; and when every item fits, the table stops at their sum.
    let factored: Vec<Item> = (0..17)
        .map(|_| Item {
            weight: rng.range_f64(0.1, 10.0),
            size: Bytes::mib(6 * (1 + rng.u64() % 8)),
        })
        .collect();
    c.bench_function("knapsack_dp_17_items_6MiB_factor_256MB", |b| {
        b.iter(|| solve(black_box(&factored), Bytes::mib(256)))
    });
    let all_fit: Vec<Item> = (0..65)
        .map(|_| Item {
            weight: rng.range_f64(0.1, 10.0),
            size: Bytes(1 + rng.u64() % (1 << 20)),
        })
        .collect();
    c.bench_function("knapsack_dp_65_items_all_fit_256MB", |b| {
        b.iter(|| solve(black_box(&all_fit), Bytes::mib(256)))
    });
}

fn bench_sampler(c: &mut Criterion) {
    let truths: Vec<GroundTruth> = (0..16)
        .map(|i| GroundTruth {
            unit: unimem_hms::object::UnitId::whole(ObjId(i)),
            misses: 1_000_000 + u64::from(i) * 50_000,
            miss_bytes: Bytes(64_000_000),
            mem_time: VDur::from_millis(5.0),
        })
        .collect();
    c.bench_function("sampler_phase_16_objects", |b| {
        b.iter_batched(
            || Sampler::new(SamplerConfig::default(), 7),
            |mut s| s.sample_phase(VDur::from_millis(80.0), black_box(&truths)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_cache_model(c: &mut Criterion) {
    let model = CacheModel::platform_a();
    let accs: Vec<ObjAccess> = (0..24)
        .map(|i| {
            ObjAccess::new(
                ObjId(i),
                10_000_000,
                Bytes::mib(64),
                if i % 2 == 0 {
                    AccessPattern::Streaming { stride: Bytes(8) }
                } else {
                    AccessPattern::Random
                },
            )
        })
        .collect();
    c.bench_function("cache_model_phase_24_objects", |b| {
        b.iter(|| model.phase_misses(black_box(&accs)))
    });
}

fn bench_contention(c: &mut Criterion) {
    // One node, 4 ranks (4 ledger owners), 8 helper copies = 16 flows:
    // half fenced into the last epoch, half in flight over the window.
    let m = MachineConfig::nvm_bw_fraction(0.5).with_ranks_per_node(4);
    let shared = SharedBandwidth::new(&m, 4);
    let clients: Vec<_> = (0..4).map(|r| shared.client(r)).collect();
    for (i, cl) in clients.iter().enumerate() {
        let to = if i % 2 == 0 {
            TierKind::Dram
        } else {
            TierKind::Nvm
        };
        cl.post_copy(to, VTime(0.0), VTime(0.004), Bytes::mib(8));
    }
    for cl in &clients {
        cl.fence(VTime(0.01));
    }
    for (i, cl) in clients.iter().enumerate() {
        let to = if i % 2 == 0 {
            TierKind::Nvm
        } else {
            TierKind::Dram
        };
        cl.post_copy(to, VTime(0.011), VTime(0.015), Bytes::mib(8));
    }
    let (me, w0, w1) = (&clients[0], VTime(0.01), VTime(0.02));
    c.bench_function("bw_contended_one_visit_16_flows_4_owners", |b| {
        b.iter(|| black_box(me).contended(w0, w1))
    });
    c.bench_function("bw_effective_x4_16_flows_4_owners", |b| {
        b.iter(|| {
            let me = black_box(me);
            [
                me.effective(TierKind::Dram, w0, w1, FlowScope::Own),
                me.effective(TierKind::Nvm, w0, w1, FlowScope::Own),
                me.effective(TierKind::Dram, w0, w1, FlowScope::All),
                me.effective(TierKind::Nvm, w0, w1, FlowScope::All),
            ]
        })
    });
}

fn bench_helper_thread(c: &mut Criterion) {
    c.bench_function("helper_thread_migrate_4MB", |b| {
        let hms = RealHms::new(Bytes::mib(512));
        let helper = HelperThread::spawn();
        let obj = hms.alloc("bench", Bytes::mib(4), TierKind::Nvm).unwrap();
        let mut to_dram = true;
        b.iter(|| {
            let tier = if to_dram {
                TierKind::Dram
            } else {
                TierKind::Nvm
            };
            to_dram = !to_dram;
            helper.migrate(Arc::clone(&obj), tier).wait()
        });
    });
}

fn bench_collectives(c: &mut Criterion) {
    c.bench_function("minimpi_allreduce_4ranks_x64", |b| {
        b.iter(|| {
            CommWorld::run(4, NetParams::default(), |ctx| {
                let mut acc = 0.0;
                for i in 0..64 {
                    acc += ctx.allreduce_sum_scalar(i as f64);
                }
                acc
            })
        })
    });
}

fn bench_driver(c: &mut Criterion) {
    let w = by_name("CG", Class::S).unwrap();
    let m = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::mib(4));
    let cache = CacheModel::new(Bytes::kib(512));
    c.bench_function("driver_cg_class_s_unimem_1rank", |b| {
        b.iter(|| run_workload(black_box(w.as_ref()), &m, &cache, 1, &Policy::unimem()))
    });
}

fn bench_kernels(c: &mut Criterion) {
    let n = 1 << 20;
    let bvec = vec![1.0f64; n];
    let cvec = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    c.bench_function("stream_triad_8MB", |b| {
        b.iter(|| stream_triad(black_box(&mut a), &bvec, &cvec, 3.0))
    });
    let mut rng = DetRng::seed(1);
    let ring = build_chase_ring(1 << 18, &mut rng);
    c.bench_function("pointer_chase_256k_hops", |b| {
        b.iter(|| pointer_chase(black_box(&ring), 1 << 18))
    });
}

fn bench_json(c: &mut Criterion) {
    // A real cell entry: fill a throwaway cache with one reduced-matrix
    // Unimem cell and take the payload after the 20-byte frame header.
    let mut cfg = SweepConfig::reduced();
    cfg.workloads.truncate(1);
    cfg.policies = vec![PolicyKind::Unimem];
    cfg.profiles.truncate(1);
    cfg.ranks.truncate(1);
    cfg.coruns.clear();
    let dir = std::env::temp_dir().join(format!("unimem-micro-json-{}", std::process::id()));
    let store = SweepCache::open(&dir).unwrap();
    run_sweep_cached(&cfg, 1, Some(&store)).unwrap();
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "cell"))
        .unwrap();
    let payload = String::from_utf8(std::fs::read(&entry).unwrap()[20..].to_vec()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    c.bench_function("json_parse_cell_entry", |b| {
        b.iter(|| Json::parse(black_box(&payload)).unwrap())
    });
    let report = run_sweep(&SweepConfig::reduced()).unwrap().to_json();
    c.bench_function("json_to_pretty_report", |b| {
        b.iter(|| black_box(&report).to_pretty())
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_knapsack,
    bench_sampler,
    bench_cache_model,
    bench_contention,
    bench_helper_thread,
    bench_collectives,
    bench_driver,
    bench_kernels,
    bench_json
);
criterion_main!(micro);
