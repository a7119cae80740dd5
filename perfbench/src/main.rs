//! The repository benchmark. One process runs one workload of the
//! evaluation-matrix sweep through the public `unimem_bench::sweep` API,
//! checks every pass's output, and prints its metrics, the last line being
//! one JSON object. See README.md for the workloads and metrics.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload matrix-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root: it reads the committed
//! `BENCH_sweep.json` there and keeps its scratch files (cell caches,
//! trace files, count records) under `.perfbench/`.

mod check;
mod layers;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use unimem_bench::sweep::{
    check_report, run_sweep_cached, NvmProfile, PolicyKind, SweepCache, SweepConfig, SweepReport,
    Tolerances, TopologySpec,
};
use unimem_sim::Json;

/// Set-ups per run, rounded up to whole rounds of `Turns`; `setup_s` is
/// their median.
const SETUP_REPS: usize = 5;
/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
const WORK_DIR: &str = ".perfbench";
const COMMITTED: &str = "BENCH_sweep.json";

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    MatrixCold,
    RoomScale,
    MatrixWarm,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "matrix-cold" => Some(Workload::MatrixCold),
            "room-scale" => Some(Workload::RoomScale),
            "matrix-warm" => Some(Workload::MatrixWarm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::MatrixCold => "matrix-cold",
            Workload::RoomScale => "room-scale",
            Workload::MatrixWarm => "matrix-warm",
        }
    }
}

/// What one workload runs: the matrix, the sweep-pool width, whether
/// passes read a cell cache that set-up filled, and whether the process is
/// confined to one CPU at a time (see `Turns`).
struct Plan {
    cfg: SweepConfig,
    workers: usize,
    cached: bool,
    one_cpu: bool,
}

impl Plan {
    fn of(w: Workload) -> Plan {
        match w {
            // The paper's whole evaluation: 1470 cells + 105 co-run cells.
            Workload::MatrixCold => Plan {
                cfg: SweepConfig::full(),
                workers: 2,
                cached: false,
                one_cpu: false,
            },
            Workload::MatrixWarm => Plan {
                cfg: SweepConfig::full(),
                workers: 2,
                cached: true,
                one_cpu: false,
            },
            // The CI nightly scale-out leg: `--workloads CG --policies
            // dram-only,unimem --profiles bw-half --ranks 2048 --rpn 1
            // --topologies nodes256` over the reduced defaults, so the
            // LU+MG co-run mix also runs, at 2048 ranks. It runs on one
            // CPU at a time: on a shared 2-vCPU host, time stolen from
            // either vCPU stalls the rank pool's lockstep threads at every
            // communication step, and their per-thread heaps made peak
            // memory vary by a quarter between runs.
            Workload::RoomScale => {
                let mut cfg = SweepConfig::reduced();
                cfg.workloads = vec!["CG".into()];
                cfg.policies = vec![PolicyKind::DramOnly, PolicyKind::Unimem];
                cfg.profiles = vec![NvmProfile::BwHalf];
                cfg.ranks = vec![2048];
                cfg.ranks_per_node = vec![1];
                cfg.topologies = vec![TopologySpec::Nodes { count: 256 }];
                Plan {
                    cfg,
                    workers: 1,
                    cached: false,
                    one_cpu: true,
                }
            }
        }
    }

    /// Width of the rank pool inside one run: the engine runs jobs of at
    /// most 8 ranks serially and larger ones on the host's parallelism.
    fn rank_threads(&self) -> usize {
        let largest = self.cfg.ranks.iter().copied().max().unwrap_or(1);
        if largest <= 8 {
            1
        } else {
            unimem_sim::default_workers().min(largest)
        }
    }
}

/// The CPUs a one-CPU workload takes turns on, one pass or set-up each,
/// in rounds in which every CPU has one turn. On a shared host one CPU can
/// run a pass far slower than another (a 256-rank room-scale pass took
/// 0.19 s on one vCPU and 0.11 s on the other of a 2-vCPU VM), so pinning
/// to whichever CPU a run starts on made its median depend on that CPU.
/// Empty for a workload that uses every CPU at once.
struct Turns(Vec<usize>);

impl Turns {
    fn of(plan: &Plan) -> Result<Turns, String> {
        if !plan.one_cpu {
            return Ok(Turns(Vec::new()));
        }
        let mut cpus = sys::allowed_cpus()?;
        // A CPU quota can grant less than the affinity mask names.
        cpus.truncate(unimem_sim::default_workers());
        Ok(Turns(cpus))
    }

    /// Confine the process to the CPU whose turn the `k`-th pass is.
    fn take(&self, k: usize) -> Result<(), String> {
        match self.0.len() {
            0 => Ok(()),
            n => sys::pin_to(self.0[k % n]),
        }
    }

    /// Passes in a round.
    fn round(&self) -> usize {
        self.0.len().max(1)
    }

    /// The figure for one pass from per-pass samples in turn order: the
    /// median over rounds of each round's mean, so that every sample holds
    /// every CPU once. With one turn per round it is the plain median.
    fn per_pass(&self, samples: &[f64]) -> f64 {
        let means: Vec<f64> = samples
            .chunks(self.round())
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        median(&means)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?}; use matrix-cold, room-scale or matrix-warm"
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One pass: a sweep plus serializing its report to the bytes
/// `SweepReport::write_json` writes.
struct Pass {
    report: SweepReport,
    bytes: String,
    wall_s: f64,
    cpu_s: f64,
}

/// `f` inside a span when tracing, bare otherwise.
fn maybe_span<R>(tr: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(tr) => tr.span(name, |_| f()),
        None => f(),
    }
}

fn run_pass(
    plan: &Plan,
    store: Option<&SweepCache>,
    mut tr: Option<&mut Tracer>,
    sweep_span: &str,
) -> Result<Pass, String> {
    let (t0, c0) = (Instant::now(), sys::cpu_seconds());
    let report = maybe_span(&mut tr, sweep_span, || {
        run_sweep_cached(black_box(&plan.cfg), plan.workers, store)
    })?;
    let doc = maybe_span(&mut tr, "report.to_json", || report.to_json());
    let bytes = maybe_span(&mut tr, "json.to_pretty", || doc.to_pretty());
    // `write_json` frees its document too.
    drop(doc);
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), sys::cpu_seconds() - c0);
    Ok(Pass {
        report: black_box(report),
        bytes: black_box(bytes),
        wall_s,
        cpu_s,
    })
}

/// A cell-cache directory removed when dropped.
struct CacheDir {
    path: PathBuf,
    store: SweepCache,
}

impl CacheDir {
    fn fresh(path: PathBuf) -> Result<CacheDir, String> {
        if path.exists() {
            std::fs::remove_dir_all(&path)
                .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
        }
        let store =
            SweepCache::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        Ok(CacheDir { path, store })
    }

    fn entry_bytes(&self) -> u64 {
        std::fs::read_dir(&self.path)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What set-up leaves for the timed passes: the reference pass (the first
/// set-up pass, always computed cold) and, for a cached workload, the
/// cache it filled.
struct Ready {
    reference: Pass,
    cache: Option<CacheDir>,
    setup_s: Vec<f64>,
}

/// Build the workload and run its first pass, `SETUP_REPS` times (in whole
/// rounds of `turns`); the first repetition is timed from process start.
/// For a cached workload the pass fills a fresh cache, so the cache writes
/// fall in set-up. The first repetition's plan, pass and cache are kept;
/// later ones are dropped like timed passes, so how often set-up repeats
/// does not change where the kept pass sits in the heap (keeping the last
/// of six made `peak_rss_mib` move between 72 and 83 MiB on room-scale).
fn set_up(
    w: Workload,
    turns: &Turns,
    started: Instant,
    work: &Path,
    mut tr: Option<&mut Tracer>,
) -> Result<(Plan, Ready), String> {
    let mut setup_s = Vec::new();
    let mut later_caches = Vec::new();
    let mut first = None;
    for rep in 0..SETUP_REPS.next_multiple_of(turns.round()) {
        let t0 = if rep == 0 { started } else { Instant::now() };
        turns.take(rep)?;
        let plan = Plan::of(w);
        let cache = if plan.cached {
            Some(CacheDir::fresh(
                work.join(format!("cache-{}-{rep}", std::process::id())),
            )?)
        } else {
            None
        };
        let span = if plan.cached {
            "setup.prime"
        } else {
            "setup.first_pass"
        };
        let pass = run_pass(
            &plan,
            cache.as_ref().map(|c| &c.store),
            tr.as_deref_mut(),
            span,
        )?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if first.is_none() {
            first = Some((plan, pass, cache));
        } else {
            later_caches.extend(cache);
        }
    }
    let (plan, reference, cache) = first.expect("at least one set-up");
    // The later set-ups' caches go only now, not between set-ups, so no
    // set-up's writes queue behind a deletion on the disk.
    drop(later_caches);
    Ok((
        plan,
        Ready {
            reference,
            cache,
            setup_s,
        },
    ))
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles (the medians of the lower and upper halves).
fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let half = s.len() / 2;
    (median(&s[..half]), median(&s[s.len() - half..]))
}

/// Counts that depend only on the workload's inputs: a change between
/// runs of one build means simulated behaviour or reuse changed.
/// Simulated work comes from the reference pass, cache outcomes from the
/// timed passes.
fn deterministic_counts(ready: &Ready, tally: &Tally) -> BTreeMap<String, f64> {
    let (report, bytes) = (&ready.reference.report, &ready.reference.bytes);
    let runs = report
        .cells
        .iter()
        .map(|c| &c.report)
        .chain(report.corun_cells.iter().map(|c| &c.report));
    let (mut rank_iters, mut migrations, mut migrated, mut reprofiles, mut replans) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for r in runs {
        rank_iters += r.per_rank.iter().map(|s| s.iterations).sum::<u64>();
        migrations += r.job.migrations.count;
        migrated += r.job.migrations.bytes.get();
        reprofiles += r.job.reprofiles;
        replans += r.job.lease_replans;
    }
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put(
        "sim.cells",
        (report.cells.len() + report.corun_cells.len()) as f64,
    );
    put("sim.rank_iters", rank_iters as f64);
    put("sim.migrations", migrations as f64);
    put("sim.migrated_mib", migrated as f64 / (1u64 << 20) as f64);
    put("sim.reprofiles", reprofiles as f64);
    put("sim.lease_replans", replans as f64);
    put("cache.lookups", tally.cache.1 as f64);
    put("cache.hits", tally.cache.0 as f64);
    put(
        "cache.entry_bytes",
        ready.cache.as_ref().map_or(0, CacheDir::entry_bytes) as f64,
    );
    put("report.bytes", bytes.len() as f64);
    m
}

/// Compare `counts` with the record the previous run of this workload
/// and mode left in `work`, print any drift, and replace the record.
/// Drift is flagged, not failed: it says behaviour changed, not speed.
fn flag_count_drift(work: &Path, key: &str, counts: &BTreeMap<String, f64>) {
    let path = work.join(format!("counts-{key}.json"));
    let mut doc = Json::obj();
    for (k, v) in counts {
        doc.push(k, *v);
    }
    let text = doc.to_compact();
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == text => println!("counts: identical to the previous {key} run"),
        Ok(prev) => {
            println!("counts: DRIFT against the previous {key} run: was {prev}, now {text}")
        }
        Err(_) => println!("counts: first {key} run recorded"),
    }
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cannot record counts in {}: {e}", path.display());
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    violations: usize,
    /// Cache (hits, lookups) of the last pass.
    cache: (usize, usize),
}

/// Timed passes until `budget` has passed (at least `MIN_PASSES`, and whole
/// rounds of `turns`), each checked against the reference pass.
fn measure(
    plan: &Plan,
    turns: &Turns,
    ready: &Ready,
    budget: Duration,
    mut tr: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Result<(), String> {
    let want_hit_rate = plan.cached.then_some(1.0);
    let store = ready.cache.as_ref().map(|c| &c.store);
    let deadline = Instant::now() + budget;
    let mut n = 0;
    while n < MIN_PASSES || Instant::now() < deadline || n % turns.round() != 0 {
        turns.take(n)?;
        n += 1;
        tally.attempted += 1;
        let outcome = match tr.as_deref_mut() {
            Some(t) => t.span("pass", |t| {
                run_pass(plan, store, Some(t), "sweep.run_sweep_cached")
            }),
            None => run_pass(plan, store, None, ""),
        };
        let pass = match outcome {
            Ok(p) => p,
            Err(e) => {
                tally.failed += 1;
                eprintln!("pass {n} failed: {e}");
                continue;
            }
        };
        let (problems, violations) = maybe_span(&mut tr, "check.pass", || {
            check::pass_problems(
                &pass.report,
                &pass.bytes,
                &ready.reference.bytes,
                want_hit_rate,
            )
        });
        tally.violations += violations;
        tally.cache = (pass.report.cache_hits, pass.report.cache_lookups);
        if problems.is_empty() {
            tally.wall_s.push(pass.wall_s);
            tally.cpu_s.push(pass.cpu_s);
        } else {
            tally.failed += 1;
            for p in problems {
                eprintln!("pass {n}: {p}");
            }
        }
    }
    Ok(())
}

fn metric(m: &mut Json, name: &str, value: f64, unit: &str) {
    let mut v = Json::obj();
    v.push("value", value).push("unit", unit);
    m.push(name, v);
}

fn host_facts(plan: &Plan) -> Json {
    let mut h = Json::obj();
    h.push("available_parallelism", unimem_sim::default_workers())
        .push("sweep_workers", plan.workers)
        .push("rank_pool_threads", plan.rank_threads())
        .push("rustc", env!("PERFBENCH_RUSTC"))
        .push("build_profile", env!("PERFBENCH_PROFILE"));
    h
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the workload and print its result. An `Err` means no result was
/// printed; a result that is not correct is still printed, as such.
fn run(args: &Args, started: Instant) -> Result<(), String> {
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let w = args.workload;
    let turns = Turns::of(&Plan::of(w))?;
    turns.take(0)?;
    if !turns.0.is_empty() {
        println!("one CPU at a time, in turns over CPUs {:?}", turns.0);
    }
    let committed = check::load_committed(Path::new(COMMITTED))?;
    // The matrices are fixed by the repository's sweep configurations and
    // the engine is deterministic: the seed is recorded, and changes no input.
    println!(
        "workload {} (seed {} recorded; it changes no input of this workload)",
        w.name(),
        args.seed
    );

    let mut tr = Tracer::new();
    if args.trace {
        trace_run(args, &turns, started, &work, &committed, &mut tr)
    } else {
        plain_run(args, &turns, started, &work, &committed)
    }
}

/// Shared start of both modes: set-up, then the correctness of the
/// reference pass itself (reduced-matrix bytes, conformance, self-test).
fn prepare(
    w: Workload,
    turns: &Turns,
    started: Instant,
    work: &Path,
    committed: &[Json],
    tr: Option<&mut Tracer>,
) -> Result<(Plan, Ready, Vec<String>), String> {
    let (plan, ready) = set_up(w, turns, started, work, tr)?;
    let mut problems = Vec::new();
    let reference = &ready.reference;
    // The full matrix holds every reduced-matrix cell; room-scale holds none.
    if w != Workload::RoomScale {
        let bad = check::reduced_mismatches(&reference.report, committed);
        if !bad.is_empty() {
            problems.push(format!(
                "{} of {} reduced-matrix cells differ from {COMMITTED}, first {}",
                bad.len(),
                committed.len(),
                bad[0]
            ));
        } else {
            println!(
                "check: {}/{} reduced-matrix cells equal {COMMITTED} byte for byte",
                committed.len(),
                committed.len()
            );
        }
        if let Err(e) = check::self_test(&reference.report, &reference.bytes, committed) {
            problems.push(e);
        }
    }
    let violations = check_report(&reference.report, &Tolerances::default());
    if !violations.is_empty() {
        problems.push(format!(
            "reference pass: {} conformance violation(s)",
            violations.len()
        ));
    }
    if reference.report.cache_hits != 0 {
        problems.push("the reference pass must run cold".into());
    }
    Ok((plan, ready, problems))
}

fn plain_run(
    args: &Args,
    turns: &Turns,
    started: Instant,
    work: &Path,
    committed: &[Json],
) -> Result<(), String> {
    let (plan, ready, problems) = prepare(args.workload, turns, started, work, committed, None)?;
    let mut tally = Tally::default();
    measure(
        &plan,
        turns,
        &ready,
        Duration::from_secs_f64(args.seconds),
        None,
        &mut tally,
    )?;
    // A failed reference fails every pass compared with it.
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("reference: {p}");
        }
        tally.failed = tally.attempted;
    }
    let counts = deterministic_counts(&ready, &tally);
    flag_count_drift(work, &format!("{}-trace0", args.workload.name()), &counts);

    let wall = turns.per_pass(&tally.wall_s);
    let cpu = turns.per_pass(&tally.cpu_s);
    let setup = turns.per_pass(&ready.setup_s);
    let rss = sys::peak_rss_mib();
    println!("host: {}", host_facts(&plan).to_compact());
    let (q1, q3) = quartiles(&tally.wall_s);
    println!(
        "wall_s {wall:.4} s median of {} passes in rounds of {} (pass quartiles {q1:.4}, {q3:.4}); each pass {} cells, {} rank-iterations",
        tally.wall_s.len(),
        turns.round(),
        counts["sim.cells"],
        counts["sim.rank_iters"],
    );
    println!("cpu_s {cpu:.4} s median per pass");
    println!(
        "setup_s {setup:.4} s median of {} set-ups in rounds of {} {:?}",
        ready.setup_s.len(),
        turns.round(),
        ready.setup_s
    );
    println!("peak_rss_mib {rss:.1} MiB");
    println!(
        "fail_rate {} ({} of {} passes failed)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );

    let mut m = Json::obj();
    metric(&mut m, "wall_s", wall, "s");
    metric(&mut m, "cpu_s", cpu, "s");
    metric(&mut m, "setup_s", setup, "s");
    metric(&mut m, "peak_rss_mib", rss, "MiB");
    emit(&tally, m);
    Ok(())
}

/// Print the result line: the last line of standard output.
fn emit(tally: &Tally, metrics: Json) {
    let correct = tally.failed == 0 && !tally.wall_s.is_empty();
    let mut out = Json::obj();
    out.push("correct", correct)
        .push("attempted", tally.attempted)
        .push("failed", tally.failed)
        .push("metrics", metrics);
    println!("{}", out.to_compact());
}

fn trace_run(
    args: &Args,
    turns: &Turns,
    started: Instant,
    work: &Path,
    committed: &[Json],
    tr: &mut Tracer,
) -> Result<(), String> {
    let w = args.workload;
    let probe = Plan::of(w);
    // The decomposition runs first, serially, so the calibration memo's
    // counts are a fresh process's and repeat exactly.
    let (h0, m0) = unimem::calib::memo_stats();
    let layers = if probe.cached {
        None
    } else {
        Some(layers::decompose(&probe.cfg, tr)?)
    };
    let (h1, m1) = unimem::calib::memo_stats();
    tr.span("calib.calibrate_memoized", |_| {
        // A seed no engine run uses, so every call is a memo miss: the cost
        // one Eq. 1 calibration adds to a cell.
        let cache = unimem_cache::CacheModel::platform_a();
        for (i, p) in NvmProfile::ALL.iter().enumerate() {
            black_box(unimem::calib::calibrate_memoized(
                &p.machine(),
                &cache,
                Default::default(),
                0x5eed_0000 + i as u64,
            ));
        }
    });

    let (plan, ready, mut problems) = prepare(w, turns, started, work, committed, Some(tr))?;
    if let Some(d) = &layers {
        let cells: Vec<String> = ready
            .reference
            .report
            .cells
            .iter()
            .map(|c| c.report.to_json().to_compact())
            .collect();
        let coruns: Vec<String> = ready
            .reference
            .report
            .corun_cells
            .iter()
            .map(|c| c.report.to_json().to_compact())
            .collect();
        if d.cell_runs != cells || d.corun_runs != coruns {
            problems.push("the layer decomposition did not reproduce the sweep's runs".into());
        }
    }

    // Untraced passes first, then the same passes under spans: the
    // difference between their medians is the tracing overhead.
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    measure(&plan, turns, &ready, budget, None, &mut plain)?;
    measure(&plan, turns, &ready, budget, Some(tr), &mut traced)?;
    // What the warm workload's matrix costs cold without a cache: the
    // priming passes' extra time over it is the cache writes.
    let cold_s = if plan.cached {
        let cold = Plan {
            cached: false,
            ..Plan::of(w)
        };
        (0..2)
            .map(|_| run_pass(&cold, None, Some(tr), "sweep.cold_no_cache").map(|p| p.wall_s))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };

    let mut tally = Tally {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        wall_s: traced.wall_s.clone(),
        cpu_s: Vec::new(),
        violations: plain.violations + traced.violations,
        cache: traced.cache,
    };
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("reference: {p}");
        }
        tally.failed = tally.attempted;
    }

    let totals = tr.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
    let med = |name: &str| median(&tr.durations(name));
    let mut counts = deterministic_counts(&ready, &traced);
    counts.insert("calib.memo_hits".into(), (h1 - h0) as f64);
    counts.insert("calib.memo_misses".into(), (m1 - m0) as f64);
    flag_count_drift(work, &format!("{}-trace1", w.name()), &counts);

    let policy_s: Vec<(&str, f64)> = PolicyKind::ALL
        .iter()
        .map(|p| (p.name(), total(&format!("exec.{}", p.name()))))
        .collect();
    // Folded from +0.0: an empty f64 `sum()` is -0.0.
    let clustered_s = totals
        .iter()
        .filter(|(k, _)| k.starts_with("exec.clustered."))
        .fold(0.0, |a, (_, t)| a + t.total_s);
    let dram_s = total("exec.dram-only") + total("exec.clustered.dram-only");
    let engine_s = totals
        .iter()
        .filter(|(k, _)| k.starts_with("exec.") || k.as_str() == "tenancy.corun")
        .fold(0.0, |a, (_, t)| a + t.total_s);
    let untraced_wall = turns.per_pass(&plain.wall_s);
    let traced_wall = turns.per_pass(&traced.wall_s);
    let threads = (plan.workers * plan.rank_threads()) as f64;
    let ns_per_rank_iter = match &layers {
        Some(d) if d.dram_rank_iters > 0 => dram_s * 1e9 / d.dram_rank_iters as f64,
        _ => 0.0,
    };

    let mut m = Json::obj();
    for (p, s) in &policy_s {
        metric(&mut m, &format!("exec.{p}_s"), *s, "s");
    }
    metric(
        &mut m,
        "exec.planning_s",
        total("exec.unimem") - total("exec.dram-only"),
        "s",
    );
    metric(&mut m, "exec.ns_per_rank_iter", ns_per_rank_iter, "ns");
    metric(&mut m, "exec.clustered_s", clustered_s, "s");
    metric(&mut m, "tenancy.corun_s", total("tenancy.corun"), "s");
    metric(
        &mut m,
        "tenancy.corun_cells",
        ready.reference.report.corun_cells.len() as f64,
        "count",
    );
    metric(&mut m, "pool.workers", plan.workers as f64, "count");
    metric(
        &mut m,
        "pool.rank_threads",
        plan.rank_threads() as f64,
        "count",
    );
    metric(
        &mut m,
        "pool.efficiency",
        if untraced_wall > 0.0 {
            engine_s / (threads * untraced_wall)
        } else {
            0.0
        },
        "ratio",
    );
    for k in ["cache.lookups", "cache.hits"] {
        metric(&mut m, k, counts[k], "count");
    }
    metric(
        &mut m,
        "cache.hit_rate",
        if counts["cache.lookups"] > 0.0 {
            counts["cache.hits"] / counts["cache.lookups"]
        } else {
            0.0
        },
        "ratio",
    );
    metric(
        &mut m,
        "cache.entry_bytes",
        counts["cache.entry_bytes"],
        "count",
    );
    let (read_s, write_s) = if plan.cached {
        (
            med("sweep.run_sweep_cached"),
            median(&tr.durations("setup.prime")[..]) - median(&cold_s),
        )
    } else {
        (0.0, 0.0)
    };
    metric(&mut m, "cache.read_s", read_s, "s");
    metric(&mut m, "cache.write_s", write_s, "s");
    metric(
        &mut m,
        "report.serialize_s",
        med("report.to_json") + med("json.to_pretty"),
        "s",
    );
    metric(&mut m, "report.bytes", counts["report.bytes"], "count");
    metric(
        &mut m,
        "calib.memo_hits",
        counts["calib.memo_hits"],
        "count",
    );
    metric(
        &mut m,
        "calib.memo_misses",
        counts["calib.memo_misses"],
        "count",
    );
    metric(
        &mut m,
        "calib.miss_s",
        total("calib.calibrate_memoized") / NvmProfile::ALL.len() as f64,
        "s",
    );
    metric(&mut m, "conformance.check_s", med("check.pass"), "s");
    metric(
        &mut m,
        "conformance.violations",
        tally.violations as f64,
        "count",
    );
    for k in [
        "sim.cells",
        "sim.rank_iters",
        "sim.migrations",
        "sim.reprofiles",
        "sim.lease_replans",
    ] {
        metric(&mut m, k, counts[k], "count");
    }
    metric(
        &mut m,
        "sim.migrated_mib",
        counts["sim.migrated_mib"],
        "MiB",
    );
    metric(
        &mut m,
        "fail_rate",
        tally.failed as f64 / tally.attempted as f64,
        "ratio",
    );
    metric(&mut m, "trace.wall_s_untraced", untraced_wall, "s");
    metric(&mut m, "trace.wall_s_traced", traced_wall, "s");
    metric(
        &mut m,
        "trace.overhead",
        if untraced_wall > 0.0 {
            traced_wall / untraced_wall - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    metric(
        &mut m,
        "host.available_parallelism",
        unimem_sim::default_workers() as f64,
        "count",
    );

    // The per-layer table, by span name, with self times.
    println!("host: {}", host_facts(&plan).to_compact());
    println!(
        "{:<34} {:>7} {:>11} {:>11}",
        "span", "calls", "total_s", "self_s"
    );
    for (name, t) in &totals {
        println!(
            "{name:<34} {:>7} {:>11.4} {:>11.4}",
            t.calls, t.total_s, t.self_s
        );
    }
    println!(
        "tracing overhead: traced wall_s {traced_wall:.4} vs untraced {untraced_wall:.4} ({} vs {} passes)",
        traced.wall_s.len(),
        plain.wall_s.len()
    );
    let trace_path = work.join(format!("trace-{}.json", w.name()));
    let mut meta = host_facts(&plan);
    meta.push("workload", w.name()).push("seed", args.seed);
    std::fs::write(&trace_path, tr.to_chrome(meta).to_compact())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    println!("trace: {}", trace_path.display());
    if let Json::Obj(members) = &m {
        for (k, v) in members {
            println!(
                "{k:<28} {:>16} {}",
                v.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                v.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
    emit(&tally, m);
    Ok(())
}
