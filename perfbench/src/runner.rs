//! One benchmark invocation: the untraced end-to-end run
//! (`--trace 0`) or the traced per-layer run (`--trace 1`) of one
//! workload.

use crate::calib::HostSpeed;
use crate::drivers::{self, Shape};
use crate::probe::{CountingTracer, Counts, SpanLog};
use crate::stats::{median, peak_rss_mb};
use crate::workload::{
    combine_digests, pinned, pinned_mismatch, run_engine, sim_seed, sweep, sweep_jobs, sweep_opts,
    sweep_setup, EngineRun, Instruments, Sim, Sweep, Workload,
};
use crate::{experiment_name, per_layer_names, phase_calls_name, phase_secs_name, Metric, Outcome};
use repl_core::{Report, M_LOCK_WAIT, M_PROPAGATION_LAG};
use repl_telemetry::{Profiler, TraceHandle};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Fewest sweeps a `paper_quick` run makes.
const MIN_SWEEPS: usize = 3;
/// Fewest samples behind `setup_s`.
const SETUP_REPS: usize = 15;
/// Constructions one `setup_s` sample averages over: cheap ones are
/// repeated, so a sample is not dominated by the clock's resolution.
const SETUP_BATCH: u32 = 64;
/// A sample stops early once it has taken this long, so an expensive
/// construction is timed once.
const SETUP_SAMPLE: Duration = Duration::from_millis(2);

/// Mean host seconds of one call of `build`, over up to
/// [`SETUP_BATCH`] calls or [`SETUP_SAMPLE`] of host time. Each call is
/// timed on its own, and what it built is dropped outside the clock
/// before the next call: the allocator then gives each call the memory
/// the previous one freed, not fresh pages, whose first-touch faults
/// cost some processes half as much again as others.
fn per_call_s<T>(mut build: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    let mut calls = 0u32;
    while calls == 0 || (calls < SETUP_BATCH && start.elapsed() < SETUP_SAMPLE) {
        let t = Instant::now();
        let built = std::hint::black_box(build());
        busy += t.elapsed();
        drop(built);
        calls += 1;
    }
    busy.as_secs_f64() / f64::from(calls)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Benchmark seed; every input derives from it.
    pub seed: u64,
    /// Host time the measurement loop runs for (it always completes at
    /// least one full cycle of sub-seeds).
    pub seconds: f64,
    /// The traced per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its spans and counts.
    pub trace_file: Option<PathBuf>,
}

impl Options {
    /// The default run of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace,
            trace_file: None,
        }
    }

    fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Run the benchmark as `opts` asks.
pub fn run(opts: &Options) -> Outcome {
    let mut out = match (opts.workload, opts.trace) {
        (Workload::PaperQuick, false) => sweep_end_to_end(opts),
        (Workload::PaperQuick, true) => sweep_traced(opts),
        (_, false) => engine_end_to_end(opts),
        (_, true) => engine_traced(opts),
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.failures
                .push(format!("metric {} is not finite", m.name));
            out.failed += 1;
        }
    }
    out
}

/// Checks one timed run's outputs against the first run with the same
/// inputs: same seed and horizon must give the same digest.
fn same_as_first(first: &mut Option<u64>, digest: u64, what: &str) -> Option<String> {
    match *first {
        None => {
            *first = Some(digest);
            None
        }
        Some(d) if d == digest => None,
        Some(d) => Some(format!(
            "{what}: digest {digest:016x} differs from {d:016x}"
        )),
    }
}

fn check_pinned(out: &mut Outcome, opts: &Options, digest: u64) {
    if pinned(opts.workload, opts.seed).is_some() {
        out.attempt(pinned_mismatch(opts.workload, opts.seed, digest));
    }
}

/// What the timed loop of an engine workload measured.
struct Pairs {
    /// Host seconds of every run at `H`, by sub-seed, each scaled to
    /// the reference speed by the kernel runs around it.
    full: Vec<Vec<f64>>,
    /// The host's speed over the loop.
    speed: HostSpeed,
    /// `log2(host_s at H / host_s at H/2)` of each pair. The two runs
    /// of a pair are adjacent in time, so the host's drift cancels out
    /// of their ratio.
    exponents: Vec<f64>,
    /// Host seconds per engine construction at the reference speed, one
    /// sample with each pair (when asked for).
    setup: Vec<f64>,
    /// Peak RSS after the first cycle of sub-seeds.
    peak_rss_mb: f64,
    /// Digest of the first run at `H` of every sub-seed.
    digest: u64,
}

impl Pairs {
    /// Host seconds of one run at `H` at the reference speed: the mean
    /// over sub-seeds of each one's median scaled run.
    fn host_s(&self) -> Metric {
        let medians: Vec<f64> = self.full.iter().map(|runs| median(runs)).collect();
        let mean = medians.iter().sum::<f64>() / medians.len() as f64;
        from_runs("host_s", mean, "s", self.exponents.len())
    }

    /// The median pair's exponent: 1 when cost is linear in simulated
    /// time.
    fn horizon_exponent(&self) -> Metric {
        Metric::median("horizon_exponent", &self.exponents, "1")
    }
}

/// The timed loop of an engine workload: pairs of untraced runs at `H`
/// and `H/2` on the same sub-seed, cycling through the workload's
/// sub-seeds until `budget` is spent (at least one cycle). The run at
/// `H` is bracketed by reference-kernel samples. With `sample_setup`,
/// each pair is preceded by one `setup_s` sample, so set-up is timed
/// across the same stretch of host time as the runs rather than in one
/// burst at the start.
fn horizon_pairs(
    w: Workload,
    seed: u64,
    budget: Duration,
    sample_setup: bool,
    out: &mut Outcome,
) -> Pairs {
    let horizon = w.horizon();
    let inst = Instruments::untraced(w);
    let subseeds = w.subseeds();
    let mut setup = Vec::new();
    let mut speed = HostSpeed::default();
    let mut full_s = vec![Vec::new(); subseeds as usize];
    let mut exponents = Vec::new();
    let mut firsts = vec![[None, None]; subseeds as usize];
    let mut peak = 0.0;
    let start = Instant::now();
    let mut i = 0u64;
    while i < subseeds || start.elapsed() < budget {
        let k = (i % subseeds) as usize;
        let s = sim_seed(seed, k as u64);
        // The set-up sample shares the run's kernel bracket.
        let mut run_full = || {
            speed.around(1, || {
                let build_s = sample_setup.then(|| per_call_s(|| Sim::build(w, s, horizon, &inst)));
                (build_s, run_engine(w, s, horizon, &inst))
            })
        };
        // Alternate which horizon runs first, so neither side always
        // inherits the other's cache and allocator state.
        let (((build_s, full), factor), half) = if i.is_multiple_of(2) {
            let full = run_full();
            (full, run_engine(w, s, horizon / 2, &inst))
        } else {
            let half = run_engine(w, s, horizon / 2, &inst);
            (run_full(), half)
        };
        for (slot, run) in [&full, &half].into_iter().enumerate() {
            let what = format!("{} sim seed {s} horizon index {slot}", w.name());
            let repeat = same_as_first(&mut firsts[k][slot], run.digest(), &what);
            out.attempt(run.problem().or(repeat));
        }
        full_s[k].push(full.host_s() * factor);
        setup.extend(build_s.map(|b| b * factor));
        exponents.push((full.host_s() / half.host_s()).log2());
        i += 1;
        if i == subseeds {
            // After a fixed amount of work, so the reading does not
            // depend on how many runs the host's speed fits in.
            peak = peak_rss_mb().unwrap_or(0.0);
        }
    }
    let digests: Vec<u64> = firsts
        .iter()
        .map(|f| f[0].expect("every sub-seed ran"))
        .collect();
    // Top the set-up samples up to their minimum count.
    while sample_setup && setup.len() < SETUP_REPS {
        let s = sim_seed(seed, setup.len() as u64 % subseeds);
        let (build_s, factor) = speed.around(1, || per_call_s(|| Sim::build(w, s, horizon, &inst)));
        setup.push(build_s * factor);
    }
    Pairs {
        full: full_s,
        speed,
        exponents,
        setup,
        peak_rss_mb: peak,
        digest: combine_digests(&digests),
    }
}

fn report_speed(speed: &HostSpeed) {
    eprintln!(
        "host speed: reference kernel {:.6} s (median), {:.6} s at the reference speed",
        speed.kernel_s(),
        crate::calib::REFERENCE_S
    );
}

/// A metric computed from `samples` timed runs.
fn from_runs(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        samples,
        ..Metric::new(name, value, unit)
    }
}

fn engine_end_to_end(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut out = Outcome::default();
    let pairs = horizon_pairs(w, opts.seed, opts.budget(), true, &mut out);
    check_pinned(&mut out, opts, pairs.digest);
    eprintln!(
        "{} seed {}: output digest {:016x}",
        w.name(),
        opts.seed,
        pairs.digest
    );
    report_speed(&pairs.speed);
    out.metrics = vec![
        pairs.host_s(),
        Metric::median("setup_s", &pairs.setup, "s"),
        Metric::new("peak_rss_mb", pairs.peak_rss_mb, "MB"),
        pairs.horizon_exponent(),
    ];
    out
}

fn sweep_end_to_end(opts: &Options) -> Outcome {
    // Set-up before a sweep is building its options and selecting its
    // experiments; one sample before each sweep, each scaled by the
    // kernel runs around it. The thread-count query
    // stays outside the clock: it reads the host's cgroup files, whose
    // cost differs from process to process by half.
    let jobs = sweep_jobs();
    let setup_sample = || per_call_s(|| sweep_setup(std::hint::black_box(opts.seed), jobs));
    let mut setup = Vec::new();
    let mut speed = HostSpeed::default();
    let mut out = Outcome::default();
    let (sweep_options, selected) = sweep_setup(opts.seed, jobs);
    let mut host = Vec::new();
    let mut first = None;
    let mut peak = 0.0;
    let mut sweeps = 0;
    let start = Instant::now();
    while sweeps < MIN_SWEEPS || start.elapsed() < opts.budget() {
        let (build_s, factor) = speed.around(1, setup_sample);
        setup.push(build_s * factor);
        let result = sweep(&sweep_options, &selected, Some(&mut speed));
        if let Ok(s) = &result {
            host.push(s.scaled_s);
        }
        out.attempt(sweep_problem(result, &mut first));
        sweeps += 1;
        if sweeps == 1 {
            // After the first sweep: the memory the allocator's
            // per-thread arenas keep grows by a tenth with each sweep,
            // so a later reading would depend on how many sweeps the
            // host's speed fits in.
            peak = peak_rss_mb().unwrap_or(0.0);
        }
    }
    while setup.len() < SETUP_REPS {
        let (build_s, factor) = speed.around(1, setup_sample);
        setup.push(build_s * factor);
    }
    let digest = crate::stats::fnv1a(crate::stats::FNV_OFFSET, first.as_deref().unwrap_or(&[]));
    check_pinned(&mut out, opts, digest);
    eprintln!(
        "paper_quick seed {}: output digest {digest:016x}",
        opts.seed
    );
    // `--quick` fixes every experiment's horizon, so the sweep's
    // horizon exponent is taken on its collapse probe: the
    // eager_collapse engine at the probe horizon and half of it.
    let probe = horizon_pairs(
        Workload::PaperQuick,
        opts.seed,
        Duration::ZERO,
        false,
        &mut out,
    );
    report_speed(&speed);
    out.metrics = vec![
        Metric::median("host_s", &host, "s"),
        Metric::median("setup_s", &setup, "s"),
        Metric::new("peak_rss_mb", peak, "MB"),
        probe.horizon_exponent(),
    ];
    out
}

/// Why a sweep failed, if it did: a harness error, a violation in a
/// table, or bytes that differ from the first sweep's.
fn sweep_problem(result: Result<Sweep, String>, first: &mut Option<Vec<u8>>) -> Option<String> {
    let s = match result {
        Ok(s) => s,
        Err(e) => return Some(format!("harness error: {e}")),
    };
    if s.violations > 0 {
        return Some(format!(
            "{} violation(s) in the sweep's tables",
            s.violations
        ));
    }
    match first {
        None => {
            *first = Some(s.bytes);
            None
        }
        Some(f) if *f == s.bytes => None,
        Some(_) => Some("sweep output differs from the first sweep".to_owned()),
    }
}

/// A counting tracer and an enabled profiler, shared with the caller.
fn traced_instruments(record: bool) -> (Instruments, Rc<RefCell<CountingTracer>>) {
    let sink = Rc::new(RefCell::new(CountingTracer::default()));
    let inst = Instruments {
        tracer: TraceHandle::shared(&sink),
        profiler: Profiler::enabled(),
        record,
    };
    (inst, sink)
}

/// Phase metrics from a profiler that observed `runs` runs (per-run
/// means).
fn phase_metrics(profiler: &Profiler, runs: u64) -> Vec<Metric> {
    let stats = profiler.stats();
    let mut metrics = Vec::new();
    for phase in crate::PHASES {
        let stat = stats.iter().find(|(p, _)| p == phase).map(|(_, s)| *s);
        let (secs, calls) = stat.map_or((0.0, 0), |s| (s.total.as_secs_f64(), s.calls));
        let runs = runs.max(1);
        metrics.push(Metric::new(phase_secs_name(phase), secs / runs as f64, "s"));
        metrics.push(Metric::new(
            phase_calls_name(phase),
            calls as f64 / runs as f64,
            "count",
        ));
    }
    metrics
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Simulated statistics: from the traced event counts, and from the
/// report's measured window where only the report has them.
fn simulated_metrics(c: &Counts, backlog_half: u64, report: Option<&Report>) -> Vec<Metric> {
    let quantile = |name: &str, q: f64| {
        report
            .and_then(|r| r.dists.histogram(name))
            .filter(|h| h.count() > 0)
            .map_or(0.0, |h| h.quantile_secs(q))
    };
    vec![
        Metric::new("net.msgs_sent", c.msgs_sent() as f64, "count"),
        Metric::new("net.msgs_delivered", c.msgs_delivered as f64, "count"),
        Metric::new("net.msgs_dropped", c.msgs_dropped as f64, "count"),
        Metric::new("core.replica.sends", c.replica_sends as f64, "count"),
        Metric::new("core.replica.applies", c.replica_applies as f64, "count"),
        Metric::new("core.replica.stale_skips", c.stale_skips as f64, "count"),
        Metric::new("core.replica.dangerous", c.dangerous as f64, "count"),
        Metric::new("core.txn.begun", c.begun as f64, "count"),
        Metric::new("core.txn.committed", c.committed as f64, "count"),
        Metric::new("core.txn.aborted", c.aborted as f64, "count"),
        Metric::new("core.txn.backlog", c.backlog as f64, "count"),
        Metric::new("core.txn.backlog_half_h", backlog_half as f64, "count"),
        Metric::new("core.commit_ratio", ratio(c.committed, c.begun), "1"),
        Metric::new("storage.lock.waits", c.lock_waits as f64, "count"),
        Metric::new("storage.lock.deadlocks", c.deadlocks as f64, "count"),
        Metric::new(
            "storage.lock.cycle_len_mean",
            ratio(c.cycle_len_sum, c.deadlocks),
            "count",
        ),
        Metric::new("storage.lock.timeouts", c.lock_timeouts as f64, "count"),
        Metric::new(
            "storage.lock.cycle_checks",
            report.map_or(0.0, |r| r.cycle_checks as f64),
            "count",
        ),
        Metric::new("core.reconciles", c.reconciles as f64, "count"),
        Metric::new(
            "core.tentative.commits",
            c.tentative_commits as f64,
            "count",
        ),
        Metric::new(
            "core.tentative.accepted",
            c.tentative_accepted as f64,
            "count",
        ),
        Metric::new(
            "core.tentative.rejected",
            c.tentative_rejected as f64,
            "count",
        ),
        Metric::new(
            "core.tentative.accept_ratio",
            ratio(
                c.tentative_accepted,
                c.tentative_accepted + c.tentative_rejected,
            ),
            "1",
        ),
        Metric::new(
            "core.latency_p50_sim_s",
            report.map_or(0.0, |r| r.p50_latency_secs),
            "s",
        ),
        Metric::new(
            "core.latency_p99_sim_s",
            report.map_or(0.0, |r| r.p99_latency_secs),
            "s",
        ),
        Metric::new(
            "storage.lock.wait_p99_sim_s",
            quantile(M_LOCK_WAIT, 0.99),
            "s",
        ),
        Metric::new("core.lag_p95_sim_s", quantile(M_PROPAGATION_LAG, 0.95), "s"),
    ]
}

/// The driver shape of `w`, sized from its traced run's counts: the
/// largest backlog of one run and the largest disconnect window of any
/// node in any run.
fn shape(w: Workload, counts: &Counts, fifo_share: f64) -> Shape {
    let cfg = w.config(0, w.horizon());
    let nodes = cfg.nodes;
    Shape {
        db_size: cfg.db_size,
        nodes,
        actions: cfg.actions,
        shards: if cfg.shard_map().is_some() {
            cfg.shards
        } else {
            0
        },
        rf: cfg.rf,
        action_time: cfg.action_time,
        interarrival_s: cfg.mean_interarrival_secs(),
        backlog: counts.max_run_backlog,
        parked: counts.max_parked,
        fifo_share,
    }
}

/// Share of profiled engine events that were fixed-delay steps.
fn fifo_share(profiler: &Profiler) -> f64 {
    let stats = profiler.stats();
    let calls = |f: &dyn Fn(&str) -> bool| -> u64 {
        stats
            .iter()
            .filter(|(p, _)| f(p))
            .map(|(_, s)| s.calls)
            .sum()
    };
    let steps = calls(&|p| p.ends_with("step"));
    ratio(steps, calls(&|_| true))
}

fn engine_traced(opts: &Options) -> Outcome {
    let w = opts.workload;
    let h = w.horizon();
    let seed = sim_seed(opts.seed, 0);
    let mut out = Outcome::default();
    let mut log = SpanLog::default();
    let root = log.open(&format!("perfbench.{}", w.name()), None);

    // Alternate untraced and traced runs of one input: the traced
    // report must equal the untraced one, and the traced counts must
    // repeat exactly from run to run.
    let untraced = Instruments::untraced(w);
    let (traced, sink) = traced_instruments(w.records());
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut first_counts: Option<Counts> = None;
    let mut last: Option<(EngineRun, Counts)> = None;
    let mut verify_s = Vec::new();
    let start = Instant::now();
    while traced_s.len() < 2 || start.elapsed() < opts.budget() {
        let (_, plain) = log.span("core.run", Some(root), || run_engine(w, seed, h, &untraced));
        *sink.borrow_mut() = CountingTracer::default();
        let (_, run) = log.span("core.run.traced", Some(root), || {
            run_engine(w, seed, h, &traced)
        });
        let counts = sink.borrow().counts();
        let mut problem = run.problem().or_else(|| plain.problem());
        if problem.is_none() && run.report != plain.report {
            problem = Some("traced report differs from the untraced one".to_owned());
        }
        if problem.is_none() {
            problem = same_counts(&mut first_counts, &counts);
        }
        out.attempt(problem);
        untraced_s.push(plain.host_s());
        traced_s.push(run.host_s());
        if plain.check.is_some() {
            verify_s.push(plain.verify_s);
        }
        last = Some((run, counts));
    }
    let (run, counts) = last.expect("at least one traced run");
    let phases = phase_metrics(&traced.profiler, traced_s.len() as u64);
    let share = fifo_share(&traced.profiler);

    // The backlog at H/2, to show whether it grows with the horizon.
    let (half_inst, half_sink) = traced_instruments(w.records());
    let (_, half) = log.span("core.run.half_h", Some(root), || {
        run_engine(w, seed, h / 2, &half_inst)
    });
    out.attempt(half.problem());
    let backlog_half = half_sink.borrow().counts().backlog;

    // The oracle layer, where the workload records: the same input with
    // the recorder off gives the recorder's share of host_s.
    let untraced_median = median(&untraced_s);
    let (record_overhead, records) = if w.records() {
        let bare = Instruments::default();
        let (_, unrecorded) = log.span("core.run.unrecorded", Some(root), || {
            run_engine(w, seed, h, &bare)
        });
        out.attempt(unrecorded.problem());
        (untraced_median / unrecorded.host_s() - 1.0, run.records)
    } else {
        (0.0, 0)
    };

    let shape = shape(w, &counts, share);
    let driver_metrics = drivers::run_all(&shape, opts.seed, &mut log, root);

    let mut metrics = driver_metrics;
    metrics.extend(simulated_metrics(&counts, backlog_half, Some(&run.report)));
    metrics.push(Metric::new("check.verify_s", median(&verify_s), "s"));
    metrics.push(Metric::new(
        "check.record_overhead_frac",
        record_overhead,
        "1",
    ));
    metrics.push(Metric::new("check.records", records as f64, "count"));
    metrics.push(Metric::new(
        "telemetry.trace_overhead_frac",
        median(&traced_s) / untraced_median - 1.0,
        "1",
    ));
    metrics.extend(phases);
    log.close(root);
    finish_traced(opts, out, metrics, &log)
}

fn same_counts(first: &mut Option<Counts>, counts: &Counts) -> Option<String> {
    match first {
        None => {
            *first = Some(counts.clone());
            None
        }
        Some(f) if f == counts => None,
        Some(_) => Some("traced counts differ between two runs of one input".to_owned()),
    }
}

fn sweep_traced(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let mut log = SpanLog::default();
    let root = log.open("perfbench.paper_quick", None);

    // Untraced sweeps give the per-experiment times; one span per
    // experiment, under a span per sweep.
    let (plain_opts, selected) = sweep_setup(opts.seed, sweep_jobs());
    let mut first = None;
    let mut untraced_s = Vec::new();
    let mut per_experiment: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let start = Instant::now();
    while untraced_s.is_empty() || start.elapsed() < opts.budget() / 2 {
        let sweep_span = log.open("harness.sweep", Some(root));
        let t = Instant::now();
        let result = sweep(&plain_opts, &selected, None);
        untraced_s.push(t.elapsed().as_secs_f64());
        log.close(sweep_span);
        if let Ok(s) = &result {
            for &(name, begin, end) in &s.experiments {
                log.record(&format!("harness.exp.{name}"), Some(sweep_span), begin, end);
                let secs = end.duration_since(begin).as_secs_f64();
                match per_experiment.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, v)) => v.push(secs),
                    None => per_experiment.push((name, vec![secs])),
                }
            }
        }
        out.attempt(sweep_problem(result, &mut first));
    }

    // One traced sweep: a counting tracer and the profiler attached to
    // every engine run (the harness then runs points serially).
    let sink = Rc::new(RefCell::new(CountingTracer::default()));
    let mut traced_opts = sweep_opts(opts.seed, plain_opts.jobs);
    traced_opts.tracer = TraceHandle::shared(&sink);
    traced_opts.profiler = Profiler::enabled();
    let (traced_s, result) = log.span("harness.sweep.traced", Some(root), || {
        sweep(&traced_opts, &selected, None)
    });
    out.attempt(sweep_problem(result, &mut first));
    let counts = sink.borrow().counts();
    let runs = counts.runs;

    let share = fifo_share(&traced_opts.profiler);
    let shape = shape(Workload::PaperQuick, &counts, share);
    let driver_metrics = drivers::run_all(&shape, opts.seed, &mut log, root);

    let mut metrics = driver_metrics;
    metrics.extend(simulated_metrics(&counts, 0, None));
    metrics.push(Metric::new(
        "telemetry.trace_overhead_frac",
        traced_s / median(&untraced_s) - 1.0,
        "1",
    ));
    metrics.extend(phase_metrics(&traced_opts.profiler, runs));
    for e in repl_harness::experiments::ALL {
        let secs = per_experiment
            .iter()
            .find(|(n, _)| *n == e.name)
            .map_or(0.0, |(_, v)| median(v));
        metrics.push(Metric::new(experiment_name(e.name), secs, "s"));
    }
    log.close(root);
    finish_traced(opts, out, metrics, &log)
}

/// Order the traced metrics as [`per_layer_names`] lists them, with 0
/// for each metric the workload does not exercise, and write the trace
/// file.
fn finish_traced(opts: &Options, mut out: Outcome, metrics: Vec<Metric>, log: &SpanLog) -> Outcome {
    let ordered: Vec<Metric> = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect();
    if let Some(path) = &opts.trace_file {
        if let Err(e) = log.write(path, &ordered) {
            out.attempt(Some(format!("cannot write {}: {e}", path.display())));
        }
    }
    out.metrics = ordered;
    out
}
