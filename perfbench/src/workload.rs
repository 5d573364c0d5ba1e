//! The four workloads, how each is built from the public engine and
//! harness APIs, and the digests that pin their outputs.

use crate::calib::HostSpeed;
use crate::stats::{fnv1a, FNV_OFFSET};
use repl_check::{CheckReport, Recorder, Scheme};
use repl_core::{
    EagerSim, LazyGroupSim, Mobility, Ownership, ReplicaDiscipline, Report, SimConfig,
    TwoTierConfig, TwoTierSim, TwoTierWorkload,
};
use repl_harness::experiments::{self, Experiment};
use repl_harness::RunOpts;
use repl_model::Params;
use repl_sim::SimDuration;
use repl_telemetry::{Profiler, TraceHandle};
use std::fmt::Write as _;
use std::time::Instant;

/// A named benchmark workload. Each is a batch job; the engine
/// workloads drive open-loop Poisson arrivals at `TPS` per node in
/// simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eager-group, serial replicas, deadlock detection, N=8, DB=300,
    /// TPS=12, Actions=4: the paper's collapse regime.
    EagerCollapse,
    /// Lazy-group at N=128 with 128 shards, rf=3 and 10% cross-shard
    /// transactions, DB=500·N, TPS=10, Actions=4.
    LazySharded,
    /// Two-tier with 2 base and 32 mobile nodes, DB=2000, TPS=10,
    /// Actions=4, connected 10 s / disconnected 30 s, commutative
    /// transactions, with a correctness recorder attached.
    TwoTierMobile,
    /// The `harness --quick --json all` sweep, in process.
    PaperQuick,
}

/// Simulation seeds reserved per benchmark seed: benchmark seed `s`
/// owns simulation seeds `s·16 … s·16+15`.
const SEED_STRIDE: u64 = 16;

/// The simulation seed of sub-run `k` of benchmark seed `seed`.
pub fn sim_seed(seed: u64, k: u64) -> u64 {
    debug_assert!(k < SEED_STRIDE);
    seed.wrapping_mul(SEED_STRIDE).wrapping_add(k)
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::EagerCollapse,
        Workload::LazySharded,
        Workload::TwoTierMobile,
        Workload::PaperQuick,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EagerCollapse => "eager_collapse",
            Workload::LazySharded => "lazy_sharded",
            Workload::TwoTierMobile => "two_tier_mobile",
            Workload::PaperQuick => "paper_quick",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The run length `H` in simulated seconds. `paper_quick` has no
    /// horizon of its own (`--quick` fixes each experiment's); its
    /// value is the horizon of the collapse probe that gives the sweep
    /// its `horizon_exponent`.
    pub fn horizon(self) -> u64 {
        match self {
            Workload::EagerCollapse => 60,
            Workload::LazySharded => 60,
            Workload::TwoTierMobile => 200,
            Workload::PaperQuick => 60,
        }
    }

    /// Simulation seeds one benchmark run cycles through: run `i` of a
    /// timing loop uses [`sim_seed`]`(seed, i % subseeds)`, so one run's
    /// figures average over several random inputs instead of riding on
    /// one. The collapse runs get four times as many: how hard a run
    /// collapses varies widely from input to input (the host time of
    /// single `eager_collapse` runs spreads by a quarter of its median),
    /// while the larger engine workloads average over many nodes within
    /// each run.
    pub fn subseeds(self) -> u64 {
        match self {
            Workload::EagerCollapse | Workload::PaperQuick => 16,
            Workload::LazySharded | Workload::TwoTierMobile => 4,
        }
    }

    /// Whether the workload's own definition attaches a correctness
    /// recorder to every run.
    pub fn records(self) -> bool {
        self == Workload::TwoTierMobile
    }

    /// The model parameters of the workload's engine runs.
    pub fn params(self) -> Params {
        match self {
            Workload::EagerCollapse | Workload::PaperQuick => {
                Params::new(300.0, 8.0, 12.0, 4.0, 0.01)
            }
            Workload::LazySharded => Params::new(500.0 * 128.0, 128.0, 10.0, 4.0, 0.01),
            Workload::TwoTierMobile => Params::new(2_000.0, 34.0, 10.0, 4.0, 0.01),
        }
    }

    /// The simulation config of one engine run at `seed` over
    /// `horizon` simulated seconds.
    pub fn config(self, seed: u64, horizon: u64) -> SimConfig {
        let cfg = SimConfig::from_params(&self.params(), horizon, seed).with_warmup(5);
        match self {
            Workload::LazySharded => cfg.with_shards(128, 3).with_cross_shard(0.10),
            _ => cfg,
        }
    }
}

/// What the benchmark attaches to an engine run.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// Event sink (off for timed runs).
    pub tracer: TraceHandle,
    /// Phase profiler (off for timed runs).
    pub profiler: Profiler,
    /// Attach a correctness recorder and check it after the run.
    pub record: bool,
}

impl Instruments {
    /// The instruments of an untraced, timed run of `w`.
    pub fn untraced(w: Workload) -> Self {
        Instruments {
            record: w.records(),
            ..Instruments::default()
        }
    }
}

/// A constructed engine run, ready to [`Sim::run`]. Built and consumed
/// one at a time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Sim {
    /// Eager-group run (contention engine).
    Eager(EagerSim),
    /// Lazy-group run.
    Lazy(LazyGroupSim),
    /// Two-tier run.
    TwoTier(TwoTierSim),
}

impl Sim {
    /// Build `w`'s engine at `seed` over `horizon` simulated seconds,
    /// with `inst` attached; returns the recorder the engine feeds.
    pub fn build(w: Workload, seed: u64, horizon: u64, inst: &Instruments) -> (Sim, Recorder) {
        let scheme = match w {
            Workload::LazySharded => Scheme::LazyGroup,
            Workload::TwoTierMobile => Scheme::TwoTier,
            Workload::EagerCollapse | Workload::PaperQuick => Scheme::Eager,
        };
        let recorder = if inst.record {
            Recorder::new(scheme)
        } else {
            Recorder::off()
        };
        let cfg = w.config(seed, horizon);
        let (tracer, profiler, rec) =
            (inst.tracer.clone(), inst.profiler.clone(), recorder.clone());
        let sim = match w {
            Workload::EagerCollapse | Workload::PaperQuick => Sim::Eager(
                EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group)
                    .with_tracer(tracer)
                    .with_profiler(profiler)
                    .with_recorder(rec),
            ),
            Workload::LazySharded => Sim::Lazy(
                LazyGroupSim::new(cfg, Mobility::Connected)
                    .with_tracer(tracer)
                    .with_profiler(profiler)
                    .with_recorder(rec),
            ),
            Workload::TwoTierMobile => Sim::TwoTier(
                TwoTierSim::new(TwoTierConfig {
                    sim: cfg,
                    base_nodes: 2,
                    mobile_owned: 0,
                    connected: SimDuration::from_secs(10),
                    disconnected: SimDuration::from_secs(30),
                    workload: TwoTierWorkload::Commutative { max_amount: 10 },
                    initial_value: 1_000_000,
                })
                .with_tracer(tracer)
                .with_profiler(profiler)
                .with_recorder(rec),
            ),
        };
        (sim, recorder)
    }

    /// Run to the horizon.
    pub fn run(self) -> Report {
        match self {
            Sim::Eager(s) => s.run(),
            Sim::Lazy(s) => s.run(),
            Sim::TwoTier(s) => s.run(),
        }
    }
}

/// One finished engine run and where its host time went.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The engine's report.
    pub report: Report,
    /// The oracle verdict, when a recorder was attached.
    pub check: Option<CheckReport>,
    /// Origin commits the recorder captured.
    pub records: usize,
    /// Host seconds spent in `run`.
    pub run_s: f64,
    /// Host seconds spent in `Recorder::check`.
    pub verify_s: f64,
}

impl EngineRun {
    /// Host wall-clock of the run as a user pays it: the simulation plus
    /// the oracle check the workload asks for (construction excluded;
    /// it is `setup_s`).
    pub fn host_s(&self) -> f64 {
        self.run_s + self.verify_s
    }

    /// The digest of this run's deterministic outputs.
    pub fn digest(&self) -> u64 {
        report_digest(&self.report, self.check.as_ref())
    }

    /// Why this run's outputs are wrong, if they are: an oracle
    /// violation or a report that cannot come from a live run.
    pub fn problem(&self) -> Option<String> {
        if let Some(c) = &self.check {
            if !c.is_clean() {
                return Some(format!("oracle: {}", c.summary()));
            }
        }
        let r = &self.report;
        if r.committed == 0 || r.duration_secs.is_nan() || r.duration_secs <= 0.0 {
            return Some(format!(
                "empty report: {} commits over {} s",
                r.committed, r.duration_secs
            ));
        }
        None
    }
}

/// Build and run `w` once, timing the run and the oracle check
/// separately.
pub fn run_engine(w: Workload, seed: u64, horizon: u64, inst: &Instruments) -> EngineRun {
    let (sim, recorder) = Sim::build(w, seed, horizon, inst);
    let t1 = Instant::now();
    let report = std::hint::black_box(sim.run());
    let run_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let check = recorder.is_on().then(|| recorder.check());
    let verify_s = t2.elapsed().as_secs_f64();
    EngineRun {
        report,
        check,
        records: recorder.commits(),
        run_s,
        verify_s,
    }
}

/// Digest of a report's deterministic fields plus the oracle verdict.
/// Fields are named explicitly, so a field added to `Report` later does
/// not move the digest; a changed value of any listed field does.
pub fn report_digest(r: &Report, check: Option<&CheckReport>) -> u64 {
    let mut s = String::new();
    let counts = [
        ("committed", r.committed),
        ("deadlocks", r.deadlocks),
        ("waits", r.waits),
        ("reconciliations", r.reconciliations),
        ("replica_commits", r.replica_commits),
        ("stale_updates", r.stale_updates),
        ("messages", r.messages),
        ("tentative_commits", r.tentative_commits),
        ("tentative_accepted", r.tentative_accepted),
        ("tentative_rejected", r.tentative_rejected),
        ("actions", r.actions),
        ("messages_dropped", r.messages_dropped),
        ("messages_duplicated", r.messages_duplicated),
        ("lock_timeouts", r.lock_timeouts),
        ("node_crashes", r.node_crashes),
        ("cycle_checks", r.cycle_checks),
    ];
    for (name, v) in counts {
        let _ = write!(s, "{name}={v};");
    }
    let rates = [
        ("duration_secs", r.duration_secs),
        ("commit_rate", r.commit_rate),
        ("deadlock_rate", r.deadlock_rate),
        ("wait_rate", r.wait_rate),
        ("reconciliation_rate", r.reconciliation_rate),
        ("action_rate", r.action_rate),
        ("mean_latency_secs", r.mean_latency_secs),
        ("p50_latency_secs", r.p50_latency_secs),
        ("p95_latency_secs", r.p95_latency_secs),
        ("p99_latency_secs", r.p99_latency_secs),
        ("max_latency_secs", r.max_latency_secs),
        ("mean_wait_secs", r.mean_wait_secs),
    ];
    for (name, v) in rates {
        let _ = write!(s, "{name}={v:?};");
    }
    let dists = serde_json::to_string(&r.dists).expect("RunMetrics serializes");
    let _ = write!(s, "dists={dists};");
    if let Some(c) = check {
        let _ = write!(
            s,
            "oracle={}:{}:{}",
            c.violations.len(),
            c.commits,
            c.history_dropped
        );
    }
    fnv1a(FNV_OFFSET, s.as_bytes())
}

/// Pinned output digests: `(workload, benchmark seed, digest)`. Seed 1
/// is the default; seed 2 was held out while the benchmark was
/// written. An engine workload's digest covers its sub-seeds' runs
/// at `H` ([`combine_digests`]); `paper_quick`'s covers the bytes of
/// the sweep's JSON tables.
pub const PINNED: &[(&str, u64, u64)] = &[
    ("eager_collapse", 1, 0x41c6_12f9_27cd_1fe3),
    ("eager_collapse", 2, 0x48b7_70dd_3729_ae24),
    ("lazy_sharded", 1, 0x988b_10ec_c081_f842),
    ("lazy_sharded", 2, 0x52c8_f9c0_a0b5_c85a),
    ("two_tier_mobile", 1, 0x1bf4_f8f0_b888_f3e5),
    ("two_tier_mobile", 2, 0x916f_42aa_23c5_cba3),
    ("paper_quick", 1, 0x5111_f78b_b4f4_5108),
    ("paper_quick", 2, 0xb0b2_9c76_b4d8_48db),
];

/// The pinned digest of `w` at `seed`, if one is pinned.
pub fn pinned(w: Workload, seed: u64) -> Option<u64> {
    PINNED
        .iter()
        .find(|&&(name, s, _)| name == w.name() && s == seed)
        .map(|&(_, _, d)| d)
}

/// Why `digest` is wrong for `w` at `seed`: `Some` when a digest is
/// pinned for them and `digest` differs from it.
pub fn pinned_mismatch(w: Workload, seed: u64, digest: u64) -> Option<String> {
    let want = pinned(w, seed)?;
    (want != digest).then(|| {
        format!(
            "{} seed {seed}: output digest {digest:016x}, pinned {want:016x}",
            w.name()
        )
    })
}

/// One digest over an ordered list of digests.
pub fn combine_digests(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

/// Worker threads of the in-process sweep: `min(2, nproc)`.
pub fn sweep_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The options of `paper_quick` at benchmark seed `seed` on `jobs`
/// worker threads: the `--quick` sweep at harness seed `SEED + seed`,
/// so its outputs are those of
/// `harness --quick --json --seed <SEED + seed> all`.
pub fn sweep_opts(seed: u64, jobs: usize) -> RunOpts {
    RunOpts {
        quick: true,
        seed: repl_workload::presets::SEED.wrapping_add(seed),
        jobs,
        ..RunOpts::default()
    }
}

/// One finished sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The JSON tables, exactly as `harness --json` prints them.
    pub bytes: Vec<u8>,
    /// Oracle and claim violations the tables carry.
    pub violations: usize,
    /// When each experiment started and ended, in registry order.
    pub experiments: Vec<(&'static str, Instant, Instant)>,
    /// Host seconds of the experiments, each scaled to the reference
    /// speed by the kernel runs around it when the sweep was given a
    /// [`HostSpeed`]; unscaled otherwise.
    pub scaled_s: f64,
}

/// What `harness --quick --json all` does before its first experiment:
/// build the run options for benchmark seed `seed` on `jobs` worker
/// threads ([`sweep_opts`]) and select the experiments. This is
/// `paper_quick`'s `setup_s`; it takes well under a microsecond.
pub fn sweep_setup(seed: u64, jobs: usize) -> (RunOpts, Vec<&'static Experiment>) {
    (sweep_opts(seed, jobs), experiments::ALL.iter().collect())
}

/// Run `selected` with `opts`, as `harness --json` would. With
/// `speed`, each experiment runs between two reference-kernel samples.
pub fn sweep(
    opts: &RunOpts,
    selected: &[&'static Experiment],
    mut speed: Option<&mut HostSpeed>,
) -> Result<Sweep, String> {
    let mut out = Sweep {
        bytes: Vec::new(),
        violations: 0,
        experiments: Vec::new(),
        scaled_s: 0.0,
    };
    for e in selected {
        let timed = || {
            let start = Instant::now();
            let table = std::hint::black_box((e.run)(opts));
            (table, start, Instant::now())
        };
        let ((table, start, end), factor) = match speed.as_deref_mut() {
            Some(speed) => speed.around(1, timed),
            None => (timed(), 1.0),
        };
        out.experiments.push((e.name, start, end));
        out.scaled_s += end.duration_since(start).as_secs_f64() * factor;
        out.violations += table.violations.len();
        let json = serde_json::to_string_pretty(&table)
            .map_err(|err| format!("cannot serialize table {}: {err}", table.id))?;
        out.bytes.extend_from_slice(json.as_bytes());
        out.bytes.push(b'\n');
    }
    Ok(out)
}
