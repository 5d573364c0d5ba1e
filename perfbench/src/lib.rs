//! # perfbench — the repository benchmark
//!
//! One command times the replication simulator end to end on four
//! named workloads and, in a separate traced run, layer by layer. It
//! calls only the public APIs of the `repl-*` crates; every span and
//! count comes from this package's own files (a counting
//! [`repl_telemetry::Tracer`], the engines' existing
//! [`repl_telemetry::Profiler`] phases, their [`repl_core::Report`]s,
//! and timers around the benchmark's calls into each layer).
//!
//! Host time and simulated time are kept apart in metric names: `_s`
//! and `_ns` are host time, `_sim_s` is simulated time. Layers are
//! named after the crates: `sim`, `storage`, `net`, `core`, `check`,
//! `telemetry`, `harness`.
//!
//! See `README.md` next to this crate for why each workload exists and
//! which end-to-end metric each layer metric should move.

pub mod calib;
pub mod drivers;
pub mod probe;
pub mod runner;
pub mod stats;
pub mod workload;

pub use runner::{run, Options};
pub use workload::Workload;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ns`, `MB`, `count`, …).
    pub unit: &'static str,
    /// How many samples `value` is computed from (1 for a single
    /// reading).
    pub samples: usize,
}

impl Metric {
    /// A single reading with the given name, value and unit.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: 1,
        }
    }

    /// The median of `samples`.
    pub fn median(name: impl Into<String>, samples: &[f64], unit: &'static str) -> Self {
        Metric {
            samples: samples.len(),
            ..Metric::new(name, stats::median(samples), unit)
        }
    }
}

/// The end-to-end metrics every workload reports with tracing off:
/// `(name, unit, bound)`. The bound is the share of the parent's median
/// by which the metric may worsen before a change counts as a
/// regression; it is mirrored in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("host_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.25),
    ("horizon_exponent", "1", 0.25),
];

/// The engine phases the traced run reports (`Profiler` phase names;
/// `/` becomes `.` in metric names).
pub const PHASES: &[&str] = &[
    "contention/arrive",
    "contention/step",
    "lazy-group/arrive",
    "lazy-group/root-step",
    "lazy-group/replica-step",
    "lazy-group/deliver",
    "lazy-group/forward-root",
    "two-tier/arrive",
    "two-tier/base-step",
    "two-tier/deliver",
    "two-tier/connectivity",
];

/// Per-layer metrics with a fixed name: `(name, unit)`. The traced run
/// of every workload reports each of these, plus one
/// `core.phase.<phase>.{s,calls}` pair per [`PHASES`] entry and one
/// `harness.exp.<name>.s` per registered experiment (see
/// [`per_layer_names`]). A metric a workload does not exercise reads 0.
pub const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("sim.queue.op_ns", "ns"),
    ("storage.lock.acquire_ns", "ns"),
    ("storage.lock.deadlock_acquire_ns", "ns"),
    ("storage.store.apply_ns", "ns"),
    ("storage.shard.filter_ns", "ns"),
    ("storage.shard.fanout_groups", "count"),
    ("net.send_ns", "ns"),
    ("net.reconnect_drain_ns", "ns"),
    ("net.msgs_sent", "count"),
    ("net.msgs_delivered", "count"),
    ("net.msgs_dropped", "count"),
    ("core.replica.sends", "count"),
    ("core.replica.applies", "count"),
    ("core.replica.stale_skips", "count"),
    ("core.replica.dangerous", "count"),
    ("check.verify_s", "s"),
    ("check.record_overhead_frac", "1"),
    ("check.records", "count"),
    ("telemetry.trace_overhead_frac", "1"),
    ("core.txn.begun", "count"),
    ("core.txn.committed", "count"),
    ("core.txn.aborted", "count"),
    ("core.txn.backlog", "count"),
    ("core.txn.backlog_half_h", "count"),
    ("core.commit_ratio", "1"),
    ("storage.lock.waits", "count"),
    ("storage.lock.deadlocks", "count"),
    ("storage.lock.cycle_len_mean", "count"),
    ("storage.lock.timeouts", "count"),
    ("storage.lock.cycle_checks", "count"),
    ("core.reconciles", "count"),
    ("core.tentative.commits", "count"),
    ("core.tentative.accepted", "count"),
    ("core.tentative.rejected", "count"),
    ("core.tentative.accept_ratio", "1"),
    ("core.latency_p50_sim_s", "s"),
    ("core.latency_p99_sim_s", "s"),
    ("storage.lock.wait_p99_sim_s", "s"),
    ("core.lag_p95_sim_s", "s"),
];

/// The metric name of a profiler phase's total time.
pub fn phase_secs_name(phase: &str) -> String {
    format!("core.phase.{}.s", phase.replace('/', "."))
}

/// The metric name of a profiler phase's entry count.
pub fn phase_calls_name(phase: &str) -> String {
    format!("core.phase.{}.calls", phase.replace('/', "."))
}

/// The metric name of one experiment's host time in `paper_quick`.
pub fn experiment_name(experiment: &str) -> String {
    format!("harness.exp.{experiment}.s")
}

/// Every per-layer metric, in report order: `(name, unit)`.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .collect();
    for phase in PHASES {
        names.push((phase_secs_name(phase), "s"));
        names.push((phase_calls_name(phase), "count"));
    }
    for e in repl_harness::experiments::ALL {
        names.push((experiment_name(e.name), "s"));
    }
    names
}

/// What one benchmark invocation found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulation runs (or sweeps) attempted.
    pub attempted: u64,
    /// Attempted runs that failed a correctness check.
    pub failed: u64,
    /// One line per failed check, for the human-readable log.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Count one attempted run; `problem` is `Some` when it failed.
    pub fn attempt(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(p);
        }
    }

    /// True when every attempted run passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → `{value, unit}`).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit (`{:?}` round-trips f64);
/// non-finite values, which JSON cannot carry, become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
