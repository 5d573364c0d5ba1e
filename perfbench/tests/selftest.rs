//! Self-tests of the benchmark itself: metric names, metric coverage,
//! repeatable traced counts, the counting sink's bookkeeping, and the
//! digest check's teeth. They run the real workloads with a zero time
//! budget (one cycle of sub-seeds, the fewest sweeps), so every run is
//! also checked against its pinned digest; run them with `--release`.

use perfbench::probe::{CountingTracer, Counts};
use perfbench::workload::{
    combine_digests, pinned_mismatch, report_digest, run_engine, sim_seed, Instruments, PINNED,
};
use perfbench::{per_layer_names, run, Options, Workload, END_TO_END};
use repl_core::{LazyGroupSim, Mobility, SimConfig, TwoTierConfig, TwoTierSim, TwoTierWorkload};
use repl_model::Params;
use repl_sim::SimDuration;
use repl_telemetry::{Profiler, TraceHandle};
use std::cell::RefCell;
use std::rc::Rc;

/// The command's run of `w` at the default seed with no time budget.
fn once(w: Workload, trace: bool) -> Options {
    Options::new(w, 1, 0.0, trace)
}

/// A counting sink and the instruments that feed it.
fn counting(record: bool) -> (Instruments, Rc<RefCell<CountingTracer>>) {
    let sink = Rc::new(RefCell::new(CountingTracer::default()));
    let inst = Instruments {
        tracer: TraceHandle::shared(&sink),
        profiler: Profiler::enabled(),
        record,
    };
    (inst, sink)
}

/// Every user transaction that began is committed, ended without
/// committing, or still open.
fn assert_balanced(what: &str, c: &Counts) {
    assert!(c.begun > 0 && c.committed > 0, "{what}: {c:?}");
    assert_eq!(
        c.begun,
        c.committed + c.aborted + c.backlog,
        "{what}: {c:?}"
    );
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn all_names() -> Vec<String> {
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _, _)| (*n).to_owned()).collect();
    names.extend(per_layer_names().into_iter().map(|(n, _)| n));
    names.extend(Workload::ALL.iter().map(|w| w.name().to_owned()));
    names
}

#[test]
fn every_metric_name_is_well_formed_and_unique() {
    let names = all_names();
    for n in &names {
        assert!(well_formed(n), "bad metric or workload name `{n}`");
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate names");
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = all_names();
    for n in &names {
        let entry = format!("\"name\": \"{n}\"");
        assert_eq!(text.matches(&entry).count(), 1, "{n} listed once");
    }
    assert_eq!(
        text.matches("\"name\":").count(),
        names.len(),
        "no extra entries"
    );
    for (name, unit, bound) in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}"
        );
        assert!(text.contains(&entry), "end-to-end entry {entry}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = run(&once(w, false));
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        let got: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(got, want, "{}", w.name());
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
        let json = out.to_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    for w in Workload::ALL {
        let out = run(&once(w, true));
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        let got: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        let want: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(got, want, "{}", w.name());
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    for w in [
        Workload::EagerCollapse,
        Workload::LazySharded,
        Workload::TwoTierMobile,
    ] {
        let counts = || {
            let (inst, sink) = counting(w.records());
            let run = run_engine(w, sim_seed(1, 0), w.horizon(), &inst);
            let counts = sink.borrow().counts();
            (run.report, counts)
        };
        let (report_a, a) = counts();
        let (report_b, b) = counts();
        assert_balanced(w.name(), &a);
        assert_eq!(a, b, "{}", w.name());
        assert_eq!(report_a, report_b, "{}", w.name());
        match w {
            Workload::EagerCollapse => assert!(a.backlog > a.committed, "{a:?}"),
            Workload::LazySharded => {
                assert!(a.replica_txns >= a.replica_applies, "{a:?}");
                assert!(a.replica_applies > 0, "{a:?}");
            }
            _ => assert!(a.disconnect_windows > 0 && a.max_parked > 0, "{a:?}"),
        }
    }
}

#[test]
fn rejected_base_transactions_end() {
    // Exact-match acceptance on a small hot database: many tentative
    // transactions are rejected at the base.
    let params = Params::new(200.0, 10.0, 5.0, 4.0, 0.01);
    let (inst, sink) = counting(false);
    let report = TwoTierSim::new(TwoTierConfig {
        sim: SimConfig::from_params(&params, 60, 3).with_warmup(5),
        base_nodes: 2,
        mobile_owned: 0,
        connected: SimDuration::from_secs(10),
        disconnected: SimDuration::from_secs(30),
        workload: TwoTierWorkload::ExactMatch { max_amount: 10 },
        initial_value: 1_000,
    })
    .with_tracer(inst.tracer)
    .run();
    let c = sink.borrow().counts();
    assert!(report.tentative_rejected > 0, "{report:?}");
    assert!(c.tentative_rejected > 0, "{c:?}");
    // Two-tier never aborts; each rejection ends its transaction.
    assert_eq!(c.aborted, c.reconciles, "{c:?}");
    assert_balanced("two-tier exact-match", &c);
}

#[test]
fn replica_update_aborts_are_not_user_aborts() {
    // Lazy-group on the collapse workload's hot database: replica
    // updates deadlock and are resubmitted.
    let cfg = Workload::EagerCollapse.config(3, 30);
    let (inst, sink) = counting(false);
    LazyGroupSim::new(cfg, Mobility::Connected)
        .with_tracer(inst.tracer)
        .run();
    let c = sink.borrow().counts();
    assert!(c.replica_aborts > 0, "{c:?}");
    assert!(
        c.replica_txns >= c.replica_applies + c.replica_aborts,
        "{c:?}"
    );
    assert_balanced("lazy-group", &c);
}

#[test]
fn digest_check_rejects_a_perturbed_report() {
    let w = Workload::LazySharded;
    let inst = Instruments::untraced(w);
    let runs: Vec<_> = (0..w.subseeds())
        .map(|k| run_engine(w, sim_seed(1, k), w.horizon(), &inst))
        .collect();
    let digests: Vec<u64> = runs.iter().map(|r| r.digest()).collect();
    assert_eq!(pinned_mismatch(w, 1, combine_digests(&digests)), None);

    let perturbed = |change: &dyn Fn(&mut repl_core::Report)| {
        let mut report = runs[0].report.clone();
        change(&mut report);
        let mut d = digests.clone();
        d[0] = report_digest(&report, None);
        pinned_mismatch(w, 1, combine_digests(&d))
    };
    assert!(perturbed(&|r| r.committed += 1).is_some());
    assert!(perturbed(&|r| {
        r.p99_latency_secs = f64::from_bits(r.p99_latency_secs.to_bits() + 1)
    })
    .is_some());

    // Every pinned digest passes its own check and fails a perturbed one.
    for &(name, seed, pinned) in PINNED {
        let w = Workload::parse(name).expect("pinned workloads exist");
        assert_eq!(pinned_mismatch(w, seed, pinned), None);
        assert!(pinned_mismatch(w, seed, pinned ^ 1).is_some());
    }
}
