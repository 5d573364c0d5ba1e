//! The traced run's instruments: a counting [`Tracer`] sink and an
//! in-memory span log written to a trace file when the run ends.

use crate::Metric;
use repl_sim::SimTime;
use repl_storage::{NodeId, TxnId, TxnSlab};
use repl_telemetry::{Event, EventKind, Tracer};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

/// The arena tag of lazy-group's replica-update transactions. Engines
/// mint transaction ids from tagged arenas ([`TxnSlab`]); every user
/// transaction of every engine comes from tag 0, and lazy-group keeps
/// the replica-update transactions it runs for other nodes' commits in
/// an arena of their own with this tag.
const REPLICA_ARENA: u8 = 1;

/// Event counts over every engine run the sink observed. Whole runs,
/// warm-up included, so they can differ from the measured-window
/// counters in [`repl_core::Report`].
///
/// Every user transaction that begins ends at most once, as a commit,
/// an abort or a rejection at the base, or is still open when its run
/// ends, so `begun = committed + aborted + backlog`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Engine runs observed (`RunStart` markers).
    pub runs: u64,
    /// User transactions begun.
    pub begun: u64,
    /// User transactions committed.
    pub committed: u64,
    /// User transactions that ended without committing: aborted, or
    /// (two-tier) rejected by the base's acceptance test.
    pub aborted: u64,
    /// User transactions begun but not finished when their run ended,
    /// summed over runs — the paper's instability seen from outside the
    /// program.
    pub backlog: u64,
    /// The largest such backlog of any single run.
    pub max_run_backlog: u64,
    /// Replica-update transactions begun (lazy-group).
    pub replica_txns: u64,
    /// Replica-update transactions aborted; lazy-group resubmits each.
    pub replica_aborts: u64,
    /// Lock requests that blocked.
    pub lock_waits: u64,
    /// Waits-for cycles detected.
    pub deadlocks: u64,
    /// Sum of detected cycle lengths.
    pub cycle_len_sum: u64,
    /// Lock-wait timeouts.
    pub lock_timeouts: u64,
    /// Replica updates shipped (lazy-group propagation).
    pub replica_sends: u64,
    /// Replica updates applied.
    pub replica_applies: u64,
    /// Replica updates skipped as stale.
    pub stale_skips: u64,
    /// Replica updates that failed the timestamp test.
    pub dangerous: u64,
    /// Reconciliations.
    pub reconciles: u64,
    /// Tentative commits at mobile nodes.
    pub tentative_commits: u64,
    /// Tentative transactions accepted at the base.
    pub tentative_accepted: u64,
    /// Tentative transactions rejected at the base.
    pub tentative_rejected: u64,
    /// Network messages sent (`MsgSent`; lazy-group reports its
    /// messages as `ReplicaSend` instead, see [`Counts::msgs_sent`]).
    pub msg_sent_events: u64,
    /// Network messages delivered.
    pub msgs_delivered: u64,
    /// Network messages dropped.
    pub msgs_dropped: u64,
    /// Disconnect windows that ended in a reconnect.
    pub disconnect_windows: u64,
    /// The most messages sent to one node during one of its disconnect
    /// windows (`Disconnect` to `Reconnect`), over every window
    /// observed: the largest backlog a reconnect drains.
    pub max_parked: u64,
}

impl Counts {
    /// Messages put on the wire: `MsgSent` events plus lazy-group's
    /// `ReplicaSend` events (no engine emits both for one message).
    pub fn msgs_sent(&self) -> u64 {
        self.msg_sent_events + self.replica_sends
    }
}

/// A [`Tracer`] that only counts. Attach it through
/// [`repl_telemetry::TraceHandle::shared`] and read [`CountingTracer::counts`]
/// after the run.
#[derive(Debug)]
pub struct CountingTracer {
    counts: Counts,
    /// User transactions of the current run that began and have not
    /// ended.
    open: HashSet<TxnId>,
    /// Messages sent so far to each node of the current run that is
    /// disconnected.
    parked: HashMap<NodeId, u64>,
    /// Holds nothing; recognises replica-update transaction ids.
    replica_ids: TxnSlab<()>,
}

impl Default for CountingTracer {
    fn default() -> Self {
        CountingTracer {
            counts: Counts::default(),
            open: HashSet::new(),
            parked: HashMap::new(),
            replica_ids: TxnSlab::new(REPLICA_ARENA),
        }
    }
}

impl CountingTracer {
    /// The counts so far, with the current run's backlog folded in.
    pub fn counts(&self) -> Counts {
        let mut c = self.counts.clone();
        Self::fold_backlog(&mut c, self.open.len());
        c
    }

    fn fold_backlog(c: &mut Counts, open: usize) {
        c.backlog += open as u64;
        c.max_run_backlog = c.max_run_backlog.max(open as u64);
    }

    fn close_run(&mut self) {
        Self::fold_backlog(&mut self.counts, self.open.len());
        self.open.clear();
        self.parked.clear();
    }

    /// A message to `to`: parked if `to` is disconnected.
    fn sent_to(&mut self, to: NodeId) {
        if let Some(n) = self.parked.get_mut(&to) {
            *n += 1;
        }
    }

    /// A user transaction ended; false if it was not open.
    fn end(&mut self, txn: TxnId) -> bool {
        self.open.remove(&txn)
    }
}

impl Tracer for CountingTracer {
    fn record(&mut self, event: &Event) {
        if let EventKind::RunStart { .. } = event.kind {
            self.close_run();
        }
        let replica = self.replica_ids.owns(event.txn);
        match &event.kind {
            EventKind::RunStart { .. } => self.counts.runs += 1,
            EventKind::TxnBegin if replica => self.counts.replica_txns += 1,
            EventKind::TxnBegin => {
                self.counts.begun += 1;
                self.open.insert(event.txn);
            }
            EventKind::TxnCommit => {
                self.counts.committed += 1;
                self.end(event.txn);
            }
            EventKind::TxnAbort { .. } if replica => self.counts.replica_aborts += 1,
            EventKind::TxnAbort { .. } => {
                self.counts.aborted += 1;
                self.end(event.txn);
            }
            EventKind::Reconcile => {
                self.counts.reconciles += 1;
                // Two-tier ends a base transaction that fails its
                // acceptance test with a reconciliation and nothing
                // else; lazy-group reconciles replica updates, which
                // are never open.
                if self.end(event.txn) {
                    self.counts.aborted += 1;
                }
            }
            EventKind::ReplicaApply => self.counts.replica_applies += 1,
            EventKind::LockWait { .. } => self.counts.lock_waits += 1,
            EventKind::DeadlockDetected { cycle } => {
                self.counts.deadlocks += 1;
                self.counts.cycle_len_sum += cycle.len() as u64;
            }
            EventKind::LockTimeout { .. } => self.counts.lock_timeouts += 1,
            EventKind::ReplicaSend { to, .. } => {
                self.counts.replica_sends += 1;
                self.sent_to(*to);
            }
            EventKind::StaleSkip => self.counts.stale_skips += 1,
            EventKind::DangerousUpdate { .. } => self.counts.dangerous += 1,
            EventKind::TentativeCommit => self.counts.tentative_commits += 1,
            EventKind::TentativeAccepted => self.counts.tentative_accepted += 1,
            EventKind::TentativeRejected => self.counts.tentative_rejected += 1,
            EventKind::MsgSent { to } => {
                self.counts.msg_sent_events += 1;
                self.sent_to(*to);
            }
            EventKind::MsgDelivered { .. } => self.counts.msgs_delivered += 1,
            EventKind::MsgDropped { .. } => self.counts.msgs_dropped += 1,
            EventKind::Disconnect => {
                self.parked.insert(event.node, 0);
            }
            EventKind::Reconnect => {
                if let Some(n) = self.parked.remove(&event.node) {
                    self.counts.disconnect_windows += 1;
                    self.counts.max_parked = self.counts.max_parked.max(n);
                }
            }
            _ => {}
        }
    }

    fn run_end(&mut self, _at: SimTime) {
        self.close_run();
    }
}

/// One timed call from the benchmark into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// Spans kept in memory for the length of a run, written out once at
/// the end ([`SpanLog::write`]).
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Time `f` as a span named `name` under `parent`; returns the
    /// span's duration in seconds and `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (f64, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, start, end);
        (end.duration_since(start).as_secs_f64(), out)
    }

    /// Record a span timed by the caller.
    pub fn record(&mut self, name: &str, parent: Option<usize>, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos(),
            end_ns: end.saturating_duration_since(self.origin).as_nanos(),
        });
    }

    /// Open a span whose children are recorded before it closes;
    /// finish it with [`SpanLog::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos();
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos();
    }

    /// Write the spans and the run's per-layer metrics as one JSON
    /// document.
    pub fn write(&self, path: &std::path::Path, metrics: &[Metric]) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("],\n\"metrics\": {");
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}  \"{}\": {:?}", m.name, m.value);
        }
        out.push_str("\n}}\n");
        std::fs::write(path, out)
    }
}
