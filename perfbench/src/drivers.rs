//! Layer drivers: each times one public operation of one layer on
//! inputs shaped like a workload's traced run (its database size, node
//! count, shard layout, backlog and parked messages), so a per-layer
//! number describes the layer at that workload's shape.

use crate::probe::SpanLog;
use crate::Metric;
use repl_net::{LatencyModel, Network};
use repl_sim::{EventQueue, SimDuration, SimRng};
use repl_storage::{
    Acquire, LockManager, NodeId, ObjectId, ObjectStore, ShardMap, Timestamp, TxnId, Value,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The shape of a workload, as the drivers size their inputs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Objects in the database.
    pub db_size: u64,
    /// Nodes.
    pub nodes: u32,
    /// Updates per transaction.
    pub actions: usize,
    /// Keyspace shards (0 = unsharded).
    pub shards: u32,
    /// Replication factor per shard (0 = full).
    pub rf: u32,
    /// Service time of one action (the event queue's FIFO lane delay).
    pub action_time: SimDuration,
    /// Mean inter-arrival time of one node's transactions, seconds.
    pub interarrival_s: f64,
    /// Unfinished transactions at the end of the traced run.
    pub backlog: u64,
    /// Messages a node receives during one 30 s disconnect window.
    pub parked: u64,
    /// Share of engine events that are fixed-delay steps (the queue's
    /// FIFO lane), from the traced run's phase calls.
    pub fifo_share: f64,
}

/// Longest waits-for chain the deadlock driver builds: at the walk's
/// quadratic cost today one request through it takes ~0.1 s.
const MAX_CHAIN: u64 = 10_000;

/// Host time each driver gets.
const BUDGET: Duration = Duration::from_millis(250);
/// Fewest batches behind a driver's median.
const MIN_BATCHES: usize = 3;

/// Run `batch` until [`BUDGET`] is spent (at least [`MIN_BATCHES`]
/// times); returns the median nanoseconds per operation, where one call
/// of `batch` performs the number of operations it returns.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || start.elapsed() < BUDGET {
        let t = Instant::now();
        let ops = batch();
        samples.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    crate::stats::median(&samples)
}

/// Every driver's metrics for `shape`, each timed as a span under
/// `parent`.
pub fn run_all(shape: &Shape, seed: u64, log: &mut SpanLog, parent: usize) -> Vec<Metric> {
    let map = shard_map(shape);
    let drivers: [(&str, &dyn Fn() -> f64); 7] = [
        ("sim.queue.op_ns", &|| queue_op_ns(shape, seed)),
        ("storage.lock.acquire_ns", &|| lock_acquire_ns(shape, seed)),
        ("storage.lock.deadlock_acquire_ns", &|| {
            deadlock_acquire_ns(shape.backlog)
        }),
        ("storage.store.apply_ns", &|| {
            store_apply_ns(shape, &map, seed)
        }),
        ("storage.shard.filter_ns", &|| {
            shard_filter_ns(&map, shape, seed)
        }),
        ("net.send_ns", &|| net_send_ns(shape, seed)),
        ("net.reconnect_drain_ns", &|| {
            reconnect_drain_ns(shape, seed)
        }),
    ];
    let mut metrics: Vec<Metric> = drivers
        .iter()
        .map(|(name, driver)| Metric::new(*name, log.span(name, Some(parent), driver).1, "ns"))
        .collect();
    metrics.push(Metric::new(
        "storage.shard.fanout_groups",
        mean_fanout_groups(&map),
        "count",
    ));
    metrics
}

/// The workload's shard layout; an unsharded workload gets the
/// full-replication layout (every node hosts every shard).
fn shard_map(shape: &Shape) -> ShardMap {
    if shape.shards == 0 {
        ShardMap::new(shape.nodes, shape.nodes, 0)
    } else {
        ShardMap::new(shape.shards, shape.nodes, shape.rf)
    }
}

/// `EventQueue` schedule + pop in steady state. The queue holds one
/// pending arrival per node plus one event per unfinished transaction;
/// each pop is followed by one schedule, a FIFO-lane step with
/// probability `fifo_share`, otherwise an exponential arrival gap.
fn queue_op_ns(shape: &Shape, seed: u64) -> f64 {
    let mut rng = SimRng::stream(seed, "perfbench-queue");
    let delays: Vec<SimDuration> = (0..4096)
        .map(|_| {
            if rng.chance(shape.fifo_share) {
                shape.action_time
            } else {
                SimDuration::from_secs_f64(rng.exp(shape.interarrival_s))
            }
        })
        .collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    q.set_fifo_lane(shape.action_time);
    let pending = u64::from(shape.nodes) + shape.backlog;
    for i in 0..pending {
        q.schedule_after(delays[i as usize % delays.len()], i as u32);
    }
    let mut i = 0usize;
    ns_per_op(|| {
        for _ in 0..10_000 {
            let (_, ev) = q.pop().expect("the queue never drains");
            q.schedule_after(delays[i % delays.len()], black_box(ev));
            i += 1;
        }
        10_000
    })
}

/// Uncontended acquire + release: one transaction at a time locks
/// `actions` random objects of the database, then releases them all.
/// Nanoseconds per acquired-and-released lock.
fn lock_acquire_ns(shape: &Shape, seed: u64) -> f64 {
    let mut rng = SimRng::stream(seed, "perfbench-locks");
    let objects: Vec<ObjectId> = (0..4096)
        .map(|_| ObjectId(rng.gen_range(shape.db_size)))
        .collect();
    let mut lm = LockManager::new();
    lm.reserve_objects(shape.db_size as usize);
    let mut next = 0usize;
    let mut txn = 0u64;
    let mut granted = Vec::new();
    ns_per_op(|| {
        for _ in 0..2_000 {
            // Recycle a small pool of ids, as the engines' slabs do.
            let t = TxnId(txn % 64);
            txn += 1;
            for _ in 0..shape.actions {
                black_box(lm.acquire(t, objects[next % objects.len()]));
                next += 1;
            }
            lm.release_all_into(t, &mut granted);
            granted.clear();
        }
        2_000 * shape.actions as u64
    })
}

/// One lock request that closes a waits-for cycle through a backlog of
/// `backlog` blocked transactions. Transaction `ti` holds object `oi`
/// and waits for `o(i-1)`, so the waits-for chain runs
/// `tB → … → t1 → t0`; `t0` then asks for `oB`. The request is refused
/// as a deadlock without being queued, so the same request can be
/// timed again and again. The chain is built tail first, so every
/// wait is queued behind a holder that is not itself waiting and the
/// build stays linear in the backlog. Backlogs beyond
/// [`MAX_CHAIN`] are cut to it.
fn deadlock_acquire_ns(backlog: u64) -> f64 {
    let b = backlog.clamp(2, MAX_CHAIN);
    let mut lm = LockManager::new();
    for t in 0..=b {
        assert_eq!(lm.acquire(TxnId(t), ObjectId(t)), Acquire::Granted);
    }
    for t in (1..=b).rev() {
        assert_eq!(lm.acquire(TxnId(t), ObjectId(t - 1)), Acquire::Waiting);
    }
    ns_per_op(|| {
        let outcome = lm.acquire(TxnId(0), ObjectId(b));
        assert_eq!(outcome, Acquire::Deadlock, "the request must close a cycle");
        1
    })
}

/// `ObjectStore::apply_versioned` on the safe path (the replica's
/// timestamp matches the update's predecessor), on a store laid out
/// like one of the workload's replicas.
fn store_apply_ns(shape: &Shape, map: &ShardMap, seed: u64) -> f64 {
    let node = NodeId(0);
    let mut store = if shape.shards == 0 {
        ObjectStore::new(shape.db_size)
    } else {
        ObjectStore::sharded(shape.db_size, map, node)
    };
    let hosted = map.hosted_objects(node, shape.db_size).max(1);
    let mut rng = SimRng::stream(seed, "perfbench-store");
    let ids: Vec<ObjectId> = (0..4096)
        .map(|_| {
            let i = rng.gen_range(hosted);
            if shape.shards == 0 {
                ObjectId(i)
            } else {
                map.nth_hosted(node, i)
            }
        })
        .collect();
    let mut counter = 0u64;
    let mut next = 0usize;
    ns_per_op(|| {
        for _ in 0..10_000 {
            let id = ids[next % ids.len()];
            next += 1;
            counter += 1;
            let old = store.get(id).ts;
            black_box(store.apply_versioned(
                id,
                old,
                Timestamp::new(counter, NodeId(1)),
                Value::Int(counter as i64),
            ));
        }
        10_000
    })
}

/// `ShardMap::fanout_group_hosts` over random origins, fan-out groups
/// and objects: the per-record filter of signature-grouped fan-out.
fn shard_filter_ns(map: &ShardMap, shape: &Shape, seed: u64) -> f64 {
    let mut rng = SimRng::stream(seed, "perfbench-shard");
    let probes: Vec<(NodeId, u32, ObjectId)> = (0..4096)
        .map(|_| {
            let origin = NodeId(rng.gen_range(u64::from(shape.nodes)) as u32);
            let groups = map.fanout_groups(origin).max(1) as u64;
            let group = rng.gen_range(groups) as u32;
            (origin, group, ObjectId(rng.gen_range(shape.db_size)))
        })
        .collect();
    ns_per_op(|| {
        let mut hits = 0u64;
        for &(origin, group, object) in &probes {
            hits += u64::from(map.fanout_group_hosts(origin, group, black_box(object)));
        }
        black_box(hits);
        probes.len() as u64
    })
}

/// Mean number of fan-out signature groups per origin.
fn mean_fanout_groups(map: &ShardMap) -> f64 {
    let n = map.nodes();
    let total: usize = (0..n).map(|o| map.fanout_groups(NodeId(o))).sum();
    total as f64 / f64::from(n)
}

/// `Network::send` between random connected node pairs.
fn net_send_ns(shape: &Shape, seed: u64) -> f64 {
    let n = shape.nodes.max(2);
    let mut rng = SimRng::stream(seed, "perfbench-net");
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| {
            let from = rng.gen_range(u64::from(n)) as u32;
            let to = (from + 1 + rng.gen_range(u64::from(n - 1)) as u32) % n;
            (NodeId(from), NodeId(to))
        })
        .collect();
    let mut net: Network<u64> = Network::new(n as usize, LatencyModel::ZERO, seed);
    let mut i = 0u64;
    ns_per_op(|| {
        for &(from, to) in &pairs {
            i += 1;
            black_box(net.send(from, to, i));
        }
        pairs.len() as u64
    })
}

/// One disconnect window at one node: park the window's messages from
/// the other nodes, then reconnect and drain them all. Nanoseconds per
/// window.
fn reconnect_drain_ns(shape: &Shape, seed: u64) -> f64 {
    let n = shape.nodes.max(2);
    let parked = shape.parked.max(1);
    let mut net: Network<u64> = Network::new(n as usize, LatencyModel::ZERO, seed);
    let dest = NodeId(n - 1);
    ns_per_op(|| {
        net.disconnect(dest);
        for m in 0..parked {
            net.park(NodeId((m % u64::from(n - 1)) as u32), dest, m);
        }
        let drained = net.reconnect(dest).map(black_box).count();
        assert_eq!(drained as u64, parked, "every parked message drains");
        1
    })
}
