//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`: ties at the same instant are
//! delivered in scheduling order, which keeps runs deterministic.
//!
//! The queue is a binary heap keyed by `(time, seq)`, plus one fast
//! path: an engine can register its dominant constant delay as a *FIFO
//! lane* ([`EventQueue::set_fifo_lane`]). The clock is monotone and the
//! delay constant, so events scheduled `delay` after `now` arrive
//! already in `(time, seq)` order. They go into a plain deque with O(1)
//! push and pop and never pay the heap's `O(log n)` sift. The engines
//! register their per-action service time, and step events are the
//! bulk of simulation traffic. Every other event, including zero-delay
//! deliveries and second-scale timers, goes through the heap.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A deterministic future-event list with a monotone clock.
///
/// `EventQueue` is *pulled*: the simulation driver pops events and
/// dispatches them itself, which keeps protocol code free of callback
/// lifetimes. Popping advances the clock to the event's timestamp.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// The registered FIFO-lane delay, if any.
    lane_delay: Option<SimDuration>,
    /// Lane entries, ascending by `(time, seq)` by construction: `now`
    /// is monotone and every entry was scheduled `lane_delay` after it.
    lane: VecDeque<Entry<E>>,
    now: SimTime,
    /// Tie-break sequence for same-instant events. Monotone, never
    /// recycled. Overflow note: a `u64` at 10⁹ events per wall-clock
    /// second would take ~584 years to wrap, so no release-mode
    /// branch is spent on it; debug builds assert (see
    /// [`EventQueue::schedule_at`]) so a hypothetical wrap cannot
    /// silently corrupt event ordering.
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane_delay: None,
            lane: VecDeque::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Register `delay` as the FIFO lane: every subsequent
    /// [`EventQueue::schedule_after`] call with exactly this delay is
    /// appended to a dedicated deque instead of the heap. Because the
    /// clock never goes backwards and the delay is constant, the lane
    /// is sorted by construction. Safe to call at any point; pop order
    /// is unaffected.
    pub fn set_fifo_lane(&mut self, delay: SimDuration) {
        self.lane_delay = Some(delay);
    }

    /// The current simulated time — the timestamp of the last event
    /// popped (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Whether no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next tie-break sequence number.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        debug_assert!(self.seq != u64::MAX, "event sequence counter overflow");
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedule `event` at the absolute time `at`. Scheduling in the past
    /// is a logic error; the event is clamped to `now` in release builds
    /// and panics in debug builds.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let time = at.max(self.now);
        let seq = self.next_seq();
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Schedule `event` after `delay` from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        if self.lane_delay != Some(delay) {
            self.schedule_at(self.now + delay, event);
            return;
        }
        let entry = Entry {
            time: self.now + delay,
            seq: self.next_seq(),
            event,
        };
        debug_assert!(
            self.lane.back().is_none_or(|b| b.key() < entry.key()),
            "lane order violated"
        );
        self.lane.push_back(entry);
    }

    /// Timestamp of the next event and whether it sits in the lane.
    #[inline]
    fn peek(&self) -> Option<(SimTime, bool)> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(Reverse(h))) if h.key() < l.key() => Some((h.time, false)),
            (Some(l), _) => Some((l.time, true)),
            (None, Some(Reverse(h))) => Some((h.time, false)),
            (None, None) => None,
        }
    }

    /// Remove the next event, already located by [`EventQueue::peek`],
    /// and advance the clock to it.
    #[inline]
    fn take(&mut self, from_lane: bool) -> (SimTime, E) {
        let entry = if from_lane {
            self.lane.pop_front().expect("lane is non-empty")
        } else {
            self.heap.pop().expect("heap is non-empty").0
        };
        self.now = entry.time;
        (entry.time, entry.event)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, from_lane) = self.peek()?;
        Some(self.take(from_lane))
    }

    /// Pop the next event only if it occurs at or before `limit`.
    /// If the next event is later, the clock advances to `limit` and
    /// `None` is returned — used to cut a run off at a horizon.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        match self.peek() {
            Some((time, from_lane)) if time <= limit => Some(self.take(from_lane)),
            _ => {
                self.now = self.now.max(limit);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(42));
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), 1);
        q.pop();
        q.schedule_after(SimDuration(50), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime(150), 2));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), "early");
        q.schedule_at(SimTime(99), "late");
        assert_eq!(q.pop_until(SimTime(50)).map(|(_, e)| e), Some("early"));
        assert_eq!(q.pop_until(SimTime(50)), None);
        // Clock was advanced to the horizon.
        assert_eq!(q.now(), SimTime(50));
        // The late event is still there.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn counters_track_activity() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime(1), ());
        q.set_fifo_lane(SimDuration(2));
        q.schedule_after(SimDuration(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    /// Events far in the future still pop in global `(time, seq)`
    /// order, interleaved with near events scheduled later.
    #[test]
    fn overflow_events_interleave_correctly() {
        let mut q = EventQueue::new();
        let far = SimTime(10_000_000);
        q.schedule_at(far, "far-a");
        q.schedule_at(SimTime(100), "near");
        q.schedule_at(far, "far-b");
        q.schedule_at(far + SimDuration(1), "far-c");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        // Ties at `far` keep schedule order.
        assert_eq!(q.pop(), Some((far, "far-a")));
        assert_eq!(q.pop(), Some((far, "far-b")));
        assert_eq!(q.pop(), Some((far + SimDuration(1), "far-c")));
        assert!(q.pop().is_none());
    }

    /// Scheduling near `now` after a large `pop_until` clock jump is
    /// relative to the new clock, and ordering holds across the jump.
    #[test]
    fn horizon_jump_then_near_schedule() {
        let mut q = EventQueue::new();
        let far = SimTime(50_000_000);
        q.schedule_at(far, "sentinel");
        assert_eq!(q.pop_until(SimTime(40_000_000)), None);
        assert_eq!(q.now(), SimTime(40_000_000));
        q.schedule_after(SimDuration(10), "soon");
        assert_eq!(q.pop(), Some((SimTime(40_000_010), "soon")));
        assert_eq!(q.pop(), Some((far, "sentinel")));
    }

    /// Lane events interleave with heap events in exact `(time, seq)`
    /// order, including ties at one instant.
    #[test]
    fn fifo_lane_interleaves_with_heap() {
        let mut q = EventQueue::new();
        q.set_fifo_lane(SimDuration(100));
        q.schedule_after(SimDuration(100), "lane-a"); // t=100 seq=0
        q.schedule_at(SimTime(100), "heap-tie"); // t=100 seq=1
        q.schedule_at(SimTime(50), "heap-early"); // t=50
        q.schedule_after(SimDuration(100), "lane-b"); // t=100 seq=3
        q.schedule_at(SimTime(10_000_000), "far"); // far future
        assert_eq!(q.pop().map(|(_, e)| e), Some("heap-early"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("lane-a"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("heap-tie"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("lane-b"));
        // After the pop at t=100, lane entries land at 200.
        q.schedule_after(SimDuration(100), "lane-c");
        assert_eq!(q.pop(), Some((SimTime(200), "lane-c")));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        assert!(q.pop().is_none());
    }

    /// A lane-only queue still honours `pop_until` horizons, and lane
    /// entries scheduled after a horizon cut are relative to it.
    #[test]
    fn fifo_lane_with_horizon_cuts() {
        let mut q = EventQueue::new();
        q.set_fifo_lane(SimDuration(7));
        q.schedule_after(SimDuration(7), 1u32);
        assert_eq!(q.pop_until(SimTime(3)), None);
        assert_eq!(q.now(), SimTime(3));
        assert_eq!(q.pop_until(SimTime(10)), Some((SimTime(7), 1)));
        q.schedule_after(SimDuration(7), 2);
        q.schedule_at(SimTime(13), 3);
        assert_eq!(q.pop(), Some((SimTime(13), 3)));
        assert_eq!(q.pop(), Some((SimTime(14), 2)));
    }

    /// Randomized differential test against a sorted reference model:
    /// a long interleaving of schedules (near, far, bursts, zero-delay
    /// deliveries), pops and horizon cuts must replay the reference
    /// exactly. A FIFO lane is registered and exercised by one schedule
    /// flavour, so lane/heap interleavings get the same coverage.
    #[test]
    fn matches_reference_model_on_random_workload() {
        let mut rng = SimRng::new(0xCA1E_0D1E);
        let mut q: EventQueue<u32> = EventQueue::new();
        q.set_fifo_lane(SimDuration(1_000));
        let mut reference: Vec<(SimTime, u64, u32)> = Vec::new();
        let mut next_id = 0u32;
        let mut seq = 0u64;
        for step in 0..20_000u32 {
            match rng.next_u64() % 10 {
                // Mostly schedules with a mix of spans, from the same
                // instant to tens of seconds ahead.
                0..=4 => {
                    let span = match rng.next_u64() % 5 {
                        0 => 0,
                        1 => rng.next_u64() % 1_000,
                        2 => rng.next_u64() % 500_000,
                        3 => rng.next_u64() % 30_000_000,
                        _ => {
                            // Through the registered FIFO lane.
                            q.schedule_after(SimDuration(1_000), next_id);
                            reference.push((q.now() + SimDuration(1_000), seq, next_id));
                            seq += 1;
                            next_id += 1;
                            continue;
                        }
                    };
                    let at = q.now() + SimDuration(span);
                    q.schedule_at(at, next_id);
                    reference.push((at, seq, next_id));
                    seq += 1;
                    next_id += 1;
                }
                // Bursts at one instant: either a shared absolute time
                // or the zero-delay deliveries of a heal or reconnect.
                5 => {
                    let n = rng.next_u64() % 5;
                    let zero_delay = rng.chance(0.5);
                    let at = if zero_delay {
                        q.now()
                    } else {
                        q.now() + SimDuration(rng.next_u64() % 2_000_000)
                    };
                    for _ in 0..n {
                        if zero_delay {
                            q.schedule_after(SimDuration::ZERO, next_id);
                        } else {
                            q.schedule_at(at, next_id);
                        }
                        reference.push((at, seq, next_id));
                        seq += 1;
                        next_id += 1;
                    }
                }
                6..=8 => {
                    reference.sort_by_key(|&(t, s, _)| (t, s));
                    let got = q.pop();
                    if reference.is_empty() {
                        assert_eq!(got, None, "step {step}");
                    } else {
                        let (t, _, id) = reference.remove(0);
                        assert_eq!(got, Some((t, id)), "step {step}");
                    }
                }
                _ => {
                    let limit = q.now() + SimDuration(rng.next_u64() % 1_000_000);
                    reference.sort_by_key(|&(t, s, _)| (t, s));
                    let got = q.pop_until(limit);
                    match reference.first().copied() {
                        Some((t, _, id)) if t <= limit => {
                            reference.remove(0);
                            assert_eq!(got, Some((t, id)), "step {step}");
                        }
                        _ => {
                            assert_eq!(got, None, "step {step}");
                            assert_eq!(q.now(), limit, "step {step}");
                        }
                    }
                }
            }
            assert_eq!(q.len(), reference.len(), "step {step}");
        }
        // Drain everything left and verify the tail order.
        reference.sort_by_key(|&(t, s, _)| (t, s));
        for (t, _, id) in reference {
            assert_eq!(q.pop(), Some((t, id)));
        }
        assert!(q.pop().is_none());
    }
}
