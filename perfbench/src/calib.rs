//! How fast the host runs right now, from a fixed reference kernel.
//!
//! On a shared host the same binary on the same input runs up to half
//! as slow again for minutes at a time while other tenants are busy:
//! longer than one benchmark run, so no statistic inside a run removes
//! it. The reference kernel is a small discrete-event loop (a binary
//! heap of timestamps and a hash map of short vectors, ~1 MiB) whose
//! host time rises and falls with the simulator's. Timing it alongside
//! the runs gives the host's current speed, and [`HostSpeed::scale`]
//! turns a measured host time into the time it takes at a fixed
//! reference speed. The kernel is this package's own code, so a change
//! to the simulator moves the scaled time exactly as it moves the raw
//! one.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Host seconds of one reference kernel at the reference speed: about
/// what it takes on a quiet 2-vCPU Xeon (Emerald Rapids) KVM guest.
/// Scaled times read as host times on that machine.
pub const REFERENCE_S: f64 = 0.015;

/// Events the kernel processes.
const EVENTS: u32 = 150_000;
/// Keys of the kernel's hash map.
const KEYS: u64 = 20_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference kernel: pop the earliest event, append it to a random
/// key's list (folding and clearing lists that grow past four), and
/// schedule a successor. Deterministic: it returns the same checksum
/// on every call.
pub fn kernel() -> u64 {
    let mut x = 11u64;
    let mut heap = BinaryHeap::new();
    let mut lists: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..1000 {
        heap.push(Reverse(xorshift(&mut x) % 1_000_000));
    }
    let mut acc = 0u64;
    for _ in 0..EVENTS {
        let Reverse(t) = heap.pop().expect("the heap never empties");
        let list = lists.entry(xorshift(&mut x) % KEYS).or_default();
        list.push(t);
        if list.len() > 4 {
            acc = acc.wrapping_add(list.iter().sum::<u64>());
            list.clear();
        }
        heap.push(Reverse(t + xorshift(&mut x) % 10_000));
    }
    acc
}

/// Samples of the reference kernel's host time over one benchmark run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Time `calls` runs of the kernel; their mean host seconds. Each
    /// is kept as a sample.
    pub fn sample(&mut self, calls: usize) -> f64 {
        let first = self.samples.len();
        for _ in 0..calls {
            let t = Instant::now();
            std::hint::black_box(kernel());
            self.samples.push(t.elapsed().as_secs_f64());
        }
        let taken = &self.samples[first..];
        taken.iter().sum::<f64>() / taken.len() as f64
    }

    /// Call `f` between two samples of `calls` kernel runs each. Returns
    /// what `f` returns and the factor that scales a host time measured
    /// inside `f` to the reference speed: the host's speed can change
    /// within seconds, so the kernel runs adjacent to the call say best
    /// how fast the host ran it.
    pub fn around<R>(&mut self, calls: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.sample(calls);
        let out = f();
        let after = self.sample(calls);
        (out, 2.0 * REFERENCE_S / (before + after))
    }

    /// The median kernel time over the run.
    pub fn kernel_s(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn around_divides_out_the_kernel_time() {
        let mut speed = HostSpeed::default();
        let ((), factor) = speed.around(2, || ());
        let mean = speed.samples.iter().sum::<f64>() / 4.0;
        assert_eq!(speed.samples.len(), 4);
        assert!((factor - REFERENCE_S / mean).abs() < 1e-9 * factor);
    }
}
