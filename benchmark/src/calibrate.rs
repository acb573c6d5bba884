//! The calibration loop: a fixed, benchmark-owned piece of work run
//! between reps to measure how fast this machine is *right now*.
//!
//! The sandbox this benchmark runs in shares its cores with other
//! tenants: identical reps of one process read up to 1.5x apart, in
//! phases that last seconds to minutes, with no steal time booked. The
//! same phases slow this loop by nearly the same factor, so dividing a
//! rep's wall time by the loop's wall time just before and after it
//! removes most of that noise (run-to-run spread of a 10-rep median:
//! 18-22 % raw, 4-5 % calibrated, measured on `dense_fastack` and on an
//! `acc` sweep). Reported seconds are therefore *calibrated seconds*:
//! wall seconds scaled by [`nominal_s`] / (loop wall), i.e. seconds as
//! they would read on the quiet reference box.
//!
//! The loop uses only `std`, never the program under test, so a change
//! to the program cannot move it. It mixes what the simulator and the
//! planner mix — a binary heap, an ordered map, random access into a
//! float array, `ln` — once over a cache-resident working set and once
//! over one of about a megabyte, because contention on a shared core
//! hits those two differently.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Wall time of [`sample`] on the quiet reference box (2 x Xeon
/// 2.1 GHz vCPU, rustc 1.95), seconds: one thread alone, or two at
/// once (the box's two vCPUs slow each other by a third). Constants of
/// the benchmark: changing one rescales every timing metric.
pub fn nominal_s(threads: usize) -> f64 {
    if threads > 1 {
        0.120
    } else {
        0.090
    }
}

fn churn(heap_len: usize, keys: u64, array_len: usize, iters: u64) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap: BinaryHeap<Reverse<u64>> = (0..heap_len).map(|_| Reverse(step())).collect();
    let mut map = BTreeMap::new();
    let mut array = vec![1.0f64; array_len];
    let mut acc = 0.0;
    for i in 0..iters {
        let x = step();
        let Reverse(y) = heap.pop().expect("heap never drains");
        heap.push(Reverse(y.wrapping_add(x >> 40)));
        map.insert(y % keys, x);
        if i % 4 == 0 {
            map.remove(&(x % keys));
        }
        let k = (x >> 20) as usize % array_len;
        array[k] = ((y & 0xffff) as f64 + array[k]).ln().abs() + 1.0;
        acc += array[(k * 31 + 7) % array_len];
    }
    acc + map.len() as f64
}

fn one_loop() {
    black_box(churn(400, 1 << 10, 1 << 10, 400_000));
    black_box(churn(4096, 1 << 16, 1 << 17, 250_000));
}

/// One calibration sample: wall seconds of the fixed loop, run on as
/// many threads at once as the workload's timed region uses (two busy
/// threads on sibling cores slow each other, and a single-threaded
/// sample would not see that).
pub fn sample(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(one_loop);
        }
        one_loop();
    });
    start.elapsed().as_secs_f64()
}

/// Scale from wall seconds to calibrated seconds, given the loop's
/// wall time (on `threads` threads) around the measured interval.
pub fn factor(before: f64, after: f64, threads: usize) -> f64 {
    nominal_s(threads) / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_is_deterministic_work() {
        assert_eq!(churn(16, 64, 64, 1000), churn(16, 64, 64, 1000));
        assert_ne!(churn(16, 64, 64, 1000), churn(16, 64, 64, 1001));
    }

    #[test]
    fn a_slow_machine_shrinks_its_seconds() {
        for threads in [1, 2] {
            let n = nominal_s(threads);
            assert_eq!(factor(n, n, threads), 1.0);
            assert_eq!(factor(2.0 * n, 2.0 * n, threads), 0.5);
            assert_eq!(factor(n, 3.0 * n, threads), 0.5);
        }
    }
}
