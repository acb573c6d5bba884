//! The shard executor: run per-network work across scoped worker
//! threads with bit-identical results regardless of thread count.
//!
//! Determinism contract: every unit of work is a pure function of its
//! *index* (each network carries its own RNG stream derived from the
//! master seed via [`sim::derive_stream_seed`]), and results land in an
//! index-addressed slot. Threads therefore only decide *when* a unit
//! runs, never *what* it computes or *where* its output goes — so one
//! thread and sixteen produce the same `Vec`, byte for byte.
//!
//! Units are claimed one at a time: a `Mutex` over the items' iterator
//! hands each thread the next unclaimed unit, and the calling thread
//! works alongside its `threads - 1` scoped workers. Plans differ in
//! cost by tier and network size, so a thread that drew cheap units
//! simply claims more of them instead of idling until a fixed chunk of
//! slow ones ends elsewhere. The lock is held only to take the next
//! item, never while a unit runs.

use std::sync::Mutex;

/// Worker count actually worth spawning: the request clamped to the
/// host's available parallelism. Requesting 8 workers on a 1-core host
/// used to *lose* throughput — every spawned thread pays creation,
/// scheduling, and teardown with zero added compute, which is exactly
/// the `fleet_1000x8 < fleet_1000x1` inversion the perf baseline
/// caught. Results are index-addressed either way, so the clamp cannot
/// change any output, only how many OS threads contend for cores.
/// Asking the host re-reads its cgroup files (≈ 20 µs), so a run asks
/// once and hands every stage the answer.
pub fn workers(requested: usize) -> usize {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.min(avail)
}

/// Run `f` on every item of `items` across `threads` threads: the
/// calling thread and `threads.min(len) - 1` scoped workers, each
/// claiming the next item until none is left. A panicking unit fails
/// the call with its own payload once every thread has stopped.
fn claim_each<I, F>(items: I, threads: usize, stage: &'static str, f: &F)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    let spawns = threads.min(items.len()).saturating_sub(1);
    let queue = Mutex::new(items);
    let work = || {
        let _prof = telemetry::runprof::span(stage);
        loop {
            // Its own statement, so the guard drops before `f` runs (a
            // `while let` scrutinee would hold it through the body).
            let next = queue.lock().expect("no claim panics").next();
            let Some(item) = next else { break };
            f(item);
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..spawns).map(|_| s.spawn(work)).collect();
        work();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Build a `Vec<T>` by evaluating `f(0..n)` across `threads` threads
/// (a count [`workers`] resolved). Equivalent to `(0..n).map(f).collect()`
/// for any thread count. `stage` names this fan-out in the wall-clock
/// run profiler; each thread's wall time accumulates under it (spans
/// overlap across threads, so a stage's `total_ns` is CPU-seconds-like,
/// not elapsed time).
pub fn map_sharded<T, F>(n: usize, threads: usize, stage: &'static str, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    claim_each(out.iter_mut().enumerate(), threads, stage, &|(i, slot)| {
        *slot = Some(f(i));
    });
    out.into_iter()
        .map(|slot| slot.expect("a thread filled every slot"))
        .collect()
}

/// Apply `f` to every item in place across `threads` threads. Items are
/// mutated independently, so the outcome is the sequential loop's for
/// any thread count. `stage` labels the fan-out for the run profiler,
/// as in [`map_sharded`].
pub fn for_each_mut_sharded<T, F>(items: &mut [T], threads: usize, stage: &'static str, f: &F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    claim_each(items.iter_mut(), threads, stage, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential_for_any_thread_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD;
        let want: Vec<u64> = (0..97).map(f).collect();
        for threads in [1, 2, 3, 4, 8, 97, 200] {
            assert_eq!(
                map_sharded(97, threads, "test.map", &f),
                want,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_handles_empty_and_tiny() {
        let f = |i: usize| i;
        assert!(map_sharded(0, 4, "test.map", &f).is_empty());
        assert_eq!(map_sharded(1, 4, "test.map", &f), vec![0]);
        assert_eq!(map_sharded(3, 16, "test.map", &f), vec![0, 1, 2]);
    }

    #[test]
    fn for_each_mut_matches_sequential() {
        let init: Vec<u64> = (0..53).collect();
        let f = |x: &mut u64| *x = x.wrapping_mul(31).wrapping_add(7);
        let mut want = init.clone();
        for x in &mut want {
            f(x);
        }
        for threads in [1, 2, 4, 9, 64] {
            let mut got = init.clone();
            for_each_mut_sharded(&mut got, threads, "test.each", &f);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    /// Unit `i` sleeps longer the smaller `i` is, so on any thread count
    /// later units finish before earlier ones. Every result must still
    /// land in its own slot, and every item be visited exactly once.
    #[test]
    fn units_finishing_out_of_order_keep_their_slots() {
        const N: usize = 12;
        let nap = |i: usize| std::thread::sleep(std::time::Duration::from_millis((N - i) as u64));
        let f = |i: usize| {
            nap(i);
            (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD
        };
        let want: Vec<u64> = (0..N).map(f).collect();
        for threads in [2, 3, 8, N + 5] {
            assert_eq!(
                map_sharded(N, threads, "test.map", &f),
                want,
                "threads={threads}"
            );
            // (index, visits): a skipped item reads 0, a repeated one 2.
            let mut items: Vec<(usize, u32)> = (0..N).map(|i| (i, 0)).collect();
            for_each_mut_sharded(&mut items, threads, "test.each", &|it| {
                nap(it.0);
                it.1 += 1;
            });
            let once: Vec<(usize, u32)> = (0..N).map(|i| (i, 1)).collect();
            assert_eq!(items, once, "threads={threads}");
        }
    }

    #[test]
    fn workers_actually_run_concurrently_when_asked() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        let mut items = vec![0u8; 8];
        for_each_mut_sharded(&mut items, 4, "test.each", &|_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        // Sleeping units overlap on any core count: a loop that runs
        // every unit on one thread never sees two live at once.
        assert!(peak.load(Ordering::SeqCst) >= 2);
    }

    /// Units `0..threads` wait until all of them are running, so each
    /// holds its own thread and exactly one holds the calling thread.
    /// Then one of them panics: the caller's if `on_caller`, else the
    /// first worker's. The wait gives up after 10 s with another
    /// message, so a thread the executor never started fails the test
    /// instead of hanging it.
    fn one_unit_panics(threads: usize, on_caller: bool) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Condvar;
        let caller = std::thread::current().id();
        let (arrived, all_in) = (Mutex::new(0), Condvar::new());
        let fired = AtomicBool::new(false);
        map_sharded(2 * threads + 1, threads, "test.map", &|i| {
            if i < threads {
                let mut n = arrived.lock().unwrap();
                *n += 1;
                all_in.notify_all();
                let wait = std::time::Duration::from_secs(10);
                let (n, t) = all_in
                    .wait_timeout_while(n, wait, |n| *n < threads)
                    .unwrap();
                assert!(!t.timed_out(), "only {} of {threads} units ran at once", *n);
                drop(n);
                let on_worker = std::thread::current().id() != caller;
                if on_worker != on_caller && !fired.swap(true, Ordering::SeqCst) {
                    panic!("a unit failed");
                }
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "a unit failed")]
    fn a_panicking_unit_fails_the_call_at_one_thread() {
        one_unit_panics(1, true);
    }

    #[test]
    #[should_panic(expected = "a unit failed")]
    fn a_panicking_unit_on_the_calling_thread_fails_the_call() {
        one_unit_panics(3, true);
    }

    #[test]
    #[should_panic(expected = "a unit failed")]
    fn a_panicking_unit_on_a_worker_fails_the_call() {
        one_unit_panics(3, false);
    }
}
