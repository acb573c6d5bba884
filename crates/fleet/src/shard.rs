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
//! Partitioning is static (contiguous chunks, one per worker). Work per
//! network varies with its drawn size, but fleet sizes are large
//! relative to thread counts, so chunk imbalance averages out; static
//! chunks keep the executor free of locks and work-queues entirely.

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

/// Record the shard geometry for the run profiler: the per-worker
/// backlog (chunk size) each stage handed its workers. Pure
/// observation — no-op (one relaxed load) unless `--runprof` is live.
fn profile_chunk(stage: &str, chunk: usize) {
    if telemetry::runprof::enabled() {
        telemetry::runprof::watermark(&format!("{stage}.backlog"), chunk as u64);
    }
}

/// Build a `Vec<T>` by evaluating `f(0..n)` across `threads` workers
/// (a count [`workers`] resolved: every one of them is spawned).
/// Equivalent to `(0..n).map(f).collect()` for any thread count.
/// `stage` names this fan-out in the wall-clock run profiler; worker
/// wall time accumulates under it (spans overlap across workers, so a
/// stage's `total_ns` is CPU-seconds-like, not elapsed time).
pub fn map_sharded<T, F>(n: usize, threads: usize, stage: &'static str, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 {
        profile_chunk(stage, n);
        let _prof = telemetry::runprof::span(stage);
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads.min(n));
    profile_chunk(stage, chunk);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        for (w, slots) in out.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                let _prof = telemetry::runprof::span(stage);
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(w * chunk + j));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

/// Apply `f` to every item in place, sharded across `threads` workers.
/// Items are mutated independently; index-chunked partitioning keeps the
/// outcome identical to the sequential loop. `stage` labels the fan-out
/// for the run profiler, as in [`map_sharded`].
pub fn for_each_mut_sharded<T, F>(items: &mut [T], threads: usize, stage: &'static str, f: &F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    if items.is_empty() {
        return;
    }
    if threads <= 1 {
        profile_chunk(stage, items.len());
        let _prof = telemetry::runprof::span(stage);
        for it in items {
            f(it);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    profile_chunk(stage, chunk);
    std::thread::scope(|s| {
        for slots in items.chunks_mut(chunk) {
            s.spawn(move || {
                let _prof = telemetry::runprof::span(stage);
                for it in slots {
                    f(it);
                }
            });
        }
    });
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
        // On a single-core host threads may still serialize; at least
        // assert nothing deadlocked and the call completed.
        assert!(peak.load(Ordering::SeqCst) >= 1);
    }
}
