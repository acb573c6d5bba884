//! Runtime sim-sanitizer — cheap invariant hooks for debug/test builds.
//!
//! The static linter (`crates/simcheck`) catches nondeterminism a lexer
//! can see: hash collections, wall clocks, float equality. This module
//! is its runtime complement: invariants that need live values — clock
//! monotonicity, BlockAck window bounds, TCP counter ordering, fleet
//! shard-checksum stability — asserted at the hook sites themselves.
//!
//! Gating: checks run when [`enabled`] is true, i.e. in any build with
//! `debug_assertions` (so plain `cargo test` is sanitized) or with the
//! `sanitize` feature (so release tests can opt in). Release benches
//! compile the checks away entirely. Domain crates (`mac80211`,
//! `tcpsim`, `fleet`) forward their own `sanitize` features to
//! `sim/sanitize`, so `--features sanitize` anywhere in the tree turns
//! the whole stack on.
//!
//! A violation panics with a `sim-sanitizer:` prefix so a failing CI
//! run is immediately distinguishable from an ordinary test assertion.
//! Before panicking, [`violation`] fires the thread's registered
//! *violation hook* (if any) exactly once — the flight recorder
//! (`telemetry::flight`) installs one to dump the last-N trace records
//! to disk, turning every invariant panic into a post-mortem artifact.

use crate::time::SimTime;
use std::cell::RefCell;

thread_local! {
    /// One hook per thread (the simulator is single-threaded, so this is
    /// effectively one hook per simulation world). Taken — not borrowed —
    /// at violation time so a hook that itself trips a check cannot
    /// recurse.
    static VIOLATION_HOOK: RefCell<Option<Box<dyn FnMut()>>> = const { RefCell::new(None) };
}

/// Install a hook that runs once, on this thread, immediately before the
/// next sanitizer violation panics. Replaces any previous hook.
///
/// The hook is consumed when it fires; re-install after catching the
/// panic if another armed dump is wanted.
pub fn set_violation_hook(hook: Box<dyn FnMut()>) {
    VIOLATION_HOOK.with(|h| *h.borrow_mut() = Some(hook));
}

/// Remove the thread's violation hook, if any.
pub fn clear_violation_hook() {
    VIOLATION_HOOK.with(|h| *h.borrow_mut() = None);
}

/// True when sanitizer checks are compiled in and active.
///
/// Const so that `if enabled() { … }` folds to nothing in release
/// builds without the `sanitize` feature.
pub const fn enabled() -> bool {
    cfg!(any(feature = "sanitize", debug_assertions))
}

/// Report an invariant violation. Panics unconditionally — callers
/// gate on [`enabled`] (or use [`check`], which does it for them).
/// Runs the thread's violation hook (see [`set_violation_hook`]) first,
/// so a flight recorder can dump its rings before the unwind starts.
#[track_caller]
#[cold]
pub fn violation(msg: &str) -> ! {
    if let Some(mut hook) = VIOLATION_HOOK.with(|h| h.borrow_mut().take()) {
        hook();
    }
    panic!("sim-sanitizer: {msg}");
}

/// Assert `cond` when the sanitizer is active.
#[track_caller]
pub fn check(cond: bool, msg: &str) {
    if enabled() && !cond {
        violation(msg);
    }
}

/// Simulated time must never run backwards: `next` is the clock value
/// about to be adopted, `prev` the current one.
#[track_caller]
pub fn check_time_monotonic(prev: SimTime, next: SimTime) {
    if enabled() && next < prev {
        violation(&format!("clock moved backwards: {prev} -> {next}"));
    }
}

/// Event pop order must be non-decreasing in timestamp. This re-checks
/// the queue's sorted-run invariant from the outside, so a future bug
/// in where `schedule` puts an entry trips here instead of silently
/// reordering a run.
#[track_caller]
pub fn check_event_order(last_popped_at: SimTime, at: SimTime) {
    if enabled() && at < last_popped_at {
        violation(&format!(
            "event queue popped out of order: {at} after {last_popped_at}"
        ));
    }
}

#[cfg(test)]
mod tests {
    // Plain `cargo test` compiles with debug_assertions, and the CI
    // sanitized pass sets the feature explicitly; either way the
    // checks below are live. Guard anyway so a hypothetical release
    // test run without the feature doesn't report false failures.
    #[cfg(any(feature = "sanitize", debug_assertions))]
    mod active {
        use super::super::*;

        #[test]
        fn enabled_in_this_build() {
            assert!(enabled());
        }

        #[test]
        fn check_passes_on_true() {
            check(true, "never fires");
            check_time_monotonic(SimTime::from_micros(5), SimTime::from_micros(5));
            check_time_monotonic(SimTime::from_micros(5), SimTime::from_micros(9));
            check_event_order(SimTime::ZERO, SimTime::ZERO);
        }

        #[test]
        #[should_panic(expected = "sim-sanitizer: boom")]
        fn check_panics_on_false() {
            check(false, "boom");
        }

        #[test]
        #[should_panic(expected = "sim-sanitizer: clock moved backwards")]
        fn backwards_clock_is_violation() {
            check_time_monotonic(SimTime::from_micros(10), SimTime::from_micros(9));
        }

        #[test]
        #[should_panic(expected = "sim-sanitizer: event queue popped out of order")]
        fn out_of_order_pop_is_violation() {
            check_event_order(SimTime::from_micros(10), SimTime::from_micros(9));
        }

        #[test]
        fn violation_hook_fires_once_before_the_panic() {
            use std::cell::Cell;
            use std::rc::Rc;

            let fired = Rc::new(Cell::new(0u32));
            let fired2 = fired.clone();
            set_violation_hook(Box::new(move || fired2.set(fired2.get() + 1)));

            let caught = std::panic::catch_unwind(|| check(false, "hooked"));
            assert!(caught.is_err());
            assert_eq!(fired.get(), 1, "hook must run before the panic");

            // The hook is consumed: a second violation panics without it.
            let caught = std::panic::catch_unwind(|| check(false, "unhooked"));
            assert!(caught.is_err());
            assert_eq!(fired.get(), 1);
            clear_violation_hook();
        }
    }
}
