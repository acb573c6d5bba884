//! The hot half: per-component rings behind a cloneable
//! [`FlightRecorder`] handle, and the sanitizer hook that dumps them on
//! a violation.

use super::{CauseId, ComponentTrace, FlightDump, FlightEvent, TraceRecord};
use sim::SimTime;
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

/// Fixed-capacity ring with wraparound accounting.
#[derive(Debug, Clone, Default)]
struct Ring {
    cap: usize,
    buf: Vec<FlightEvent>,
    /// Next slot to write (== oldest slot once the buffer is full).
    next: usize,
    /// Records overwritten after the ring filled.
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap,
            ..Ring::default()
        }
    }

    fn push(&mut self, ev: FlightEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.dropped += 1;
        }
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
    }

    /// Records in chronological order (oldest kept first): the ring's
    /// own buffer, rotated in place.
    fn into_ordered(mut self) -> Vec<FlightEvent> {
        if self.buf.len() == self.cap {
            self.buf.rotate_left(self.next);
        }
        self.buf
    }
}

#[derive(Debug, Default)]
struct Inner {
    cap: usize,
    /// Component rings in first-emit order; looked up by a linear scan
    /// (component counts are small and static-str pointer equality
    /// short-circuits almost every probe), sorted only at snapshot time.
    rings: Vec<(&'static str, Ring)>,
}

impl Inner {
    fn ring_mut(&mut self, component: &'static str) -> &mut Ring {
        // Pointer equality first: `component` is a static literal, so
        // repeat emits from the same call site hit the same pointer.
        let pos = self
            .rings
            .iter()
            .position(|&(name, _)| std::ptr::eq(name, component) || name == component);
        let idx = match pos {
            Some(i) => i,
            None => {
                self.rings.push((component, Ring::new(self.cap)));
                self.rings.len() - 1
            }
        };
        &mut self.rings[idx].1
    }
}

/// Cloneable handle to a shared flight recorder. Single-threaded by
/// design: `Rc<RefCell<…>>`, no locks. A
/// capacity of 0 disables recording entirely — [`FlightRecorder::emit`]
/// is then a single branch.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Rc<RefCell<Inner>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` records per component.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Rc::new(RefCell::new(Inner {
                cap: capacity,
                rings: Vec::new(),
            })),
        }
    }

    /// Record one event under `component`. `component` must be a static
    /// dotted path (`"mac.tx"`) so the hot path does no string work.
    #[inline]
    pub fn emit(&self, component: &'static str, at: SimTime, cause: CauseId, record: TraceRecord) {
        let mut inner = self.inner.borrow_mut();
        if inner.cap == 0 {
            return;
        }
        inner
            .ring_mut(component)
            .push(FlightEvent { at, cause, record });
    }

    /// Total records overwritten across all components (wraparound
    /// accounting); export as the `trace.dropped` metric.
    pub fn total_dropped(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.rings.iter().map(|(_, r)| r.dropped).sum()
    }

    /// Immutable snapshot of every ring, in sorted component order.
    /// Copies every record; a recorder that is done recording hands
    /// its rings over with [`FlightRecorder::take`] instead.
    pub fn snapshot(&self) -> FlightDump {
        dump(self.inner.borrow().rings.clone())
    }

    /// The same dump as [`FlightRecorder::snapshot`], made of the rings
    /// themselves: each buffer is rotated into order in place and moved
    /// out, so nothing is copied. Every handle to this recorder is left
    /// with no components (and `total_dropped` 0), still recording.
    pub fn take(&self) -> FlightDump {
        dump(std::mem::take(&mut self.inner.borrow_mut().rings))
    }
}

/// Rings live in first-emit order; the dump format (and every
/// byte-identity pin downstream) requires sorted component order.
fn dump(rings: Vec<(&'static str, Ring)>) -> FlightDump {
    let mut components: Vec<ComponentTrace> = rings
        .into_iter()
        .map(|(name, ring)| ComponentTrace {
            name: name.to_owned(),
            capacity: ring.cap as u64,
            dropped: ring.dropped,
            records: ring.into_ordered(),
        })
        .collect();
    components.sort_by(|a, b| a.name.cmp(&b.name));
    FlightDump { components }
}

/// Arm flight-recorder mode: on the next sim-sanitizer violation, write
/// the recorder's snapshot to `path` before the panic unwinds. The dump
/// is the post-mortem artifact — parse it with [`FlightDump::parse`] or
/// inspect it with `wifictl trace`.
pub fn install_violation_dump(recorder: &FlightRecorder, path: PathBuf) {
    let rec = recorder.clone();
    sim::sanitize::set_violation_hook(Box::new(move || {
        let bytes = rec.snapshot().to_bytes();
        if let Err(e) = std::fs::write(&path, bytes) {
            eprintln!(
                "flight recorder: could not write violation dump {}: {e}",
                path.display()
            );
        }
    }));
}
