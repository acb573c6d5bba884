//! The hot half: per-component rings behind a cloneable
//! [`FlightRecorder`] handle, each resolved once to the [`RingId`] that
//! `emit` indexes by, and the sanitizer hook that dumps them on a
//! violation.

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

    /// `inline(always)`, as is `emit`: out of line, each event is stored
    /// to the stack and loaded back, a store-forwarding stall.
    #[inline(always)]
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

    /// Records in emit order (oldest kept first): the ring's own
    /// buffer, rotated in place.
    fn into_ordered(mut self) -> Vec<FlightEvent> {
        if self.buf.len() == self.cap {
            self.buf.rotate_left(self.next);
        }
        self.buf
    }
}

/// One component's ring, from [`FlightRecorder::ring`]: an index, so an
/// emit through it looks nothing up. Meaningful only to the recorder
/// that issued it and that recorder's clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingId(usize);

/// What [`FlightRecorder::emit`] records into: a [`RingId`], or a
/// component name looked up on every call, for code that emits a
/// handful of records and gains nothing from a handle.
pub trait IntoRingId: Copy {
    fn ring_id(self, recorder: &FlightRecorder) -> RingId;
}

impl IntoRingId for RingId {
    #[inline]
    fn ring_id(self, _: &FlightRecorder) -> RingId {
        self
    }
}

impl IntoRingId for &'static str {
    fn ring_id(self, recorder: &FlightRecorder) -> RingId {
        recorder.ring(self)
    }
}

#[derive(Debug, Default)]
struct Inner {
    cap: usize,
    /// Component rings in registration order, indexed by [`RingId`];
    /// sorted by name only at dump time.
    rings: Vec<(&'static str, Ring)>,
}

/// Cloneable handle to a shared flight recorder. Single-threaded by
/// design: `Rc<RefCell<…>>`, no locks. A capacity of 0 disables
/// recording entirely — [`FlightRecorder::emit`] is then a single
/// branch once its ring is resolved.
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

    /// The ring of `component`, a static dotted path (`"mac.tx"`):
    /// registered on the first ask, the same handle on every later one.
    /// A ring nothing is emitted into stays out of every dump.
    pub fn ring(&self, component: &'static str) -> RingId {
        let mut inner = self.inner.borrow_mut();
        let cap = inner.cap;
        let rings = &mut inner.rings;
        let known = rings.iter().position(|&(name, _)| name == component);
        RingId(known.unwrap_or_else(|| {
            rings.push((component, Ring::new(cap)));
            rings.len() - 1
        }))
    }

    /// Record one event into `ring`. Panics, naming the field, on a
    /// record field over its bound ([`FlightEvent`]).
    #[inline(always)]
    pub fn emit(&self, ring: impl IntoRingId, at: SimTime, cause: CauseId, record: TraceRecord) {
        let RingId(i) = ring.ring_id(self);
        let mut inner = self.inner.borrow_mut();
        if inner.cap == 0 {
            return;
        }
        inner.rings[i].1.push(FlightEvent::new(at, cause, record));
    }

    /// Total records overwritten across all components (wraparound
    /// accounting); export as the `trace.dropped` metric.
    pub fn total_dropped(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.rings.iter().map(|(_, r)| r.dropped).sum()
    }

    /// Immutable snapshot of every ring emitted into, in sorted
    /// component order. Copies every record; a recorder that is done
    /// recording hands its rings over with [`FlightRecorder::take`]
    /// instead.
    pub fn snapshot(&self) -> FlightDump {
        dump(self.inner.borrow().rings.iter().cloned())
    }

    /// The same dump as [`FlightRecorder::snapshot`], made of the rings
    /// themselves: each buffer is rotated into order in place and moved
    /// out, so nothing is copied. Every ring stays registered, empty
    /// (`total_dropped` 0) and recording, so every handle stays valid.
    pub fn take(&self) -> FlightDump {
        let mut inner = self.inner.borrow_mut();
        let empty = Ring::new(inner.cap);
        let rings = inner.rings.iter_mut();
        dump(rings.map(|(name, ring)| (*name, std::mem::replace(ring, empty.clone()))))
    }
}

/// Rings live in registration order; the dump format (and every
/// byte-identity pin downstream) requires sorted component order, and
/// holds a component only once a record was emitted into its ring.
fn dump(rings: impl Iterator<Item = (&'static str, Ring)>) -> FlightDump {
    let mut components: Vec<ComponentTrace> = rings
        .filter(|(_, ring)| !ring.buf.is_empty())
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
