//! A-MPDU aggregation and BlockAck accounting.
//!
//! The mechanism at the center of the paper's §5: an 802.11ac transmit
//! opportunity carries an Aggregate MPDU — up to 64 MPDUs (one BlockAck
//! window) or 5.3 ms of airtime, whichever binds first. The *aggregate
//! size achieved* is determined by how many packets are sitting in the
//! per-destination queue when the TXOP is won; FastACK's entire purpose
//! is to keep those queues full so this builder can emit large
//! aggregates.

use phy80211::airtime::{AirtimeTable, MAX_AMPDU_DURATION, MAX_AMPDU_FRAMES};
use phy80211::channels::Width;
use phy80211::mcs::{GuardInterval, Mcs};
use sim::SimDuration;

/// One MPDU queued for a destination: an opaque payload id plus its size.
/// The id lets higher layers (TCP, FastACK) map MAC delivery reports back
/// to their packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedMpdu {
    /// Caller-assigned identifier (e.g. TCP segment key).
    pub id: u64,
    /// MSDU payload bytes (IP packet size).
    pub bytes: usize,
}

/// An assembled A-MPDU ready for transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct Ampdu {
    pub mpdus: Vec<QueuedMpdu>,
    /// Airtime of the aggregate at the chosen rate.
    pub duration: SimDuration,
}

impl Ampdu {
    /// Number of MPDUs — the paper's "aggregate size".
    pub fn size(&self) -> usize {
        self.mpdus.len()
    }

    /// Total payload bytes carried.
    pub fn payload_bytes(&self) -> usize {
        self.mpdus.iter().map(|m| m.bytes).sum()
    }

    /// Causal id for the flight recorder: the aggregate joins the chain
    /// of its head MPDU (MPDU ids already pack `(flow, seq)` with the
    /// same convention as `telemetry::cause_for`).
    pub fn cause(&self) -> telemetry::CauseId {
        telemetry::CauseId(self.mpdus.first().map_or(0, |m| m.id))
    }

    /// Typed flight-recorder record for this aggregate's assembly.
    // size() ≤ 64 by check_ampdu.
    #[allow(clippy::expect_used)]
    pub fn flight_record(&self, flow: u64) -> telemetry::TraceRecord {
        telemetry::TraceRecord::AmpduBuild {
            flow,
            frames: u32::try_from(self.size()).expect("A-MPDU frame count"),
            bytes: self.payload_bytes() as u64,
        }
    }
}

/// Limits applied when building an aggregate.
#[derive(Debug, Clone, Copy)]
pub struct AggLimits {
    /// Max MPDUs per aggregate (BlockAck window; default 64).
    pub max_frames: usize,
    /// Max airtime per aggregate (802.11ac wave-2: 5.3 ms).
    pub max_duration: SimDuration,
}

impl Default for AggLimits {
    fn default() -> Self {
        AggLimits {
            max_frames: MAX_AMPDU_FRAMES,
            max_duration: MAX_AMPDU_DURATION,
        }
    }
}

/// Build the largest legal A-MPDU from the head of `queue` at the given
/// rate, removing the consumed MPDUs from the queue.
///
/// Returns `None` if the queue is empty or the rate is invalid. A single
/// MPDU is always allowed even if it alone exceeds `max_duration`
/// (otherwise low rates could never transmit at all).
pub fn build_ampdu(
    queue: &mut Vec<QueuedMpdu>,
    mcs: Mcs,
    nss: u8,
    width: Width,
    gi: GuardInterval,
    limits: AggLimits,
) -> Option<Ampdu> {
    if queue.is_empty() {
        return None;
    }
    // Resolve the rate once; every per-frame duration probe is then two
    // integer ops on the running PSDU total instead of a rate lookup
    // plus a re-sum of every already-staged frame.
    let table = AirtimeTable::new(mcs, nss, width, gi)?;
    let mut take = 0usize;
    let mut psdu_bytes = 0usize;
    let mut duration = SimDuration::ZERO;
    //= spec: dot11ac:ampdu:frame-cap
    while take < queue.len() && take < limits.max_frames {
        let with_next = psdu_bytes + AirtimeTable::ampdu_mpdu_bytes(queue[take].bytes);
        let d = table.ppdu_duration(with_next);
        // `take > 0` is the single-MPDU exception: the head frame is
        // taken even when it alone busts the duration cap.
        //= spec: dot11ac:ampdu:duration-cap
        //= spec: dot11ac:ampdu:single-mpdu-exception
        if d > limits.max_duration && take > 0 {
            break;
        }
        psdu_bytes = with_next;
        duration = d;
        take += 1;
        if duration > limits.max_duration {
            break; // single over-long MPDU: allowed, but nothing more
        }
    }
    //= spec: dot11ac:ampdu:fifo-order
    let mpdus: Vec<QueuedMpdu> = queue.drain(..take).collect();
    let ampdu = Ampdu { mpdus, duration };
    check_ampdu(&ampdu, limits.max_frames);
    Some(ampdu)
}

/// Sanitizer hook: an assembled aggregate must be non-empty and must
/// not exceed its frame limit (at most the 64-frame BlockAck window).
/// No-op unless the sim-sanitizer is active — see [`sim::sanitize`].
#[track_caller]
pub fn check_ampdu(ampdu: &Ampdu, max_frames: usize) {
    if !sim::sanitize::enabled() {
        return;
    }
    sim::sanitize::check(!ampdu.mpdus.is_empty(), "A-MPDU with zero MPDUs");
    //= spec: dot11ac:ampdu:frame-cap
    if ampdu.size() > max_frames.min(MAX_AMPDU_FRAMES) {
        sim::sanitize::violation(&format!(
            "A-MPDU of {} frames exceeds the {}-frame BlockAck window",
            ampdu.size(),
            max_frames.min(MAX_AMPDU_FRAMES),
        ));
    }
}

/// Sanitizer hook: a BlockAck must cover exactly the transmitted
/// aggregate — same MPDU count (within the 64-frame window) and the
/// same ids in the same order, so per-MPDU delivery state can never
/// regress onto the wrong sequence. No-op unless the sim-sanitizer is
/// active.
#[track_caller]
pub fn check_blockack(ampdu: &Ampdu, ba: &BlockAck) {
    if !sim::sanitize::enabled() {
        return;
    }
    //= spec: dot11ac:ba:exact-cover
    if ba.per_mpdu.len() > MAX_AMPDU_FRAMES {
        sim::sanitize::violation(&format!(
            "BlockAck covers {} MPDUs, window is {MAX_AMPDU_FRAMES}",
            ba.per_mpdu.len(),
        ));
    }
    if ba.per_mpdu.len() != ampdu.size() {
        sim::sanitize::violation(&format!(
            "BlockAck covers {} MPDUs but the aggregate carried {}",
            ba.per_mpdu.len(),
            ampdu.size(),
        ));
    }
    for (i, (&(ba_id, _), mpdu)) in ba.per_mpdu.iter().zip(&ampdu.mpdus).enumerate() {
        if ba_id != mpdu.id {
            sim::sanitize::violation(&format!(
                "BlockAck sequence regression at index {i}: acked id {ba_id}, transmitted id {}",
                mpdu.id,
            ));
        }
    }
}

/// Receiver-side BlockAck bookkeeping: which MPDUs of the last aggregate
/// arrived intact. The transmitter re-queues the failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockAck {
    /// (id, delivered) per transmitted MPDU, in aggregate order.
    pub per_mpdu: Vec<(u64, bool)>,
}

impl BlockAck {
    /// Ids successfully delivered.
    pub fn acked(&self) -> impl Iterator<Item = u64> + '_ {
        self.per_mpdu
            .iter()
            .filter(|(_, ok)| *ok)
            .map(|&(id, _)| id)
    }

    /// Ids that failed and need retransmission.
    pub fn failed(&self) -> impl Iterator<Item = u64> + '_ {
        self.per_mpdu
            .iter()
            .filter(|(_, ok)| !*ok)
            .map(|&(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SGI: GuardInterval = GuardInterval::Short;

    fn q(n: usize, bytes: usize) -> Vec<QueuedMpdu> {
        (0..n)
            .map(|i| QueuedMpdu {
                id: i as u64,
                bytes,
            })
            .collect()
    }

    #[test]
    fn flight_record_reflects_aggregate_shape() {
        let mut queue = q(10, 1460);
        let a = build_ampdu(&mut queue, Mcs(9), 3, Width::W80, SGI, AggLimits::default()).unwrap();
        // Aggregate joins the chain of its head MPDU.
        assert_eq!(a.cause(), telemetry::CauseId(a.mpdus[0].id));
        assert_eq!(
            a.flight_record(7),
            telemetry::TraceRecord::AmpduBuild {
                flow: 7,
                frames: 10,
                bytes: 14_600,
            }
        );
    }

    #[test]
    fn empty_queue_builds_nothing() {
        let mut queue = Vec::new();
        assert!(
            build_ampdu(&mut queue, Mcs(9), 2, Width::W80, SGI, AggLimits::default()).is_none()
        );
    }

    #[test]
    fn takes_up_to_64_frames_at_high_rate() {
        //= spec: dot11ac:ampdu:frame-cap
        //= spec: dot11ac:ampdu:fifo-order
        let mut queue = q(100, 1460);
        let a = build_ampdu(&mut queue, Mcs(9), 3, Width::W80, SGI, AggLimits::default()).unwrap();
        assert_eq!(a.size(), 64);
        assert_eq!(queue.len(), 36);
        assert!(a.duration < MAX_AMPDU_DURATION);
        // Consumed in FIFO order.
        assert_eq!(a.mpdus[0].id, 0);
        assert_eq!(a.mpdus[63].id, 63);
    }

    #[test]
    fn duration_cap_binds_at_low_rate() {
        // At MCS0 20MHz a 1460B MPDU takes ~0.9ms: only ~5 fit in 5.3ms.
        //= spec: dot11ac:ampdu:duration-cap
        let mut queue = q(64, 1460);
        let a = build_ampdu(&mut queue, Mcs(0), 1, Width::W20, SGI, AggLimits::default()).unwrap();
        assert!(a.size() < 10, "size = {}", a.size());
        assert!(a.duration <= MAX_AMPDU_DURATION);
    }

    #[test]
    fn single_overlong_mpdu_is_still_sent() {
        //= spec: dot11ac:ampdu:single-mpdu-exception
        let mut queue = q(3, 60_000); // jumbo payload exceeding cap alone
        let a = build_ampdu(&mut queue, Mcs(0), 1, Width::W20, SGI, AggLimits::default()).unwrap();
        assert_eq!(a.size(), 1);
        assert!(a.duration > MAX_AMPDU_DURATION);
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn small_queue_is_fully_drained() {
        let mut queue = q(7, 1460);
        let a = build_ampdu(&mut queue, Mcs(9), 2, Width::W80, SGI, AggLimits::default()).unwrap();
        assert_eq!(a.size(), 7);
        assert!(queue.is_empty());
    }

    #[test]
    fn custom_frame_limit() {
        let mut queue = q(64, 1460);
        let limits = AggLimits {
            max_frames: 16,
            ..AggLimits::default()
        };
        let a = build_ampdu(&mut queue, Mcs(9), 2, Width::W80, SGI, limits).unwrap();
        assert_eq!(a.size(), 16);
    }

    #[test]
    fn payload_accounting() {
        let mut queue = q(4, 1000);
        let a = build_ampdu(&mut queue, Mcs(9), 2, Width::W80, SGI, AggLimits::default()).unwrap();
        assert_eq!(a.payload_bytes(), 4000);
    }

    #[test]
    fn blockack_partitions_ids() {
        let ba = BlockAck {
            per_mpdu: vec![(10, true), (11, false), (12, true)],
        };
        assert_eq!(ba.acked().collect::<Vec<_>>(), vec![10, 12]);
        assert_eq!(ba.failed().collect::<Vec<_>>(), vec![11]);
    }

    // Live whenever the sim-sanitizer is, i.e. in debug builds.
    #[cfg(debug_assertions)]
    mod sanitizer {
        use super::*;

        fn ampdu(ids: &[u64]) -> Ampdu {
            Ampdu {
                mpdus: ids
                    .iter()
                    .map(|&id| QueuedMpdu { id, bytes: 1460 })
                    .collect(),
                duration: SimDuration::from_micros(100),
            }
        }

        #[test]
        fn matching_blockack_passes() {
            let a = ampdu(&[5, 6, 7]);
            let ba = BlockAck {
                per_mpdu: vec![(5, true), (6, false), (7, true)],
            };
            check_blockack(&a, &ba);
            check_ampdu(&a, MAX_AMPDU_FRAMES);
        }

        #[test]
        #[should_panic(expected = "sim-sanitizer: A-MPDU of 65 frames exceeds")]
        fn oversized_ampdu_is_violation() {
            //= spec: dot11ac:ampdu:frame-cap
            let ids: Vec<u64> = (0..65).collect();
            check_ampdu(&ampdu(&ids), MAX_AMPDU_FRAMES);
        }

        #[test]
        #[should_panic(expected = "sim-sanitizer: BlockAck covers")]
        fn blockack_count_mismatch_is_violation() {
            //= spec: dot11ac:ba:exact-cover
            let a = ampdu(&[1, 2, 3]);
            let ba = BlockAck {
                per_mpdu: vec![(1, true), (2, true)],
            };
            check_blockack(&a, &ba);
        }

        #[test]
        #[should_panic(expected = "sim-sanitizer: BlockAck sequence regression at index 1")]
        fn blockack_id_regression_is_violation() {
            //= spec: dot11ac:ba:exact-cover
            let a = ampdu(&[1, 2, 3]);
            let ba = BlockAck {
                per_mpdu: vec![(1, true), (3, true), (2, true)],
            };
            check_blockack(&a, &ba);
        }
    }

    #[test]
    fn invalid_rate_returns_none_and_preserves_queue() {
        let mut queue = q(5, 1460);
        let r = build_ampdu(
            &mut queue,
            Mcs(10),
            1,
            Width::W20,
            SGI,
            AggLimits::default(),
        );
        assert!(r.is_none());
        assert_eq!(queue.len(), 5);
    }
}
