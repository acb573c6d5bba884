//! Criterion: what one tick of each always-on telemetry sink costs —
//! QoE scoring over a full operational window, one timeline tick over
//! a testbed-sized registry, and serialising a wrapped flight ring.
//! `obs_full`'s gap to `dense_fastack` is made of these three.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wifi_core::qoe::{ClientQoe, ProbeConfig, OPERATIONAL_WINDOW};
use wifi_core::sim::{SimDuration, SimTime};
use wifi_core::telemetry::{
    cause_for, FlightRecorder, Registry, Timeline, TimelineConfig, TraceRecord,
};

fn bench_qoe_score(c: &mut Criterion) {
    // A client whose 10 s window (500 samples at 50 pps) has rolled,
    // scored the way every health tick scores it.
    let cfg = ProbeConfig::default();
    let mut q = ClientQoe::new(&cfg);
    for i in 0..1_200u64 {
        let at = SimTime::ZERO + cfg.interval() * i;
        let seq = q.on_sent(at);
        if i % 11 == 0 {
            q.on_lost(seq);
        } else {
            q.on_delivered(seq, at + SimDuration::from_micros(400 + (i * 7919) % 9_000));
        }
    }
    c.bench_function("qoe_score_500_sample_window", |b| {
        b.iter(|| black_box(q.score(OPERATIONAL_WINDOW)))
    });
}

fn bench_timeline_sample(c: &mut Criterion) {
    // 60 counters + 40 gauges under testbed-shaped paths, 40 staged
    // f64 signals set by handle: the steady tick, nothing new to meet.
    let mut reg = Registry::new();
    let counters: Vec<_> = (0..60)
        .map(|i| reg.counter(&format!("mac.ap{}.c{i}.frames", i % 2)))
        .collect();
    let gauges: Vec<_> = (0..40)
        .map(|i| reg.gauge(&format!("qoe.client{i}.score")))
        .collect();
    let every = SimDuration::from_millis(10);
    let mut tl = Timeline::new(&TimelineConfig::sampling(every));
    let staged: Vec<_> = (0..40)
        .map(|c| tl.stage_f64(&format!("tcp.flow{c}.cwnd_segments")))
        .collect();
    let mut tick = 0u64;
    c.bench_function("timeline_sample_100_series_tick", |b| {
        b.iter(|| {
            for &id in &counters {
                reg.add(id, 3);
            }
            for (i, &id) in gauges.iter().enumerate() {
                reg.gauge_set(id, (tick % 100) as i64 - i as i64);
            }
            for (i, &id) in staged.iter().enumerate() {
                tl.set(id, 10.0 + (tick % 64) as f64 + i as f64);
            }
            tl.sample(SimTime::ZERO + every * tick, &reg);
            tick += 1;
            black_box(tl.ticks())
        })
    });
}

fn bench_flight_to_bytes(c: &mut Criterion) {
    // One 64k ring, wrapped once over, moved out of the recorder.
    let rec = FlightRecorder::new(65_536);
    for i in 0..100_000u64 {
        let flow = 1 + i % 40;
        rec.emit(
            "mac.tx",
            SimTime::from_nanos(i * 1_000),
            cause_for(flow, i),
            TraceRecord::MacTx {
                flow,
                seq: i,
                delivered: i % 16 != 0,
            },
        );
    }
    let dump = rec.take();
    c.bench_function("flight_to_bytes_64k_records", |b| {
        b.iter(|| black_box(dump.to_bytes().len()))
    });
}

criterion_group!(
    benches,
    bench_qoe_score,
    bench_timeline_sample,
    bench_flight_to_bytes
);
criterion_main!(benches);
