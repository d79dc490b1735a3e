//! DES kernel throughput, plus the telemetry noop-overhead bound: the
//! disabled [`Recorder`] hooks on the event loop must stay within 5% of
//! the same loop with no hooks at all.

use arm_des::Simulator;
use arm_telemetry::{Labels, Recorder};
use arm_util::{DetRng, SimTime};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_des(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    g.bench_function("schedule_pop_10k_random", |b| {
        let mut rng = DetRng::new(1);
        let times: Vec<u64> = (0..10_000).map(|_| rng.below(1_000_000)).collect();
        b.iter(|| {
            let mut sim: Simulator<u32> = Simulator::with_capacity(times.len());
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_micros(t), i as u32);
            }
            let mut acc = 0u64;
            while let Some(ev) = sim.step() {
                acc = acc.wrapping_add(ev.event as u64);
            }
            black_box(acc)
        })
    });
    // The same loop carrying a payload as large as the simulator's own
    // event (192 bytes), which is what the kernel moves in a real run.
    g.bench_function("schedule_pop_10k_random_192b", |b| {
        let mut rng = DetRng::new(1);
        let times: Vec<u64> = (0..10_000).map(|_| rng.below(1_000_000)).collect();
        b.iter(|| {
            let mut sim: Simulator<[u64; 24]> = Simulator::with_capacity(times.len());
            for (i, &t) in times.iter().enumerate() {
                let mut payload = [0u64; 24];
                payload[0] = i as u64;
                sim.schedule_at(SimTime::from_micros(t), payload);
            }
            let mut acc = 0u64;
            while let Some(ev) = sim.step() {
                acc = acc.wrapping_add(ev.event[0]);
            }
            black_box(acc)
        })
    });
    g.bench_function("self_rescheduling_timer_100k", |b| {
        b.iter(|| {
            let mut sim: Simulator<()> = Simulator::new();
            sim.schedule_at(SimTime::from_micros(1), ());
            let mut n = 0u64;
            while n < 100_000 {
                let ev = sim.step().expect("timer chain");
                n += 1;
                sim.schedule_at(ev.time + arm_util::SimDuration::from_micros(10), ());
            }
            black_box(n)
        })
    });
    g.finish();
}

/// Same 10k schedule+drain loop, bare vs. with a disabled recorder
/// invoked per event — the "zero-cost when off" guarantee, asserted.
fn bench_telemetry_noop(c: &mut Criterion) {
    fn drain_loop(recorder: Option<&mut Recorder>, times: &[u64]) -> u64 {
        let mut sim: Simulator<u32> = Simulator::with_capacity(times.len());
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_micros(t), i as u32);
        }
        let mut acc = 0u64;
        match recorder {
            None => {
                while let Some(ev) = sim.step() {
                    acc = acc.wrapping_add(ev.event as u64);
                }
            }
            Some(rec) => {
                while let Some(ev) = sim.step() {
                    rec.inc("des_events_processed", Labels::NONE);
                    rec.set_gauge("des_queue_depth", Labels::NONE, sim.pending() as f64);
                    acc = acc.wrapping_add(ev.event as u64);
                }
            }
        }
        acc
    }

    let mut rng = DetRng::new(1);
    let times: Vec<u64> = (0..10_000).map(|_| rng.below(1_000_000)).collect();
    let mut g = c.benchmark_group("des_telemetry");
    g.bench_function("drain_10k_plain", |b| {
        b.iter(|| black_box(drain_loop(None, &times)))
    });
    g.bench_function("drain_10k_noop_recorder", |b| {
        let mut rec = Recorder::disabled();
        b.iter(|| black_box(drain_loop(Some(&mut rec), &times)))
    });
    g.finish();

    let mean = |id: &str| {
        c.results()
            .iter()
            .find(|m| m.id == format!("des_telemetry/{id}"))
            .map(|m| m.mean_ns)
            .expect("bench ran")
    };
    let plain = mean("drain_10k_plain");
    let noop = mean("drain_10k_noop_recorder");
    let regression = noop / plain - 1.0;
    println!("noop recorder overhead: {:+.2}%", regression * 100.0);
    assert!(
        regression < 0.05,
        "disabled telemetry must cost <5% on the DES loop: \
         plain {plain:.1} ns/iter, noop {noop:.1} ns/iter ({:+.2}%)",
        regression * 100.0
    );
}

criterion_group!(benches, bench_des, bench_telemetry_noop);
criterion_main!(benches);
