//! §4.4/E12 hot paths: summary construction and merging.

use arm_core::RmState;
use arm_model::{MediaFormat, MediaObject, PeerInfo, ServiceSpec};
use arm_proto::RmCandidacy;
use arm_util::{DomainId, NodeId, ObjectId, ServiceId, SimTime};
use arm_workload::default_format_ladder;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn populated_rm(objects: usize) -> RmState {
    let me = NodeId::new(0);
    let mut rm = RmState::new(
        DomainId::new(1),
        me,
        PeerInfo::idle(100.0, 10_000),
        RmCandidacy {
            node: me,
            capacity: 100.0,
            bandwidth_kbps: 10_000,
            uptime_secs: 3_600.0,
        },
        SimTime::ZERO,
    );
    let ladder = default_format_ladder();
    let objs: Vec<MediaObject> = (0..objects)
        .map(|k| {
            MediaObject::new(
                ObjectId::new(k as u64),
                format!("obj-{k}"),
                ladder[k % 2],
                120.0,
            )
        })
        .collect();
    let services: Vec<ServiceSpec> = ladder
        .windows(2)
        .enumerate()
        .map(|(i, w)| ServiceSpec::transcoder(ServiceId::new(i as u64), w[0], w[1], 5.0))
        .collect();
    rm.register_inventory(me, &objs, &services);
    rm
}

fn bench_gossip(c: &mut Criterion) {
    let mut g = c.benchmark_group("gossip");
    for n in [50usize, 500, 5_000] {
        let mut rm = populated_rm(n);
        // A version bump stands for an inventory change: every iteration
        // rebuilds the filters rather than reusing the last round's.
        g.bench_function(format!("own_summary/{n}_objects"), |b| {
            b.iter(|| {
                rm.version += 1;
                black_box(rm.own_summary())
            })
        });
    }
    let mut rm = populated_rm(500);
    let mut summary = rm.own_summary();
    summary.domain = DomainId::new(99);
    summary.rm = NodeId::new(99);
    g.bench_function("merge_summary", |b| {
        let mut target = populated_rm(500);
        let mut v = 1u64;
        b.iter(|| {
            let mut s = summary.clone();
            v += 1;
            s.version = v;
            black_box(target.merge_summary(s))
        })
    });
    let _ = MediaFormat::paper_source();
    g.finish();
}

criterion_group!(benches, bench_gossip);
criterion_main!(benches);
