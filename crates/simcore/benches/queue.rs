//! Microbenchmarks of the calendar-queue scheduler, across the
//! occupancy/horizon profiles the simulator actually produces.
//!
//! Three regimes matter (DESIGN.md §13): *dense same-cycle* traffic
//! (barrier releases, batched controller wakes — the batching fast
//! path), *sparse far-future* traffic (DRAM completions hundreds of
//! cycles out — the overflow heap and ring-walk path), and a *mixed*
//! stream shaped like a real run. DESIGN.md §13 records how each
//! compared with the binary heap the simulator used to run on.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use offchip_simcore::{CalendarQueue, EventSched, Rng};

/// Steady-state churn: hold `occupancy` events pending, then repeatedly
/// pop one and push a replacement `horizon(rng)` cycles ahead — the
/// hold-one-push-one pattern of the simulator's main loop.
fn churn(
    q: &mut CalendarQueue<u64>,
    occupancy: usize,
    steps: usize,
    mut horizon: impl FnMut(&mut Rng) -> u64,
) -> u64 {
    let mut rng = Rng::new(0x0FF_C41B);
    for i in 0..occupancy as u64 {
        let d = horizon(&mut rng);
        q.schedule_after(d, i);
    }
    let mut acc = 0u64;
    for _ in 0..steps {
        let (_, id) = q.pop().expect("queue stays at steady occupancy");
        acc = acc.wrapping_add(id);
        let d = horizon(&mut rng);
        q.schedule_after(d, id);
    }
    while let Some((_, id)) = q.pop() {
        acc = acc.wrapping_add(id);
    }
    acc
}

fn bench_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(20);

    // (profile, occupancy, horizon draw): dense keeps everything within a
    // few cycles of now; sparse spreads completions far beyond the initial
    // ring; mixed approximates a run's blend of core steps and DRAM waits.
    let dense = |rng: &mut Rng| rng.next_u64() % 4;
    let sparse = |rng: &mut Rng| 200 + rng.next_u64() % 4000;
    let mixed = |rng: &mut Rng| {
        if rng.next_u64() % 8 < 6 {
            rng.next_u64() % 8
        } else {
            100 + rng.next_u64() % 1000
        }
    };

    const STEPS: usize = 50_000;
    group.bench_function("calendar_dense_ties_occ64", |b| {
        b.iter(|| black_box(churn(&mut CalendarQueue::new(), 64, STEPS, dense)))
    });
    group.bench_function("calendar_sparse_far_future_occ512", |b| {
        b.iter(|| black_box(churn(&mut CalendarQueue::new(), 512, STEPS, sparse)))
    });
    group.bench_function("calendar_mixed_occ256", |b| {
        b.iter(|| black_box(churn(&mut CalendarQueue::new(), 256, STEPS, mixed)))
    });
    // Resize stress: start at the minimum ring and let far-future pressure
    // grow it mid-churn, charging the rebuild cost to the profile.
    group.bench_function("calendar_growth_from_min_ring_occ2048", |b| {
        b.iter(|| {
            black_box(churn(
                &mut CalendarQueue::with_buckets(64),
                2048,
                STEPS,
                sparse,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_queues);
criterion_main!(benches);
