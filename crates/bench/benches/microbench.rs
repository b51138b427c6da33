//! Micro-benchmarks of the simulator's hot paths: cache lookups, memory-
//! controller reservations, the event queue and the PRNG. These bound the
//! end-to-end simulation rate (accesses per second) that every experiment
//! sweep pays for.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use offchip_cache::{AccessKind, CacheConfig, ReplacementPolicy, SetAssocCache};
use offchip_dram::fcfs::McConfig;
use offchip_dram::mapping::AddressMapping;
use offchip_dram::{FcfsController, McModel, Request};
use offchip_simcore::{CalendarQueue, EventSched, Rng, SimTime};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.sample_size(20);

    group.bench_function("l1_hit_stream", |b| {
        let mut cache = SetAssocCache::new(CacheConfig::from_capacity(
            32 * 1024,
            8,
            64,
            ReplacementPolicy::Lru,
        ));
        // Warm a small working set.
        for i in 0..64u64 {
            cache.access(i * 64, AccessKind::Read);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(cache.access(i * 64, AccessKind::Read))
        });
    });

    group.bench_function("llc_miss_stream", |b| {
        let mut cache = SetAssocCache::new(CacheConfig::from_capacity(
            192 * 1024,
            16,
            64,
            ReplacementPolicy::Lru,
        ));
        let mut addr = 0u64;
        b.iter(|| {
            addr += 64 * 7;
            black_box(cache.access(addr, AccessKind::Write))
        });
    });
    group.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram");
    group.sample_size(20);
    group.bench_function("fcfs_enqueue", |b| {
        let cfg = McConfig {
            mapping: AddressMapping::new(2, 4, 64, 2048),
            row_hit_cycles: 70,
            row_miss_cycles: 200,
            transfer_cycles: 14,
        };
        let mut mc = FcfsController::new(cfg);
        let mut id = 0u64;
        let mut now = SimTime(0);
        b.iter(|| {
            id += 1;
            now += 30;
            black_box(mc.enqueue(
                now,
                Request {
                    id,
                    line_addr: id * 64 * 5,
                    is_write: id.is_multiple_of(3),
                    network_latency: 40,
                },
            ))
        });
    });
    group.finish();
}

fn bench_simcore(c: &mut Criterion) {
    let mut group = c.benchmark_group("simcore");
    group.sample_size(20);
    group.bench_function("event_queue_push_pop", |b| {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            q.schedule_at(SimTime(t + 100), 1);
            if q.len() > 64 {
                black_box(q.pop());
            }
        });
    });
    group.bench_function("rng_next_u64", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| black_box(rng.next_u64()));
    });
    group.finish();
}

criterion_group!(benches, bench_cache, bench_dram, bench_simcore);
criterion_main!(benches);
