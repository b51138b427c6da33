//! Ground-truth validation: a *recorded* run of the real CG kernel
//! (instrumented with the line-granularity tracer) replayed through the
//! simulator must behave like the hand-derived CG trace generator —
//! similar off-chip intensity and similar contention growth. This is the
//! check that the generators driving the paper's experiments are faithful
//! to the algorithms they abstract.

use offchip::npb::kernels::cg;
use offchip::npb::recorder::RecordedWorkload;
use offchip::prelude::*;

const SCALE: f64 = 1.0 / 64.0;

fn record_cg(threads: usize) -> RecordedWorkload {
    // A matrix sized like the scaled class-A problem the generator emits:
    // same order and the same ~`row_density` nonzeros per row (make_spd
    // symmetrises, roughly doubling its per-row argument).
    let params = traces::cg::params(ProblemClass::A, SCALE);
    let a = cg::make_spd(
        params.n as usize,
        (params.row_density / 2) as usize,
        314_159_265.0,
    );
    let x = vec![1.0; a.n];
    let (checksum, recorded) = cg::conj_grad_recorded(&a, &x, 4, threads);
    assert!(checksum.is_finite() && checksum != 0.0, "dead computation");
    recorded
}

#[test]
fn recorded_cg_matches_generator_intensity() {
    let machine = machines::intel_uma_8().scaled(SCALE);
    let threads = 8;
    let recorded = record_cg(threads);
    let generated = traces::cg::workload(ProblemClass::A, SCALE, threads);

    let run_of = |w: &dyn Workload, n: usize| run(w, &SimConfig::new(machine.clone(), n));

    let rec = run_of(&recorded, 4);
    let gen = run_of(&generated, 4);

    // Both must go off-chip substantially (the class-A working set exceeds
    // the scaled LLC) ...
    assert!(rec.counters.llc_misses > 10_000, "recorded run too quiet");
    assert!(gen.counters.llc_misses > 10_000, "generated run too quiet");

    // ... with off-chip miss *ratios* in the same regime (within 3× —
    // the generator folds some reuse into compute).
    let ratio = |r: &RunReport| r.counters.llc_misses as f64 / r.counters.llc_accesses as f64;
    let rr = ratio(&rec);
    let gr = ratio(&gen);
    assert!(
        rr / gr < 3.0 && gr / rr < 3.0,
        "miss ratios diverge: recorded {rr:.3} vs generated {gr:.3}"
    );
}

#[test]
fn recorded_cg_contends_like_generator() {
    let machine = machines::intel_uma_8().scaled(SCALE);
    let threads = 8;
    let recorded = record_cg(threads);
    let generated = traces::cg::workload(ProblemClass::A, SCALE, threads);

    let omega8 = |w: &dyn Workload| {
        let c1 = run(w, &SimConfig::new(machine.clone(), 1))
            .counters
            .total_cycles;
        let c8 = run(w, &SimConfig::new(machine.clone(), 8))
            .counters
            .total_cycles;
        degree_of_contention(c8, c1)
    };
    let rec = omega8(&recorded);
    let gen = omega8(&generated);
    // Same qualitative regime: both contended, same order of magnitude.
    assert!(rec > 0.2, "recorded CG must contend, got {rec:.2}");
    assert!(gen > 0.2, "generated CG must contend, got {gen:.2}");
    assert!(
        (rec - gen).abs() / gen.max(rec) < 0.7,
        "contention diverges: recorded omega(8)={rec:.2} vs generated {gen:.2}"
    );
}

#[test]
fn recording_is_replayable_and_deterministic() {
    let recorded = record_cg(4);
    assert!(
        recorded.total_ops() > 50_000,
        "recording suspiciously small"
    );
    let machine = machines::intel_uma_8().scaled(SCALE);
    let a = run(&recorded, &SimConfig::new(machine.clone(), 4));
    let b = run(&recorded, &SimConfig::new(machine, 4));
    assert_eq!(a.counters, b.counters);
}
