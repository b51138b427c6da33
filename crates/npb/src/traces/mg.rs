//! MG access-trace generator: V-cycle multigrid.
//!
//! MG's signature off-chip behaviour is *hierarchical*: each V-cycle
//! sweeps the fine grid (large, streaming, stencil-shaped — misses
//! everywhere once the grid exceeds the LLC), then touches a geometric
//! cascade of coarser grids, most of which are cache-resident. The result
//! sits between FT and IS in contention: big streaming phases like FT's
//! unit-stride passes, but an eighth of the traffic per level of descent
//! and real temporal reuse on the coarse levels.

use crate::classes::{self, ProblemClass};
use crate::traces::{chunk, Layout, Phase, PhaseWorkload};

/// Derived simulation-scale parameters for an MG run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgParams {
    /// Finest-level cells after scaling (cube).
    pub cells: u64,
    /// V-cycles simulated.
    pub cycles: u64,
    /// Bytes per fine-grid array (8-byte reals; u, v and r arrays exist).
    pub array_bytes: u64,
}

/// Paper-scale finest-grid edges per class (NPB spec: 32³ S … 512³ C).
fn mg_edge(class: ProblemClass) -> u64 {
    match class {
        ProblemClass::S => 32,
        ProblemClass::W => 128,
        ProblemClass::A => 256,
        ProblemClass::B => 256,
        ProblemClass::C => 512,
    }
}

/// Trace-volume cap per array (cf. `ft::params`).
const ARRAY_BYTES_CAP: u64 = 2 << 20;

/// Computes the scaled parameters for `class`.
pub fn params(class: ProblemClass, scale: f64) -> MgParams {
    let e = mg_edge(class);
    let cells = classes::scaled(e * e * e, scale, 4096).min(ARRAY_BYTES_CAP / 8);
    MgParams {
        cells,
        cycles: 4,
        array_bytes: cells * 8,
    }
}

/// Builds the MG trace workload.
pub fn workload(class: ProblemClass, scale: f64, threads: usize) -> PhaseWorkload {
    assert!(threads >= 1);
    let p = params(class, scale);
    let line = 64u64;
    let mut layout = Layout::default();

    // Level arrays (u, v, r per level), finest first, shrinking 8×.
    let mut level_bytes = Vec::new();
    let mut b = p.array_bytes;
    while b >= 4096 {
        level_bytes.push(b);
        b /= 8;
    }
    if level_bytes.is_empty() {
        level_bytes.push(p.array_bytes.max(4096));
    }
    let levels: Vec<[u64; 3]> = level_bytes
        .iter()
        .map(|&bytes| {
            [
                layout.alloc(bytes),
                layout.alloc(bytes),
                layout.alloc(bytes),
            ]
        })
        .collect();

    let mut all = Vec::with_capacity(threads);
    for t in 0..threads {
        let mut phases = Vec::new();

        // Smoothing on a level: stencil sweep reads u (with neighbour
        // lines folded into compute — the z-neighbours live a plane away,
        // modelled as a second poor-locality read stream) and writes u.
        let smooth = |phases: &mut Vec<Phase>, lvl: usize, sweeps: u64| {
            let bytes = level_bytes[lvl];
            let [u, v, _r] = levels[lvl];
            let (c0, clen) = chunk(bytes / 8, threads as u64, t as u64);
            let slab_lines = (clen * 8).div_ceil(line).max(1);
            for _ in 0..sweeps {
                phases.push(Phase::Sweep {
                    base: u + c0 * 8,
                    count: slab_lines,
                    stride: line,
                    write: true,
                    dependent: false,
                    compute_per_access: 56, // 7-point stencil per 8 cells
                });
                // Plane-distance neighbours: reuse distance = one plane.
                phases.push(Phase::RandomAccess {
                    base: u,
                    len: bytes,
                    count: slab_lines / 4,
                    write: false,
                    dependent: false,
                    compute_per_access: 20,
                });
                phases.push(Phase::Sweep {
                    base: v + c0 * 8,
                    count: slab_lines,
                    stride: line,
                    write: false,
                    dependent: false,
                    compute_per_access: 10,
                });
                phases.push(Phase::Barrier);
            }
        };

        // Initial right-hand side (first touch of the fine level).
        {
            let [u, v, r] = levels[0];
            let (c0, clen) = chunk(p.cells, threads as u64, t as u64);
            let slab_lines = (clen * 8).div_ceil(line).max(1);
            for arr in [u, v, r] {
                phases.push(Phase::Sweep {
                    base: arr + c0 * 8,
                    count: slab_lines,
                    stride: line,
                    write: true,
                    dependent: false,
                    compute_per_access: 8,
                });
            }
            phases.push(Phase::Barrier);
        }

        for _ in 0..p.cycles {
            // Downward leg: smooth + residual + restrict per level.
            for lvl in 0..levels.len().saturating_sub(1) {
                smooth(&mut phases, lvl, 2);
                let bytes = level_bytes[lvl];
                let [_, _, r] = levels[lvl];
                let (c0, clen) = chunk(bytes / 8, threads as u64, t as u64);
                let slab_lines = (clen * 8).div_ceil(line).max(1);
                // Residual write + coarse v write (8× smaller).
                phases.push(Phase::Sweep {
                    base: r + c0 * 8,
                    count: slab_lines,
                    stride: line,
                    write: true,
                    dependent: false,
                    compute_per_access: 30,
                });
                phases.push(Phase::Barrier);
            }
            // Coarsest solve: tiny, compute only.
            phases.push(Phase::Compute {
                cycles: 4_000,
                instructions: 4_000,
            });
            phases.push(Phase::Barrier);
            // Upward leg: prolongate + post-smooth.
            for lvl in (0..levels.len().saturating_sub(1)).rev() {
                smooth(&mut phases, lvl, 2);
            }
        }
        all.push(phases);
    }
    PhaseWorkload::new(format!("MG.{class}"), all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_machine::{run, SimConfig, Workload as _};
    use offchip_topology::machines;

    #[test]
    fn params_scale_and_cap() {
        let s = params(ProblemClass::S, 1.0 / 64.0);
        let c = params(ProblemClass::C, 1.0 / 64.0);
        assert!(s.cells < c.cells);
        assert!(c.array_bytes <= ARRAY_BYTES_CAP);
    }

    #[test]
    fn workload_builds_and_runs() {
        let machine = machines::intel_uma_8().scaled(1.0 / 64.0);
        let w = workload(ProblemClass::W, 1.0 / 64.0, 8);
        assert_eq!(w.n_threads(), 8);
        assert_eq!(w.name(), "MG.W");
        let r = run(&w, &SimConfig::new(machine, 4));
        assert!(r.counters.llc_misses > 0);
    }

    #[test]
    fn mg_contention_between_is_and_sp() {
        // MG's hierarchical reuse keeps it below SP on the same machine.
        let machine = machines::intel_uma_8().scaled(1.0 / 64.0);
        let omega = |w: &PhaseWorkload| {
            let c1 = run(w, &SimConfig::new(machine.clone(), 1))
                .counters
                .total_cycles as f64;
            let c8 = run(w, &SimConfig::new(machine.clone(), 8))
                .counters
                .total_cycles as f64;
            (c8 - c1) / c1
        };
        let mg = omega(&workload(ProblemClass::C, 1.0 / 64.0, 8));
        let sp = omega(&crate::traces::sp::workload(ProblemClass::C, 1.0 / 64.0, 8));
        assert!(mg > 0.3, "MG.C should contend, got {mg:.2}");
        assert!(mg < sp, "MG {mg:.2} must stay below SP {sp:.2}");
    }
}
