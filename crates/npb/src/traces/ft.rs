//! FT access-trace generator: 3-D fast Fourier transform.
//!
//! NPB FT evolves a complex field by repeated 3-D FFTs: each iteration
//! multiplies by the evolution factors (one streaming pass) and transforms
//! along all three dimensions. The x-dimension pass is unit-stride; the
//! y- and z-dimension passes walk the grid at plane-sized strides whose
//! reuse distance exceeds any cache once the grid is large — modelled here
//! as poor-locality passes over the whole array. FT is the paper's second
//! contention tier (Table II: ω(24) ≈ 3.9 on Intel NUMA for class B/C).
//!
//! Class sizes are capped so a full sweep simulates in seconds: the paper
//! ratio `working set / LLC` is hundreds for FT.C; the scaled grids keep
//! it ≈ 7–15× — both sides of the fits/doesn't-fit boundary and deep in
//! the saturation regime, which is what ω depends on (DESIGN.md §2).

use crate::classes::{self, ProblemClass};
use crate::traces::{chunk, Layout, Phase, PhaseWorkload};

/// Derived simulation-scale parameters for an FT run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtParams {
    /// Total complex grid elements after scaling and capping.
    pub elements: u64,
    /// Iterations (evolve + 3-D FFT each).
    pub iterations: u64,
    /// Grid bytes per array (16-byte complex elements).
    pub grid_bytes: u64,
}

/// Cap on scaled grid bytes so trace volume stays tractable (see module
/// docs): 3 MiB per array ≈ 15× the scaled Intel NUMA L3.
const GRID_BYTES_CAP: u64 = 3 << 20;

/// Computes the scaled parameters for `class`.
pub fn params(class: ProblemClass, scale: f64) -> FtParams {
    let elements =
        classes::scaled(classes::ft_elements(class), scale, 4096).min(GRID_BYTES_CAP / 16);
    FtParams {
        elements,
        iterations: classes::ft_iterations(class),
        grid_bytes: elements * 16,
    }
}

/// Builds the FT trace workload.
pub fn workload(class: ProblemClass, scale: f64, threads: usize) -> PhaseWorkload {
    assert!(threads >= 1);
    let p = params(class, scale);
    let line = 64u64;
    let mut layout = Layout::default();
    let u0 = layout.alloc(p.grid_bytes); // evolved field
    let u1 = layout.alloc(p.grid_bytes); // transform workspace

    let mut all = Vec::with_capacity(threads);
    for t in 0..threads {
        let (e0, elen) = chunk(p.elements, threads as u64, t as u64);
        let slab_base = |arr: u64| arr + e0 * 16;
        let slab_lines = (elen * 16).div_ceil(line).max(1);

        let mut phases = Vec::new();
        // Initial field: compute_indexmap + fill (first touch of the slab).
        for arr in [u0, u1] {
            phases.push(Phase::Sweep {
                base: slab_base(arr),
                count: slab_lines,
                stride: line,
                write: true,
                dependent: false,
                compute_per_access: 48,
            });
        }
        phases.push(Phase::Barrier);

        for _ in 0..p.iterations {
            // evolve: u1 = u0 · e^{i…}, streaming read + write.
            phases.push(Phase::Sweep {
                base: slab_base(u0),
                count: slab_lines,
                stride: line,
                write: false,
                dependent: false,
                compute_per_access: 18,
            });
            phases.push(Phase::Sweep {
                base: slab_base(u1),
                count: slab_lines,
                stride: line,
                write: true,
                dependent: false,
                compute_per_access: 48,
            });
            phases.push(Phase::Barrier);
            // FFT x-pass: unit stride over the slab, butterfly compute.
            phases.push(Phase::Sweep {
                base: slab_base(u1),
                count: slab_lines,
                stride: line,
                write: true,
                dependent: false,
                compute_per_access: 40,
            });
            phases.push(Phase::Barrier);
            // FFT y- and z-passes: plane-strided walks with cache-defeating
            // reuse distance — poor-locality traffic over the whole array.
            for _dim in 0..2 {
                phases.push(Phase::RandomAccess {
                    base: u1,
                    len: p.grid_bytes,
                    count: slab_lines,
                    write: false,
                    dependent: false,
                    compute_per_access: 48,
                });
                phases.push(Phase::RandomAccess {
                    base: u1,
                    len: p.grid_bytes,
                    count: slab_lines,
                    write: true,
                    dependent: false,
                    compute_per_access: 48,
                });
                phases.push(Phase::Barrier);
            }
            // checksum reduction: strided sampling of u1.
            phases.push(Phase::RandomAccess {
                base: u1,
                len: p.grid_bytes,
                count: 64,
                write: false,
                dependent: true,
                compute_per_access: 4,
            });
            phases.push(Phase::Barrier);
        }
        all.push(phases);
    }
    PhaseWorkload::new(format!("FT.{class}"), all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_machine::Workload as _;

    #[test]
    fn grid_bytes_capped_for_large_classes() {
        let b = params(ProblemClass::B, 1.0 / 64.0);
        let c = params(ProblemClass::C, 1.0 / 64.0);
        assert!(c.grid_bytes <= GRID_BYTES_CAP);
        assert!(b.grid_bytes <= c.grid_bytes);
        let s = params(ProblemClass::S, 1.0 / 64.0);
        assert!(s.grid_bytes < 128 << 10, "class S fits caches");
    }

    #[test]
    fn workload_builds_for_all_classes() {
        for class in ProblemClass::ALL {
            let w = workload(class, 1.0 / 64.0, 4);
            assert_eq!(w.n_threads(), 4);
            assert!(w.total_accesses() > 0);
            assert_eq!(w.name(), format!("FT.{class}"));
        }
    }
}
