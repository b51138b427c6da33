//! The paper's fitting protocols: which measured `C(n)` points feed the
//! regression on each machine (§V).
//!
//! * **Intel UMA** — `C(1), C(4), C(5)` (6 % average error);
//! * **Intel NUMA** — `C(1), C(2), C(12), C(13)` (11 %); the degraded
//!   3-point variant `C(1), C(12), C(13)` reaches 14 %;
//! * **AMD NUMA** — `C(1), C(12), C(13), C(25), C(37)` (<5 %); assuming a
//!   homogeneous interconnect with only `C(1), C(12), C(13)` degrades
//!   accuracy "up to 25 %".

use crate::multiproc::{Architecture, FitError, FitInputs};
use offchip_topology::machines::Preset;

/// A named measurement protocol: the core counts to measure and how to fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitProtocol {
    /// Protocol name for reports.
    pub name: &'static str,
    /// Core counts whose `C(n)` must be measured.
    pub input_cores: Vec<usize>,
    /// Cores per processor on the machine.
    pub cores_per_processor: usize,
    /// Architecture for the composition rule.
    pub arch: Architecture,
    /// Whether to collapse all ρ to the first (homogeneous assumption).
    pub homogeneous_rho: bool,
}

impl FitProtocol {
    /// The paper's Intel UMA protocol: `{1, 4, 5}`.
    pub fn intel_uma() -> FitProtocol {
        FitProtocol {
            name: "Intel UMA {1,4,5}",
            input_cores: vec![1, 4, 5],
            cores_per_processor: 4,
            arch: Architecture::Uma,
            homogeneous_rho: false,
        }
    }

    /// The paper's Intel NUMA protocol: `{1, 2, 12, 13}`.
    pub fn intel_numa() -> FitProtocol {
        FitProtocol {
            name: "Intel NUMA {1,2,12,13}",
            input_cores: vec![1, 2, 12, 13],
            cores_per_processor: 12,
            arch: Architecture::Numa,
            homogeneous_rho: false,
        }
    }

    /// The degraded Intel NUMA variant: `{1, 12, 13}` (paper: 14 % error).
    pub fn intel_numa_three_point() -> FitProtocol {
        FitProtocol {
            name: "Intel NUMA {1,12,13}",
            input_cores: vec![1, 12, 13],
            cores_per_processor: 12,
            arch: Architecture::Numa,
            homogeneous_rho: false,
        }
    }

    /// An extended Intel NUMA protocol adding the full-machine point:
    /// `{1, 2, 12, 13, 24}`. On measurement substrates whose controller
    /// relief at n = 13 is deeper than the paper's machine showed, the
    /// paper's 4-point protocol leaves ρ under-determined (the single
    /// cross point sits in the dip); the extra point anchors the remote
    /// slope the way the AMD protocol's per-package points do.
    pub fn intel_numa_extended() -> FitProtocol {
        FitProtocol {
            name: "Intel NUMA {1,2,12,13,24}",
            input_cores: vec![1, 2, 12, 13, 24],
            cores_per_processor: 12,
            arch: Architecture::Numa,
            homogeneous_rho: false,
        }
    }

    /// The paper's AMD protocol: `{1, 12, 13, 25, 37}` — one point inside
    /// the first package, then one in each additional package so every
    /// hop-distance class gets its own ρ.
    pub fn amd_numa() -> FitProtocol {
        FitProtocol {
            name: "AMD NUMA {1,12,13,25,37}",
            input_cores: vec![1, 12, 13, 25, 37],
            cores_per_processor: 12,
            arch: Architecture::Numa,
            homogeneous_rho: false,
        }
    }

    /// The degraded AMD variant assuming homogeneous interconnect
    /// latencies: `{1, 12, 13}` (paper: up to 25 % error).
    pub fn amd_numa_homogeneous() -> FitProtocol {
        FitProtocol {
            name: "AMD NUMA {1,12,13} homogeneous",
            input_cores: vec![1, 12, 13],
            cores_per_processor: 12,
            arch: Architecture::Numa,
            homogeneous_rho: true,
        }
    }

    /// The protocol the paper uses for a machine preset, looked up by the
    /// preset's name; a machine that is not a paper preset gets the UMA
    /// protocol.
    pub fn for_machine(machine_name: &str) -> FitProtocol {
        match Preset::of_name(machine_name) {
            Some(Preset::Amd) => FitProtocol::amd_numa(),
            Some(Preset::Numa) => FitProtocol::intel_numa(),
            Some(Preset::Uma) | None => FitProtocol::intel_uma(),
        }
    }

    /// Builds [`FitInputs`] by selecting this protocol's points from a
    /// measured sweep.
    ///
    /// Returns [`FitError::MissingPoint`] when the sweep lacks one of the
    /// protocol's core counts — a routine occurrence on real measurement
    /// campaigns (a node dies mid-sweep), so it is data, not a panic. Use
    /// [`FitProtocol::inputs_from_sweep_lossy`] to degrade gracefully
    /// instead.
    pub fn inputs_from_sweep(&self, sweep: &[(usize, f64)], r: f64) -> Result<FitInputs, FitError> {
        let (inputs, missing) = self.inputs_from_sweep_lossy(sweep, r);
        if let Some(&n) = missing.first() {
            return Err(FitError::MissingPoint(n));
        }
        Ok(inputs)
    }

    /// Builds [`FitInputs`] from whichever protocol points the sweep
    /// actually contains, reporting the missing core counts instead of
    /// failing. The robust fitting layer uses this to degrade — a fit from
    /// a reduced point set with the loss recorded in its quality report —
    /// rather than refuse outright.
    pub fn inputs_from_sweep_lossy(
        &self,
        sweep: &[(usize, f64)],
        r: f64,
    ) -> (FitInputs, Vec<usize>) {
        let mut points = Vec::with_capacity(self.input_cores.len());
        let mut missing = Vec::new();
        for &n in &self.input_cores {
            match sweep.iter().find(|&&(m, _)| m == n) {
                Some(&p) => points.push(p),
                None => missing.push(n),
            }
        }
        (
            FitInputs {
                points,
                r,
                cores_per_processor: self.cores_per_processor,
                arch: self.arch,
                homogeneous_rho: self.homogeneous_rho,
            },
            missing,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_sets() {
        assert_eq!(FitProtocol::intel_uma().input_cores, vec![1, 4, 5]);
        assert_eq!(FitProtocol::intel_numa().input_cores, vec![1, 2, 12, 13]);
        assert_eq!(FitProtocol::amd_numa().input_cores, vec![1, 12, 13, 25, 37]);
        assert!(FitProtocol::amd_numa_homogeneous().homogeneous_rho);
    }

    #[test]
    fn machine_name_dispatch() {
        assert_eq!(
            FitProtocol::for_machine("Intel UMA: Xeon E5320").name,
            FitProtocol::intel_uma().name
        );
        assert_eq!(
            FitProtocol::for_machine("AMD NUMA: Opteron 6172").name,
            FitProtocol::amd_numa().name
        );
        assert_eq!(
            FitProtocol::for_machine("Intel NUMA: Xeon X5650").name,
            FitProtocol::intel_numa().name
        );
    }

    #[test]
    fn every_preset_gets_its_paper_protocol() {
        let names = Preset::ALL.map(|p| {
            let scaled = p.spec().scaled(1.0 / 64.0);
            FitProtocol::for_machine(&scaled.name).name
        });
        assert_eq!(
            names,
            [
                "Intel UMA {1,4,5}",
                "Intel NUMA {1,2,12,13}",
                "AMD NUMA {1,12,13,25,37}"
            ]
        );
        for other in ["", "AMD NUMA", "Intel NUMA: Xeon", "a NUMA box"] {
            assert_eq!(FitProtocol::for_machine(other).name, "Intel UMA {1,4,5}");
        }
    }

    #[test]
    fn inputs_selected_from_sweep() {
        let sweep: Vec<(usize, f64)> = (1..=8).map(|n| (n, 100.0 * n as f64)).collect();
        let inputs = FitProtocol::intel_uma()
            .inputs_from_sweep(&sweep, 5.0)
            .unwrap();
        assert_eq!(inputs.points, vec![(1, 100.0), (4, 400.0), (5, 500.0)]);
        assert_eq!(inputs.r, 5.0);
        assert_eq!(inputs.cores_per_processor, 4);
    }

    #[test]
    fn missing_point_reports_typed_error() {
        let sweep = vec![(1, 100.0), (4, 400.0)];
        assert_eq!(
            FitProtocol::intel_uma()
                .inputs_from_sweep(&sweep, 1.0)
                .unwrap_err(),
            FitError::MissingPoint(5)
        );
    }

    #[test]
    fn lossy_selection_degrades_and_records_losses() {
        let sweep = vec![(1, 100.0), (4, 400.0)];
        let (inputs, missing) = FitProtocol::intel_uma().inputs_from_sweep_lossy(&sweep, 1.0);
        assert_eq!(inputs.points, vec![(1, 100.0), (4, 400.0)]);
        assert_eq!(missing, vec![5]);
    }
}
