//! The degraded analytic tier: a contention model built from machine
//! first principles when the simulation-backed fill path is broken.
//!
//! When a key's circuit breaker is open (see [`crate::cache`]) the
//! service cannot run — or keeps failing to run — the measurement
//! campaign that normally feeds [`ContentionModel::fit`]. Rather than
//! 503 every caller, it serves an *analytic prior*: protocol-point
//! `C(n)` values generated from the machine description alone (paper
//! eq. 6/8/11 with nominal parameters, in the spirit of the analytic
//! overlapping-execution models of Afzal/Hager/Wellein), pushed through
//! the same fitting pipeline as real measurements. The result is a
//! genuine [`FittedEntry`] — same response shape, same prediction API —
//! whose provenance says loudly that no simulation backs it
//! (`fit_quality.fallback`, and the endpoint's `"tier":
//! "degraded-analytic"` field).
//!
//! Priors, from the machine spec:
//! * service rate `μ` = DRAM channels / transfer occupancy — the
//!   bandwidth bound the spec documents as "bounds controller
//!   throughput";
//! * per-core request rate `L` such that a full processor keeps its
//!   controller at 50 % utilisation (mid-range of the paper's measured
//!   operating points, and safely off the `μ = n·L` pole);
//! * UMA cross-processor surcharge `ΔC = r·transfer` per extra
//!   processor; NUMA remote surcharge `ρ` = the interconnect's mean
//!   remote penalty (falling back to the row-miss cost when the machine
//!   has a single controller).

use crate::entry::{FitSummary, FittedEntry};
use crate::service::{ModelKey, ServiceError};
use offchip_bench::experiment_machine;
use offchip_model::{ContentionModel, FitProtocol, FitQuality};
use offchip_topology::{ids::McId, MachineSpec};
use std::sync::Arc;

/// Nominal off-chip request count the analytic points are expressed
/// against. `C(n)` scales linearly in `r`, and ω — the quantity callers
/// act on — is a ratio, so the choice only needs to be positive.
const NOMINAL_R: f64 = 1.0e6;

/// Target controller utilisation with one full processor active.
const NOMINAL_UTILISATION: f64 = 0.5;

/// Analytic `C(n)` at the protocol's measurement points.
fn analytic_points(
    machine: &MachineSpec,
    proto: &FitProtocol,
) -> Result<Vec<(usize, f64)>, String> {
    let c = proto.cores_per_processor.max(1);
    let dram = &machine.dram;
    if dram.transfer_cycles == 0 || dram.channels == 0 {
        return Err("machine has no DRAM bandwidth to reason from".into());
    }
    // Requests the controller retires per cycle, and the per-core
    // arrival rate that pins one full processor at the target
    // utilisation — so the within-processor M/M/1 term is always off
    // the saturation pole.
    let mu = f64::from(dram.channels) / dram.transfer_cycles as f64;
    let l = NOMINAL_UTILISATION * mu / c as f64;
    let within = |n: usize| NOMINAL_R / (mu - n as f64 * l);

    // Cross-processor surcharge per remote core, paper eq. 8 (UMA:
    // every extra processor re-queues on the one controller) vs eq. 11
    // (NUMA: each remote core pays the interconnect's remote penalty).
    let n_mcs = machine.interconnect.n_mcs();
    let per_remote_core = if n_mcs > 1 {
        let mut sum = 0.0;
        let mut pairs = 0u64;
        for from in 0..n_mcs {
            for to in 0..n_mcs {
                if from != to {
                    sum += machine.interconnect.remote_penalty(McId(from), McId(to)) as f64;
                    pairs += 1;
                }
            }
        }
        let mean_penalty = if pairs > 0 { sum / pairs as f64 } else { 0.0 };
        // A remote penalty of zero cycles would claim remote cores are
        // free; fall back to the row-miss service cost.
        if mean_penalty > 0.0 {
            NOMINAL_R * mean_penalty / dram.transfer_cycles as f64 / mu
        } else {
            NOMINAL_R * dram.row_miss_cycles as f64 / dram.transfer_cycles as f64
        }
    } else {
        // UMA: fsb + transfer occupancy per re-queued request.
        NOMINAL_R * (dram.transfer_cycles + machine.fsb_latency) as f64 / f64::from(dram.channels)
    };

    let mut points = Vec::with_capacity(proto.input_cores.len());
    for &n in &proto.input_cores {
        let cn = if n <= c {
            within(n)
        } else {
            within(c) + per_remote_core * (n - c) as f64
        };
        if !cn.is_finite() || cn <= 0.0 {
            return Err(format!("analytic C({n}) is not positive-finite"));
        }
        points.push((n, cn));
    }
    Ok(points)
}

/// Builds the degraded-analytic [`FittedEntry`] for `machine` under
/// `proto`. Pure computation (no I/O, microseconds): the entry is
/// rebuilt per request rather than cached, so a closed breaker never
/// leaves a stale analytic model shadowing a real fit.
pub fn analytic_entry(
    machine: &MachineSpec,
    proto: &FitProtocol,
) -> Result<FittedEntry, ServiceError> {
    let points = analytic_points(machine, proto)
        .map_err(|e| ServiceError::Internal(format!("degraded tier: {e}")))?;
    let supplied = points.len();
    let inputs = proto
        .inputs_from_sweep(&points, NOMINAL_R)
        .map_err(|e| ServiceError::Internal(format!("degraded tier inputs: {e}")))?;
    let model = ContentionModel::fit(&inputs)
        .map_err(|e| ServiceError::Internal(format!("degraded tier fit: {e}")))?;
    Ok(FittedEntry::new(FitSummary {
        machine_name: machine.name.clone(),
        protocol: proto.name,
        total_cores: machine.total_cores(),
        model,
        quality: FitQuality {
            points_supplied: supplied,
            points_used: supplied,
            dropped: Vec::new(),
            r_squared: 1.0,
            fallback: Some(
                "analytic first-principles prior from the machine description — \
                 no simulation backs these numbers (circuit breaker open)"
                    .into(),
            ),
        },
        // No sweep exists to validate against; the null error fields
        // are part of the degraded tier's honesty.
        mean_relative_error: None,
        mean_absolute_error: 0.0,
    }))
}

/// The degraded-analytic entry for `key`'s machine.
pub(crate) fn for_key(key: &ModelKey) -> Result<Arc<FittedEntry>, ServiceError> {
    let machine = experiment_machine(key.machine);
    let proto = FitProtocol::for_machine(&machine.name);
    Ok(Arc::new(analytic_entry(&machine, &proto)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_model::FitProtocol;
    use offchip_topology::machines::{self, DEFAULT_EXPERIMENT_SCALE};

    fn entry_for(machine: offchip_topology::MachineSpec) -> FitSummary {
        let machine = machine.scaled(DEFAULT_EXPERIMENT_SCALE);
        let proto = FitProtocol::for_machine(&machine.name);
        analytic_entry(&machine, &proto)
            .expect("analytic prior fits")
            .fit()
            .clone()
    }

    #[test]
    fn every_preset_yields_a_finite_monotone_model() {
        for machine in machines::paper_machines() {
            let entry = entry_for(machine);
            let mut last_c = 0.0;
            for n in 1..=entry.total_cores {
                let c = entry.model.predict_c(n);
                let omega = entry.model.predict_omega(n);
                assert!(c.is_finite() && c > 0.0, "C({n}) = {c}");
                assert!(omega.is_finite() && omega >= -1e-9, "omega({n}) = {omega}");
                assert!(c >= last_c * 0.999, "C must not decrease at n = {n}");
                last_c = c;
            }
        }
    }

    #[test]
    fn provenance_declares_the_fallback() {
        let entry = entry_for(machines::intel_uma_8());
        let fallback = entry.quality.fallback.clone().expect("fallback recorded");
        assert!(fallback.contains("no simulation"), "{fallback}");
        assert!(entry.mean_relative_error.is_none(), "no validation claimed");
        assert!(entry.quality.is_degraded());
    }

    #[test]
    fn analytic_points_stay_off_the_saturation_pole() {
        for machine in [machines::intel_uma_8(), machines::amd_numa_48()] {
            let machine = machine.scaled(DEFAULT_EXPERIMENT_SCALE);
            let proto = FitProtocol::for_machine(&machine.name);
            let points = analytic_points(&machine, &proto).unwrap();
            assert_eq!(points.len(), proto.input_cores.len());
            for w in points.windows(2) {
                assert!(w[1].1 > w[0].1, "C(n) strictly increases: {points:?}");
            }
        }
    }
}
