//! The one fit path (paper §IV–V): a measured sweep → r → the robust fit
//! at a protocol's points → validation of ω(n) against the whole sweep.
//! `offchip fit`, the Fig. 5/6 harness and the prediction service's fill
//! all call [`fit_sweep`].

use offchip_model::{
    fit_robust_from_sweep, validate, FitError, FitProtocol, RobustFit, RobustOptions, Validation,
};
use offchip_perf::FaultSpec;

use crate::sweep::{SweepError, SweepResult};

/// Why [`fit_sweep`] could not fit or validate a sweep. The text of each
/// variant is the prediction service's 500 body.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepFitError {
    /// No finite LLC miss count, so no r.
    Misses(SweepError),
    /// A cycle counter reads non-finite or non-positive.
    Cycles(SweepError),
    /// The robust fit refused under `protocol`.
    Fit {
        /// The protocol's name.
        protocol: &'static str,
        /// The fit's diagnosis.
        error: FitError,
    },
    /// The fitted model could not be validated against the sweep.
    Validation(FitError),
}

impl std::fmt::Display for SweepFitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepFitError::Misses(e) => write!(f, "miss counters unusable: {e}"),
            SweepFitError::Cycles(e) => write!(f, "cycle counters unusable: {e}"),
            SweepFitError::Fit { protocol, error } => {
                write!(f, "fit failed under {protocol}: {error}")
            }
            SweepFitError::Validation(e) => write!(f, "validation failed: {e}"),
        }
    }
}

impl std::error::Error for SweepFitError {}

/// Fits the paper's model to `sweep` under `proto` and validates it
/// against every point of the sweep.
///
/// r is the sweep's mean LLC miss count ([`SweepResult::mean_misses`]):
/// misses fall with n on small classes (CG.W on the UMA machine reads
/// 15,950 at n = 1 and 3,714 at n = 8), and μ and L scale with r, so one
/// rule keeps every caller's μ and L the same. `faults` corrupts the
/// readings the fit sees, never the ones it is validated against.
pub fn fit_sweep(
    proto: &FitProtocol,
    sweep: &SweepResult,
    faults: Option<FaultSpec>,
) -> Result<(RobustFit, Validation), SweepFitError> {
    let r = sweep.mean_misses().map_err(SweepFitError::Misses)?;
    let cycles = sweep.cycles_sweep().map_err(SweepFitError::Cycles)?;
    let mut readings = sweep.cycles_sweep_f64();
    if let Some(spec) = faults.filter(FaultSpec::is_active) {
        readings = spec.injector().corrupt_sweep(&readings);
        offchip_obs::warn!(
            "injected faults ({spec:?}): {} of {} sweep points survive",
            readings.len(),
            cycles.len()
        );
    }
    let fit =
        fit_robust_from_sweep(proto, &readings, r, &RobustOptions::default()).map_err(|error| {
            SweepFitError::Fit {
                protocol: proto.name,
                error,
            }
        })?;
    let v = validate(&fit.model, &cycles).map_err(SweepFitError::Validation)?;
    Ok((fit, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepPoint;

    /// CG.W on the UMA machine at scale 1/128: C(n) and the LLC misses,
    /// which fall from 15,950 at n = 1 to 3,714 at n = 8.
    fn cg_w_uma() -> SweepResult {
        let measured = [
            (803_798.0, 15_950.0),
            (1_132_938.0, 15_951.0),
            (1_370_094.0, 15_953.0),
            (1_795_293.0, 16_045.0),
            (1_577_111.0, 14_166.0),
            (1_461_216.0, 12_275.0),
            (1_404_417.0, 10_419.0),
            (1_258_140.0, 3_714.0),
        ];
        SweepResult {
            machine: "Intel UMA: Xeon E5320".into(),
            program: "CG.W".into(),
            points: measured
                .iter()
                .enumerate()
                .map(|(i, &(total_cycles, llc_misses))| SweepPoint {
                    n: i + 1,
                    total_cycles,
                    work_cycles: 0.0,
                    stall_cycles: 0.0,
                    llc_misses,
                    makespan: 0.0,
                })
                .collect(),
        }
    }

    fn fit_err(sweep: &SweepResult, faults: Option<FaultSpec>) -> SweepFitError {
        fit_sweep(&FitProtocol::intel_uma(), sweep, faults).expect_err("the fit must fail")
    }

    #[test]
    fn r_is_the_sweep_mean_of_the_miss_counts() {
        let sweep = cg_w_uma();
        let (fit, v) = fit_sweep(&FitProtocol::intel_uma(), &sweep, None).expect("fit");
        assert_eq!(fit.model.params().r, sweep.mean_misses().unwrap());
        assert_eq!(fit.model.params().r, 13_059.125);
        assert_eq!(v.points.len(), 8, "validated against every point");
    }

    #[test]
    fn each_error_variant_has_one_cause_and_the_service_text() {
        let mut no_misses = cg_w_uma();
        for p in &mut no_misses.points {
            p.llc_misses = f64::NAN;
        }
        let e = fit_err(&no_misses, None);
        assert_eq!(e, SweepFitError::Misses(SweepError::NoFinitePoints));
        assert_eq!(
            e.to_string(),
            "miss counters unusable: every sweep point's reading is non-finite; nothing to average"
        );

        let mut dead_counter = cg_w_uma();
        dead_counter.points[2].total_cycles = 0.0;
        let e = fit_err(&dead_counter, None);
        assert_eq!(e, SweepFitError::Cycles(SweepError::CorruptPoint(3)));
        assert_eq!(
            e.to_string(),
            "cycle counters unusable: sweep point n = 3 has a non-finite or non-positive \
             cycle count"
        );

        let all_dropped = FaultSpec {
            drop: 1.0,
            ..FaultSpec::default()
        };
        let e = fit_err(&cg_w_uma(), Some(all_dropped));
        let error = FitError::TooFewUsablePoints {
            usable: 0,
            dropped: 3,
        };
        assert_eq!(
            e,
            SweepFitError::Fit {
                protocol: "Intel UMA {1,4,5}",
                error
            }
        );
        assert_eq!(
            e.to_string(),
            "fit failed under Intel UMA {1,4,5}: only 0 usable points remain after dropping 3; \
             fitting needs at least 3 — re-measure the sweep"
        );

        // Without n = 1 the protocol keeps two points and falls back to
        // all seven, so the fit succeeds and validation has no baseline.
        let mut no_baseline = cg_w_uma();
        no_baseline.points.remove(0);
        let e = fit_err(&no_baseline, None);
        assert_eq!(e, SweepFitError::Validation(FitError::MissingBaseline));
        assert_eq!(
            e.to_string(),
            "validation failed: sweep is missing the n = 1 baseline C(1)"
        );
    }
}
