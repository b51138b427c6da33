//! Robust fitting with graceful degradation.
//!
//! Real measurement campaigns are messy: counters read garbage after a
//! multiplexing glitch, a node reboot loses a sweep point, jitter pushes a
//! reading off the regression line. The plain [`ContentionModel::fit`]
//! assumes clean inputs; this module wraps it in the defensive pipeline a
//! production measurement tool needs:
//!
//! 1. **sanitisation** — non-finite and non-positive `C(n)` readings are
//!    discarded (and recorded) before they can poison the regression;
//! 2. **refusal with a diagnosis** — fewer than
//!    [`MIN_USABLE_POINTS`] usable points left means no fit is attempted:
//!    a model from two points would be an extrapolation masquerading as a
//!    measurement, so the pipeline returns
//!    [`FitError::TooFewUsablePoints`] instead;
//! 3. **residual-based trimming** — if the fitted model misses one of its
//!    own input points badly (or comes out unphysical: `μ ≤ 0`, or
//!    saturated inside its fitting domain, `n·L ≥ μ`), the single worst
//!    residual point is dropped and the fit repeated, while enough points
//!    remain;
//! 4. **a quality report** — every successful fit carries a
//!    [`FitQuality`]: R² of the within-processor regression, points used
//!    and dropped (with reasons), and any fallback taken, so downstream
//!    reports and the CLI can show *how much* to trust the numbers.

use crate::multiproc::{ContentionModel, FitError, FitInputs};
use crate::protocol::FitProtocol;

/// The minimum number of usable sweep points the robust pipeline will fit
/// from. Two points always fit a line exactly (R² = 1 by construction), so
/// three is the smallest set where a corrupt reading can still be *seen*.
pub const MIN_USABLE_POINTS: usize = 3;

/// Why a sweep point was excluded from the fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The reading was NaN or infinite.
    NonFinite,
    /// The reading was zero or negative (a dead counter).
    NonPositive,
    /// The reading survived sanitisation but sat far off the regression
    /// through the remaining points.
    Outlier,
    /// The protocol required this core count but the sweep never measured
    /// it (a dropped sample).
    MissingFromSweep,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DropReason::NonFinite => write!(f, "non-finite reading"),
            DropReason::NonPositive => write!(f, "non-positive reading"),
            DropReason::Outlier => write!(f, "outlier"),
            DropReason::MissingFromSweep => write!(f, "missing from sweep"),
        }
    }
}

/// Tunables of the robust pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustOptions {
    /// Relative residual `|predicted − measured| / measured` above which
    /// the worst point is considered an outlier and trimmed.
    pub outlier_relative_residual: f64,
    /// Hard floor on usable points; below it the pipeline refuses.
    pub min_points: usize,
}

impl Default for RobustOptions {
    fn default() -> RobustOptions {
        RobustOptions {
            // The paper's own validation errors run 5–14 %; a point 25 %
            // off the model is outside anything the substrate produces
            // without a fault.
            outlier_relative_residual: 0.25,
            min_points: MIN_USABLE_POINTS,
        }
    }
}

/// How trustworthy a robust fit is: the degradation ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct FitQuality {
    /// Points the caller supplied (including any the protocol wanted but
    /// the sweep lacked).
    pub points_supplied: usize,
    /// Points the final regression actually used.
    pub points_used: usize,
    /// `(n, reason)` for every excluded point.
    pub dropped: Vec<(usize, DropReason)>,
    /// R² of the final within-processor `1/C(n)` regression.
    pub r_squared: f64,
    /// Human-readable description of any degradation taken (`None` when
    /// the fit consumed exactly what was asked of it).
    pub fallback: Option<String>,
}

impl FitQuality {
    /// Whether anything was dropped or any fallback taken.
    pub fn is_degraded(&self) -> bool {
        !self.dropped.is_empty() || self.fallback.is_some()
    }
}

impl std::fmt::Display for FitQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "R^2 = {:.4}, {}/{} points used",
            self.r_squared, self.points_used, self.points_supplied
        )?;
        if !self.dropped.is_empty() {
            write!(f, ", dropped:")?;
            for (n, reason) in &self.dropped {
                write!(f, " n={n} ({reason})")?;
            }
        }
        if let Some(fb) = &self.fallback {
            write!(f, "; fallback: {fb}")?;
        }
        Ok(())
    }
}

impl offchip_json::ToJson for FitQuality {
    fn to_json(&self) -> offchip_json::Json {
        let dropped: Vec<(usize, String)> = self
            .dropped
            .iter()
            .map(|(n, reason)| (*n, reason.to_string()))
            .collect();
        offchip_json::json_obj! {
            "points_supplied" => self.points_supplied,
            "points_used" => self.points_used,
            "dropped" => dropped,
            "r_squared" => self.r_squared,
            "fallback" => self.fallback,
            "degraded" => self.is_degraded(),
        }
    }
}

/// A fitted model together with its degradation ledger.
#[derive(Debug, Clone)]
pub struct RobustFit {
    /// The fitted contention model.
    pub model: ContentionModel,
    /// How the fit degraded to get there.
    pub quality: FitQuality,
}

fn attempt(points: &[(usize, f64)], template: &FitInputs) -> Result<ContentionModel, FitError> {
    let inputs = FitInputs {
        points: points.to_vec(),
        r: template.r,
        cores_per_processor: template.cores_per_processor,
        arch: template.arch,
        homogeneous_rho: template.homogeneous_rho,
    };
    let model = ContentionModel::fit(&inputs)?;
    // Physicality: the recovered service rate must be a capacity.
    let mu = model.mm1().mu();
    if !(mu.is_finite() && mu > 0.0) {
        return Err(FitError::NonPositiveMu);
    }
    if !model.mm1().l().is_finite() {
        return Err(FitError::NonPositiveMu);
    }
    // Domain: the fitted queue must not saturate at its own input points
    // (n·L ≥ μ there would mean the model denies its own measurements).
    for &(n, _) in points {
        let n_local = n.min(template.cores_per_processor);
        if model.mm1().predict_checked(n_local).is_none() {
            return Err(FitError::SaturatedInputs { n });
        }
    }
    Ok(model)
}

/// The worst relative residual of the model against its input points:
/// `(index, residual)`.
fn worst_residual(model: &ContentionModel, points: &[(usize, f64)]) -> (usize, f64) {
    let mut worst = (0usize, 0.0f64);
    for (i, &(n, measured)) in points.iter().enumerate() {
        let predicted = model.predict_c(n);
        let res = (predicted - measured).abs() / measured.abs().max(f64::MIN_POSITIVE);
        if res > worst.1 {
            worst = (i, res);
        }
    }
    worst
}

/// Fits with sanitisation, refusal below [`RobustOptions::min_points`],
/// and residual-based outlier trimming. See the module docs for the exact
/// pipeline.
pub fn fit_robust(inputs: &FitInputs, opts: &RobustOptions) -> Result<RobustFit, FitError> {
    let supplied = inputs.points.len();
    let mut dropped: Vec<(usize, DropReason)> = Vec::new();
    let mut points: Vec<(usize, f64)> = Vec::with_capacity(supplied);
    for &(n, c) in &inputs.points {
        if !c.is_finite() {
            dropped.push((n, DropReason::NonFinite));
        } else if c <= 0.0 {
            dropped.push((n, DropReason::NonPositive));
        } else {
            points.push((n, c));
        }
    }
    let min_points = opts.min_points.max(2);

    loop {
        if points.len() < min_points {
            return Err(FitError::TooFewUsablePoints {
                usable: points.len(),
                dropped: dropped.len(),
            });
        }
        let outcome = attempt(&points, inputs);
        let trim = match &outcome {
            Ok(model) => {
                let (i, res) = worst_residual(model, &points);
                (res > opts.outlier_relative_residual).then_some(i)
            }
            // An unphysical fit is often one bad-but-finite reading; trim
            // the worst residual of the best-effort model if we can still
            // afford to. Plain fit errors (degenerate regression after
            // duplicates, bad r, ...) are not trimmable.
            Err(FitError::NonPositiveMu) | Err(FitError::SaturatedInputs { .. }) => {
                match ContentionModel::fit(&FitInputs {
                    points: points.clone(),
                    r: inputs.r,
                    cores_per_processor: inputs.cores_per_processor,
                    arch: inputs.arch,
                    homogeneous_rho: inputs.homogeneous_rho,
                }) {
                    Ok(m) => Some(worst_residual(&m, &points).0),
                    Err(_) => None,
                }
            }
            Err(_) => None,
        };
        match (outcome, trim) {
            (Ok(model), None) => {
                let fallback = (!dropped.is_empty()).then(|| {
                    format!(
                        "fitted from {} of {} supplied points",
                        points.len(),
                        supplied
                    )
                });
                return Ok(RobustFit {
                    quality: FitQuality {
                        points_supplied: supplied,
                        points_used: points.len(),
                        dropped,
                        r_squared: model.mm1().input_r_squared,
                        fallback,
                    },
                    model,
                });
            }
            (result, Some(i)) if points.len() > min_points => {
                let (n, _) = points.remove(i);
                dropped.push((n, DropReason::Outlier));
                drop(result); // refit on the trimmed set
            }
            (Ok(model), Some(_)) => {
                // An outlier remains but trimming would fall below the
                // floor: surface the fit with its honest (poor) quality
                // rather than discard usable data.
                let (worst_n, res) = worst_residual(&model, &points);
                return Ok(RobustFit {
                    quality: FitQuality {
                        points_supplied: supplied,
                        points_used: points.len(),
                        dropped,
                        r_squared: model.mm1().input_r_squared,
                        fallback: Some(format!(
                            "point n={} sits {:.0}% off the fit but too few \
                             points remain to trim it",
                            points[worst_n].0,
                            res * 100.0
                        )),
                    },
                    model,
                });
            }
            (Err(e), _) => return Err(e),
        }
    }
}

/// The full measurement-to-model pipeline for one protocol: select the
/// protocol's points from the sweep (degrading, not failing, on missing
/// ones), then [`fit_robust`]. When the protocol's surviving point set is
/// too small, falls back to fitting from *every* usable sweep point — the
/// protocol is an economy measure, not a correctness requirement.
pub fn fit_robust_from_sweep(
    proto: &FitProtocol,
    sweep: &[(usize, f64)],
    r: f64,
    opts: &RobustOptions,
) -> Result<RobustFit, FitError> {
    let (inputs, missing) = proto.inputs_from_sweep_lossy(sweep, r);
    let usable = |pts: &[(usize, f64)]| {
        pts.iter()
            .filter(|&&(_, c)| c.is_finite() && c > 0.0)
            .count()
    };
    let mut fallback_note = None;
    let inputs =
        if usable(&inputs.points) < opts.min_points.max(2) && sweep.len() > inputs.points.len() {
            fallback_note = Some(format!(
                "protocol reduced to {} usable points; falling back to all {} sweep points",
                usable(&inputs.points),
                sweep.len()
            ));
            FitInputs {
                points: sweep.to_vec(),
                ..inputs
            }
        } else {
            inputs
        };
    let mut fit = fit_robust(&inputs, opts).map_err(|e| match e {
        // Sweep points the protocol never saw still count as losses in
        // the refusal diagnosis.
        FitError::TooFewUsablePoints { usable, dropped } => FitError::TooFewUsablePoints {
            usable,
            dropped: dropped + missing.len(),
        },
        other => other,
    })?;
    fit.quality.points_supplied += missing.len();
    for n in missing {
        fit.quality.dropped.push((n, DropReason::MissingFromSweep));
    }
    if let Some(note) = fallback_note {
        fit.quality.fallback = Some(match fit.quality.fallback.take() {
            Some(prev) => format!("{note}; {prev}"),
            None => note,
        });
    }
    Ok(fit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiproc::Architecture;

    fn clean_inputs() -> FitInputs {
        // Exact M/M/1: mu = 0.02, L = 0.0012, r = 1e9, one 8-core socket.
        let pts = [1usize, 2, 4, 6, 8]
            .iter()
            .map(|&n| (n, 1e9 / (0.02 - n as f64 * 0.0012)))
            .collect();
        FitInputs {
            points: pts,
            r: 1e9,
            cores_per_processor: 8,
            arch: Architecture::Uma,
            homogeneous_rho: false,
        }
    }

    #[test]
    fn clean_inputs_fit_with_pristine_quality() {
        let fit = fit_robust(&clean_inputs(), &RobustOptions::default()).unwrap();
        assert!(!fit.quality.is_degraded());
        assert_eq!(fit.quality.points_used, 5);
        assert!(fit.quality.r_squared > 0.999_999);
        assert!((fit.model.mm1().mu() - 0.02).abs() < 1e-10);
    }

    #[test]
    fn garbage_readings_are_dropped_and_recorded() {
        let mut inputs = clean_inputs();
        inputs.points[1].1 = f64::NAN;
        inputs.points[3].1 = -5.0;
        let fit = fit_robust(&inputs, &RobustOptions::default()).unwrap();
        assert!(fit.quality.is_degraded());
        assert_eq!(fit.quality.points_used, 3);
        assert_eq!(
            fit.quality.dropped,
            vec![(2, DropReason::NonFinite), (6, DropReason::NonPositive)]
        );
        assert!((fit.model.mm1().mu() - 0.02).abs() < 1e-10, "still exact");
        let text = fit.quality.to_string();
        assert!(text.contains("3/5 points used"), "{text}");
        assert!(text.contains("non-finite"), "{text}");
    }

    #[test]
    fn refuses_below_three_usable_points() {
        let mut inputs = clean_inputs();
        for p in inputs.points.iter_mut().take(3) {
            p.1 = f64::INFINITY;
        }
        assert_eq!(
            fit_robust(&inputs, &RobustOptions::default()).unwrap_err(),
            FitError::TooFewUsablePoints {
                usable: 2,
                dropped: 3
            }
        );
    }

    #[test]
    fn outlier_is_trimmed_and_fit_recovers() {
        let mut inputs = clean_inputs();
        inputs.points[2].1 *= 3.0; // 200 % off: a corrupted-but-finite read
        let fit = fit_robust(&inputs, &RobustOptions::default()).unwrap();
        assert_eq!(fit.quality.dropped, vec![(4, DropReason::Outlier)]);
        assert_eq!(fit.quality.points_used, 4);
        assert!(
            (fit.model.mm1().mu() - 0.02).abs() / 0.02 < 1e-6,
            "trimming restores the exact fit, mu={}",
            fit.model.mm1().mu()
        );
    }

    #[test]
    fn mild_noise_is_not_trimmed() {
        let mut inputs = clean_inputs();
        for (i, p) in inputs.points.iter_mut().enumerate() {
            p.1 *= 1.0 + 0.02 * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let fit = fit_robust(&inputs, &RobustOptions::default()).unwrap();
        assert_eq!(fit.quality.points_used, 5, "2 % jitter is measurement");
        assert!(fit.quality.dropped.is_empty());
    }

    #[test]
    fn sweep_pipeline_degrades_on_missing_protocol_points() {
        // UMA protocol wants {1, 4, 5}; the sweep lost n = 5 entirely.
        let sweep: Vec<(usize, f64)> = [1usize, 2, 3, 4, 6, 7, 8]
            .iter()
            .map(|&n| (n, 1e9 / (0.02 - n as f64 * 0.0012)))
            .collect();
        let proto = FitProtocol::intel_uma();
        let fit = fit_robust_from_sweep(&proto, &sweep, 1e9, &RobustOptions::default()).unwrap();
        assert!(fit.quality.is_degraded());
        assert!(fit
            .quality
            .dropped
            .contains(&(5, DropReason::MissingFromSweep)));
        assert!(fit.quality.fallback.is_some());
        assert!((fit.model.mm1().mu() - 0.02).abs() / 0.02 < 1e-6);
    }

    #[test]
    fn predictions_from_robust_fits_are_always_finite() {
        let mut inputs = clean_inputs();
        inputs.points[4].1 *= 10.0;
        let fit = fit_robust(&inputs, &RobustOptions::default()).unwrap();
        for n in 1..=48 {
            assert!(fit.model.predict_c(n).is_finite());
            assert!(fit.model.predict_omega(n).is_finite());
        }
    }
}
