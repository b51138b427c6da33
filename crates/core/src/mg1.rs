//! M/G/1 extension of the single-processor model (paper §VI).
//!
//! The paper's concluding discussion notes the model "can be extended, at
//! the expense of higher modeling cost, to factor in … service-discipline
//! of memory controllers". This module implements that extension: an
//! M/G/1 queue with general service times via the Pollaczek–Khinchine
//! formula. With mean service time `S`, per-core arrival rate `L` and
//! service-time squared coefficient of variation `c_s²`,
//!
//! ```text
//! ρ(n)      = n·L·S
//! C_req(n)  = S + ρ(n)·S·(1 + c_s²) / (2·(1 − ρ(n)))
//! C(n)      = r·C_req(n)
//! ```
//!
//! `c_s² = 1` recovers M/M/1 exactly; `c_s² = 0` is M/D/1 — deterministic
//! service, the natural model of a DRAM controller whose requests mostly
//! pay the same activate+transfer time. The fit is nonlinear in the
//! parameters, so unlike [`crate::mm1`] it uses a coarse-to-fine grid
//! search over `(S, L)` minimising squared relative error — still
//! microseconds of work for the handful of points involved.

/// A fitted M/G/1 single-processor model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mg1Fit {
    /// Mean service time per request, cycles.
    pub s: f64,
    /// Per-core arrival rate, requests per cycle.
    pub l: f64,
    /// Squared coefficient of variation of service time (fixed, not
    /// fitted: 1 = M/M/1, 0 = M/D/1).
    pub cs2: f64,
    /// LLC misses `r`.
    pub r: f64,
    /// Sum of squared relative residuals at the optimum.
    pub sse: f64,
}

/// Errors from fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mg1Error {
    /// Fewer than two points supplied.
    TooFewPoints,
    /// A supplied `C(n)` was not positive and finite.
    BadCycles,
    /// `c_s²` was negative or `r` non-positive.
    BadParameters,
}

impl std::fmt::Display for Mg1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mg1Error::TooFewPoints => write!(f, "need at least two (n, C(n)) points"),
            Mg1Error::BadCycles => write!(f, "C(n) must be positive and finite"),
            Mg1Error::BadParameters => write!(f, "cs2 must be ≥ 0 and r > 0"),
        }
    }
}

impl std::error::Error for Mg1Error {}

/// `C_req(n)` under P-K for given parameters; `None` at or past
/// saturation (`ρ ≥ 1`).
fn c_req(s: f64, l: f64, cs2: f64, n: f64) -> Option<f64> {
    let rho = n * l * s;
    if rho >= 1.0 {
        return None;
    }
    Some(s + rho * s * (1.0 + cs2) / (2.0 * (1.0 - rho)))
}

impl Mg1Fit {
    /// Fits `(S, L)` to measured `(n, C(n))` points with `c_s²` fixed.
    ///
    /// The search space is anchored by the smallest measured point: `S`
    /// ranges over `(0, C_min/r]` (service cannot exceed the least-loaded
    /// per-request cost) and `L` over `[0, 1/(S·n_max))` (below
    /// saturation at the largest fitted `n`).
    pub fn fit(points: &[(usize, f64)], r: f64, cs2: f64) -> Result<Mg1Fit, Mg1Error> {
        if points.len() < 2 {
            return Err(Mg1Error::TooFewPoints);
        }
        if cs2 < 0.0 || !(r > 0.0 && r.is_finite()) {
            return Err(Mg1Error::BadParameters);
        }
        for &(_, c) in points {
            if !(c > 0.0 && c.is_finite()) {
                return Err(Mg1Error::BadCycles);
            }
        }
        let n_max = points.iter().map(|&(n, _)| n).max().unwrap() as f64;
        let c_min_per_req = points
            .iter()
            .map(|&(_, c)| c / r)
            .fold(f64::INFINITY, f64::min);

        let sse_of = |s: f64, l: f64| -> f64 {
            let mut sse = 0.0;
            for &(n, c) in points {
                match c_req(s, l, cs2, n as f64) {
                    Some(pred) => {
                        let res = (pred * r - c) / c;
                        sse += res * res;
                    }
                    None => return f64::INFINITY,
                }
            }
            sse
        };

        // For a fixed S the residual is unimodal in L (the queueing term
        // grows monotonically with L), so the inner dimension is solved by
        // ternary search; the outer S dimension is scanned then refined.
        let best_l_for = |s: f64| -> (f64, f64) {
            let mut lo = 0.0f64;
            let mut hi = 0.999 / (s * n_max);
            for _ in 0..70 {
                let m1 = lo + (hi - lo) / 3.0;
                let m2 = hi - (hi - lo) / 3.0;
                if sse_of(s, m1) <= sse_of(s, m2) {
                    hi = m2;
                } else {
                    lo = m1;
                }
            }
            let l = (lo + hi) / 2.0;
            (l, sse_of(s, l))
        };
        let mut best = (c_min_per_req * 0.5, 0.0, f64::INFINITY);
        let mut s_lo = c_min_per_req * 1e-3;
        let mut s_hi = c_min_per_req;
        for _round in 0..3 {
            let mut round_best = best;
            for i in 0..=120 {
                let s = s_lo + (s_hi - s_lo) * i as f64 / 120.0;
                if s <= 0.0 {
                    continue;
                }
                let (l, sse) = best_l_for(s);
                if sse < round_best.2 {
                    round_best = (s, l, sse);
                }
            }
            best = round_best;
            // Zoom in around the incumbent S.
            let span = (s_hi - s_lo) / 40.0;
            s_lo = (best.0 - span).max(c_min_per_req * 1e-4);
            s_hi = (best.0 + span).min(c_min_per_req);
        }
        Ok(Mg1Fit {
            s: best.0,
            l: best.1,
            cs2,
            r,
            sse: best.2,
        })
    }

    /// Predicts `C(n)`, `None` at or beyond saturation.
    pub fn predict_checked(&self, n: usize) -> Option<f64> {
        c_req(self.s, self.l, self.cs2, n as f64).map(|c| c * self.r)
    }

    /// Predicts `C(n)`, clamping the divergence at 1000× the zero-load
    /// value (cf. [`crate::mm1::Mm1Fit::predict`]).
    pub fn predict(&self, n: usize) -> f64 {
        self.predict_checked(n).unwrap_or(self.s * self.r * 1000.0)
    }

    /// The saturation core count `1/(L·S)`; `None` when `L = 0`.
    pub fn saturation_cores(&self) -> Option<f64> {
        if self.l <= 0.0 {
            None
        } else {
            Some(1.0 / (self.l * self.s))
        }
    }
}

/// Fits both M/M/1 (`c_s² = 1`) and M/D/1 (`c_s² = 0`) and returns them
/// with their residuals, for the service-discipline ablation.
pub fn compare_disciplines(points: &[(usize, f64)], r: f64) -> Result<(Mg1Fit, Mg1Fit), Mg1Error> {
    Ok((Mg1Fit::fit(points, r, 1.0)?, Mg1Fit::fit(points, r, 0.0)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(cs2: f64, s: f64, l: f64, r: f64, ns: &[usize]) -> Vec<(usize, f64)> {
        ns.iter()
            .map(|&n| (n, c_req(s, l, cs2, n as f64).unwrap() * r))
            .collect()
    }

    #[test]
    fn recovers_mm1_parameters() {
        let pts = synth(1.0, 50.0, 0.002, 1e6, &[1, 2, 4, 8]);
        let fit = Mg1Fit::fit(&pts, 1e6, 1.0).unwrap();
        assert!((fit.s - 50.0).abs() / 50.0 < 0.05, "s={}", fit.s);
        assert!((fit.l - 0.002).abs() / 0.002 < 0.05, "l={}", fit.l);
        assert!(fit.sse < 1e-4);
    }

    #[test]
    fn recovers_md1_parameters() {
        let pts = synth(0.0, 120.0, 0.0008, 1e7, &[1, 2, 4, 6, 8]);
        let fit = Mg1Fit::fit(&pts, 1e7, 0.0).unwrap();
        assert!((fit.s - 120.0).abs() / 120.0 < 0.05, "s={}", fit.s);
        for &(n, c) in &pts {
            let pred = fit.predict(n);
            assert!((pred - c).abs() / c < 0.02, "n={n}");
        }
    }

    #[test]
    fn md1_queues_half_as_much_as_mm1() {
        // With identical S and L, P-K says the M/D/1 waiting term is half
        // the M/M/1 term.
        let s = 100.0;
        let l = 0.003;
        let n = 3.0;
        let mm1 = c_req(s, l, 1.0, n).unwrap() - s;
        let md1 = c_req(s, l, 0.0, n).unwrap() - s;
        assert!((md1 * 2.0 - mm1).abs() < 1e-9);
    }

    #[test]
    fn correct_discipline_fits_better() {
        // Data generated by a deterministic server: the M/D/1 fit must
        // have (weakly) lower residuals than the M/M/1 fit over a range
        // that exercises the queueing term.
        let pts = synth(0.0, 80.0, 0.0015, 1e6, &[1, 2, 3, 4, 6, 7]);
        let (mm1, md1) = compare_disciplines(&pts, 1e6).unwrap();
        assert!(
            md1.sse <= mm1.sse,
            "M/D/1 sse {} should beat M/M/1 sse {}",
            md1.sse,
            mm1.sse
        );
    }

    #[test]
    fn saturation_and_clamping() {
        let pts = synth(1.0, 50.0, 0.002, 1e6, &[1, 2, 4, 8]);
        let fit = Mg1Fit::fit(&pts, 1e6, 1.0).unwrap();
        let pole = fit.saturation_cores().unwrap();
        assert!((pole - 10.0).abs() < 0.5, "pole={pole}");
        assert!(fit.predict_checked(11).is_none());
        assert!(fit.predict(11).is_finite());
    }

    #[test]
    fn guards() {
        assert_eq!(
            Mg1Fit::fit(&[(1, 1.0)], 1.0, 1.0),
            Err(Mg1Error::TooFewPoints)
        );
        assert_eq!(
            Mg1Fit::fit(&[(1, 1.0), (2, -1.0)], 1.0, 1.0),
            Err(Mg1Error::BadCycles)
        );
        assert_eq!(
            Mg1Fit::fit(&[(1, 1.0), (2, 2.0)], 1.0, -0.5),
            Err(Mg1Error::BadParameters)
        );
    }
}
