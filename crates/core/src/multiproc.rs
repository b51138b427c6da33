//! Multiprocessor composition of the contention model (paper eqs. 7–11).
//!
//! The model is hierarchically decomposed: the M/M/1 fit of [`crate::mm1`]
//! covers cores within one processor; scaling to multiple processors adds
//!
//! * **UMA** (eq. 8): `C_UMA(n) = C(c) + C(n−c) + ΔC` — each processor
//!   contributes its own (bus-independent) queueing, plus a correction ΔC
//!   for the extra load on the *shared* memory controller;
//! * **NUMA** (eq. 11): `C_NUMA(n) = C(c) + r(n)·ρ·(n−c)` — beyond the
//!   first processor, each additional active core adds `r·ρ` stall cycles
//!   for remote memory requests, where `ρ = δ(n)/n` is the average
//!   per-core remote stall parameter. "For a system with multiple memory
//!   latencies (such as AMD NUMA), ρ is an average weighted to the number
//!   of memory requests to each of the remote memories" — realised here by
//!   fitting a separate ρ per additional processor from the measured
//!   points the paper's protocol supplies (§V uses C(25) and C(37) on AMD
//!   precisely to avoid the homogeneous-interconnect assumption that
//!   "degrades the prediction accuracy up to 25%").
//!
//! ΔC and the ρ values are obtained from measured points with more than
//! one active processor, exactly as the paper derives them by regression.

use crate::mm1::{Mm1Error, Mm1Fit};

/// Memory architecture of the machine being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// Shared memory controller (eq. 8 composition).
    Uma,
    /// Per-processor controllers (eq. 11 composition).
    Numa,
}

impl Architecture {
    /// Canonical lower-case name, stable for serialization and cache keys.
    pub fn as_str(&self) -> &'static str {
        match self {
            Architecture::Uma => "uma",
            Architecture::Numa => "numa",
        }
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything the fit consumes.
#[derive(Debug, Clone)]
pub struct FitInputs {
    /// Measured `(n, C(n))` points. Points with `n ≤ cores_per_processor`
    /// feed the M/M/1 regression; later points calibrate ΔC / ρ.
    pub points: Vec<(usize, f64)>,
    /// Last-level cache misses `r(n)` (≈ constant in `n`, observation 3).
    pub r: f64,
    /// Cores per processor, the paper's `c`.
    pub cores_per_processor: usize,
    /// Architecture selecting the composition rule.
    pub arch: Architecture,
    /// When true, a single ρ (from the first cross-processor point) is
    /// reused for every additional processor — the homogeneous-interconnect
    /// assumption the paper shows degrades AMD accuracy. NUMA only.
    pub homogeneous_rho: bool,
}

/// Fitting errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// The within-processor regression failed.
    Mm1(Mm1Error),
    /// `cores_per_processor` was zero.
    NoCores,
    /// `r` was not positive and finite.
    BadMissCount,
    /// A cross-processor point had no remote cores after the fill-first
    /// split (internal inconsistency).
    BadCrossPoint,
    /// The sweep lacks a point the fitting protocol requires.
    MissingPoint(usize),
    /// The sweep lacks the `n = 1` baseline ω is defined against.
    MissingBaseline,
    /// After discarding corrupt readings, too few points remain to fit
    /// responsibly (the robust pipeline refuses below three).
    TooFewUsablePoints {
        /// Points that survived sanitisation.
        usable: usize,
        /// Points discarded as corrupt or outlying.
        dropped: usize,
    },
    /// The regression produced a non-positive service rate μ — the
    /// recovered queue would have no capacity, so every prediction from
    /// it would be meaningless.
    NonPositiveMu,
    /// The fitted model saturates (`n·L ≥ μ`) at one of its own input
    /// points: the M/M/1 abstraction is invalid inside its fitting domain.
    SaturatedInputs {
        /// The input core count at or past the fitted pole.
        n: usize,
    },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::Mm1(e) => write!(f, "within-processor fit failed: {e}"),
            FitError::NoCores => write!(f, "cores_per_processor must be positive"),
            FitError::BadMissCount => write!(f, "miss count r must be positive"),
            FitError::BadCrossPoint => write!(f, "cross-processor point has no remote cores"),
            FitError::MissingPoint(n) => {
                write!(f, "sweep is missing the protocol's required point n = {n}")
            }
            FitError::MissingBaseline => {
                write!(f, "sweep is missing the n = 1 baseline C(1)")
            }
            FitError::TooFewUsablePoints { usable, dropped } => write!(
                f,
                "only {usable} usable points remain after dropping {dropped}; \
                 fitting needs at least 3 — re-measure the sweep"
            ),
            FitError::NonPositiveMu => write!(
                f,
                "fitted service rate mu is not positive; the measured sweep \
                 contradicts the queueing model"
            ),
            FitError::SaturatedInputs { n } => write!(
                f,
                "fitted model saturates at its own input point n = {n} \
                 (n*L >= mu); the measurements are inconsistent with M/M/1"
            ),
        }
    }
}

impl std::error::Error for FitError {}

impl From<Mm1Error> for FitError {
    fn from(e: Mm1Error) -> FitError {
        FitError::Mm1(e)
    }
}

/// A fitted multiprocessor contention model.
#[derive(Debug, Clone)]
pub struct ContentionModel {
    arch: Architecture,
    c: usize,
    mm1: Mm1Fit,
    /// Measured `C(1)` baseline for ω, when the inputs included it.
    c1_measured: Option<f64>,
    /// UMA: the shared-controller load correction per extra processor.
    delta_c: f64,
    /// NUMA: ρ_k for additional processor `k` (1-based ⇒ index 0 = second
    /// processor). Empty when no cross-processor point was supplied.
    rho: Vec<f64>,
    r: f64,
}

impl ContentionModel {
    /// Fits the model.
    pub fn fit(inputs: &FitInputs) -> Result<ContentionModel, FitError> {
        let c = inputs.cores_per_processor;
        if c == 0 {
            return Err(FitError::NoCores);
        }
        if !(inputs.r.is_finite() && inputs.r > 0.0) {
            return Err(FitError::BadMissCount);
        }
        let within: Vec<(usize, f64)> = inputs
            .points
            .iter()
            .copied()
            .filter(|&(n, _)| n <= c)
            .collect();
        let mut cross: Vec<(usize, f64)> = inputs
            .points
            .iter()
            .copied()
            .filter(|&(n, _)| n > c)
            .collect();
        cross.sort_by_key(|&(n, _)| n);

        let mm1 = Mm1Fit::fit(&within, inputs.r)?;
        let c1_measured = within
            .iter()
            .find(|&&(n, _)| n == 1)
            .map(|&(_, cycles)| cycles);

        let mut model = ContentionModel {
            arch: inputs.arch,
            c,
            mm1,
            c1_measured,
            delta_c: 0.0,
            rho: Vec::new(),
            r: inputs.r,
        };

        match inputs.arch {
            Architecture::Uma => {
                // ΔC = mean over cross points of the measured excess over
                // the independent-bus composition, per extra processor.
                let mut total = 0.0;
                let mut count = 0usize;
                for &(n, measured) in &cross {
                    let (base, extra_procs) = model.uma_base(n);
                    if extra_procs == 0 {
                        return Err(FitError::BadCrossPoint);
                    }
                    total += (measured - base) / extra_procs as f64;
                    count += 1;
                }
                if count > 0 {
                    model.delta_c = total / count as f64;
                }
            }
            Architecture::Numa => {
                // Fit ρ_k per additional processor by least squares over
                // that processor's cross points ("derived from linear
                // regression of ... ρ", §IV), clamped at zero: δ(n) is the
                // *additional* stall of a remote request and cannot be
                // negative (a relief dip at the first cross-processor
                // point otherwise flips the model's slope).
                let max_k = cross.iter().map(|&(n, _)| (n - 1) / c).max().unwrap_or(0);
                for k in 1..=max_k {
                    if inputs.homogeneous_rho && !model.rho.is_empty() {
                        break;
                    }
                    let points: Vec<(usize, f64)> = cross
                        .iter()
                        .copied()
                        .filter(|&(n, _)| {
                            let kk = (n - 1) / c;
                            if inputs.homogeneous_rho {
                                kk >= 1
                            } else {
                                kk == k
                            }
                        })
                        .collect();
                    if points.is_empty() {
                        // Gap: an unseen processor inherits the previous ρ
                        // (filled by rho_for's clamping on prediction, but
                        // keep the vector dense for reporting).
                        let prev = model.rho.last().copied().unwrap_or(0.0);
                        model.rho.push(prev);
                        continue;
                    }
                    let base = model.mm1.predict(c);
                    // Least squares on measured − explained = r·ρ_k·m.
                    let mut num = 0.0;
                    let mut den = 0.0;
                    for &(n, measured) in &points {
                        let kk = (n - 1) / c;
                        let m_in_last = n - kk * c;
                        if m_in_last == 0 {
                            return Err(FitError::BadCrossPoint);
                        }
                        // Remote cores explained by previously fitted
                        // processors plus full intermediate ones at ρ_k.
                        let mut explained = 0.0;
                        let mut m_k = m_in_last as f64;
                        for j in 1..kk {
                            if j < k {
                                explained += model.r * model.rho_for(j) * c as f64;
                            } else {
                                // Full processors at the ρ being fitted.
                                m_k += c as f64;
                            }
                        }
                        let y = measured - base - explained;
                        num += y * m_k;
                        den += model.r * m_k * m_k;
                    }
                    let rho_k = if den > 0.0 { (num / den).max(0.0) } else { 0.0 };
                    model.rho.push(rho_k);
                }
            }
        }
        Ok(model)
    }

    /// The within-processor M/M/1 component.
    #[inline]
    pub fn mm1(&self) -> &Mm1Fit {
        &self.mm1
    }

    /// The fitted ΔC (UMA) — 0 when no cross point was supplied.
    #[inline]
    pub fn delta_c(&self) -> f64 {
        self.delta_c
    }

    /// The fitted ρ values (NUMA), one per additional processor.
    #[inline]
    pub fn rho(&self) -> &[f64] {
        &self.rho
    }

    fn rho_for(&self, k: usize) -> f64 {
        debug_assert!(k >= 1);
        if self.rho.is_empty() {
            0.0
        } else {
            self.rho[(k - 1).min(self.rho.len() - 1)]
        }
    }

    /// Fill-first split of `n` cores into per-processor counts, then the
    /// UMA base (sum of per-processor M/M/1 terms) and how many extra
    /// processors are active.
    fn uma_base(&self, n: usize) -> (f64, usize) {
        let mut remaining = n;
        let mut base = 0.0;
        let mut procs = 0usize;
        while remaining > 0 {
            let here = remaining.min(self.c);
            base += self.mm1.predict(here);
            remaining -= here;
            procs += 1;
        }
        (base, procs.saturating_sub(1))
    }

    /// Predicts `C(n)` under the fitted model.
    pub fn predict_c(&self, n: usize) -> f64 {
        assert!(n >= 1, "need at least one core");
        if n <= self.c {
            return self.mm1.predict(n);
        }
        match self.arch {
            Architecture::Uma => {
                let (base, extra) = self.uma_base(n);
                base + extra as f64 * self.delta_c
            }
            Architecture::Numa => {
                let k = (n - 1) / self.c;
                let remote_in_k = n - k * self.c;
                let mut total = self.mm1.predict(self.c);
                for j in 1..k {
                    total += self.r * self.rho_for(j) * self.c as f64;
                }
                total += self.r * self.rho_for(k) * remote_in_k as f64;
                total
            }
        }
    }

    /// Predicts `ω(n)`, using the measured `C(1)` input as baseline when
    /// available, else the model's own `C(1)`.
    pub fn predict_omega(&self, n: usize) -> f64 {
        let c1 = self.c1_measured.unwrap_or_else(|| self.mm1.predict(1));
        (self.predict_c(n) - c1) / c1
    }

    /// Predicts the *effective speedup* of `n` cores over one:
    /// `s(n) = n · C(1) / C(n)` — each core delivers `C(1)`-equivalent
    /// work, but the program consumes `C(n)` cycles to do it.
    pub fn predict_speedup(&self, n: usize) -> f64 {
        let c1 = self.c1_measured.unwrap_or_else(|| self.mm1.predict(1));
        n as f64 * c1 / self.predict_c(n)
    }

    /// The fitted parameters, flattened for serialization: everything a
    /// cache (or a rival model slotting into the same lookup path) needs
    /// to reproduce this model's predictions.
    pub fn params(&self) -> ModelParams {
        ModelParams {
            arch: self.arch,
            cores_per_processor: self.c,
            mu: self.mm1.mu(),
            l: self.mm1.l(),
            input_r_squared: self.mm1.input_r_squared,
            c1_measured: self.c1_measured,
            delta_c: self.delta_c,
            rho: self.rho.clone(),
            r: self.r,
        }
    }

    /// The core count in `1..=max_n` that maximises the predicted
    /// effective speedup — the capacity-planning question the authors'
    /// companion work (\[26\] in the paper) poses, answered here from the
    /// contention model alone. Ties go to the *smaller* core count (the
    /// cheaper configuration).
    pub fn optimal_cores(&self, max_n: usize) -> (usize, f64) {
        assert!(max_n >= 1);
        let mut best = (1usize, self.predict_speedup(1));
        for n in 2..=max_n {
            let s = self.predict_speedup(n);
            if s > best.1 + 1e-12 {
                best = (n, s);
            }
        }
        best
    }
}

/// The fitted parameter set of a [`ContentionModel`], flattened for
/// serialization (service responses, fitted-model caches, reports).
///
/// The paper's handful of fitted parameters — μ, L, ΔC, ρ — *are* the
/// model; carrying them (plus the architecture, per-processor core count,
/// miss rate `r` and the measured `C(1)` baseline) is enough to answer
/// any `C(n)`/ω(n)/speedup query without touching the simulator again.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Composition rule of the fitted machine.
    pub arch: Architecture,
    /// Cores per processor, the paper's `c`.
    pub cores_per_processor: usize,
    /// Recovered memory-controller service rate μ (requests/cycle).
    pub mu: f64,
    /// Recovered per-core request rate `L`.
    pub l: f64,
    /// R² of the within-processor `1/C(n)` regression.
    pub input_r_squared: f64,
    /// Measured `C(1)` baseline ω is defined against, when supplied.
    pub c1_measured: Option<f64>,
    /// UMA shared-controller load correction per extra processor.
    pub delta_c: f64,
    /// NUMA ρ_k per additional processor (empty ⇒ no cross point).
    pub rho: Vec<f64>,
    /// Last-level cache miss count `r` the fit consumed.
    pub r: f64,
}

impl offchip_json::ToJson for ModelParams {
    fn to_json(&self) -> offchip_json::Json {
        offchip_json::json_obj! {
            "arch" => self.arch.as_str(),
            "cores_per_processor" => self.cores_per_processor,
            "mu" => self.mu,
            "l" => self.l,
            "input_r_squared" => self.input_r_squared,
            "c1_measured" => self.c1_measured,
            "delta_c" => self.delta_c,
            "rho" => self.rho,
            "r" => self.r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground truth generator: an exact paper-model machine.
    struct Truth {
        mu: f64,
        l: f64,
        r: f64,
        c: usize,
        delta_c: f64,
        rho: Vec<f64>,
    }

    impl Truth {
        fn c_uma(&self, n: usize) -> f64 {
            if n <= self.c {
                self.r / (self.mu - n as f64 * self.l)
            } else {
                self.c_uma(self.c) + self.c_uma(n - self.c) + self.delta_c
            }
        }
        fn c_numa(&self, n: usize) -> f64 {
            if n <= self.c {
                return self.r / (self.mu - n as f64 * self.l);
            }
            let k = (n - 1) / self.c;
            let mut total = self.c_numa(self.c);
            for j in 1..k {
                total += self.r * self.rho[j - 1] * self.c as f64;
            }
            total += self.r * self.rho[k - 1] * (n - k * self.c) as f64;
            total
        }
    }

    fn uma_truth() -> Truth {
        Truth {
            mu: 0.02,
            l: 0.003,
            r: 1e9,
            c: 4,
            delta_c: 4e11,
            rho: vec![],
        }
    }

    fn numa_truth() -> Truth {
        Truth {
            mu: 0.02,
            l: 0.001,
            r: 1e9,
            c: 12,
            delta_c: 0.0,
            rho: vec![150.0, 220.0, 300.0],
        }
    }

    #[test]
    fn uma_protocol_recovers_truth() {
        // The paper's UMA protocol: C(1), C(4), C(5).
        let t = uma_truth();
        let inputs = FitInputs {
            points: vec![(1, t.c_uma(1)), (4, t.c_uma(4)), (5, t.c_uma(5))],
            r: t.r,
            cores_per_processor: 4,
            arch: Architecture::Uma,
            homogeneous_rho: false,
        };
        let m = ContentionModel::fit(&inputs).unwrap();
        for n in 1..=8 {
            let truth = t.c_uma(n);
            let pred = m.predict_c(n);
            assert!(
                (pred - truth).abs() / truth < 1e-9,
                "n={n}: {pred} vs {truth}"
            );
        }
        assert!((m.delta_c() - t.delta_c).abs() / t.delta_c < 1e-9);
    }

    #[test]
    fn numa_protocol_recovers_heterogeneous_rho() {
        // The paper's AMD protocol: C(1), C(12), C(13), C(25), C(37).
        let t = numa_truth();
        let pts = [1usize, 12, 13, 25, 37]
            .iter()
            .map(|&n| (n, t.c_numa(n)))
            .collect();
        let inputs = FitInputs {
            points: pts,
            r: t.r,
            cores_per_processor: 12,
            arch: Architecture::Numa,
            homogeneous_rho: false,
        };
        let m = ContentionModel::fit(&inputs).unwrap();
        assert_eq!(m.rho().len(), 3);
        for (k, &want) in t.rho.iter().enumerate() {
            assert!(
                (m.rho()[k] - want).abs() / want < 1e-9,
                "rho_{k}: {} vs {want}",
                m.rho()[k]
            );
        }
        for n in [6, 14, 20, 24, 30, 36, 40, 48] {
            let truth = t.c_numa(n);
            let pred = m.predict_c(n);
            assert!(
                (pred - truth).abs() / truth < 1e-6,
                "n={n}: {pred} vs {truth}"
            );
        }
    }

    #[test]
    fn homogeneous_rho_is_worse_on_heterogeneous_machine() {
        let t = numa_truth();
        let pts: Vec<(usize, f64)> = [1usize, 12, 13, 25, 37]
            .iter()
            .map(|&n| (n, t.c_numa(n)))
            .collect();
        let hetero = ContentionModel::fit(&FitInputs {
            points: pts.clone(),
            r: t.r,
            cores_per_processor: 12,
            arch: Architecture::Numa,
            homogeneous_rho: false,
        })
        .unwrap();
        let homo = ContentionModel::fit(&FitInputs {
            points: pts,
            r: t.r,
            cores_per_processor: 12,
            arch: Architecture::Numa,
            homogeneous_rho: true,
        })
        .unwrap();
        let truth = t.c_numa(48);
        let err_het = (hetero.predict_c(48) - truth).abs() / truth;
        let err_hom = (homo.predict_c(48) - truth).abs() / truth;
        assert!(err_het < 1e-6);
        assert!(
            err_hom > 10.0 * err_het.max(1e-12),
            "homogeneous assumption must degrade accuracy: {err_hom} vs {err_het}"
        );
    }

    #[test]
    fn omega_prediction_uses_measured_baseline() {
        let t = uma_truth();
        let inputs = FitInputs {
            points: vec![(1, t.c_uma(1)), (4, t.c_uma(4)), (5, t.c_uma(5))],
            r: t.r,
            cores_per_processor: 4,
            arch: Architecture::Uma,
            homogeneous_rho: false,
        };
        let m = ContentionModel::fit(&inputs).unwrap();
        assert!(m.predict_omega(1).abs() < 1e-9);
        let want = (t.c_uma(8) - t.c_uma(1)) / t.c_uma(1);
        assert!((m.predict_omega(8) - want).abs() < 1e-6);
    }

    #[test]
    fn gap_processors_inherit_previous_rho() {
        // Inputs skip processor 2 (no n in 13..=24 → wait, skip n∈(24,36]):
        // points at 13 and 37 only: ρ_2 must inherit ρ_1.
        let t = numa_truth();
        // Build a truth where rho_2 equals rho_1 so inheritance is exact.
        let t2 = Truth {
            rho: vec![150.0, 150.0, 300.0],
            ..t
        };
        let pts = [1usize, 12, 13, 37]
            .iter()
            .map(|&n| (n, t2.c_numa(n)))
            .collect();
        let m = ContentionModel::fit(&FitInputs {
            points: pts,
            r: t2.r,
            cores_per_processor: 12,
            arch: Architecture::Numa,
            homogeneous_rho: false,
        })
        .unwrap();
        assert!((m.rho()[0] - 150.0).abs() < 1e-6);
        assert!((m.rho()[1] - 150.0).abs() < 1e-6, "inherited");
        assert!((m.rho()[2] - 300.0).abs() < 1e-6, "solved from C(37)");
    }

    #[test]
    fn optimal_cores_balances_contention() {
        // A steep single-socket machine: the pole sits inside the sweep,
        // so the optimum is an interior core count.
        let t = Truth {
            mu: 0.02,
            l: 0.0021, // pole ≈ 9.5 cores
            r: 1e9,
            c: 12,
            delta_c: 0.0,
            rho: vec![400.0],
        };
        let pts = [1usize, 2, 8, 13]
            .iter()
            .map(|&n| (n, t.c_numa(n)))
            .collect();
        let m = ContentionModel::fit(&FitInputs {
            points: pts,
            r: t.r,
            cores_per_processor: 12,
            arch: Architecture::Numa,
            homogeneous_rho: false,
        })
        .unwrap();
        let (n_opt, s_opt) = m.optimal_cores(12);
        assert!(
            (2..12).contains(&n_opt),
            "optimum should be interior, got {n_opt}"
        );
        assert!(s_opt > 1.0, "speedup {s_opt}");
        // Speedup at the pole's shadow must be worse than at the optimum.
        assert!(m.predict_speedup(9) < s_opt + 1e-9);
    }

    #[test]
    fn contention_free_program_wants_all_cores() {
        // Perfect scaling: total thread-cycles stay constant in n, so the
        // fitted ΔC comes out negative and cancels eq. 8's per-socket sum
        // (exactly what happens for EP in the paper's Fig. 6a).
        let flat: Vec<(usize, f64)> = vec![(1, 1e9), (4, 1e9), (5, 1e9)];
        let m = ContentionModel::fit(&FitInputs {
            points: flat,
            r: 1e6,
            cores_per_processor: 4,
            arch: Architecture::Uma,
            homogeneous_rho: false,
        })
        .unwrap();
        let (n_opt, _) = m.optimal_cores(8);
        assert_eq!(n_opt, 8, "no contention ⇒ use every core");
    }

    #[test]
    fn fit_errors_surface() {
        let bad_r = FitInputs {
            points: vec![(1, 1.0), (2, 2.0)],
            r: 0.0,
            cores_per_processor: 4,
            arch: Architecture::Uma,
            homogeneous_rho: false,
        };
        assert_eq!(
            ContentionModel::fit(&bad_r).unwrap_err(),
            FitError::BadMissCount
        );
        let no_cores = FitInputs {
            points: vec![(1, 1.0), (2, 2.0)],
            r: 1.0,
            cores_per_processor: 0,
            arch: Architecture::Uma,
            homogeneous_rho: false,
        };
        assert_eq!(
            ContentionModel::fit(&no_cores).unwrap_err(),
            FitError::NoCores
        );
        let too_few = FitInputs {
            points: vec![(1, 1.0)],
            r: 1.0,
            cores_per_processor: 4,
            arch: Architecture::Uma,
            homogeneous_rho: false,
        };
        assert!(matches!(
            ContentionModel::fit(&too_few).unwrap_err(),
            FitError::Mm1(_)
        ));
    }

    #[test]
    fn no_cross_points_predicts_optimistically() {
        // Without any multi-processor measurement, the model cannot know
        // ΔC/ρ and predicts the no-extra-cost composition.
        let t = uma_truth();
        let m = ContentionModel::fit(&FitInputs {
            points: vec![(1, t.c_uma(1)), (4, t.c_uma(4))],
            r: t.r,
            cores_per_processor: 4,
            arch: Architecture::Uma,
            homogeneous_rho: false,
        })
        .unwrap();
        let pred = m.predict_c(8);
        let base_only = 2.0 * t.c_uma(4);
        assert!((pred - base_only).abs() / base_only < 1e-9);
    }
}
