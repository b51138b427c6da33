//! Controller telemetry.

/// Aggregate statistics of one memory controller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McStats {
    /// Requests accepted.
    pub requests: u64,
    /// Of which write-backs.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (activations).
    pub row_misses: u64,
    /// Sum over requests of (completion − arrival), in cycles: total
    /// residence time, whose mean is the measured `C_req` of eq. (5).
    pub total_residence_cycles: u64,
    /// Sum of pure queueing delay (start of service − arrival).
    pub total_queueing_cycles: u64,
}

impl McStats {
    /// Mean residence time (queue + service) per request, the measured
    /// counterpart of the model's `C_req(n)`. Zero when idle.
    pub fn mean_residence(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_residence_cycles as f64 / self.requests as f64
        }
    }

    /// Mean queueing delay per request.
    pub fn mean_queueing(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_queueing_cycles as f64 / self.requests as f64
        }
    }

    /// Row-buffer hit rate in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_guard_division_by_zero() {
        let s = McStats::default();
        assert_eq!(s.mean_residence(), 0.0);
        assert_eq!(s.mean_queueing(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let s = McStats {
            requests: 4,
            writes: 1,
            row_hits: 3,
            row_misses: 1,
            total_residence_cycles: 400,
            total_queueing_cycles: 100,
        };
        assert_eq!(s.mean_residence(), 100.0);
        assert_eq!(s.mean_queueing(), 25.0);
        assert_eq!(s.row_hit_rate(), 0.75);
    }
}
