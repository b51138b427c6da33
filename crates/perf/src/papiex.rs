//! papiex-style per-run reports.
//!
//! The paper wraps each benchmark run with `papiex` "to measure the
//! hardware counters of the profiled applications only". Here a run is a
//! simulation, so isolation is perfect by construction; the report keeps
//! the familiar shape: raw counters followed by derived metrics.

use std::fmt::Write as _;

use offchip_machine::RunReport;

use crate::papi::EventSet;

/// Derived metrics papiex prints next to the raw counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedMetrics {
    /// Instructions per (total) cycle.
    pub ipc: f64,
    /// Fraction of cycles stalled.
    pub stall_fraction: f64,
    /// LLC misses per thousand instructions.
    pub mpki: f64,
    /// Mean memory-controller residence per off-chip request, cycles.
    pub mean_residence: f64,
}

impl DerivedMetrics {
    /// Computes the derived metrics of a run.
    pub fn of(report: &RunReport) -> DerivedMetrics {
        let c = &report.counters;
        let total = c.total_cycles.max(1) as f64;
        let instr = c.instructions.max(1) as f64;
        let residence: f64 = {
            let reqs: u64 = report.mc_stats.iter().map(|m| m.requests).sum();
            let cyc: u64 = report
                .mc_stats
                .iter()
                .map(|m| m.total_residence_cycles)
                .sum();
            if reqs == 0 {
                0.0
            } else {
                cyc as f64 / reqs as f64
            }
        };
        DerivedMetrics {
            ipc: c.instructions as f64 / total,
            stall_fraction: c.stall_cycles as f64 / total,
            mpki: c.llc_misses as f64 * 1000.0 / instr,
            mean_residence: residence,
        }
    }
}

/// Renders a papiex-style text report for a run.
pub fn papiex_report(report: &RunReport, set: &EventSet) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "papiex (simulated) — {}", report.program);
    let _ = writeln!(out, "  machine:     {}", report.machine);
    let _ = writeln!(
        out,
        "  cores:       {}  threads: {}  oversubscription: {:.2}",
        report.n_cores,
        report.n_threads,
        report.placement.oversubscription()
    );
    let _ = writeln!(out, "  makespan:    {} cycles", report.makespan.cycles());
    let _ = writeln!(out, "  counters:");
    for (ev, v) in set.read(report) {
        let _ = writeln!(out, "    {:<16} {v}", ev.name());
    }
    let _ = writeln!(
        out,
        "    {:<16} {}",
        "WORK_CYC(derived)",
        EventSet::derived_work_cycles(report)
    );
    let d = DerivedMetrics::of(report);
    let _ = writeln!(out, "  derived:");
    let _ = writeln!(out, "    IPC              {:.4}", d.ipc);
    let _ = writeln!(out, "    stall fraction   {:.4}", d.stall_fraction);
    let _ = writeln!(out, "    LLC MPKI         {:.4}", d.mpki);
    let _ = writeln!(
        out,
        "    mean residence   {:.1} cyc/request",
        d.mean_residence
    );
    let _ = writeln!(out, "  memory controllers:");
    for (i, mc) in report.mc_stats.iter().enumerate() {
        let _ = writeln!(
            out,
            "    mc{i}: {} reqs ({} wr), row-hit {:.2}, mean queue {:.1} cyc",
            mc.requests,
            mc.writes,
            mc.row_hit_rate(),
            mc.mean_queueing()
        );
    }
    out
}

/// Convenience: the paper-default event set for the report's machine,
/// inferred from its name (the presets embed "AMD"/"UMA"), then rendered.
pub fn papiex_report_default(report: &RunReport) -> String {
    let amd = report.machine.contains("AMD");
    // "NUMA" contains "UMA" as a substring, so test for NUMA.
    let kind = if report.machine.contains("NUMA") {
        offchip_topology::InterconnectKind::Numa
    } else {
        offchip_topology::InterconnectKind::Uma
    };
    papiex_report(report, &EventSet::paper_default(kind, amd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_machine::{ops::VecWorkload, Op, SimConfig};
    use offchip_topology::machines;

    fn report() -> RunReport {
        let w = VecWorkload {
            name: "rep".into(),
            threads: vec![(0..50)
                .map(|i| Op::Access {
                    addr: i * (1 << 16),
                    write: false,
                    dependent: true,
                    compute: 0,
                })
                .collect()],
        };
        offchip_machine::run(
            &w,
            &SimConfig::new(machines::intel_uma_8().scaled(1.0 / 64.0), 1),
        )
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let r = report();
        let d = DerivedMetrics::of(&r);
        assert!(d.ipc > 0.0 && d.ipc < 1.0);
        assert!(d.stall_fraction > 0.5, "memory-bound run mostly stalls");
        assert!(d.mpki > 0.0);
        assert!(d.mean_residence > 0.0);
    }

    #[test]
    fn report_contains_counters_and_sections() {
        let r = report();
        let text = papiex_report_default(&r);
        assert!(text.contains("PAPI_TOT_CYC"));
        assert!(text.contains("PAPI_RES_STL"));
        assert!(text.contains("PAPI_L2_TCM"), "UMA uses the L2 event");
        assert!(text.contains("IPC"));
        assert!(text.contains("mc0:"));
    }
}
