//! # offchip — understanding off-chip memory contention
//!
//! A from-scratch Rust reproduction of *Tudor, Teo & See, "Understanding
//! Off-chip Memory Contention of Parallel Programs in Multicore Systems"*
//! (ICPP 2011): the analytical M/M/1 contention model that is the paper's
//! contribution, plus every substrate it needs — a closed-loop multicore
//! memory-system simulator standing in for the paper's three physical
//! machines, cache-line trace generators of the NPB kernels and a PARSEC
//! x264 proxy as workloads (with a Rust port of NPB CG that checks its
//! generator), and a PAPI-like counter layer with the paper's 5 µs
//! burstiness sampler.
//!
//! ## Quick start
//!
//! ```
//! use offchip::prelude::*;
//!
//! // A paper machine, geometrically scaled so runs take milliseconds.
//! let machine = machines::intel_uma_8().scaled(1.0 / 64.0);
//!
//! // The CG kernel's access trace, class W, one thread per core.
//! let workload = traces::cg::workload(ProblemClass::W, 1.0 / 64.0, 8);
//!
//! // Measure C(1) and C(8), then the degree of contention ω(8).
//! let c1 = run(&workload, &SimConfig::new(machine.clone(), 1));
//! let c8 = run(&workload, &SimConfig::new(machine, 8));
//! let omega = degree_of_contention(
//!     c8.counters.total_cycles,
//!     c1.counters.total_cycles,
//! );
//! assert!(omega > -1.0);
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`model`] | the paper's analytical model: ω(n), M/M/1 fit, UMA/NUMA composition, validation |
//! | [`machine`] | closed-loop multicore simulator (cores, MSHRs, first-touch/interleave placement) |
//! | [`topology`] | the three reference machines, interconnects, core allocation |
//! | [`cache`] | set-associative hierarchy with shared LLCs |
//! | [`dram`] | FCFS / FR-FCFS memory controllers with bank & row-buffer timing |
//! | [`npb`] | NPB and x264 trace generators + the CG port that checks its generator |
//! | [`perf`] | PAPI-like counters, papiex reports, burstiness analysis |
//! | [`stats`] | regression, CCDF/tail, distribution fits |
//! | [`simcore`] | deterministic DES kernel and RNG |
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use offchip_cache as cache;
pub use offchip_dram as dram;
pub use offchip_machine as machine;
pub use offchip_model as model;
pub use offchip_npb as npb;
pub use offchip_obs as obs;
pub use offchip_perf as perf;
pub use offchip_simcore as simcore;
pub use offchip_stats as stats;
pub use offchip_topology as topology;

/// The items nearly every user needs, re-exported flat.
pub mod prelude {
    pub use offchip_machine::{run, McScheduler, MemoryPolicy, Op, RunReport, SimConfig, Workload};
    pub use offchip_model::{
        degree_of_contention, omega_series, validate, ContentionModel, FitInputs, FitProtocol,
        Mm1Fit,
    };
    pub use offchip_npb::classes::ProblemClass;
    pub use offchip_npb::traces;
    pub use offchip_perf::{papiex_report, BurstAnalysis, BurstVerdict, EventSet, PapiEvent};
    pub use offchip_topology::{machines, AllocationPolicy, MachineSpec};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_all_crates() {
        use crate::prelude::*;
        let m = machines::intel_uma_8();
        assert_eq!(m.total_cores(), 8);
        assert_eq!(degree_of_contention(200, 100), 1.0);
    }
}
