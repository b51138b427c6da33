//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each binary under `src/bin/` reproduces one artefact (see DESIGN.md §5
//! for the index); this library holds the shared machinery:
//!
//! * [`workloads`] — constructing any of the paper's programs by name and
//!   class, and the paper's machines, at the experiment scale;
//! * [`campaign`] — the one sweep engine: core-count sweeps with seed
//!   averaging (the paper runs every configuration five times and reports
//!   averages), journaled and fanned across the worker pool;
//! * [`experiment`] — the frame of the campaign-backed binaries:
//!   [`Experiment::start`], [`Experiment::sweep`], [`Experiment::finish`];
//! * [`sweep`] — the sweep result types and the serial reference sweep
//!   the campaign's output is checked against;
//! * [`fit`] — the one sweep → fit → validation path, [`fit_sweep`];
//! * [`report`] — text-table rendering and JSON persistence of results
//!   under `target/experiments/`.
//!
//! Environment knobs:
//!
//! * `OFFCHIP_QUICK=1` — single seed and coarser sweeps, for smoke runs;
//! * `OFFCHIP_SEEDS=k` — number of seeds averaged, from 1 to
//!   [`MAX_SEEDS`] (default 3; anything else is a usage error, exit 2);
//! * `OFFCHIP_JOBS=j` — worker budget of the campaign sweep engine
//!   (default: the machine's available parallelism; zero or garbage is a
//!   usage error, exit 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod experiment;
pub mod fit;
pub mod model_figure;
pub mod perfcal;
pub mod plot;
pub mod report;
pub mod sweep;
pub mod workloads;

pub use campaign::{
    loss_summary, Campaign, CampaignOptions, CampaignSweep, JournalFault, PointConfig, PointError,
    Watchdog, CAMPAIGN_USAGE, EXIT_ARTEFACT_FAILED, EXIT_INTERRUPTED,
};
pub use experiment::Experiment;
pub use fit::{fit_sweep, SweepFitError};
pub use report::{persist_or_exit, write_json, ExperimentResult};
pub use sweep::{
    run_sweep, seeds, seeds_from, SweepError, SweepPoint, SweepResult, SweepTiming, MAX_SEEDS,
    SEEDS_ENV,
};
pub use workloads::{
    build_workload, build_workload_scaled, experiment_machine, experiment_machines,
    experiment_scale, ProgramSpec,
};
