//! `offchip` — command-line driver for the contention study.
//!
//! ```text
//! offchip topology [uma|numa|amd]
//! offchip run   <program> [options]     one configuration, papiex report
//! offchip sweep <program> [options]     ω(n) over every core count + plot
//! offchip fit   <program> [options]     fit & validate the paper's model
//! offchip burst <program> [options]     5 µs sampler burstiness analysis
//! ```
//!
//! `<program>` is paper notation: `CG.C`, `SP.W`, `x264.native`, …
//! Common options: `--machine uma|numa|amd` (default `uma`),
//! `--cores N`, `--scale DENOM` (machine scaled by 1/DENOM, default 64),
//! `--threads N` (default: machine cores), `--prefetch D`,
//! `--scheduler fcfs|frfcfs`, `--placement interleave|firsttouch`,
//! `--protocol paper|extended` (fit only), `--faults drop=…,jitter=…`
//! (fit only; also read from `OFFCHIP_FAULTS`), `--jobs N` (sweep/fit
//! worker count; also read from `OFFCHIP_JOBS`, default: all cores),
//! `--out PATH` (sweep artefact), `--trace PATH` and `--metrics PATH`
//! (observe the runs: a Chrome trace and a metrics CSV; without either,
//! no run is observed), and the campaign flags every experiment binary
//! takes, parsed by `offchip_bench::CampaignOptions`: `--resume`,
//! `--deadline SECS`, `--retries N`, `--max-events N`, `--journal-dir
//! DIR`, `--watchdog SECS` (sweep/fit journal completed points under
//! `results/`; run/burst take only the deadline and event budget) and
//! `--chaos-io SPEC` (inject filesystem faults into every durable write;
//! also read from `OFFCHIP_CHAOS_IO`). An option the usage scopes to
//! other commands is a usage error, not silently ignored.
//!
//! Exit codes: 0 success, 2 usage, 3 invalid configuration, 4 model fit
//! failure, 5 runtime failure, 6 campaign interrupted but journaled
//! (rerun with `--resume`), 7 artefact write failed but every
//! measurement is journaled (rerun with `--resume` to regenerate the
//! artefact without re-simulating).

use std::process::ExitCode;

mod args;
mod commands;
mod error;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let env_chaos = std::env::var(offchip_chaos::CHAOS_ENV).ok();
    let env_faults = std::env::var(args::FAULTS_ENV).ok();
    match args::parse(&argv, env_chaos.as_deref(), env_faults.as_deref()) {
        Ok(cmd) => match commands::execute(&cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(e.exit_code())
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}\n\n{}", args::USAGE, offchip_bench::CAMPAIGN_USAGE);
            ExitCode::from(error::EXIT_USAGE)
        }
    }
}
