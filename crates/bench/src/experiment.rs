//! The frame every campaign-backed experiment binary runs in (`table2`,
//! `table4`, `figure3`, `figure5`/`figure6` and `ablations`): parse the
//! campaign flags, open the binary's journal, run sweeps that must
//! complete, and persist the artefact.

use offchip_json::ToJson;
use offchip_machine::Workload;
use offchip_topology::MachineSpec;

use crate::campaign::{Campaign, CampaignOptions, EXIT_INTERRUPTED};
use crate::report::{persist_or_exit, ExperimentResult};
use crate::sweep::{seeds, SweepResult, SweepTiming};

/// One experiment binary's campaign, seeds and accumulated sweep timing.
pub struct Experiment {
    id: String,
    opts: CampaignOptions,
    jobs: usize,
    seeds: Vec<u64>,
    quick: bool,
    campaign: Campaign,
    timing: SweepTiming,
}

impl Experiment {
    /// Parses the process's campaign flags and checks `OFFCHIP_SEEDS` and
    /// `OFFCHIP_JOBS`, exiting 2 with usage on a bad one, then opens the
    /// campaign journal `<id>.journal` (restarting it unless `--resume`).
    /// A journal that cannot be opened or healed exits 5; an unreadable
    /// one is quarantined instead (see [`crate::JournalFault`]).
    pub fn start(id: &str) -> Experiment {
        let (opts, jobs) = CampaignOptions::from_cli_or_exit(id);
        let campaign = Campaign::start(id, &opts).unwrap_or_else(|e| {
            offchip_obs::error!("cannot open campaign journal for [{id}]: {e}");
            std::process::exit(5);
        });
        Experiment {
            id: id.to_string(),
            opts,
            jobs,
            seeds: seeds(),
            quick: std::env::var("OFFCHIP_QUICK").is_ok_and(|v| v == "1"),
            campaign,
            timing: SweepTiming::zero(jobs),
        }
    }

    /// Whether `OFFCHIP_QUICK=1` asks for coarser sweeps.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Sweeps `workload` on `machine` over `ns` under the campaign and
    /// adds the sweep's timing to the total. A lost point is logged and
    /// exits [`EXIT_INTERRUPTED`] (6): the journal keeps every completed
    /// run, so `--resume` finishes the grid without repeating them.
    pub fn sweep(
        &mut self,
        machine: &MachineSpec,
        workload: &dyn Workload,
        ns: &[usize],
    ) -> SweepResult {
        let cs = self
            .campaign
            .run_sweep(machine, workload, ns, &self.seeds, self.jobs)
            .expect("sweep");
        if !cs.errors.is_empty() {
            cs.log_losses();
            offchip_obs::error!(
                "campaign interrupted: {} point(s) lost, {} completed runs journaled — \
                 rerun with --resume to finish without repeating them",
                cs.errors.len(),
                cs.executed + cs.resumed
            );
            std::process::exit(i32::from(EXIT_INTERRUPTED));
        }
        self.timing.absorb(&cs.timing);
        cs.sweep
    }

    /// Logs the total sweep timing and the campaign's status, then writes
    /// `data` to `target/experiments/<id>.json` and names the file on
    /// stderr. A failed write exits 7 with the journal intact (see
    /// [`persist_or_exit`]).
    pub fn finish<T: ToJson>(self, artifact: &str, data: T) {
        offchip_obs::info!("{}", timing_line(&self.id, &self.timing));
        offchip_obs::info!("{}", self.campaign.status_line());
        let result = ExperimentResult {
            id: self.id,
            paper_artifact: artifact.into(),
            data,
        };
        let path = persist_or_exit(
            &result,
            self.opts.vfs_or_real(),
            Some(self.campaign.journal_path()),
        );
        eprintln!("wrote {}", path.display());
    }
}

/// Renders the sweep engine's timing/throughput line as every experiment
/// binary prints it: `sweep timing [table2]: 90 runs in 4.11 s wall
/// (21.9 runs/s, 14.52 Mev/s, 3.8x vs serial, jobs=4)`.
fn timing_line(label: &str, timing: &SweepTiming) -> String {
    format!("sweep timing [{label}]: {timing}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_line_names_the_artifact() {
        let t = crate::sweep::SweepTiming {
            runs: 12,
            jobs: 4,
            wall: std::time::Duration::from_millis(500),
            busy: std::time::Duration::from_secs(2),
            events: 3_000_000,
        };
        let line = timing_line("table2", &t);
        assert!(line.starts_with("sweep timing [table2]:"), "{line}");
        assert!(line.contains("12 runs"), "{line}");
        assert!(line.contains("4.0x vs serial"), "{line}");
        assert!(line.contains("jobs=4"), "{line}");
    }
}
