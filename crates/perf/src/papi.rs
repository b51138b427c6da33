//! Named counter events and event sets.
//!
//! The event names match the PAPI presets (and the two native LLC events)
//! the paper lists in §III-A, so the analysis code reads like the paper's
//! methodology section.

use offchip_machine::RunReport;
use offchip_topology::machines::Preset;

/// A hardware-counter event, named as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PapiEvent {
    /// `PAPI_TOT_CYC` — total cycles across the active cores.
    TotCyc,
    /// `PAPI_TOT_INS` — instructions retired.
    TotIns,
    /// `PAPI_RES_STL` — cycles stalled on any resource.
    ResStl,
    /// `PAPI_L2_TCM` — L2 total cache misses; the LLC-miss counter on the
    /// UMA machine, where L2 is the last level.
    L2Tcm,
    /// `LLC_MISSES` — the Intel NUMA native last-level (L3) miss event.
    LlcMisses,
    /// `L3_CACHE_MISSES` — the AMD NUMA native L3 miss event.
    L3CacheMisses,
}

impl PapiEvent {
    /// The PAPI-style event name.
    pub fn name(self) -> &'static str {
        match self {
            PapiEvent::TotCyc => "PAPI_TOT_CYC",
            PapiEvent::TotIns => "PAPI_TOT_INS",
            PapiEvent::ResStl => "PAPI_RES_STL",
            PapiEvent::L2Tcm => "PAPI_L2_TCM",
            PapiEvent::LlcMisses => "LLC_MISSES",
            PapiEvent::L3CacheMisses => "L3_CACHE_MISSES",
        }
    }

    /// Reads the event's value from a run report.
    ///
    /// The three LLC-miss spellings all resolve to the machine's last-level
    /// miss counter, exactly as the differently-named hardware events did
    /// on the paper's three machines.
    pub fn read(self, report: &RunReport) -> u64 {
        match self {
            PapiEvent::TotCyc => report.counters.total_cycles,
            PapiEvent::TotIns => report.counters.instructions,
            PapiEvent::ResStl => report.counters.stall_cycles,
            PapiEvent::L2Tcm | PapiEvent::LlcMisses | PapiEvent::L3CacheMisses => {
                report.counters.llc_misses
            }
        }
    }

    /// The LLC-miss event the paper reads on a machine: `PAPI_L2_TCM` on
    /// the Intel UMA, `LLC_MISSES` on the Intel NUMA and
    /// `L3_CACHE_MISSES` on the AMD.
    pub fn llc_event_for(machine: Preset) -> PapiEvent {
        match machine {
            Preset::Uma => PapiEvent::L2Tcm,
            Preset::Numa => PapiEvent::LlcMisses,
            Preset::Amd => PapiEvent::L3CacheMisses,
        }
    }
}

/// A set of events read together, like a PAPI event set.
#[derive(Debug, Clone, Default)]
pub struct EventSet {
    events: Vec<PapiEvent>,
}

impl EventSet {
    /// Creates an empty event set.
    pub fn new() -> EventSet {
        EventSet { events: Vec::new() }
    }

    /// The paper's standard set: cycles, instructions, stalls, LLC misses
    /// (with the machine's LLC event name).
    pub fn paper_default(machine: Preset) -> EventSet {
        EventSet {
            events: vec![
                PapiEvent::TotCyc,
                PapiEvent::TotIns,
                PapiEvent::ResStl,
                PapiEvent::llc_event_for(machine),
            ],
        }
    }

    /// Adds an event; duplicates are ignored (PAPI semantics).
    pub fn add(&mut self, event: PapiEvent) -> &mut Self {
        if !self.events.contains(&event) {
            self.events.push(event);
        }
        self
    }

    /// The events in the set, in insertion order.
    pub fn events(&self) -> &[PapiEvent] {
        &self.events
    }

    /// Reads all events from a run report.
    pub fn read(&self, report: &RunReport) -> Vec<(PapiEvent, u64)> {
        self.events.iter().map(|&e| (e, e.read(report))).collect()
    }

    /// Work cycles derived the way the paper derives them: "the work
    /// cycles were determined as the difference between all cycles and
    /// stall cycles".
    pub fn derived_work_cycles(report: &RunReport) -> u64 {
        report
            .counters
            .total_cycles
            .saturating_sub(report.counters.stall_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_machine::{ops::VecWorkload, Op, SimConfig};
    use offchip_topology::machines;

    fn sample_report() -> RunReport {
        let w = VecWorkload {
            name: "papi-sample".into(),
            threads: vec![vec![
                Op::Compute {
                    cycles: 100,
                    instructions: 150,
                },
                Op::Access {
                    addr: 1 << 22,
                    write: false,
                    dependent: true,
                    compute: 0,
                },
            ]],
        };
        let cfg = SimConfig::new(machines::intel_uma_8().scaled(1.0 / 64.0), 1);
        offchip_machine::run(&w, &cfg)
    }

    #[test]
    fn event_names_match_paper() {
        assert_eq!(PapiEvent::TotCyc.name(), "PAPI_TOT_CYC");
        assert_eq!(PapiEvent::ResStl.name(), "PAPI_RES_STL");
        assert_eq!(PapiEvent::L2Tcm.name(), "PAPI_L2_TCM");
        assert_eq!(PapiEvent::L3CacheMisses.name(), "L3_CACHE_MISSES");
    }

    #[test]
    fn llc_event_selection() {
        assert_eq!(PapiEvent::llc_event_for(Preset::Uma), PapiEvent::L2Tcm);
        assert_eq!(PapiEvent::llc_event_for(Preset::Numa), PapiEvent::LlcMisses);
        assert_eq!(
            PapiEvent::llc_event_for(Preset::Amd),
            PapiEvent::L3CacheMisses
        );
    }

    #[test]
    fn reads_resolve_counters() {
        let r = sample_report();
        assert_eq!(PapiEvent::TotCyc.read(&r), r.counters.total_cycles);
        assert_eq!(PapiEvent::TotIns.read(&r), 151);
        assert_eq!(PapiEvent::L2Tcm.read(&r), 1);
        assert_eq!(
            PapiEvent::LlcMisses.read(&r),
            PapiEvent::L2Tcm.read(&r),
            "all LLC spellings agree"
        );
    }

    #[test]
    fn work_cycles_identity() {
        let r = sample_report();
        assert_eq!(
            EventSet::derived_work_cycles(&r),
            r.counters.work_cycles,
            "paper derivation equals the simulator's direct accounting"
        );
    }

    #[test]
    fn event_set_dedupes() {
        let mut set = EventSet::new();
        set.add(PapiEvent::TotCyc).add(PapiEvent::TotCyc);
        assert_eq!(set.events().len(), 1);
        let r = sample_report();
        let vals = set.read(&r);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].0, PapiEvent::TotCyc);
    }

    #[test]
    fn paper_default_set_has_four_events() {
        let set = EventSet::paper_default(Preset::Amd);
        assert_eq!(set.events().len(), 4);
        assert!(set.events().contains(&PapiEvent::L3CacheMisses));
    }
}
