//! LIKWID-style topology reporting.
//!
//! The paper uses the LIKWID toolkit "to determine the mapping between
//! logical core ids and the physical topology" (§III-A, ref \[25\]). This
//! module renders the same information for a [`MachineSpec`]: a table of
//! logical core → (socket, domain, physical core, SMT thread), plus an
//! ASCII cartoon of the machine in the style of `likwid-topology -g`,
//! which doubles as the renderer for the paper's Fig. 1 and Fig. 2.

use std::fmt::Write as _;

use crate::ids::CoreId;
use crate::interconnect::InterconnectKind;
use crate::machine::{CacheSharing, MachineSpec};

/// One row of the logical→physical map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreMapping {
    /// Logical core id (what the OS scheduler sees).
    pub logical: CoreId,
    /// Socket index.
    pub socket: usize,
    /// LLC/MC domain index (machine-wide).
    pub domain: usize,
    /// Physical core index within the machine.
    pub physical_core: usize,
    /// SMT thread index within the physical core.
    pub smt_thread: usize,
}

/// Computes the full logical→physical mapping of a machine.
///
/// Logical numbering is socket-major and domain-major, with SMT threads of
/// the same physical core adjacent — the "compact" affinity layout the
/// paper pins threads against.
pub fn core_mappings(machine: &MachineSpec) -> Vec<CoreMapping> {
    let mut rows = Vec::with_capacity(machine.total_cores());
    for idx in 0..machine.total_cores() {
        let logical = CoreId(idx);
        let domain = machine.domain_of(logical);
        let socket = machine.socket_of(logical).index();
        let within_domain = idx % machine.cores_per_domain;
        let physical_in_domain = within_domain / machine.smt;
        let physical_core = domain * (machine.cores_per_domain / machine.smt) + physical_in_domain;
        let smt_thread = within_domain % machine.smt;
        rows.push(CoreMapping {
            logical,
            socket,
            domain,
            physical_core,
            smt_thread,
        });
    }
    rows
}

/// Renders a `likwid-topology`-style text report.
pub fn topology_report(machine: &MachineSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "--------------------------------------------------");
    let _ = writeln!(out, "Machine:      {}", machine.name);
    let _ = writeln!(out, "Clock:        {:.2} GHz", machine.freq_ghz);
    let _ = writeln!(
        out,
        "Architecture: {}",
        match machine.interconnect.kind() {
            InterconnectKind::Uma => "UMA (shared memory controller)",
            InterconnectKind::Numa => "NUMA (per-domain memory controllers)",
        }
    );
    let _ = writeln!(
        out,
        "Sockets: {}   Domains/socket: {}   Logical cores: {}   SMT: {}",
        machine.sockets,
        machine.domains_per_socket,
        machine.total_cores(),
        machine.smt
    );
    let _ = writeln!(out, "Memory controllers: {}", machine.total_mcs());
    if machine.scale != 1.0 {
        let _ = writeln!(out, "Geometric scale: {:.6}", machine.scale);
    }
    let _ = writeln!(out, "Caches:");
    for c in &machine.caches {
        let _ = writeln!(
            out,
            "  L{}: {:>9} B  {:>2}-way  {} B lines  {:>3} cyc  ({})",
            c.level,
            c.size_bytes,
            c.associativity,
            c.line_bytes,
            c.hit_latency,
            match c.sharing {
                CacheSharing::PerPhysicalCore => "per physical core",
                CacheSharing::PerDomain => "shared per domain",
            }
        );
    }
    let _ = writeln!(out, "Logical → physical map:");
    let _ = writeln!(out, "  logical  socket  domain  physcore  smt");
    for m in core_mappings(machine) {
        let _ = writeln!(
            out,
            "  {:>7}  {:>6}  {:>6}  {:>8}  {:>3}",
            m.logical.index(),
            m.socket,
            m.domain,
            m.physical_core,
            m.smt_thread
        );
    }
    if machine.interconnect.kind() == InterconnectKind::Numa {
        let _ = writeln!(out, "Controller hop matrix:");
        let n = machine.interconnect.n_mcs();
        let _ = write!(out, "      ");
        for b in 0..n {
            let _ = write!(out, "mc{b:<3}");
        }
        let _ = writeln!(out);
        for a in 0..n {
            let _ = write!(out, "  mc{a:<2}");
            for b in 0..n {
                let _ = write!(
                    out,
                    "{:>4}",
                    machine
                        .interconnect
                        .hops(crate::ids::McId(a), crate::ids::McId(b))
                );
            }
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(out, "--------------------------------------------------");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    #[test]
    fn smt_threads_share_physical_core() {
        let m = machines::intel_numa_24();
        let rows = core_mappings(&m);
        // Logical 0 and 1 are the two SMT threads of physical core 0.
        assert_eq!(rows[0].physical_core, 0);
        assert_eq!(rows[0].smt_thread, 0);
        assert_eq!(rows[1].physical_core, 0);
        assert_eq!(rows[1].smt_thread, 1);
        assert_eq!(rows[2].physical_core, 1);
        // 24 logical cores over 12 physical.
        let max_phys = rows.iter().map(|r| r.physical_core).max().unwrap();
        assert_eq!(max_phys, 11);
    }

    #[test]
    fn no_smt_machines_map_one_to_one() {
        let m = machines::amd_numa_48();
        for r in core_mappings(&m) {
            assert_eq!(r.smt_thread, 0);
            assert_eq!(r.physical_core, r.logical.index());
        }
    }

    #[test]
    fn domains_partition_cores() {
        let m = machines::amd_numa_48();
        let rows = core_mappings(&m);
        for r in &rows {
            assert_eq!(r.domain, r.logical.index() / 6);
            assert_eq!(r.socket, r.logical.index() / 12);
        }
    }

    #[test]
    fn report_mentions_key_facts() {
        let m = machines::intel_numa_24();
        let rep = topology_report(&m);
        assert!(rep.contains("Xeon X5650"));
        assert!(rep.contains("Architecture: NUMA (per-domain memory controllers)"));
        assert!(rep.contains("Memory controllers: 2"));
        assert!(rep.contains("hop matrix"));
        let uma = topology_report(&machines::intel_uma_8());
        assert!(uma.contains("Architecture: UMA (shared memory controller)"));
        assert!(!uma.contains("hop matrix"), "UMA has no controller network");
    }
}
