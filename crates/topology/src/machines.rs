//! The three reference machines of the ICPP'11 study (§III-A).
//!
//! Cache geometries and core counts follow the paper; DRAM and interconnect
//! timings are representative figures for the named parts (Clovertown-era
//! FSB + DDR2, Westmere-EP + triple-channel DDR3 + QPI, Magny-Cours +
//! dual-channel DDR3 + HyperTransport). Absolute latencies only set the
//! scale of the simulated cycle counts; every reported metric (ω(n), R²,
//! relative error, CCDF shape) is a ratio that is insensitive to them.

use crate::interconnect::Interconnect;
use crate::machine::{CacheLevelSpec, CacheSharing, DramSpec, MachineSpec, MemoryKind};

/// Intel UMA: dual quad-core Xeon E5320 ("Clovertown"), 1.86 GHz, one
/// shared memory controller with dual-channel DDR2 behind per-socket
/// front-side buses. The paper describes its 8 MB of L2 as "semi-unified";
/// we model 4 MB of last-level L2 per socket.
pub fn intel_uma_8() -> MachineSpec {
    MachineSpec {
        name: Preset::Uma.name().to_string(),
        freq_ghz: 1.86,
        sockets: 2,
        domains_per_socket: 1,
        cores_per_domain: 4,
        smt: 1,
        caches: vec![
            CacheLevelSpec {
                level: 1,
                size_bytes: 32 * 1024,
                line_bytes: 64,
                associativity: 8,
                hit_latency: 3,
                sharing: CacheSharing::PerPhysicalCore,
            },
            CacheLevelSpec {
                level: 2,
                size_bytes: 4 * 1024 * 1024,
                line_bytes: 64,
                associativity: 16,
                hit_latency: 14,
                sharing: CacheSharing::PerDomain,
            },
        ],
        dram: DramSpec {
            kind: MemoryKind::Ddr2,
            // The dual DDR2 channels sit behind the single front-side
            // bus, which is the actual serialisation point of this
            // machine: one effective data path at FSB line bandwidth
            // (1066 MT/s × 8 B ≈ 8.5 GB/s ⇒ ~14 core cycles per 64-byte
            // line at 1.86 GHz), with DDR2-era access latencies.
            channels: 1,
            banks_per_channel: 4,
            row_hit_cycles: 70,
            row_miss_cycles: 200,
            transfer_cycles: 20,
        },
        interconnect: Interconnect::uma(),
        fsb_latency: 40,
        scale: 1.0,
    }
}

/// Intel NUMA: dual six-core Xeon X5650 ("Westmere-EP"), 2.66 GHz, SMT-2
/// (24 logical cores), one memory controller per socket with triple-channel
/// DDR3, controllers directly linked by QPI (Fig. 2a).
pub fn intel_numa_24() -> MachineSpec {
    MachineSpec {
        name: Preset::Numa.name().to_string(),
        freq_ghz: 2.66,
        sockets: 2,
        domains_per_socket: 1,
        cores_per_domain: 12, // 6 physical × 2 SMT
        smt: 2,
        caches: vec![
            CacheLevelSpec {
                level: 1,
                size_bytes: 32 * 1024,
                line_bytes: 64,
                associativity: 8,
                hit_latency: 4,
                sharing: CacheSharing::PerPhysicalCore,
            },
            CacheLevelSpec {
                level: 2,
                size_bytes: 256 * 1024,
                line_bytes: 64,
                associativity: 8,
                hit_latency: 10,
                sharing: CacheSharing::PerPhysicalCore,
            },
            CacheLevelSpec {
                level: 3,
                size_bytes: 12 * 1024 * 1024,
                line_bytes: 64,
                associativity: 16,
                hit_latency: 40,
                sharing: CacheSharing::PerDomain,
            },
        ],
        dram: DramSpec {
            kind: MemoryKind::Ddr3,
            channels: 3,
            banks_per_channel: 4,
            row_hit_cycles: 40,
            row_miss_cycles: 150,
            transfer_cycles: 14,
        },
        interconnect: Interconnect::numa(2, &[(0, 1)], 100, 60).with_link_transfer(7),
        fsb_latency: 0,
        scale: 1.0,
    }
}

/// The HyperTransport wiring of the quad Magny-Cours box: two dies per
/// socket (sibling links), an even-die ring across sockets, and cross links
/// that keep the diameter at two hops — the paper's "direct, one hop and
/// two hops" latencies (Fig. 2b).
const AMD_MESH: &[(usize, usize)] = &[
    // intra-socket sibling dies
    (0, 1),
    (2, 3),
    (4, 5),
    (6, 7),
    // even-die ring across sockets
    (0, 2),
    (2, 4),
    (4, 6),
    (6, 0),
    // odd-die cross links
    (1, 5),
    (3, 7),
    // odd-to-even diagonals
    (1, 2),
    (3, 4),
    (5, 6),
    (7, 0),
];

/// AMD NUMA: quad twelve-core Opteron 6172 ("Magny-Cours"), 2.1 GHz. Each
/// package carries two six-core dies, each die with its own L3 slice and
/// memory controller — eight controllers in a partial mesh.
pub fn amd_numa_48() -> MachineSpec {
    MachineSpec {
        name: Preset::Amd.name().to_string(),
        freq_ghz: 2.1,
        sockets: 4,
        domains_per_socket: 2,
        cores_per_domain: 6,
        smt: 1,
        caches: vec![
            CacheLevelSpec {
                level: 1,
                size_bytes: 64 * 1024,
                line_bytes: 64,
                associativity: 2,
                hit_latency: 3,
                sharing: CacheSharing::PerPhysicalCore,
            },
            CacheLevelSpec {
                level: 2,
                size_bytes: 512 * 1024,
                line_bytes: 64,
                associativity: 16,
                hit_latency: 12,
                sharing: CacheSharing::PerPhysicalCore,
            },
            CacheLevelSpec {
                level: 3,
                size_bytes: 5 * 1024 * 1024,
                line_bytes: 64,
                associativity: 16,
                hit_latency: 40,
                sharing: CacheSharing::PerDomain,
            },
        ],
        dram: DramSpec {
            kind: MemoryKind::Ddr3,
            channels: 2,
            banks_per_channel: 6,
            row_hit_cycles: 42,
            row_miss_cycles: 115,
            transfer_cycles: 7,
        },
        interconnect: Interconnect::numa(8, AMD_MESH, 70, 50).with_link_transfer(9),
        fsb_latency: 0,
        scale: 1.0,
    }
}

/// One of the paper's three machines: the one table that maps a machine
/// to its key, its display name and its spec. Whatever follows from which
/// paper machine a spec is (the fit's input points, the LLC counter
/// papiex reads) is decided by looking the preset up here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// Intel UMA, [`intel_uma_8`].
    Uma,
    /// Intel NUMA, [`intel_numa_24`].
    Numa,
    /// AMD NUMA, [`amd_numa_48`].
    Amd,
}

impl Preset {
    /// Every preset, in the order the paper lists the machines.
    pub const ALL: [Preset; 3] = [Preset::Uma, Preset::Numa, Preset::Amd];

    /// The short key the CLI's `--machine` and the service's `"machine"`
    /// field name the preset by.
    pub fn key(self) -> &'static str {
        match self {
            Preset::Uma => "uma",
            Preset::Numa => "numa",
            Preset::Amd => "amd",
        }
    }

    /// The display name the preset's spec carries.
    fn name(self) -> &'static str {
        match self {
            Preset::Uma => "Intel UMA: Xeon E5320",
            Preset::Numa => "Intel NUMA: Xeon X5650",
            Preset::Amd => "AMD NUMA: Opteron 6172",
        }
    }

    /// The preset `key` names, matched exactly; `None` for any other
    /// string.
    pub fn from_key(key: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.key() == key)
    }

    /// The preset whose spec is named `name` (scaling keeps the name);
    /// `None` for a machine that is not one of the paper's.
    pub fn of_name(name: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The preset's full-size spec.
    pub fn spec(self) -> MachineSpec {
        match self {
            Preset::Uma => intel_uma_8(),
            Preset::Numa => intel_numa_24(),
            Preset::Amd => amd_numa_48(),
        }
    }
}

/// A preset displays as its [`key`](Preset::key).
impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// All three paper machines, in the order the paper lists them.
pub fn paper_machines() -> Vec<MachineSpec> {
    Preset::ALL.map(Preset::spec).into()
}

/// The default geometric scale used by the experiment harness: caches (and,
/// via the workload catalog, working sets) shrink 64×, which turns the
/// paper's minutes-long runs into sub-second simulations while preserving
/// every working-set/cache ratio.
pub const DEFAULT_EXPERIMENT_SCALE: f64 = 1.0 / 64.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::McId;

    #[test]
    fn presets_round_trip_through_key_and_name() {
        for p in Preset::ALL {
            assert_eq!(Preset::from_key(p.key()), Some(p));
            assert_eq!(p.to_string(), p.key());
            let scaled = p.spec().scaled(1.0 / 64.0);
            assert_eq!(Preset::of_name(&scaled.name), Some(p), "{}", scaled.name);
        }
        let names = paper_machines().into_iter().map(|m| m.name);
        assert!(names.eq([
            "Intel UMA: Xeon E5320",
            "Intel NUMA: Xeon X5650",
            "AMD NUMA: Opteron 6172"
        ]));
        for key in ["", "UMA", "Numa", "vax", "uma "] {
            assert_eq!(Preset::from_key(key), None, "{key:?}");
        }
        for name in ["", "Intel UMA", "AMD", "NUMA", "intel uma: xeon e5320"] {
            assert_eq!(Preset::of_name(name), None, "{name:?}");
        }
    }

    #[test]
    fn paper_core_counts() {
        assert_eq!(intel_uma_8().total_cores(), 8);
        assert_eq!(intel_numa_24().total_cores(), 24);
        assert_eq!(amd_numa_48().total_cores(), 48);
    }

    #[test]
    fn paper_mc_counts() {
        assert_eq!(intel_uma_8().total_mcs(), 1);
        assert_eq!(intel_numa_24().total_mcs(), 2);
        assert_eq!(amd_numa_48().total_mcs(), 8);
    }

    #[test]
    fn amd_mesh_has_three_latency_classes() {
        let m = amd_numa_48();
        assert_eq!(m.interconnect.diameter(), 2, "paper: direct, 1 hop, 2 hops");
        // From mc0 all three distance classes must exist.
        assert_eq!(m.interconnect.distance_classes(McId(0)), vec![0, 1, 2]);
    }

    #[test]
    fn intel_numa_single_hop() {
        let m = intel_numa_24();
        assert_eq!(m.interconnect.diameter(), 1);
        assert!(m.interconnect.remote_penalty(McId(0), McId(1)) > 0);
    }

    #[test]
    fn llc_is_last_level() {
        assert_eq!(intel_uma_8().llc().level, 2, "UMA LLC is L2");
        assert_eq!(intel_numa_24().llc().level, 3);
        assert_eq!(amd_numa_48().llc().level, 3);
    }

    #[test]
    fn total_llc_capacity_matches_paper() {
        // Paper: 8 MB L2 (UMA), 12 MB L3 per socket (Intel NUMA),
        // 10 MB L3 per package (AMD).
        let uma = intel_uma_8();
        assert_eq!(
            uma.llc().size_bytes * uma.total_domains() as u64,
            8 * 1024 * 1024
        );
        let amd = amd_numa_48();
        assert_eq!(
            amd.llc().size_bytes * amd.domains_per_socket as u64,
            10 * 1024 * 1024
        );
    }

    #[test]
    fn remote_penalties_ordered_by_hops() {
        let m = amd_numa_48();
        let ic = &m.interconnect;
        let p0 = ic.remote_penalty(McId(0), McId(0));
        let p1 = ic.remote_penalty(McId(0), McId(1)); // sibling: 1 hop
                                                      // Find a 2-hop target from 0.
        let far = (0..8)
            .map(McId)
            .find(|&t| ic.hops(McId(0), t) == 2)
            .expect("a 2-hop pair exists");
        let p2 = ic.remote_penalty(McId(0), far);
        assert_eq!(p0, 0);
        assert!(p1 > 0 && p2 > p1);
    }
}
