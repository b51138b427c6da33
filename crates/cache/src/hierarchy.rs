//! The multi-level, multi-core cache hierarchy of a machine.
//!
//! Built from a [`MachineSpec`]: each *physical* core owns one instance of
//! every `PerPhysicalCore` level (SMT threads share it, as on the X5650),
//! and each domain owns one shared last-level cache. An access walks the
//! levels in order; the first hit stops the walk, a full miss is an
//! off-chip request.

use offchip_topology::machine::{CacheSharing, MachineSpec};
use offchip_topology::CoreId;

use crate::cache::{AccessKind, CacheConfig, CacheStats, SetAssocCache};
use crate::replacement::ReplacementPolicy;

/// Result of pushing one access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// The level that hit (1-based), or `None` when the access missed every
    /// level and must go off-chip.
    pub hit_level: Option<u8>,
    /// Cycles spent looking up caches: the hit latency of the deepest level
    /// examined. This is on-chip time, charged as `B(n)`-class stalls (the
    /// paper's non-contention stalls), never as off-chip contention.
    pub lookup_cycles: u64,
    /// Whether a dirty LLC victim was evicted (generates a write-back
    /// request toward memory).
    pub llc_writeback: Option<u64>,
}

impl HierarchyOutcome {
    /// True when the access must go to memory.
    #[inline]
    pub fn is_llc_miss(&self) -> bool {
        self.hit_level.is_none()
    }
}

/// Per-machine cache hierarchy state.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Every private cache, physical-core-major: level `lvl` of physical
    /// core `p` is `private[p * levels + lvl]`, with `levels` =
    /// `private_latency.len()`.
    private: Vec<SetAssocCache>,
    /// `llc[domain]`.
    llc: Vec<SetAssocCache>,
    /// Hit latency per private level.
    private_latency: Vec<u64>,
    /// LLC hit latency.
    llc_latency: u64,
    /// Level numbers of the private levels (for reporting `hit_level`).
    private_levels: Vec<u8>,
    /// Level number of the LLC.
    llc_level: u8,
    /// `(physical core, domain)` of each logical core, resolved once so
    /// an access divides by neither the SMT width nor the domain size.
    core_map: Vec<(u32, u32)>,
}

impl Hierarchy {
    /// Builds the hierarchy for `machine` (LRU everywhere, as on the real
    /// parts). Use [`Hierarchy::with_policy`] for the replacement ablation.
    pub fn new(machine: &MachineSpec) -> Hierarchy {
        Self::with_policy(machine, ReplacementPolicy::Lru)
    }

    /// Builds the hierarchy with an explicit replacement policy.
    pub fn with_policy(machine: &MachineSpec, policy: ReplacementPolicy) -> Hierarchy {
        machine
            .validate()
            .expect("invalid machine passed to Hierarchy");
        let n_phys = machine.total_cores() / machine.smt;
        let n_domains = machine.total_domains();

        let mut private_cfgs = Vec::new();
        let mut private_latency = Vec::new();
        let mut private_levels = Vec::new();
        let mut llc_cfg = None;
        let mut llc_latency = 0u64;
        let mut llc_level = 0u8;
        for spec in &machine.caches {
            let cfg = CacheConfig::from_capacity(
                spec.size_bytes,
                spec.associativity as usize,
                spec.line_bytes,
                policy,
            );
            match spec.sharing {
                CacheSharing::PerPhysicalCore => {
                    private_cfgs.push(cfg);
                    private_latency.push(spec.hit_latency as u64);
                    private_levels.push(spec.level);
                }
                CacheSharing::PerDomain => {
                    llc_cfg = Some(cfg);
                    llc_latency = spec.hit_latency as u64;
                    llc_level = spec.level;
                }
            }
        }
        let llc_cfg = llc_cfg.expect("validate() guarantees a per-domain LLC");

        Hierarchy {
            private: (0..n_phys)
                .flat_map(|_| private_cfgs.iter().map(|&c| SetAssocCache::new(c)))
                .collect(),
            llc: (0..n_domains)
                .map(|_| SetAssocCache::new(llc_cfg))
                .collect(),
            private_latency,
            llc_latency,
            private_levels,
            llc_level,
            core_map: (0..machine.total_cores())
                .map(|c| {
                    let core = CoreId(c);
                    ((c / machine.smt) as u32, machine.domain_of(core) as u32)
                })
                .collect(),
        }
    }

    #[inline]
    fn domain_of(&self, core: CoreId) -> usize {
        self.core_map[core.index()].1 as usize
    }

    /// Pushes one access through the hierarchy for `core`.
    pub fn access(&mut self, core: CoreId, addr: u64, kind: AccessKind) -> HierarchyOutcome {
        let (phys, domain) = self.core_map[core.index()];
        let levels = self.private_latency.len();
        let first = phys as usize * levels;
        let mut lookup = 0u64;
        for (lvl_idx, cache) in self.private[first..first + levels].iter_mut().enumerate() {
            lookup += self.private_latency[lvl_idx];
            if cache.access(addr, kind).is_hit() {
                return HierarchyOutcome {
                    hit_level: Some(self.private_levels[lvl_idx]),
                    lookup_cycles: lookup,
                    llc_writeback: None,
                };
            }
        }
        lookup += self.llc_latency;
        let result = self.llc[domain as usize].access(addr, kind);
        match result {
            crate::cache::AccessResult::Hit => HierarchyOutcome {
                hit_level: Some(self.llc_level),
                lookup_cycles: lookup,
                llc_writeback: None,
            },
            crate::cache::AccessResult::Miss { evicted } => HierarchyOutcome {
                hit_level: None,
                lookup_cycles: lookup,
                llc_writeback: evicted.and_then(|(a, dirty)| dirty.then_some(a)),
            },
        }
    }

    /// Installs a prefetched line into the LLC of `core`'s domain without
    /// perturbing hit/miss statistics; returns a dirty victim's address if
    /// one was evicted (it needs a write-back).
    pub fn install_llc(&mut self, core: CoreId, addr: u64) -> Option<u64> {
        let domain = self.domain_of(core);
        self.llc[domain]
            .install(addr)
            .and_then(|(a, dirty)| dirty.then_some(a))
    }

    /// Whether `addr` is resident in the LLC of `core`'s domain.
    pub fn llc_resident(&self, core: CoreId, addr: u64) -> bool {
        self.llc[self.domain_of(core)].probe(addr)
    }

    /// LLC statistics of one domain.
    pub fn llc_stats(&self, domain: usize) -> CacheStats {
        self.llc[domain].stats()
    }

    /// Sum of LLC misses across all domains — the paper's
    /// `PAPI_L2_TCM` / `LLC_MISSES` counter value.
    pub fn total_llc_misses(&self) -> u64 {
        self.llc.iter().map(|c| c.stats().misses).sum()
    }

    /// Sum of LLC accesses across all domains.
    pub fn total_llc_accesses(&self) -> u64 {
        self.llc.iter().map(|c| c.stats().accesses()).sum()
    }

    /// Number of domains (LLC instances).
    pub fn n_domains(&self) -> usize {
        self.llc.len()
    }

    /// Machine-wide `(level, accesses, misses)` totals, private levels
    /// first then the LLC — the feed for the observability registry's
    /// per-level hit/miss counters.
    pub fn level_totals(&self) -> Vec<(u8, u64, u64)> {
        let mut out = Vec::with_capacity(self.private_levels.len() + 1);
        let levels = self.private_levels.len();
        for (i, &lvl) in self.private_levels.iter().enumerate() {
            let (mut acc, mut miss) = (0u64, 0u64);
            for per_core in self.private.chunks_exact(levels) {
                let s = per_core[i].stats();
                acc += s.accesses();
                miss += s.misses;
            }
            out.push((lvl, acc, miss));
        }
        let (mut acc, mut miss) = (0u64, 0u64);
        for c in &self.llc {
            let s = c.stats();
            acc += s.accesses();
            miss += s.misses;
        }
        out.push((self.llc_level, acc, miss));
        out
    }

    /// Resets all statistics (contents preserved), to exclude warm-up.
    pub fn reset_stats(&mut self) {
        for c in self.private.iter_mut().chain(&mut self.llc) {
            c.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_topology::machines;

    #[test]
    fn l1_hit_after_fill() {
        let m = machines::intel_numa_24().scaled(1.0 / 64.0);
        let mut h = Hierarchy::new(&m);
        let o1 = h.access(CoreId(0), 0x1000, AccessKind::Read);
        assert!(o1.is_llc_miss(), "cold access goes off-chip");
        let o2 = h.access(CoreId(0), 0x1000, AccessKind::Read);
        assert_eq!(o2.hit_level, Some(1));
        assert_eq!(o2.lookup_cycles, 4, "X5650 L1 latency");
    }

    #[test]
    fn level_totals_cover_every_level_and_count_accesses() {
        let m = machines::intel_numa_24().scaled(1.0 / 64.0);
        let mut h = Hierarchy::new(&m);
        h.access(CoreId(0), 0x1000, AccessKind::Read); // cold: misses all levels
        h.access(CoreId(0), 0x1000, AccessKind::Read); // L1 hit
        let totals = h.level_totals();
        // X5650: L1 + L2 private, L3 shared.
        assert_eq!(totals.len(), 3);
        assert_eq!(totals[0].0, 1);
        assert_eq!(totals.last().unwrap().0, 3);
        let (_, l1_acc, l1_miss) = totals[0];
        assert_eq!(l1_acc, 2);
        assert_eq!(l1_miss, 1);
        let (_, llc_acc, llc_miss) = *totals.last().unwrap();
        assert_eq!(
            (llc_acc, llc_miss),
            (1, 1),
            "only the cold access reached the LLC"
        );
    }

    #[test]
    fn smt_threads_share_private_caches() {
        let m = machines::intel_numa_24().scaled(1.0 / 64.0);
        let mut h = Hierarchy::new(&m);
        h.access(CoreId(0), 0x2000, AccessKind::Read);
        // Logical core 1 is the sibling SMT thread of the same physical core.
        let o = h.access(CoreId(1), 0x2000, AccessKind::Read);
        assert_eq!(o.hit_level, Some(1), "sibling thread hits in shared L1");
        // Logical core 2 is another physical core: misses private, hits LLC.
        let o = h.access(CoreId(2), 0x2000, AccessKind::Read);
        assert_eq!(o.hit_level, Some(3));
    }

    #[test]
    fn domains_have_separate_llcs() {
        let m = machines::amd_numa_48().scaled(1.0 / 64.0);
        let mut h = Hierarchy::new(&m);
        h.access(CoreId(0), 0x3000, AccessKind::Read); // domain 0
        let o = h.access(CoreId(6), 0x3000, AccessKind::Read); // domain 1
        assert!(o.is_llc_miss(), "different die, different L3");
        assert_eq!(h.llc_stats(0).misses, 1);
        assert_eq!(h.llc_stats(1).misses, 1);
        assert_eq!(h.total_llc_misses(), 2);
    }

    #[test]
    fn cores_of_same_domain_share_llc() {
        let m = machines::intel_uma_8().scaled(1.0 / 64.0);
        let mut h = Hierarchy::new(&m);
        h.access(CoreId(0), 0x4000, AccessKind::Read);
        let o = h.access(CoreId(3), 0x4000, AccessKind::Read); // same socket
        assert_eq!(o.hit_level, Some(2), "UMA LLC is the shared L2");
    }

    #[test]
    fn llc_writeback_surfaces() {
        // Shrink hard so one conflict set overflows quickly.
        let m = machines::intel_uma_8().scaled(1e-9);
        let mut h = Hierarchy::new(&m);
        // Write enough distinct lines to overflow the single-set LLC.
        let ways = m.llc().associativity as u64;
        let llc_capacity_lines = ways; // one set after flooring
        let mut saw_writeback = false;
        for i in 0..(llc_capacity_lines * 4) {
            // Stride by L1 capacity so private levels also overflow.
            let addr = i * 64 * 1024;
            let o = h.access(CoreId(0), addr, AccessKind::Write);
            saw_writeback |= o.llc_writeback.is_some();
        }
        assert!(saw_writeback, "dirty LLC victims must be reported");
    }

    #[test]
    fn widest_valid_spec_builds() {
        // Spec validation is what keeps machine input away from the cache
        // model's way cap, so its bound must not exceed that cap.
        let mut m = machines::amd_numa_48().scaled(1.0 / 64.0);
        for c in &mut m.caches {
            c.associativity = offchip_topology::machine::MAX_ASSOCIATIVITY;
        }
        let mut h = Hierarchy::new(&m);
        assert!(h.access(CoreId(0), 0x6000, AccessKind::Read).is_llc_miss());
    }

    #[test]
    fn lookup_latency_accumulates_by_depth() {
        let m = machines::intel_numa_24().scaled(1.0 / 64.0);
        let mut h = Hierarchy::new(&m);
        let o = h.access(CoreId(0), 0x5000, AccessKind::Read);
        // Missed L1(4) + L2(10) + L3(40).
        assert_eq!(o.lookup_cycles, 54);
    }

    #[test]
    fn llc_install_and_residency() {
        let m = machines::intel_numa_24().scaled(1.0 / 64.0);
        let mut h = Hierarchy::new(&m);
        assert!(!h.llc_resident(CoreId(0), 0x9000));
        let victim = h.install_llc(CoreId(0), 0x9000);
        assert!(victim.is_none(), "empty cache has no victims");
        assert!(h.llc_resident(CoreId(0), 0x9000));
        assert!(
            !h.llc_resident(CoreId(23), 0x9000),
            "socket 1's LLC is separate"
        );
        // A demand access now stops at the LLC instead of going off-chip.
        let o = h.access(CoreId(0), 0x9000, AccessKind::Read);
        assert_eq!(o.hit_level, Some(3));
        assert_eq!(h.total_llc_misses(), 0, "prefetch hid the miss");
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let m = machines::intel_uma_8().scaled(1.0 / 64.0);
        let mut h = Hierarchy::new(&m);
        h.access(CoreId(0), 0x6000, AccessKind::Read);
        h.reset_stats();
        assert_eq!(h.total_llc_misses(), 0);
        let o = h.access(CoreId(0), 0x6000, AccessKind::Read);
        assert_eq!(o.hit_level, Some(1), "contents survived the reset");
    }
}
