//! Machine specifications: sockets, domains, cores, caches, controllers.
//!
//! A machine is organised as `sockets × domains × cores`:
//!
//! * a **socket** is a physical processor package;
//! * a **domain** is a last-level-cache + memory-controller group inside a
//!   socket. Intel machines have one domain per socket; the Opteron 6172
//!   has two dies per package, each with its own L3 slice and controller,
//!   which is how the paper's AMD machine gets "two controllers per
//!   processor";
//! * a **core** is a *logical* core (SMT threads count separately, matching
//!   the paper's treatment of the X5650).
//!
//! On UMA machines the domains still hold the (semi-unified) last-level
//! caches, but all requests funnel into the single shared controller over
//! per-socket front-side buses.

use crate::ids::{CoreId, McId, SocketId};
use crate::interconnect::{Interconnect, InterconnectKind};

/// Why a machine specification is internally inconsistent.
///
/// Every variant names the offending component so a mis-edited preset (or
/// a hand-built spec) can be repaired from the message alone.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// Zero sockets, domains, or cores per domain.
    NoCores,
    /// The cache hierarchy is empty.
    NoCaches,
    /// Two cache levels disagree on the line size.
    MixedLineSizes {
        /// Line size of the first level.
        expected: u32,
        /// The disagreeing line size.
        got: u32,
    },
    /// A cache level's associativity is zero or above
    /// [`MAX_ASSOCIATIVITY`].
    BadAssociativity {
        /// The offending level number.
        level: u8,
        /// The rejected way count.
        ways: u32,
    },
    /// A cache level cannot hold even one set.
    LevelTooSmall {
        /// The offending level number.
        level: u8,
    },
    /// A cache level's line size is not a power of two.
    LineNotPowerOfTwo {
        /// The offending level number.
        level: u8,
    },
    /// Cache levels are not strictly increasing.
    LevelsNotIncreasing,
    /// The last-level cache is not shared per domain.
    LlcNotPerDomain,
    /// The interconnect's controller count contradicts the machine
    /// geometry.
    McCountMismatch {
        /// Controllers in the interconnect's hop table.
        interconnect: usize,
        /// Controllers the socket/domain geometry implies.
        implied: usize,
    },
    /// The clock frequency is not positive and finite.
    BadFrequency,
    /// The DRAM spec has zero channels or banks.
    NoDramParallelism,
    /// The DRAM transfer time is zero (infinite bandwidth).
    ZeroTransferTime,
    /// The NUMA hop table is not symmetric: going there and coming back
    /// disagree on the distance.
    AsymmetricHops {
        /// One controller of the inconsistent pair.
        a: usize,
        /// The other controller.
        b: usize,
    },
    /// A controller's distance to itself is not zero.
    NonZeroSelfDistance {
        /// The offending controller.
        mc: usize,
    },
    /// Two distinct controllers claim distance zero — they would be the
    /// same controller.
    ZeroDistance {
        /// One controller of the pair.
        a: usize,
        /// The other controller.
        b: usize,
    },
    /// The hop table violates the triangle inequality: a route through an
    /// intermediate controller is shorter than the table's direct entry,
    /// so the distances cannot come from shortest paths on any graph.
    TriangleViolation {
        /// Route start.
        a: usize,
        /// Route end.
        b: usize,
        /// The shortcut witness.
        via: usize,
    },
    /// An interconnect edge references a controller outside `0..n_mcs`.
    EdgeOutOfRange {
        /// Edge endpoint a.
        a: usize,
        /// Edge endpoint b.
        b: usize,
        /// Number of controllers.
        n_mcs: usize,
    },
    /// An interconnect edge connects a controller to itself.
    SelfLoop {
        /// The controller with the loop.
        mc: usize,
    },
    /// The interconnect graph is disconnected.
    Disconnected {
        /// A controller unreachable from controller 0's component.
        from: usize,
    },
    /// An interconnect was requested with zero controllers.
    NoControllers,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoCores => write!(f, "machine has no cores"),
            SpecError::NoCaches => write!(f, "machine has no caches"),
            SpecError::MixedLineSizes { expected, got } => {
                write!(f, "mixed line sizes: {got} vs {expected}")
            }
            SpecError::BadAssociativity { level, ways } => write!(
                f,
                "L{level} associativity {ways} outside 1..={MAX_ASSOCIATIVITY}"
            ),
            SpecError::LevelTooSmall { level } => write!(f, "L{level} smaller than one set"),
            SpecError::LineNotPowerOfTwo { level } => {
                write!(f, "L{level} line size not a power of two")
            }
            SpecError::LevelsNotIncreasing => {
                write!(f, "cache levels must be strictly increasing")
            }
            SpecError::LlcNotPerDomain => write!(f, "last-level cache must be per-domain"),
            SpecError::McCountMismatch {
                interconnect,
                implied,
            } => write!(
                f,
                "interconnect has {interconnect} MCs, machine implies {implied}"
            ),
            SpecError::BadFrequency => write!(f, "invalid frequency"),
            SpecError::NoDramParallelism => write!(f, "DRAM must have channels and banks"),
            SpecError::ZeroTransferTime => write!(f, "DRAM transfer time cannot be zero"),
            SpecError::AsymmetricHops { a, b } => write!(
                f,
                "hop table asymmetric between mc{a} and mc{b}: remote latency \
                 would depend on direction"
            ),
            SpecError::NonZeroSelfDistance { mc } => {
                write!(f, "mc{mc} is a non-zero distance from itself")
            }
            SpecError::ZeroDistance { a, b } => write!(
                f,
                "distinct controllers mc{a} and mc{b} claim hop distance 0"
            ),
            SpecError::TriangleViolation { a, b, via } => write!(
                f,
                "hop table violates the triangle inequality: mc{a}->mc{b} is \
                 longer than the route via mc{via}"
            ),
            SpecError::EdgeOutOfRange { a, b, n_mcs } => write!(
                f,
                "edge ({a},{b}) out of range for {n_mcs} controllers"
            ),
            SpecError::SelfLoop { mc } => write!(f, "self-loop ({mc},{mc}) is meaningless"),
            SpecError::Disconnected { from } => {
                write!(f, "interconnect graph is disconnected from mc{from}")
            }
            SpecError::NoControllers => write!(f, "need at least one memory controller"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The most ways a cache level may have: the cache model keeps each
/// set's LRU/FIFO recency order as sixteen four-bit way indices in one
/// word.
pub const MAX_ASSOCIATIVITY: u32 = 16;

/// How a cache level is shared among logical cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSharing {
    /// One instance per logical core (SMT threads share; the paper's
    /// per-core private L1/L2 levels).
    PerPhysicalCore,
    /// One instance per domain — the last-level cache.
    PerDomain,
}

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevelSpec {
    /// Level number (1 = closest to the core).
    pub level: u8,
    /// Capacity in bytes (after any machine-wide scaling).
    pub size_bytes: u64,
    /// Cache-line size in bytes (64 on all three paper machines).
    pub line_bytes: u32,
    /// Associativity (ways).
    pub associativity: u32,
    /// Hit latency in core cycles.
    pub hit_latency: u32,
    /// Sharing granularity.
    pub sharing: CacheSharing,
}

/// DRAM generation, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// DDR2 (the UMA machine).
    Ddr2,
    /// DDR3 (both NUMA machines).
    Ddr3,
}

/// DRAM timing and parallelism per memory controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramSpec {
    /// DRAM generation.
    pub kind: MemoryKind,
    /// Independent channels per controller (dual/triple channel).
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Service cycles for a row-buffer hit (CAS only).
    pub row_hit_cycles: u64,
    /// Service cycles for a row-buffer miss (precharge + activate + CAS).
    pub row_miss_cycles: u64,
    /// Data-bus occupancy per cache-line transfer, in core cycles. This is
    /// the term that bounds controller throughput.
    pub transfer_cycles: u64,
}

/// A complete machine description.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Human-readable name ("Intel UMA: Xeon E5320").
    pub name: String,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Number of sockets.
    pub sockets: usize,
    /// LLC+MC domains per socket.
    pub domains_per_socket: usize,
    /// Logical cores per domain.
    pub cores_per_domain: usize,
    /// SMT ways per physical core (1 = no SMT).
    pub smt: usize,
    /// Cache hierarchy, ordered from L1 upward; the last entry is the LLC.
    pub caches: Vec<CacheLevelSpec>,
    /// DRAM timing per controller.
    pub dram: DramSpec,
    /// Controller network.
    pub interconnect: Interconnect,
    /// Per-socket front-side-bus latency in cycles added to every off-chip
    /// request (UMA only; 0 on NUMA machines with on-die controllers).
    pub fsb_latency: u64,
    /// Geometric scale factor applied to cache sizes relative to the real
    /// machine (1.0 = full size). Workloads use the same factor so that
    /// working-set/cache ratios are preserved; see DESIGN.md §2.
    pub scale: f64,
}

impl MachineSpec {
    /// Total number of logical cores.
    #[inline]
    pub fn total_cores(&self) -> usize {
        self.sockets * self.domains_per_socket * self.cores_per_domain
    }

    /// Total number of domains (LLC instances).
    #[inline]
    pub fn total_domains(&self) -> usize {
        self.sockets * self.domains_per_socket
    }

    /// Number of memory controllers: one per domain on NUMA, one in total
    /// on UMA.
    pub fn total_mcs(&self) -> usize {
        match self.interconnect.kind() {
            InterconnectKind::Uma => 1,
            InterconnectKind::Numa => self.total_domains(),
        }
    }

    /// The socket a core belongs to, under the canonical socket-major,
    /// domain-major core numbering.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        assert!(core.index() < self.total_cores(), "core out of range");
        SocketId(core.index() / (self.domains_per_socket * self.cores_per_domain))
    }

    /// The domain a core belongs to.
    pub fn domain_of(&self, core: CoreId) -> usize {
        assert!(core.index() < self.total_cores(), "core out of range");
        core.index() / self.cores_per_domain
    }

    /// The memory controller local to a domain.
    pub fn mc_of_domain(&self, domain: usize) -> McId {
        assert!(domain < self.total_domains(), "domain out of range");
        match self.interconnect.kind() {
            InterconnectKind::Uma => McId(0),
            InterconnectKind::Numa => McId(domain),
        }
    }

    /// The memory controller local to a core.
    pub fn local_mc(&self, core: CoreId) -> McId {
        self.mc_of_domain(self.domain_of(core))
    }

    /// The last-level cache specification.
    pub fn llc(&self) -> &CacheLevelSpec {
        self.caches.last().expect("machine must have caches")
    }

    /// Cache-line size in bytes (uniform across levels).
    pub fn line_bytes(&self) -> u32 {
        self.llc().line_bytes
    }

    /// Returns a copy with every cache capacity multiplied by `factor`
    /// (minimum one line per way per set is preserved by construction) and
    /// `scale` updated. Used to shrink the simulated machines so full
    /// experiment sweeps run in seconds while preserving working-set/cache
    /// ratios.
    ///
    /// # Panics
    /// Panics unless `0 < factor ≤ 1`.
    pub fn scaled(&self, factor: f64) -> MachineSpec {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1], got {factor}"
        );
        let mut out = self.clone();
        for c in &mut out.caches {
            let scaled = (c.size_bytes as f64 * factor) as u64;
            // Keep at least one set per way, rounded to a power-of-two set
            // count by the cache model later; floor at line*assoc.
            c.size_bytes = scaled.max(c.line_bytes as u64 * c.associativity as u64);
        }
        out.scale = self.scale * factor;
        out
    }

    /// Validates internal consistency; called by the presets' tests and by
    /// the simulator on construction.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.sockets == 0 || self.domains_per_socket == 0 || self.cores_per_domain == 0 {
            return Err(SpecError::NoCores);
        }
        if self.caches.is_empty() {
            return Err(SpecError::NoCaches);
        }
        let line = self.caches[0].line_bytes;
        for c in &self.caches {
            if c.line_bytes != line {
                return Err(SpecError::MixedLineSizes {
                    expected: line,
                    got: c.line_bytes,
                });
            }
            if !(1..=MAX_ASSOCIATIVITY).contains(&c.associativity) {
                return Err(SpecError::BadAssociativity {
                    level: c.level,
                    ways: c.associativity,
                });
            }
            if c.size_bytes < c.line_bytes as u64 * c.associativity as u64 {
                return Err(SpecError::LevelTooSmall { level: c.level });
            }
            if !c.line_bytes.is_power_of_two() {
                return Err(SpecError::LineNotPowerOfTwo { level: c.level });
            }
        }
        let levels: Vec<u8> = self.caches.iter().map(|c| c.level).collect();
        for w in levels.windows(2) {
            if w[1] <= w[0] {
                return Err(SpecError::LevelsNotIncreasing);
            }
        }
        if self.caches.last().unwrap().sharing != CacheSharing::PerDomain {
            return Err(SpecError::LlcNotPerDomain);
        }
        let expected_mcs = self.total_mcs();
        if self.interconnect.n_mcs() != expected_mcs {
            return Err(SpecError::McCountMismatch {
                interconnect: self.interconnect.n_mcs(),
                implied: expected_mcs,
            });
        }
        self.interconnect.check_hop_table()?;
        if !(self.freq_ghz.is_finite() && self.freq_ghz > 0.0) {
            return Err(SpecError::BadFrequency);
        }
        if self.dram.channels == 0 || self.dram.banks_per_channel == 0 {
            return Err(SpecError::NoDramParallelism);
        }
        if self.dram.transfer_cycles == 0 {
            return Err(SpecError::ZeroTransferTime);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    #[test]
    fn core_to_socket_domain_mapping() {
        let m = machines::amd_numa_48();
        // 4 sockets × 2 domains × 6 cores.
        assert_eq!(m.total_cores(), 48);
        assert_eq!(m.total_domains(), 8);
        assert_eq!(m.total_mcs(), 8);
        assert_eq!(m.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(m.socket_of(CoreId(11)), SocketId(0));
        assert_eq!(m.socket_of(CoreId(12)), SocketId(1));
        assert_eq!(m.domain_of(CoreId(5)), 0);
        assert_eq!(m.domain_of(CoreId(6)), 1);
        assert_eq!(m.local_mc(CoreId(6)), McId(1));
        assert_eq!(m.local_mc(CoreId(47)), McId(7));
    }

    #[test]
    fn uma_funnels_to_single_mc() {
        let m = machines::intel_uma_8();
        assert_eq!(m.total_cores(), 8);
        assert_eq!(m.total_mcs(), 1);
        for c in 0..8 {
            assert_eq!(m.local_mc(CoreId(c)), McId(0));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        machines::intel_uma_8().socket_of(CoreId(8));
    }

    #[test]
    fn scaling_preserves_ratios_and_floors() {
        let m = machines::intel_numa_24();
        let s = m.scaled(1.0 / 64.0);
        let ratio = m.llc().size_bytes as f64 / s.llc().size_bytes as f64;
        assert!((ratio - 64.0).abs() < 1.0);
        assert!((s.scale - m.scale / 64.0).abs() < 1e-12);
        // Extreme scaling floors at one set.
        let tiny = m.scaled(1e-9);
        for c in &tiny.caches {
            assert!(c.size_bytes >= c.line_bytes as u64 * c.associativity as u64);
        }
        tiny.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scale_above_one_rejected() {
        machines::intel_uma_8().scaled(2.0);
    }

    #[test]
    fn all_presets_validate() {
        for m in [
            machines::intel_uma_8(),
            machines::intel_numa_24(),
            machines::amd_numa_48(),
        ] {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut m = machines::intel_numa_24();
        m.caches[0].line_bytes = 48; // not a power of two
        assert!(m.validate().is_err());

        let mut m = machines::intel_numa_24();
        m.caches.clear();
        assert!(m.validate().is_err());

        let mut m = machines::intel_numa_24();
        m.sockets = 3; // now interconnect MC count mismatches
        assert!(m.validate().is_err());

        let mut m = machines::intel_numa_24();
        m.dram.transfer_cycles = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_bounds_associativity() {
        let mut m = machines::intel_uma_8();
        m.caches[0].associativity = 0;
        assert_eq!(
            m.validate(),
            Err(SpecError::BadAssociativity { level: 1, ways: 0 })
        );

        // Far above the cap, where line_bytes * associativity also
        // overflows u32: the bound is checked before that product.
        let mut m = machines::intel_uma_8();
        let llc = m.caches.len() - 1;
        m.caches[llc].associativity = u32::MAX;
        assert_eq!(
            m.validate(),
            Err(SpecError::BadAssociativity {
                level: m.caches[llc].level,
                ways: u32::MAX,
            })
        );

        let mut m = machines::intel_uma_8();
        m.caches[llc].associativity = MAX_ASSOCIATIVITY + 1;
        assert!(matches!(
            m.validate(),
            Err(SpecError::BadAssociativity { ways: 17, .. })
        ));
        m.caches[llc].associativity = MAX_ASSOCIATIVITY;
        m.validate().unwrap();
    }
}
