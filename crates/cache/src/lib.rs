//! Set-associative cache hierarchy simulator.
//!
//! Models the on-chip part of the memory system the ICPP'11 paper measures:
//! per-core private levels topped by a per-domain shared last-level cache
//! (LLC). The machine simulator (`offchip-machine`) sends every memory
//! access of every logical core through [`hierarchy::Hierarchy`]; accesses
//! that miss in the LLC become the off-chip requests whose contention the
//! study is about (`PAPI_L2_TCM` on the UMA machine, `LLC_MISSES` /
//! `L3_CACHE_MISSES` on the NUMA machines).
//!
//! * [`cache`] — a single set-associative cache with pluggable replacement.
//! * [`replacement`] — LRU, tree-PLRU, FIFO and random policies.
//! * [`hierarchy`] — the multi-level, multi-core composition derived from a
//!   [`offchip_topology::MachineSpec`].
//! * [`mshr`] — miss-status holding registers bounding per-core
//!   memory-level parallelism (the closed-loop element that makes
//!   contention emerge in the simulator rather than being assumed).
//!
//! The hierarchy is *non-inclusive*: levels are looked up outside-in and a
//! line is installed in every level on the fill path, but LLC evictions do
//! not back-invalidate private copies. This matches neither strict
//! inclusion (Intel) nor exclusion (AMD) exactly, but preserves the only
//! property the study depends on: the LLC miss count is governed by the
//! LLC's capacity and the workload's reuse pattern.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod mshr;
pub mod replacement;

pub use cache::{AccessKind, AccessResult, CacheConfig, CacheStats, SetAssocCache};
pub use hierarchy::{Hierarchy, HierarchyOutcome};
pub use mshr::{MshrFile, MAX_MSHRS};
pub use replacement::ReplacementPolicy;
