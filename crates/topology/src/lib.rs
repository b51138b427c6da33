//! Multicore machine topology for the off-chip contention study.
//!
//! Describes the hardware structures the ICPP'11 paper measures on —
//! sockets, (logical) cores, the cache hierarchy, memory controllers and
//! the interconnect between them — and provides the paper's three reference
//! machines as presets:
//!
//! * [`machines::intel_uma_8`] — dual quad-core Xeon E5320, one shared
//!   memory controller behind per-socket front-side buses (UMA, Fig. 1a);
//! * [`machines::intel_numa_24`] — dual six-core Xeon X5650 with SMT (24
//!   logical cores), one memory controller per socket, directly linked
//!   (NUMA, Fig. 2a);
//! * [`machines::amd_numa_48`] — quad twelve-core Opteron 6172, two memory
//!   controllers per socket, eight controllers in a partial mesh with
//!   up to two hops (NUMA, Fig. 2b).
//!
//! [`machines::Preset`] is the table of the three: each preset's key
//! (`uma`, `numa`, `amd`), display name and spec.
//!
//! The crate also implements the paper's *fill-processor-first* core
//! allocation policy ([`allocation`]) and a LIKWID-style logical→physical
//! topology map ([`likwid`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod ids;
pub mod interconnect;
pub mod likwid;
pub mod machine;
pub mod machines;

pub use allocation::{AllocationPolicy, Placement};
pub use ids::{CoreId, McId, SocketId};
pub use interconnect::{Interconnect, InterconnectKind};
pub use machine::{CacheLevelSpec, CacheSharing, MachineSpec, MemoryKind, SpecError};
