//! Chaos-I/O: injectable filesystem faults behind a [`Vfs`] abstraction.
//!
//! Every durable I/O operation the experiment stack performs — atomic
//! whole-file artefact writes, fsync'd journal appends, journal and
//! baseline reads — goes through the [`Vfs`] trait. Production uses the
//! [`RealVfs`] passthrough; tests and chaos campaigns substitute a
//! [`ChaosVfs`] that injects faults from a deterministic, seeded
//! [`ChaosSpec`] schedule:
//!
//! * `enospc@write:N` / `eio@write:N` — the N-th write fails;
//! * `short@write:N:B` — the N-th write persists only `B` bytes, then
//!   fails (a torn line / torn temp file);
//! * `eio@fsync:N` / `enospc@fsync:N` — the N-th fsync fails;
//! * `lyingfsync@fsync:N` — the N-th *append* fsync reports success but
//!   drops the unsynced bytes (acknowledged-then-lost data);
//! * `eio@rename:N` / `torn@rename:N` — the N-th rename fails, `torn`
//!   additionally leaving a half-written destination behind;
//! * `eio@read:N` / `bitflip@read:N:POS` / `trunc@read:N:B` — the N-th
//!   read fails, returns bit-rotted bytes, or returns a truncated prefix;
//! * `seed:S[:COUNT]` — expand a pseudorandom schedule of `COUNT` faults
//!   (default 4, at most [`MAX_SEED_FAULTS`]) from seed `S`.
//!
//! There is no installed global: each binary builds one Vfs from
//! `--chaos-io SPEC` or `OFFCHIP_CHAOS_IO` ([`CHAOS_ENV`]) and passes it
//! to its campaigns and to every artefact write, so fault indices count
//! across the whole process. The crate also provides the [`crc32`]
//! integrity primitive the campaign journal uses for per-record
//! checksums.
//!
//! What each fault class must guarantee is documented in DESIGN.md §11;
//! the crash-consistency oracle (`tests/chaos_oracle.rs` at the
//! workspace root) enforces it over thousands of seeded schedules.
//!
//! The [`net`] module brings the same clause grammar ([`Schedule`],
//! shared by both DSLs) to the socket layer: a [`NetSpec`]
//! (`--chaos-net` / `OFFCHIP_CHAOS_NET`) injects stalls, resets and
//! short reads through a [`ChaosStream`] wrapper, and the serve crate's
//! socket-level oracle enforces the matching contract (DESIGN.md §14).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
pub mod net;
mod schedule;
mod spec;
mod vfs;

pub use crc::crc32;
pub use net::{
    ChaosStream, NetFault, NetFaultKind, NetFaultPlan, NetOp, NetSpec, NetSpecError, NET_CHAOS_ENV,
};
pub use schedule::{Dsl, Fault, Schedule, SpecError, MAX_SEED_FAULTS};
pub use spec::{ChaosSpec, ChaosSpecError, FaultKind, OpClass, CHAOS_ENV};
pub use vfs::{AppendFile, ChaosVfs, RealVfs, Vfs};
