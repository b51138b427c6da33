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
//! The schedule is selected per process with `--chaos-io SPEC` or
//! `OFFCHIP_CHAOS_IO`, installed as the process-global Vfs ([`install`]);
//! libraries fetch it with [`vfs`], which defaults to [`RealVfs`]. The
//! crate also provides the [`crc32`] integrity primitive the campaign
//! journal uses for per-record checksums.
//!
//! What each fault class must guarantee is documented in DESIGN.md §11;
//! the crash-consistency oracle (`tests/chaos_oracle.rs` at the
//! workspace root) enforces it over thousands of seeded schedules.
//!
//! The [`net`] module extends the same schedule idea to the socket
//! layer: a [`NetSpec`] (`--chaos-net` / `OFFCHIP_CHAOS_NET`) injects
//! stalls, resets and short reads through a [`ChaosStream`] wrapper,
//! and the serve crate's socket-level oracle enforces the matching
//! contract (DESIGN.md §14).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
pub mod net;
mod spec;
mod vfs;

pub use crc::crc32;
pub use net::{
    env_net_spec, ChaosStream, NetFault, NetFaultKind, NetFaultPlan, NetOp, NetSpec,
    NetSpecError, NET_CHAOS_ENV,
};
pub use spec::{ChaosSpec, ChaosSpecError, Fault, FaultKind, OpClass, MAX_SEED_FAULTS};
pub use vfs::{AppendFile, ChaosVfs, RealVfs, Vfs};

use std::sync::{Arc, LazyLock, RwLock};

static GLOBAL: LazyLock<RwLock<Arc<dyn Vfs>>> =
    LazyLock::new(|| RwLock::new(Arc::new(RealVfs)));

/// The process-global Vfs every durable I/O helper routes through.
/// Defaults to the [`RealVfs`] passthrough until [`install`] replaces it.
pub fn vfs() -> Arc<dyn Vfs> {
    GLOBAL.read().expect("chaos vfs lock poisoned").clone()
}

/// Installs `v` as the process-global Vfs. Binaries call this once at
/// startup (from `--chaos-io` / `OFFCHIP_CHAOS_IO`); libraries never do.
pub fn install(v: Arc<dyn Vfs>) {
    *GLOBAL.write().expect("chaos vfs lock poisoned") = v;
}

/// Environment variable naming the process-wide fault schedule.
pub const CHAOS_ENV: &str = "OFFCHIP_CHAOS_IO";

/// The fault schedule requested by [`CHAOS_ENV`], if any.
pub fn env_spec() -> Result<Option<ChaosSpec>, ChaosSpecError> {
    match std::env::var(CHAOS_ENV) {
        Ok(s) if !s.trim().is_empty() => ChaosSpec::parse(&s).map(Some),
        _ => Ok(None),
    }
}

/// Installs the [`CHAOS_ENV`] fault schedule as the process-global Vfs,
/// if the variable is set. Returns whether a schedule was installed —
/// the prologue of binaries that don't take `--chaos-io` themselves.
pub fn install_from_env() -> Result<bool, ChaosSpecError> {
    match env_spec()? {
        Some(spec) => {
            install(Arc::new(ChaosVfs::new(spec)));
            Ok(true)
        }
        None => Ok(false),
    }
}
