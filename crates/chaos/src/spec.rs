//! The filesystem fault DSL (`--chaos-io`): which primitive I/O
//! operation fails, when, and how.
//!
//! Clauses follow the grammar both fault DSLs share ([`crate::Schedule`]);
//! `N` counts operations of one class across the whole Vfs, in program
//! order. Examples:
//!
//! ```text
//! enospc@write:3                  the 3rd write fails with ENOSPC
//! short@write:2:17                the 2nd write persists 17 bytes, then EIO
//! eio@fsync:1,torn@rename:1       first fsync EIO; first rename torn
//! bitflip@read:2:40,trunc@read:3:8
//! seed:1234                       4 pseudorandom faults derived from 1234
//! ```

use crate::schedule::{need_param, not_applicable, Dsl, Fault, Schedule, SpecError};
use std::fmt;

/// Environment variable naming the filesystem fault schedule.
pub const CHAOS_ENV: &str = "OFFCHIP_CHAOS_IO";

/// A parsed filesystem fault schedule.
pub type ChaosSpec = Schedule<FaultKind>;

/// A malformed `--chaos-io` / `OFFCHIP_CHAOS_IO` clause.
pub type ChaosSpecError = SpecError<FaultKind>;

/// The primitive operation classes a fault can target. Indices count
/// per class, across every file the Vfs touches, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A whole-buffer write (temp-file contents or one journal line).
    Write,
    /// An `fsync` (`File::sync_all`), of a temp file or an append file.
    Fsync,
    /// A rename (atomic publish of a temp file, or a quarantine move).
    Rename,
    /// A whole-file read (journal replay, baselines).
    Read,
}

impl OpClass {
    pub(crate) const COUNT: usize = 4;

    pub(crate) fn index(self) -> usize {
        match self {
            OpClass::Write => 0,
            OpClass::Fsync => 1,
            OpClass::Rename => 2,
            OpClass::Read => 3,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Write => "write",
            OpClass::Fsync => "fsync",
            OpClass::Rename => "rename",
            OpClass::Read => "read",
        };
        f.write_str(s)
    }
}

/// How the targeted operation misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with `ENOSPC` ("no space left on device"), nothing persisted.
    Enospc,
    /// Fail with `EIO`, nothing persisted.
    Eio,
    /// Persist only the first `N` bytes of the buffer, then fail with
    /// `EIO` — a short (torn) write. `write` only.
    Short(u64),
    /// Report success but silently drop the bytes appended since the
    /// last honest fsync — an acknowledged-then-lost append. `fsync`
    /// only, and only on append files (a whole-file artefact is
    /// republished atomically, so its equivalent on-disk outcome is
    /// [`FaultKind::Torn`] on the rename).
    LyingFsync,
    /// The rename fails with `EIO` *and* leaves a half-written
    /// destination file behind — a torn, non-atomic replace. `rename`
    /// only.
    Torn,
    /// The read succeeds but one bit of the returned buffer is flipped
    /// (bit `POS % 8` of byte `(POS / 8) % len`) — bit-rot. `read` only.
    BitFlip(u64),
    /// The read succeeds but returns only the first `N` bytes — a
    /// truncated file. `read` only.
    Truncate(u64),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.label() {
            (name, Some(p)) => write!(f, "{name}:{p}"),
            (name, None) => f.write_str(name),
        }
    }
}

impl Dsl for FaultKind {
    type Op = OpClass;
    const FLAG: &'static str = "chaos-io";
    const EXPECTED: &'static str = "KIND@write|fsync|rename|read:N[:PARAM] or seed:S[:COUNT]";
    const ENV: &'static str = CHAOS_ENV;
    const SEED_COUNT: usize = 4;

    fn op(s: &str) -> Option<OpClass> {
        match s {
            "write" => Some(OpClass::Write),
            "fsync" => Some(OpClass::Fsync),
            "rename" => Some(OpClass::Rename),
            "read" => Some(OpClass::Read),
            _ => None,
        }
    }

    fn kind(name: &str, op: OpClass, param: Option<u64>) -> Result<FaultKind, String> {
        Ok(match (name, op) {
            ("enospc", OpClass::Write | OpClass::Fsync) => FaultKind::Enospc,
            ("eio", _) => FaultKind::Eio,
            ("short", OpClass::Write) => FaultKind::Short(need_param(name, param)?),
            ("lyingfsync", OpClass::Fsync) => FaultKind::LyingFsync,
            ("torn", OpClass::Rename) => FaultKind::Torn,
            ("bitflip", OpClass::Read) => FaultKind::BitFlip(need_param(name, param)?),
            ("trunc", OpClass::Read) => FaultKind::Truncate(need_param(name, param)?),
            _ => return Err(not_applicable(name, op)),
        })
    }

    fn label(self) -> (&'static str, Option<u64>) {
        match self {
            FaultKind::Enospc => ("enospc", None),
            FaultKind::Eio => ("eio", None),
            FaultKind::Short(b) => ("short", Some(b)),
            FaultKind::LyingFsync => ("lyingfsync", None),
            FaultKind::Torn => ("torn", None),
            FaultKind::BitFlip(p) => ("bitflip", Some(p)),
            FaultKind::Truncate(b) => ("trunc", Some(b)),
        }
    }

    fn draw(next: &mut impl FnMut() -> u64) -> Fault<FaultKind> {
        // Low indices so the schedule actually fires inside the small
        // runs the crash-consistency oracle drives; writes and reads
        // weighted up because they are the most frequent operations.
        let at = 1 + next() % 6;
        let (op, kind) = match next() % 8 {
            0 => (OpClass::Write, FaultKind::Enospc),
            1 => (OpClass::Write, FaultKind::Eio),
            2 => (OpClass::Write, FaultKind::Short(next() % 48)),
            3 => (OpClass::Fsync, FaultKind::Eio),
            4 => (OpClass::Fsync, FaultKind::LyingFsync),
            5 => (
                OpClass::Rename,
                if next().is_multiple_of(2) {
                    FaultKind::Eio
                } else {
                    FaultKind::Torn
                },
            ),
            6 => (OpClass::Read, FaultKind::BitFlip(next() % 1024)),
            _ => (
                OpClass::Read,
                if next().is_multiple_of(2) {
                    FaultKind::Truncate(next() % 160)
                } else {
                    FaultKind::Eio
                },
            ),
        };
        Fault { op, at, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_clause_kind() {
        let s = ChaosSpec::parse(
            "enospc@write:3, eio@fsync:1, short@write:2:17, lyingfsync@fsync:4,\
             torn@rename:1, bitflip@read:2:40, trunc@read:3:8, eio@rename:2, eio@read:5",
        )
        .unwrap();
        assert_eq!(s.faults.len(), 9);
        assert_eq!(
            s.faults[0],
            Fault {
                op: OpClass::Write,
                at: 3,
                kind: FaultKind::Enospc
            }
        );
        assert_eq!(
            s.faults[2],
            Fault {
                op: OpClass::Write,
                at: 2,
                kind: FaultKind::Short(17)
            }
        );
        assert_eq!(
            s.faults[5],
            Fault {
                op: OpClass::Read,
                at: 2,
                kind: FaultKind::BitFlip(40)
            }
        );
    }

    #[test]
    fn roundtrips_through_display() {
        let text = "enospc@write:3,short@write:2:17,lyingfsync@fsync:4,torn@rename:1,\
                    bitflip@read:2:40,trunc@read:3:8";
        let s = ChaosSpec::parse(text).unwrap();
        assert_eq!(s.to_string(), text);
        assert_eq!(ChaosSpec::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "enospc",             // no @
            "enospc@write",       // no index
            "enospc@write:0",     // 0 is not 1-based
            "enospc@disk:1",      // unknown op
            "frob@write:1",       // unknown kind
            "enospc@read:1",      // enospc does not apply to reads
            "short@write:1",      // short needs a byte count
            "short@read:1:4",     // short only applies to writes
            "torn@write:1",       // torn only applies to renames
            "lyingfsync@write:1", // lyingfsync only applies to fsyncs
            "eio@write:1:7",      // eio takes no param
            "enospc@write:x",     // garbage index
            "seed:notanumber",
            "bitflip@read:1:2:3", // too many fields
        ] {
            let e = ChaosSpec::parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad}");
        }
    }

    #[test]
    fn seed_expansion_is_deterministic_and_valid() {
        for seed in 0..200u64 {
            let a = ChaosSpec::from_seed(seed);
            let b = ChaosSpec::from_seed(seed);
            assert_eq!(a, b);
            assert_eq!(a.faults.len(), 4);
            for f in &a.faults {
                assert!(f.at >= 1 && f.at <= 6);
            }
            // The textual form parses back to the same schedule.
            assert_eq!(ChaosSpec::parse(&a.to_string()).unwrap(), a);
        }
        assert_ne!(ChaosSpec::from_seed(1), ChaosSpec::from_seed(2));
    }

    #[test]
    fn seed_clause_expands_inline() {
        let s = ChaosSpec::parse("seed:42").unwrap();
        assert_eq!(s, ChaosSpec::from_seed(42));
        let n = ChaosSpec::parse("seed:42:9").unwrap();
        assert_eq!(n.faults.len(), 9);
        let mixed = ChaosSpec::parse("eio@fsync:1,seed:42").unwrap();
        assert_eq!(mixed.faults.len(), 5);
        assert_eq!(mixed.faults[0].kind, FaultKind::Eio);
    }

    #[test]
    fn empty_spec_is_empty() {
        assert!(ChaosSpec::parse("").unwrap().is_empty());
        assert!(ChaosSpec::parse(" , ").unwrap().is_empty());
    }
}
