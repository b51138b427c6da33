//! The fault-schedule DSL: which primitive I/O operation fails, when,
//! and how.
//!
//! A spec is a comma-separated list of clauses, each `KIND@OP:N[:PARAM]`
//! (fault `KIND` fires on the `N`-th operation of class `OP`, 1-based,
//! counted per process across the whole Vfs), plus the pseudorandom
//! expansion clause `seed:S[:COUNT]` (`COUNT` at most
//! [`MAX_SEED_FAULTS`]). Examples:
//!
//! ```text
//! enospc@write:3                  the 3rd write fails with ENOSPC
//! short@write:2:17                the 2nd write persists 17 bytes, then EIO
//! eio@fsync:1,torn@rename:1       first fsync EIO; first rename torn
//! bitflip@read:2:40,trunc@read:3:8
//! seed:1234                       4 pseudorandom faults derived from 1234
//! ```

use crate::crc32;
use std::fmt;

/// Most faults one `seed:S:COUNT` clause may expand to, in this DSL and in
/// [`crate::NetSpec`]'s. A larger count is a malformed clause: the
/// expansion allocates one fault per count, so an unchecked count near
/// `u64::MAX` overflowed the allocation.
pub const MAX_SEED_FAULTS: u64 = 64;

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

    fn parse(s: &str) -> Option<OpClass> {
        match s {
            "write" => Some(OpClass::Write),
            "fsync" => Some(OpClass::Fsync),
            "rename" => Some(OpClass::Rename),
            "read" => Some(OpClass::Read),
            _ => None,
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
        match self {
            FaultKind::Enospc => write!(f, "enospc"),
            FaultKind::Eio => write!(f, "eio"),
            FaultKind::Short(b) => write!(f, "short:{b}"),
            FaultKind::LyingFsync => write!(f, "lyingfsync"),
            FaultKind::Torn => write!(f, "torn"),
            FaultKind::BitFlip(p) => write!(f, "bitflip:{p}"),
            FaultKind::Truncate(b) => write!(f, "trunc:{b}"),
        }
    }
}

/// One scheduled fault: `kind` fires on the `at`-th operation of `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Targeted operation class.
    pub op: OpClass,
    /// 1-based per-class operation index the fault fires at.
    pub at: u64,
    /// The misbehaviour.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Short(b) => write!(f, "short@{}:{}:{b}", self.op, self.at),
            FaultKind::BitFlip(p) => write!(f, "bitflip@{}:{}:{p}", self.op, self.at),
            FaultKind::Truncate(b) => write!(f, "trunc@{}:{}:{b}", self.op, self.at),
            kind => write!(f, "{kind}@{}:{}", self.op, self.at),
        }
    }
}

/// A parsed fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    /// The scheduled faults, in clause order.
    pub faults: Vec<Fault>,
}

/// A malformed `--chaos-io` / `OFFCHIP_CHAOS_IO` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpecError {
    /// The offending clause, verbatim.
    pub clause: String,
    /// Why it did not parse.
    pub reason: String,
}

impl fmt::Display for ChaosSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos-io clause {:?}: {} (expected KIND@write|fsync|rename|read:N[:PARAM] \
             or seed:S[:COUNT])",
            self.clause, self.reason
        )
    }
}

impl std::error::Error for ChaosSpecError {}

fn err(clause: &str, reason: impl Into<String>) -> ChaosSpecError {
    ChaosSpecError {
        clause: clause.to_string(),
        reason: reason.into(),
    }
}

fn parse_u64(clause: &str, field: &str, v: &str) -> Result<u64, ChaosSpecError> {
    v.parse()
        .map_err(|e| err(clause, format!("{field}: {e}")))
}

impl ChaosSpec {
    /// Parses a comma-separated schedule.
    pub fn parse(input: &str) -> Result<ChaosSpec, ChaosSpecError> {
        let mut faults = Vec::new();
        for clause in input.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(rest) = clause.strip_prefix("seed:") {
                let (seed, count) = match rest.split_once(':') {
                    Some((s, c)) => (
                        parse_u64(clause, "seed", s)?,
                        parse_u64(clause, "count", c)?,
                    ),
                    None => (parse_u64(clause, "seed", rest)?, 4),
                };
                if count > MAX_SEED_FAULTS {
                    return Err(err(
                        clause,
                        format!("count exceeds the {MAX_SEED_FAULTS}-fault cap"),
                    ));
                }
                faults.extend(ChaosSpec::from_seed_n(seed, count as usize).faults);
                continue;
            }
            let (kind_s, rest) = clause
                .split_once('@')
                .ok_or_else(|| err(clause, "missing `@`"))?;
            let mut parts = rest.split(':');
            let op_s = parts.next().unwrap_or("");
            let op = OpClass::parse(op_s)
                .ok_or_else(|| err(clause, format!("unknown op class {op_s:?}")))?;
            let at_s = parts
                .next()
                .ok_or_else(|| err(clause, "missing operation index `:N`"))?;
            let at = parse_u64(clause, "operation index", at_s)?;
            if at == 0 {
                return Err(err(clause, "operation index is 1-based"));
            }
            let param = parts
                .next()
                .map(|p| parse_u64(clause, "parameter", p))
                .transpose()?;
            if parts.next().is_some() {
                return Err(err(clause, "too many `:` fields"));
            }
            let need_param = |kind: &str| {
                param.ok_or_else(|| err(clause, format!("{kind} needs a `:PARAM` value")))
            };
            let kind = match (kind_s, op) {
                ("enospc", OpClass::Write | OpClass::Fsync) => FaultKind::Enospc,
                ("eio", _) => FaultKind::Eio,
                ("short", OpClass::Write) => FaultKind::Short(need_param("short")?),
                ("lyingfsync", OpClass::Fsync) => FaultKind::LyingFsync,
                ("torn", OpClass::Rename) => FaultKind::Torn,
                ("bitflip", OpClass::Read) => FaultKind::BitFlip(need_param("bitflip")?),
                ("trunc", OpClass::Read) => FaultKind::Truncate(need_param("trunc")?),
                (k, op) => {
                    return Err(err(
                        clause,
                        format!("fault kind {k:?} does not apply to op class `{op}`"),
                    ))
                }
            };
            if param.is_some()
                && !matches!(
                    kind,
                    FaultKind::Short(_) | FaultKind::BitFlip(_) | FaultKind::Truncate(_)
                )
            {
                return Err(err(clause, format!("{kind_s} takes no `:PARAM`")));
            }
            faults.push(Fault { op, at, kind });
        }
        Ok(ChaosSpec { faults })
    }

    /// Expands `seed` into a small pseudorandom schedule (the
    /// `seed:S` clause, and the generator behind the crash-consistency
    /// oracle's "thousands of seeded fault schedules"). Deterministic:
    /// the same seed always yields the same schedule.
    pub fn from_seed(seed: u64) -> ChaosSpec {
        ChaosSpec::from_seed_n(seed, 4)
    }

    /// [`ChaosSpec::from_seed`] with an explicit fault count.
    pub fn from_seed_n(seed: u64, count: usize) -> ChaosSpec {
        // xorshift64* over a crc-whitened seed so adjacent seeds produce
        // unrelated schedules.
        let mut x = u64::from(crc32(&seed.to_le_bytes())) << 32 | seed | 1;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            // Low indices so the schedule actually fires inside the small
            // runs the oracle drives; writes and reads weighted up because
            // they are the most frequent operations.
            let at = 1 + next() % 6;
            let (op, kind) = match next() % 8 {
                0 => (OpClass::Write, FaultKind::Enospc),
                1 => (OpClass::Write, FaultKind::Eio),
                2 => (OpClass::Write, FaultKind::Short(next() % 48)),
                3 => (OpClass::Fsync, FaultKind::Eio),
                4 => (OpClass::Fsync, FaultKind::LyingFsync),
                5 => (
                    OpClass::Rename,
                    if next() % 2 == 0 { FaultKind::Eio } else { FaultKind::Torn },
                ),
                6 => (OpClass::Read, FaultKind::BitFlip(next() % 1024)),
                _ => (
                    OpClass::Read,
                    if next() % 2 == 0 {
                        FaultKind::Truncate(next() % 160)
                    } else {
                        FaultKind::Eio
                    },
                ),
            };
            faults.push(Fault { op, at, kind });
        }
        ChaosSpec { faults }
    }

    /// Whether the schedule contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
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
            Fault { op: OpClass::Write, at: 3, kind: FaultKind::Enospc }
        );
        assert_eq!(
            s.faults[2],
            Fault { op: OpClass::Write, at: 2, kind: FaultKind::Short(17) }
        );
        assert_eq!(
            s.faults[5],
            Fault { op: OpClass::Read, at: 2, kind: FaultKind::BitFlip(40) }
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
            "enospc",                // no @
            "enospc@write",          // no index
            "enospc@write:0",        // 0 is not 1-based
            "enospc@disk:1",         // unknown op
            "frob@write:1",          // unknown kind
            "enospc@read:1",         // enospc does not apply to reads
            "short@write:1",         // short needs a byte count
            "short@read:1:4",        // short only applies to writes
            "torn@write:1",          // torn only applies to renames
            "lyingfsync@write:1",    // lyingfsync only applies to fsyncs
            "eio@write:1:7",         // eio takes no param
            "enospc@write:x",        // garbage index
            "seed:notanumber",
            "bitflip@read:1:2:3",    // too many fields
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

    #[test]
    fn hostile_specs_parse_or_fail_typed() {
        // A seed count past the cap is a typed error, not an allocation
        // sized by the input.
        assert_eq!(ChaosSpec::parse("seed:1:64").unwrap().faults.len(), 64);
        for count in ["65".to_string(), u64::MAX.to_string()] {
            let e = ChaosSpec::parse(&format!("seed:1:{count}")).unwrap_err();
            assert!(e.reason.contains("cap"), "{e}");
        }
        // Every printable single-byte substitution and every truncation
        // of a valid multi-clause spec, plus seeded garbage, parses or
        // fails typed; a spec that parses prints back to itself.
        let valid = "enospc@write:3,short@write:2:17,seed:42:9,lyingfsync@fsync:4,\
                     torn@rename:1,bitflip@read:2:40,trunc@read:3:8";
        let check = |input: &str| {
            if let Ok(spec) = ChaosSpec::parse(input) {
                assert_eq!(ChaosSpec::parse(&spec.to_string()), Ok(spec), "{input:?}");
            }
        };
        check(valid);
        for i in 0..valid.len() {
            for b in b' '..=b'~' {
                let mut bytes = valid.as_bytes().to_vec();
                bytes[i] = b;
                check(std::str::from_utf8(&bytes).expect("ASCII stays UTF-8"));
            }
        }
        for cut in 0..valid.len() {
            check(&valid[..cut]);
        }
        // Three bytes in four come from the valid spec, so the parser
        // gets past its first checks.
        let mut x: u64 = 0x0BAD_5EED;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..20_000 {
            let len = (next() % (2 * valid.len() as u64)) as usize;
            let junk: Vec<u8> = (0..len)
                .map(|_| match next() % 4 {
                    0 => next() as u8,
                    _ => valid.as_bytes()[(next() % valid.len() as u64) as usize],
                })
                .collect();
            check(&String::from_utf8_lossy(&junk));
        }
    }
}
