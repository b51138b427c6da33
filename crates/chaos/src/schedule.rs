//! The clause grammar both fault DSLs share: `--chaos-io`
//! ([`crate::ChaosSpec`]) and `--chaos-net` ([`crate::NetSpec`]).
//!
//! A schedule is a comma-separated list of clauses, each
//! `KIND@OP:N[:PARAM]` (fault `KIND` fires on the `N`-th operation of
//! class `OP`, 1-based), plus the pseudorandom expansion clause
//! `seed:S[:COUNT]` (`COUNT` at most [`MAX_SEED_FAULTS`]). Parsing,
//! printing, seed expansion, the error type and the environment reader
//! exist once, here; a DSL supplies only its op classes, its fault kinds
//! and the rules between them, by implementing [`Dsl`] on its kind type.

use crate::crc32;
use std::fmt;
use std::marker::PhantomData;

/// Most faults one `seed:S:COUNT` clause may expand to. A larger count is
/// a malformed clause: the expansion allocates one fault per count, so an
/// unchecked count near `u64::MAX` overflowed the allocation.
pub const MAX_SEED_FAULTS: u64 = 64;

/// One fault DSL, implemented by its fault-kind type: the op classes its
/// clauses target and the rules that tie kinds to them.
pub trait Dsl: Copy + Eq + fmt::Debug {
    /// The operation classes a clause's `@OP` names.
    type Op: Copy + Eq + fmt::Debug + fmt::Display;
    /// The flag that takes a schedule, which starts every error message.
    const FLAG: &'static str;
    /// The clause forms an error message lists as expected.
    const EXPECTED: &'static str;
    /// The environment variable that names a schedule.
    const ENV: &'static str;
    /// Faults a `seed:S` clause without `:COUNT` expands to.
    const SEED_COUNT: usize;

    /// The op class `s` names, if any.
    fn op(s: &str) -> Option<Self::Op>;

    /// The kind the clause `name@op:N[:param]` schedules, or why that
    /// combination is malformed. A `param` the kind does not take is
    /// rejected by the grammar afterwards.
    fn kind(name: &str, op: Self::Op, param: Option<u64>) -> Result<Self, String>;

    /// The kind's clause name and `:PARAM`, the inverse of [`Dsl::kind`].
    fn label(self) -> (&'static str, Option<u64>);

    /// One pseudorandom fault drawn from `next`, for `seed:S` expansion.
    fn draw(next: &mut impl FnMut() -> u64) -> Fault<Self>;
}

/// The `:PARAM` a `name` clause cannot do without.
pub(crate) fn need_param(name: &str, param: Option<u64>) -> Result<u64, String> {
    param.ok_or_else(|| format!("{name} needs a `:PARAM` value"))
}

/// Why fault kind `name` cannot target `op`.
pub(crate) fn not_applicable(name: &str, op: impl fmt::Display) -> String {
    format!("fault kind {name:?} does not apply to op class `{op}`")
}

/// One scheduled fault: `kind` fires on the `at`-th operation of `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault<K: Dsl> {
    /// Targeted operation class.
    pub op: K::Op,
    /// 1-based per-class operation index the fault fires at.
    pub at: u64,
    /// The misbehaviour.
    pub kind: K,
}

impl<K: Dsl> fmt::Display for Fault<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, param) = self.kind.label();
        write!(f, "{name}@{}:{}", self.op, self.at)?;
        match param {
            Some(p) => write!(f, ":{p}"),
            None => Ok(()),
        }
    }
}

/// A parsed fault schedule of one DSL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule<K: Dsl> {
    /// The scheduled faults, in clause order.
    pub faults: Vec<Fault<K>>,
}

/// A malformed clause of one DSL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError<K> {
    /// The offending clause, verbatim.
    pub clause: String,
    /// Why it did not parse.
    pub reason: String,
    dsl: PhantomData<K>,
}

impl<K: Dsl> fmt::Display for SpecError<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} clause {:?}: {} (expected {})",
            K::FLAG,
            self.clause,
            self.reason,
            K::EXPECTED
        )
    }
}

impl<K: Dsl> std::error::Error for SpecError<K> {}

impl<K: Dsl> Schedule<K> {
    /// Parses a comma-separated schedule.
    pub fn parse(input: &str) -> Result<Self, SpecError<K>> {
        let mut faults = Vec::new();
        for clause in input.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let err = |reason: String| SpecError {
                clause: clause.to_string(),
                reason,
                dsl: PhantomData,
            };
            let num =
                |field: &str, v: &str| v.parse::<u64>().map_err(|e| err(format!("{field}: {e}")));
            if let Some(rest) = clause.strip_prefix("seed:") {
                let (seed, count) = match rest.split_once(':') {
                    Some((s, c)) => (num("seed", s)?, num("count", c)?),
                    None => (num("seed", rest)?, K::SEED_COUNT as u64),
                };
                if count > MAX_SEED_FAULTS {
                    return Err(err(format!(
                        "count exceeds the {MAX_SEED_FAULTS}-fault cap"
                    )));
                }
                faults.extend(Self::from_seed_n(seed, count as usize).faults);
                continue;
            }
            let (name, rest) = clause
                .split_once('@')
                .ok_or_else(|| err("missing `@`".into()))?;
            let mut parts = rest.split(':');
            let op_s = parts.next().unwrap_or("");
            let op = K::op(op_s).ok_or_else(|| err(format!("unknown op class {op_s:?}")))?;
            let at_s = parts
                .next()
                .ok_or_else(|| err("missing operation index `:N`".into()))?;
            let at = num("operation index", at_s)?;
            if at == 0 {
                return Err(err("operation index is 1-based".into()));
            }
            let param = parts.next().map(|p| num("parameter", p)).transpose()?;
            if parts.next().is_some() {
                return Err(err("too many `:` fields".into()));
            }
            let kind = K::kind(name, op, param).map_err(err)?;
            if param.is_some() && kind.label().1.is_none() {
                return Err(err(format!("{name} takes no `:PARAM`")));
            }
            faults.push(Fault { op, at, kind });
        }
        Ok(Schedule { faults })
    }

    /// Expands `seed` into the DSL's default number of pseudorandom
    /// faults (the `seed:S` clause, and the generator behind the chaos
    /// oracles' seeded schedules). Deterministic: the same seed always
    /// yields the same schedule.
    pub fn from_seed(seed: u64) -> Self {
        Self::from_seed_n(seed, K::SEED_COUNT)
    }

    /// [`Schedule::from_seed`] with an explicit fault count.
    pub fn from_seed_n(seed: u64, count: usize) -> Self {
        // xorshift64* over a crc-whitened seed so adjacent seeds produce
        // unrelated schedules.
        let mut x = u64::from(crc32(&seed.to_le_bytes())) << 32 | seed | 1;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        Schedule {
            faults: (0..count).map(|_| K::draw(&mut next)).collect(),
        }
    }

    /// The schedule `value` names, where `value` is the content of the
    /// DSL's environment variable ([`Dsl::ENV`]): `None` when unset or
    /// blank. Binaries read the variable and pass its value in; the error
    /// names the variable.
    pub fn from_env(value: Option<&str>) -> Result<Option<Self>, String> {
        match value {
            Some(s) if !s.trim().is_empty() => Self::parse(s)
                .map(Some)
                .map_err(|e| format!("{}: {e}", K::ENV)),
            _ => Ok(None),
        }
    }

    /// Whether the schedule contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl<K: Dsl> fmt::Display for Schedule<K> {
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
    use crate::net::MAX_STALL_MS;
    use crate::{ChaosSpec, FaultKind, NetFaultKind, NetSpec};

    /// Valid multi-clause specs of each DSL, the seeds of the hostile
    /// corpus below.
    const IO_VALID: &str = "enospc@write:3,short@write:2:17,seed:42:9,lyingfsync@fsync:4,\
                            torn@rename:1,bitflip@read:2:40,trunc@read:3:8";
    const NET_VALID: &str = "stall@read:3:120,stall@write:2:80,seed:42:5,reset@write:5,\
                             reset@read:4,short@read:2:3";

    #[test]
    fn schedules_and_messages_are_pinned() {
        // Captured before the two DSLs shared one grammar: the merge must
        // not move a byte of any expansion or message.
        let pins = [
            (
                ChaosSpec::from_seed(0).to_string(),
                "trunc@read:6:42,lyingfsync@fsync:6,lyingfsync@fsync:2,enospc@write:6",
            ),
            (
                NetSpec::from_seed(0).to_string(),
                "short@read:4:0,short@read:3:4,stall@write:6:123",
            ),
            (
                ChaosSpec::from_seed(42).to_string(),
                "torn@rename:3,short@write:4:34,bitflip@read:2:451,trunc@read:5:34",
            ),
            (
                NetSpec::from_seed(42).to_string(),
                "short@read:3:3,reset@write:4,stall@read:3:42",
            ),
            (
                ChaosSpec::parse("seed:7:6").unwrap().to_string(),
                "eio@write:5,short@write:3:14,bitflip@read:6:680,lyingfsync@fsync:6,\
                 bitflip@read:3:635,torn@rename:3",
            ),
            (
                NetSpec::parse("seed:7:6").unwrap().to_string(),
                "short@read:3:2,stall@write:3:129,stall@write:7:129,stall@write:5:58,\
                 stall@write:4:159,short@read:4:0",
            ),
        ];
        for (got, want) in pins {
            assert_eq!(got, want);
        }
        // Errors keep their check order: the DSL's kind rules run before
        // the grammar's `:PARAM` check.
        let io = "(expected KIND@write|fsync|rename|read:N[:PARAM] or seed:S[:COUNT])";
        let net = "(expected stall@read|write:N:MS, reset@read|write:N, short@read:N:B \
                   or seed:S[:COUNT])";
        let errors = [
            (
                ChaosSpec::parse("reset@read:1:5").unwrap_err().to_string(),
                format!(
                    "chaos-io clause \"reset@read:1:5\": fault kind \"reset\" does not apply \
                     to op class `read` {io}"
                ),
            ),
            (
                NetSpec::parse("reset@read:1:5").unwrap_err().to_string(),
                format!("chaos-net clause \"reset@read:1:5\": reset takes no `:PARAM` {net}"),
            ),
            (
                ChaosSpec::parse("short@write:1").unwrap_err().to_string(),
                format!("chaos-io clause \"short@write:1\": short needs a `:PARAM` value {io}"),
            ),
            (
                NetSpec::parse("short@write:1").unwrap_err().to_string(),
                format!(
                    "chaos-net clause \"short@write:1\": fault kind \"short\" does not apply \
                     to op class `write` {net}"
                ),
            ),
        ];
        for (got, want) in errors {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn env_values_parse_or_name_the_variable() {
        assert_eq!(ChaosSpec::from_env(None), Ok(None));
        assert_eq!(NetSpec::from_env(Some(" ")), Ok(None));
        assert_eq!(
            ChaosSpec::from_env(Some("eio@fsync:1")),
            Ok(Some(ChaosSpec::parse("eio@fsync:1").unwrap()))
        );
        let e = ChaosSpec::from_env(Some("eio@write")).unwrap_err();
        assert!(e.starts_with("OFFCHIP_CHAOS_IO: chaos-io clause"), "{e}");
        let e = NetSpec::from_env(Some("eio@write")).unwrap_err();
        assert!(e.starts_with("OFFCHIP_CHAOS_NET: chaos-net clause"), "{e}");
    }

    /// Runs the hostile corpus grown from `valid` through DSL `K`: every
    /// input parses or fails typed, and a spec that parses holds only
    /// faults `sound` accepts and prints back to itself.
    fn hostile<K: Dsl>(valid: &str, sound: impl Fn(&Fault<K>) -> bool) {
        let check = |input: &str| {
            if let Ok(spec) = Schedule::<K>::parse(input) {
                for f in &spec.faults {
                    assert!(f.at >= 1 && sound(f), "{input:?}");
                }
                assert_eq!(Schedule::parse(&spec.to_string()), Ok(spec), "{input:?}");
            }
        };
        check(valid);
        // Every printable single-byte substitution, and every truncation.
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
        // Seeded garbage. Three bytes in four come from the valid spec, so
        // the parser gets past its first checks.
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

    #[test]
    fn hostile_specs_parse_or_fail_typed() {
        // A seed count past the cap is a typed error, not an allocation
        // sized by the input.
        assert_eq!(ChaosSpec::parse("seed:1:64").unwrap().faults.len(), 64);
        assert_eq!(NetSpec::parse("seed:1:64").unwrap().faults.len(), 64);
        for count in ["65".to_string(), u64::MAX.to_string()] {
            let clause = format!("seed:1:{count}");
            assert!(ChaosSpec::parse(&clause)
                .unwrap_err()
                .reason
                .contains("cap"));
            assert!(NetSpec::parse(&clause).unwrap_err().reason.contains("cap"));
        }
        let stall_capped = |f: &Fault<NetFaultKind>| !matches!(f.kind, NetFaultKind::Stall(ms) if ms > MAX_STALL_MS);
        for valid in [IO_VALID, NET_VALID] {
            hostile::<FaultKind>(valid, |_| true);
            hostile::<NetFaultKind>(valid, stall_capped);
        }
    }
}
