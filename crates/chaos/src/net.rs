//! The chaos-network DSL: injectable socket faults behind a stream
//! wrapper, mirroring the filesystem fault schedule [`crate::ChaosSpec`].
//!
//! A network spec is a comma-separated list of clauses, each
//! `KIND@OP:N[:PARAM]` (fault `KIND` fires on the `N`-th socket
//! operation of class `OP`, 1-based, counted across every connection
//! that shares one [`NetFaultPlan`]), plus the pseudorandom expansion
//! clause `seed:S[:COUNT]` (`COUNT` at most [`crate::MAX_SEED_FAULTS`]):
//!
//! ```text
//! stall@read:3:120      the 3rd read sleeps 120 ms before proceeding
//! stall@write:2:80      the 2nd write sleeps 80 ms before proceeding
//! reset@write:5         the 5th write fails with ECONNRESET
//! reset@read:4          the 4th read fails with ECONNRESET
//! short@read:2:3        the 2nd read returns at most 3 bytes (0 = EOF)
//! seed:42               3 pseudorandom faults derived from 42
//! ```
//!
//! The schedule is selected with `--chaos-net SPEC` or
//! `OFFCHIP_CHAOS_NET` and applied by wrapping each accepted connection
//! in a [`ChaosStream`]. Unlike the filesystem Vfs there is no process
//! global: a server owns one [`NetFaultPlan`] so in-process tests can
//! run several independently faulted servers side by side.

use crate::{crc32, MAX_SEED_FAULTS};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Environment variable naming the socket fault schedule.
pub const NET_CHAOS_ENV: &str = "OFFCHIP_CHAOS_NET";

/// Hard cap on injected stalls. A stall models a slow peer or a
/// congested path, not a hang: the socket-level oracle asserts the
/// server always outlives its own timeouts, so the injection must too.
pub const MAX_STALL_MS: u64 = 5_000;

/// The socket operation classes a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetOp {
    /// One `read` on the wrapped stream (one `BufReader` refill).
    Read,
    /// One `write` on the wrapped stream (one response buffer).
    Write,
}

impl NetOp {
    pub(crate) const COUNT: usize = 2;

    pub(crate) fn index(self) -> usize {
        match self {
            NetOp::Read => 0,
            NetOp::Write => 1,
        }
    }

    fn parse(s: &str) -> Option<NetOp> {
        match s {
            "read" => Some(NetOp::Read),
            "write" => Some(NetOp::Write),
            _ => None,
        }
    }
}

impl fmt::Display for NetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NetOp::Read => "read",
            NetOp::Write => "write",
        })
    }
}

/// How the targeted socket operation misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Sleep `MS` milliseconds (capped at [`MAX_STALL_MS`]) before
    /// performing the operation — a slow peer. `read` and `write`.
    Stall(u64),
    /// Fail with `ECONNRESET`, nothing transferred — a peer that
    /// vanished mid-exchange. `read` and `write`.
    Reset,
    /// The read returns at most `B` bytes of what was available; `0`
    /// reads as EOF (a half-closed peer). `read` only.
    Short(u64),
}

impl fmt::Display for NetFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetFaultKind::Stall(ms) => write!(f, "stall:{ms}"),
            NetFaultKind::Reset => write!(f, "reset"),
            NetFaultKind::Short(b) => write!(f, "short:{b}"),
        }
    }
}

/// One scheduled socket fault: `kind` fires on the `at`-th operation of
/// class `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFault {
    /// Targeted operation class.
    pub op: NetOp,
    /// 1-based per-class operation index the fault fires at.
    pub at: u64,
    /// The misbehaviour.
    pub kind: NetFaultKind,
}

impl fmt::Display for NetFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            NetFaultKind::Stall(ms) => write!(f, "stall@{}:{}:{ms}", self.op, self.at),
            NetFaultKind::Short(b) => write!(f, "short@{}:{}:{b}", self.op, self.at),
            NetFaultKind::Reset => write!(f, "reset@{}:{}", self.op, self.at),
        }
    }
}

/// A parsed socket fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSpec {
    /// The scheduled faults, in clause order.
    pub faults: Vec<NetFault>,
}

/// A malformed `--chaos-net` / `OFFCHIP_CHAOS_NET` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSpecError {
    /// The offending clause, verbatim.
    pub clause: String,
    /// Why it did not parse.
    pub reason: String,
}

impl fmt::Display for NetSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos-net clause {:?}: {} (expected stall@read|write:N:MS, \
             reset@read|write:N, short@read:N:B or seed:S[:COUNT])",
            self.clause, self.reason
        )
    }
}

impl std::error::Error for NetSpecError {}

fn err(clause: &str, reason: impl Into<String>) -> NetSpecError {
    NetSpecError {
        clause: clause.to_string(),
        reason: reason.into(),
    }
}

fn parse_u64(clause: &str, field: &str, v: &str) -> Result<u64, NetSpecError> {
    v.parse().map_err(|e| err(clause, format!("{field}: {e}")))
}

impl NetSpec {
    /// Parses a comma-separated schedule.
    pub fn parse(input: &str) -> Result<NetSpec, NetSpecError> {
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
                    None => (parse_u64(clause, "seed", rest)?, 3),
                };
                if count > MAX_SEED_FAULTS {
                    return Err(err(
                        clause,
                        format!("count exceeds the {MAX_SEED_FAULTS}-fault cap"),
                    ));
                }
                faults.extend(NetSpec::from_seed_n(seed, count as usize).faults);
                continue;
            }
            let (kind_s, rest) = clause
                .split_once('@')
                .ok_or_else(|| err(clause, "missing `@`"))?;
            let mut parts = rest.split(':');
            let op_s = parts.next().unwrap_or("");
            let op = NetOp::parse(op_s)
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
                ("stall", _) => {
                    let ms = need_param("stall")?;
                    if ms > MAX_STALL_MS {
                        return Err(err(
                            clause,
                            format!("stall exceeds the {MAX_STALL_MS} ms cap"),
                        ));
                    }
                    NetFaultKind::Stall(ms)
                }
                ("reset", _) => NetFaultKind::Reset,
                ("short", NetOp::Read) => NetFaultKind::Short(need_param("short")?),
                (k, op) => {
                    return Err(err(
                        clause,
                        format!("fault kind {k:?} does not apply to op class `{op}`"),
                    ))
                }
            };
            if param.is_some() && matches!(kind, NetFaultKind::Reset) {
                return Err(err(clause, "reset takes no `:PARAM`"));
            }
            faults.push(NetFault { op, at, kind });
        }
        Ok(NetSpec { faults })
    }

    /// Expands `seed` into a small pseudorandom schedule — the `seed:S`
    /// clause, and the generator behind the socket-level oracle's
    /// seeded schedules. Deterministic: the same seed always yields the
    /// same schedule. Stalls stay short (≤ 160 ms) so oracle runs are
    /// fast while still crossing request boundaries.
    pub fn from_seed(seed: u64) -> NetSpec {
        NetSpec::from_seed_n(seed, 3)
    }

    /// [`NetSpec::from_seed`] with an explicit fault count.
    pub fn from_seed_n(seed: u64, count: usize) -> NetSpec {
        // Same xorshift64* over a crc-whitened seed as ChaosSpec, so
        // adjacent seeds produce unrelated schedules.
        let mut x = u64::from(crc32(&seed.to_le_bytes())) << 32 | seed | 1;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            // Low indices so the schedule fires within the handful of
            // requests an oracle case drives; reads weighted up because
            // a request costs more reads than writes.
            let at = 1 + next() % 8;
            let (op, kind) = match next() % 6 {
                0 | 1 => (NetOp::Read, NetFaultKind::Stall(10 + next() % 150)),
                2 => (NetOp::Write, NetFaultKind::Stall(10 + next() % 150)),
                3 => (NetOp::Read, NetFaultKind::Reset),
                4 => (NetOp::Write, NetFaultKind::Reset),
                _ => (NetOp::Read, NetFaultKind::Short(next() % 6)),
            };
            faults.push(NetFault { op, at, kind });
        }
        NetSpec { faults }
    }

    /// Whether the schedule contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl fmt::Display for NetSpec {
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

/// The socket fault schedule requested by [`NET_CHAOS_ENV`], if any.
pub fn env_net_spec() -> Result<Option<NetSpec>, NetSpecError> {
    match std::env::var(NET_CHAOS_ENV) {
        Ok(s) if !s.trim().is_empty() => NetSpec::parse(&s).map(Some),
        _ => Ok(None),
    }
}

/// A live fault schedule: the spec plus per-class operation counters.
///
/// One plan is shared (via `Arc`) by every [`ChaosStream`] of one
/// server, so indices count operations across all its connections in
/// arrival order — the same process-order counting the filesystem
/// chaos layer uses.
#[derive(Debug)]
pub struct NetFaultPlan {
    spec: NetSpec,
    counts: [AtomicU64; NetOp::COUNT],
    fired: AtomicU64,
}

impl NetFaultPlan {
    /// A plan over `spec` with zeroed counters.
    pub fn new(spec: NetSpec) -> NetFaultPlan {
        NetFaultPlan {
            spec,
            counts: [AtomicU64::new(0), AtomicU64::new(0)],
            fired: AtomicU64::new(0),
        }
    }

    /// Counts one operation of class `op` and returns the fault to
    /// inject on it, if the schedule names this index.
    pub fn next(&self, op: NetOp) -> Option<NetFaultKind> {
        let idx = self.counts[op.index()].fetch_add(1, Ordering::SeqCst) + 1;
        let hit = self
            .spec
            .faults
            .iter()
            .find(|f| f.op == op && f.at == idx)
            .map(|f| f.kind);
        if hit.is_some() {
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
        hit
    }

    /// Operations of class `op` seen so far.
    pub fn ops(&self, op: NetOp) -> u64 {
        self.counts[op.index()].load(Ordering::SeqCst)
    }

    /// Faults injected so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// The schedule this plan injects.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }
}

/// A stream wrapper that injects the plan's faults into reads and
/// writes. Wraps anything `Read + Write` (production: `TcpStream`;
/// tests: in-memory streams).
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    plan: Arc<NetFaultPlan>,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: Arc<NetFaultPlan>) -> ChaosStream<S> {
        ChaosStream { inner, plan }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// The wrapped stream, mutably.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps the stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

fn reset_error() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.plan.next(NetOp::Read) {
            Some(NetFaultKind::Stall(ms)) => {
                std::thread::sleep(Duration::from_millis(ms.min(MAX_STALL_MS)));
                self.inner.read(buf)
            }
            Some(NetFaultKind::Reset) => Err(reset_error()),
            Some(NetFaultKind::Short(b)) => {
                let cap = (b as usize).min(buf.len());
                if cap == 0 {
                    // A zero-byte read is EOF to the caller: the peer
                    // half-closed.
                    Ok(0)
                } else {
                    self.inner.read(&mut buf[..cap])
                }
            }
            None => self.inner.read(buf),
        }
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.plan.next(NetOp::Write) {
            Some(NetFaultKind::Stall(ms)) => {
                std::thread::sleep(Duration::from_millis(ms.min(MAX_STALL_MS)));
                self.inner.write(buf)
            }
            Some(NetFaultKind::Reset) => Err(reset_error()),
            // `short` never parses for writes; treat defensively as a
            // plain write if a hand-built spec contains one.
            Some(NetFaultKind::Short(_)) => self.inner.write(buf),
            None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Flushes are not a scheduled op class: the response path's
        // single write is the observable unit.
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_every_clause_kind() {
        let s = NetSpec::parse(
            "stall@read:3:120, stall@write:2:80, reset@write:5, reset@read:4, short@read:2:3",
        )
        .unwrap();
        assert_eq!(s.faults.len(), 5);
        assert_eq!(
            s.faults[0],
            NetFault { op: NetOp::Read, at: 3, kind: NetFaultKind::Stall(120) }
        );
        assert_eq!(
            s.faults[2],
            NetFault { op: NetOp::Write, at: 5, kind: NetFaultKind::Reset }
        );
        assert_eq!(
            s.faults[4],
            NetFault { op: NetOp::Read, at: 2, kind: NetFaultKind::Short(3) }
        );
    }

    #[test]
    fn roundtrips_through_display() {
        let text = "stall@read:3:120,reset@write:5,short@read:2:3,stall@write:1:10";
        let s = NetSpec::parse(text).unwrap();
        assert_eq!(s.to_string(), text);
        assert_eq!(NetSpec::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "stall",             // no @
            "stall@read",        // no index
            "stall@read:0:10",   // 0 is not 1-based
            "stall@read:1",      // stall needs a duration
            "stall@read:1:9999999", // beyond the stall cap
            "stall@socket:1:10", // unknown op
            "frob@read:1",       // unknown kind
            "short@write:1:4",   // short only applies to reads
            "reset@read:1:7",    // reset takes no param
            "reset@read:x",      // garbage index
            "seed:notanumber",
            "short@read:1:2:3",  // too many fields
        ] {
            let e = NetSpec::parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad}");
        }
    }

    #[test]
    fn seed_expansion_is_deterministic_and_valid() {
        for seed in 0..200u64 {
            let a = NetSpec::from_seed(seed);
            let b = NetSpec::from_seed(seed);
            assert_eq!(a, b);
            assert_eq!(a.faults.len(), 3);
            for f in &a.faults {
                assert!(f.at >= 1 && f.at <= 8);
                if let NetFaultKind::Stall(ms) = f.kind {
                    assert!(ms <= MAX_STALL_MS);
                }
            }
            assert_eq!(NetSpec::parse(&a.to_string()).unwrap(), a);
        }
        assert_ne!(NetSpec::from_seed(1), NetSpec::from_seed(2));
    }

    #[test]
    fn hostile_specs_parse_or_fail_typed() {
        // A seed count past the cap is a typed error, not an allocation
        // sized by the input.
        assert_eq!(NetSpec::parse("seed:1:64").unwrap().faults.len(), 64);
        for count in ["65".to_string(), u64::MAX.to_string()] {
            let e = NetSpec::parse(&format!("seed:1:{count}")).unwrap_err();
            assert!(e.reason.contains("cap"), "{e}");
        }
        // Every printable single-byte substitution and every truncation
        // of a valid multi-clause spec, plus seeded garbage, parses or
        // fails typed; a spec that parses keeps its stalls under the cap
        // and prints back to itself.
        let valid = "stall@read:3:120,stall@write:2:80,seed:42:5,reset@write:5,reset@read:4,\
                     short@read:2:3";
        let check = |input: &str| {
            if let Ok(spec) = NetSpec::parse(input) {
                for f in &spec.faults {
                    assert!(f.at >= 1, "{input:?}");
                    if let NetFaultKind::Stall(ms) = f.kind {
                        assert!(ms <= MAX_STALL_MS, "{input:?}");
                    }
                }
                assert_eq!(NetSpec::parse(&spec.to_string()), Ok(spec), "{input:?}");
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

    #[test]
    fn plan_counts_ops_across_streams_and_fires_once() {
        let plan = Arc::new(NetFaultPlan::new(
            NetSpec::parse("reset@read:3").unwrap(),
        ));
        let mut a = ChaosStream::new(Cursor::new(vec![1u8, 2, 3]), Arc::clone(&plan));
        let mut b = ChaosStream::new(Cursor::new(vec![4u8, 5, 6]), Arc::clone(&plan));
        let mut buf = [0u8; 2];
        assert!(a.read(&mut buf).is_ok()); // read 1
        assert!(b.read(&mut buf).is_ok()); // read 2
        let e = a.read(&mut buf).unwrap_err(); // read 3: reset
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        assert!(b.read(&mut buf).is_ok(), "the fault fires exactly once");
        assert_eq!(plan.ops(NetOp::Read), 4);
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn short_read_truncates_and_zero_is_eof() {
        let plan = Arc::new(NetFaultPlan::new(
            NetSpec::parse("short@read:1:2,short@read:2:0").unwrap(),
        ));
        let mut s = ChaosStream::new(Cursor::new(vec![9u8; 16]), plan);
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf).unwrap(), 2, "short read caps the length");
        assert_eq!(s.read(&mut buf).unwrap(), 0, "short:0 reads as EOF");
        assert!(s.read(&mut buf).unwrap() > 0, "later reads are clean");
    }

    #[test]
    fn write_faults_fire_on_the_scheduled_write() {
        let plan = Arc::new(NetFaultPlan::new(
            NetSpec::parse("reset@write:2,stall@write:1:1").unwrap(),
        ));
        let mut s = ChaosStream::new(Cursor::new(Vec::new()), plan);
        assert!(s.write(b"ok").is_ok(), "write 1 only stalls");
        let e = s.write(b"boom").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        assert!(s.write(b"ok").is_ok());
        assert!(s.flush().is_ok(), "flush is never faulted");
    }
}
