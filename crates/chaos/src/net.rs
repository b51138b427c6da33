//! The chaos-network DSL: injectable socket faults behind a stream
//! wrapper, on the clause grammar the filesystem DSL uses too
//! ([`crate::Schedule`]).
//!
//! `N` in `KIND@OP:N[:PARAM]` counts socket operations of class `OP`
//! across every connection that shares one [`NetFaultPlan`]:
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
//! in a [`ChaosStream`]. As with the filesystem Vfs there is no process
//! global: a server owns one [`NetFaultPlan`] so in-process tests can
//! run several independently faulted servers side by side.

use crate::schedule::{need_param, not_applicable, Dsl, Fault, Schedule, SpecError};
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

/// A parsed socket fault schedule.
pub type NetSpec = Schedule<NetFaultKind>;

/// A malformed `--chaos-net` / `OFFCHIP_CHAOS_NET` clause.
pub type NetSpecError = SpecError<NetFaultKind>;

/// One scheduled socket fault.
pub type NetFault = Fault<NetFaultKind>;

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

impl Dsl for NetFaultKind {
    type Op = NetOp;
    const FLAG: &'static str = "chaos-net";
    const EXPECTED: &'static str =
        "stall@read|write:N:MS, reset@read|write:N, short@read:N:B or seed:S[:COUNT]";
    const ENV: &'static str = NET_CHAOS_ENV;
    const SEED_COUNT: usize = 3;

    fn op(s: &str) -> Option<NetOp> {
        match s {
            "read" => Some(NetOp::Read),
            "write" => Some(NetOp::Write),
            _ => None,
        }
    }

    fn kind(name: &str, op: NetOp, param: Option<u64>) -> Result<NetFaultKind, String> {
        Ok(match (name, op) {
            ("stall", _) => {
                let ms = need_param(name, param)?;
                if ms > MAX_STALL_MS {
                    return Err(format!("stall exceeds the {MAX_STALL_MS} ms cap"));
                }
                NetFaultKind::Stall(ms)
            }
            ("reset", _) => NetFaultKind::Reset,
            ("short", NetOp::Read) => NetFaultKind::Short(need_param(name, param)?),
            _ => return Err(not_applicable(name, op)),
        })
    }

    fn label(self) -> (&'static str, Option<u64>) {
        match self {
            NetFaultKind::Stall(ms) => ("stall", Some(ms)),
            NetFaultKind::Reset => ("reset", None),
            NetFaultKind::Short(b) => ("short", Some(b)),
        }
    }

    fn draw(next: &mut impl FnMut() -> u64) -> NetFault {
        // Low indices so the schedule fires within the handful of
        // requests an oracle case drives; reads weighted up because a
        // request costs more reads than writes. Stalls stay short
        // (at most 160 ms) so oracle runs are fast while still crossing
        // request boundaries.
        let at = 1 + next() % 8;
        let (op, kind) = match next() % 6 {
            0 | 1 => (NetOp::Read, NetFaultKind::Stall(10 + next() % 150)),
            2 => (NetOp::Write, NetFaultKind::Stall(10 + next() % 150)),
            3 => (NetOp::Read, NetFaultKind::Reset),
            4 => (NetOp::Write, NetFaultKind::Reset),
            _ => (NetOp::Read, NetFaultKind::Short(next() % 6)),
        };
        Fault { op, at, kind }
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
            NetFault {
                op: NetOp::Read,
                at: 3,
                kind: NetFaultKind::Stall(120)
            }
        );
        assert_eq!(
            s.faults[2],
            NetFault {
                op: NetOp::Write,
                at: 5,
                kind: NetFaultKind::Reset
            }
        );
        assert_eq!(
            s.faults[4],
            NetFault {
                op: NetOp::Read,
                at: 2,
                kind: NetFaultKind::Short(3)
            }
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
            "stall",                // no @
            "stall@read",           // no index
            "stall@read:0:10",      // 0 is not 1-based
            "stall@read:1",         // stall needs a duration
            "stall@read:1:9999999", // beyond the stall cap
            "stall@socket:1:10",    // unknown op
            "frob@read:1",          // unknown kind
            "short@write:1:4",      // short only applies to reads
            "reset@read:1:7",       // reset takes no param
            "reset@read:x",         // garbage index
            "seed:notanumber",
            "short@read:1:2:3", // too many fields
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
    fn plan_counts_ops_across_streams_and_fires_once() {
        let plan = Arc::new(NetFaultPlan::new(NetSpec::parse("reset@read:3").unwrap()));
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
