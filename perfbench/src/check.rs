//! Output checking: digests of what the program produced, the values
//! pinned for the default seed, and the attempted/failed tally.
//!
//! At [`DEFAULT_SEED`] every workload's digest must equal its pinned
//! value. At any other seed there is nothing to pin against, so the run
//! checks invariants instead (see each workload) and prints its digest,
//! which lets a parent commit and a change be compared seed by seed.

/// The seed whose digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// Digests of the program's outputs at [`DEFAULT_SEED`], per workload:
/// `table2-c` covers the counters of every sweep point, `serve-cold`
/// every cold response body, `serve-warm` every distinct warm response
/// body.
pub const PINNED: &[(&str, &str)] = &[
    ("table2-c", "a008347f2848624a"),
    ("serve-cold", "3266d5e512452df1"),
    ("serve-warm", "af79edf00e763153"),
];

/// 64-bit FNV-1a over everything fed to it.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Digest {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds a length-prefixed byte string, so adjacent fields cannot
    /// trade bytes without changing the digest.
    pub fn field(&mut self, data: &[u8]) -> &mut Digest {
        self.bytes(&(data.len() as u64).to_le_bytes()).bytes(data)
    }

    /// Feeds the exact bits of a number.
    pub fn num(&mut self, v: f64) -> &mut Digest {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one byte string.
pub fn digest_of(data: &[u8]) -> u64 {
    Digest::default().bytes(data).0
}

/// Attempted and failed operations of a run, with a note per failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (sweep points or requests).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failure kind, printed before the result.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation; a failed one adds `note()` to the notes.
    pub fn op(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(note());
        }
    }

    /// Counts `attempted` operations checked elsewhere, one failed per
    /// note.
    pub fn absorb(&mut self, attempted: u64, notes: Vec<String>) {
        self.attempted += attempted;
        self.failed += (notes.len() as u64).min(attempted);
        self.notes.extend(notes);
    }

    /// Marks `covered` already-counted operations failed: a digest over
    /// them mismatched, and a combined digest cannot say which one.
    pub fn fail_covered(&mut self, covered: u64, note: String) {
        self.failed = (self.failed + covered).min(self.attempted);
        self.notes.push(note);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty()
    }

    /// `failed / attempted`.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Compares `digest` with the value pinned for `workload` when the
    /// run is at the default seed, failing the `covered` operations on a
    /// mismatch. Returns a one-line report.
    pub fn digest(&mut self, workload: &str, seed: u64, digest: &str, covered: u64) -> String {
        let pinned = PINNED.iter().find(|(w, _)| *w == workload).map(|&(_, d)| d);
        match pinned {
            Some(expected) if seed == DEFAULT_SEED => {
                if expected == digest {
                    format!("digest {workload} {digest} (pinned at seed {DEFAULT_SEED}: match)")
                } else {
                    self.fail_covered(
                        covered,
                        format!("digest {workload} {digest} != pinned {expected}"),
                    );
                    format!("digest {workload} {digest} (pinned {expected}: MISMATCH)")
                }
            }
            _ => format!("digest {workload} {digest} (seed {seed}: invariants checked, no pin)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters of two sweep points, as `table2-c` digests them.
    fn counters_digest(points: &[[f64; 5]]) -> String {
        let mut d = Digest::default();
        for p in points {
            for &v in p {
                d.num(v);
            }
        }
        d.hex()
    }

    fn pinned(workload: &str) -> &'static str {
        PINNED.iter().find(|(w, _)| *w == workload).unwrap().1
    }

    #[test]
    fn a_perturbed_counter_is_caught() {
        let points = [[1e6, 6e5, 4e5, 1234.0, 2e5], [2e6, 6e5, 1.4e6, 2345.0, 3e5]];
        let good = counters_digest(&points);
        let mut bad = points;
        bad[1][3] += 1.0; // one more LLC miss
        let bad = counters_digest(&bad);
        assert_ne!(good, bad);

        let mut checks = Checks::default();
        for _ in 0..2 {
            checks.op(true, String::new);
        }
        let line = checks.digest("custom", DEFAULT_SEED, &bad, 2);
        assert!(
            checks.correct(),
            "an unpinned workload checks invariants only: {line}"
        );

        // Against a pin, the same mismatch fails every covered point.
        let mut checks = Checks::default();
        for _ in 0..2 {
            checks.op(true, String::new);
        }
        checks.digest("table2-c", DEFAULT_SEED, &bad, 2);
        assert_ne!(bad, pinned("table2-c"));
        assert!(!checks.correct());
        assert_eq!(checks.failed, 2);
        assert_eq!(checks.error_frac(), 1.0);
    }

    #[test]
    fn a_perturbed_body_byte_is_caught() {
        let body = br#"{"machine":"Intel UMA: Xeon E5320","n":4,"omega":0.125}"#.to_vec();
        let mut flipped = body.clone();
        flipped[20] ^= 0x01;
        let (good, bad) = (digest_of(&body), digest_of(&flipped));
        assert_ne!(good, bad);

        let mut checks = Checks::default();
        checks.op(good == digest_of(&body), || "cold body".into());
        checks.op(bad == good, || "warm body differs from cold body".into());
        assert!(!checks.correct());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }

    #[test]
    fn length_prefixing_separates_fields() {
        let mut a = Digest::default();
        a.field(b"ab").field(b"c");
        let mut b = Digest::default();
        b.field(b"a").field(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
