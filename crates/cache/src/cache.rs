//! A single set-associative cache.

use offchip_simcore::FastDiv;

use crate::replacement::{ReplState, ReplacementPolicy, MAX_WAYS};

/// Read or write access. Writes mark the line dirty; dirty victims are
/// reported so the memory model can account for write-backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (any positive count; indexing is modulo, so
    /// non-power-of-two set counts produced by geometric scaling work).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Derives a configuration from a capacity in bytes, flooring the set
    /// count at 1.
    ///
    /// # Panics
    /// Panics if `ways == 0`, or `line_bytes` is zero / not a power of two.
    pub fn from_capacity(
        capacity_bytes: u64,
        ways: usize,
        line_bytes: u32,
        policy: ReplacementPolicy,
    ) -> CacheConfig {
        assert!(ways > 0, "cache must have at least one way");
        assert!(
            line_bytes > 0 && line_bytes.is_power_of_two(),
            "line size must be a positive power of two"
        );
        let sets = ((capacity_bytes / (ways as u64 * line_bytes as u64)) as usize).max(1);
        CacheConfig {
            sets,
            ways,
            line_bytes,
            policy,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes as u64
    }
}

/// Outcome of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present.
    Hit,
    /// The line was absent. The line is installed; if a valid line was
    /// evicted to make room, its address and dirtiness are reported.
    Miss {
        /// Evicted victim: `(line_base_address, was_dirty)`.
        evicted: Option<(u64, bool)>,
    },
}

impl AccessResult {
    /// True for [`AccessResult::Hit`].
    #[inline]
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Dirty evictions (write-backs generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Sentinel tag marking an invalid (empty) way. A real tag is
/// `line_id / sets` with `line_id = addr >> line_shift`, so it could only
/// collide with the sentinel for byte addresses at the very top of the
/// 64-bit space — which no workload layout produces (the bump allocator
/// starts at one page and grows upward by working-set bytes).
const INVALID_TAG: u64 = u64::MAX;

/// Row offset of the flags word: the per-way dirty mask in the low bits,
/// the MRU way in the top byte.
const FLAGS: usize = 0;
/// Row offset of the set's replacement state word (see `ReplState`).
const REPL: usize = 1;
/// Row offset of the two fingerprint words: byte `w % 8` of word `w / 8`
/// holds the low byte of way `w`'s tag (`0xFF` for an empty way, the low
/// byte of `INVALID_TAG`).
const FPS: usize = 2;
/// Row offset of the first tag.
const TAGS: usize = 4;

/// Bit position of the MRU way inside the flags word.
const MRU_SHIFT: u64 = 56;
/// Mask selecting the MRU byte of a flags word.
const MRU_MASK: u64 = 0xFF << MRU_SHIFT;

/// The low bit of every byte.
const BYTE_LOW: u64 = 0x0101_0101_0101_0101;
/// The low seven bits of every byte.
const BYTE_LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// Sets the high bit of exactly those bytes of `x` that are zero (no
/// borrow crosses a byte, so there are no false positives).
#[inline]
fn zero_bytes(x: u64) -> u64 {
    !(((x & BYTE_LOW7) + BYTE_LOW7) | x | BYTE_LOW7)
}

/// The way of `row` holding `tag`, if any. The fingerprint words narrow
/// the candidates to the ways whose tag shares `tag`'s low byte; each
/// candidate's full tag is then compared, so a fingerprint collision
/// only costs one more compare. `way_masks` keeps the high bit of each
/// byte that names a way of this cache.
#[inline]
fn find(row: &[u64], way_masks: [u64; 2], tag: u64) -> Option<usize> {
    let probe = (tag & 0xFF) * BYTE_LOW;
    for (word, mask) in way_masks.into_iter().enumerate() {
        let mut candidates = zero_bytes(row[FPS + word] ^ probe) & mask;
        while candidates != 0 {
            let w = 8 * word + (candidates.trailing_zeros() / 8) as usize;
            if row[TAGS + w] == tag {
                return Some(w);
            }
            candidates &= candidates - 1;
        }
    }
    None
}

/// A set-associative cache with write-back, write-allocate semantics.
///
/// All per-set metadata is one contiguous row of `ways + 4` words —
/// `[flags | replacement state | fingerprints × 2 | tags]`. The flags
/// word packs the per-way dirty mask with the MRU way; the replacement
/// word is the policy's whole per-set state (for LRU and FIFO a recency
/// order of four-bit way indices, which is what caps associativity at
/// 16); the fingerprint words hold one byte of each way's tag, so a
/// lookup compares all ways at once with a few word operations and reads
/// a full tag only where the byte matches. The reference workloads miss
/// far more than they hit, and a miss needs all of this state — tag
/// lookup, victim, victim dirtiness, MRU update — so as one row it is
/// one or two adjacent host-cache lines.
///
/// Ways fill in index order and only [`flush`](Self::flush) empties them,
/// so the valid ways of a set are always a prefix: a set is full exactly
/// when its last way is valid. A miss into a full set therefore tests one
/// tag and asks the policy for its victim in O(1), with no scan for an
/// empty way and no scan over per-way ages.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `sets` rows of `stride` words: flags, replacement state, two
    /// fingerprint words, then `ways` tags (`INVALID_TAG` = empty way).
    meta: Vec<u64>,
    /// Row stride: `ways + 4`.
    stride: usize,
    /// The high bit of each fingerprint byte that names a way.
    way_masks: [u64; 2],
    state: ReplState,
    stats: CacheStats,
    rng_state: u64, // xorshift64* stream for the random policy
    line_shift: u32,
    set_div: FastDiv, // exact strength-reduced divide by the set count
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    /// Panics if `sets` is zero or `ways` is outside `1..=16`.
    pub fn new(config: CacheConfig) -> SetAssocCache {
        assert!(config.sets > 0, "cache must have at least one set");
        assert!(
            (1..=MAX_WAYS).contains(&config.ways),
            "cache ways must be in 1..={MAX_WAYS}, got {}",
            config.ways
        );
        let state = ReplState::new(config.policy, config.ways);
        let stride = config.ways + TAGS;
        // Every tag and every fingerprint byte starts empty.
        let mut row = vec![INVALID_TAG; stride];
        row[FLAGS] = 0;
        row[REPL] = state.initial_word();
        let mut way_masks = [0u64; 2];
        for w in 0..config.ways {
            way_masks[w / 8] |= 0x80 << (8 * (w % 8));
        }
        SetAssocCache {
            meta: row.repeat(config.sets),
            stride,
            way_masks,
            state,
            stats: CacheStats::default(),
            rng_state: 0x9E3779B97F4A7C15,
            line_shift: config.line_bytes.trailing_zeros(),
            set_div: FastDiv::new(config.sets as u64),
            config,
        }
    }

    /// The cache's configuration.
    #[inline]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (not contents); used to exclude warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let (tag, set) = self.set_div.div_rem(line);
        (set as usize, tag)
    }

    #[inline]
    fn row(&self, set: usize) -> &[u64] {
        let base = set * self.stride;
        &self.meta[base..base + self.stride]
    }

    #[inline]
    fn next_draw(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Performs one access at byte address `addr`.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let (set, tag) = self.split(addr);
        let dirty = u64::from(kind == AccessKind::Write);
        let base = set * self.stride;
        let row = &mut self.meta[base..base + self.stride];
        let flags = row[FLAGS];
        // MRU fast path: one compare for the overwhelmingly common
        // same-line re-reference (spatial locality puts several references
        // on each 64-byte line). A real tag never equals INVALID_TAG, so
        // an empty MRU way simply falls through. The MRU way is the last
        // way touched, and touching it again leaves every policy's state
        // as it is, so this path skips the policy altogether.
        let mru_w = (flags >> MRU_SHIFT) as usize;
        if row[TAGS + mru_w] == tag {
            row[FLAGS] = flags | dirty << mru_w;
            self.stats.hits += 1;
            return AccessResult::Hit;
        }
        if let Some(w) = find(row, self.way_masks, tag) {
            row[FLAGS] = flags & !MRU_MASK | (w as u64) << MRU_SHIFT | dirty << w;
            self.state.touch(&mut row[REPL], self.config.ways, w, false);
            self.stats.hits += 1;
            return AccessResult::Hit;
        }
        self.stats.misses += 1;
        let evicted = self.fill(set, tag, dirty);
        if let Some((_, true)) = evicted {
            self.stats.writebacks += 1;
        }
        AccessResult::Miss { evicted }
    }

    /// Installs a line without touching hit/miss statistics — the fill
    /// path of a hardware prefetch, whose accuracy is accounted separately
    /// by the issuer. Evicted dirty victims are still reported (they cost
    /// a write-back regardless of why the fill happened).
    pub fn install(&mut self, addr: u64) -> Option<(u64, bool)> {
        let (set, tag) = self.split(addr);
        if find(self.row(set), self.way_masks, tag).is_some() {
            return None; // already resident
        }
        self.fill(set, tag, 0)
    }

    /// Puts absent line `tag` into `set` as its MRU way, dirty when
    /// `dirty` is 1. Returns the evicted line and its dirtiness when the
    /// set was full.
    #[inline]
    fn fill(&mut self, set: usize, tag: u64, dirty: u64) -> Option<(u64, bool)> {
        let ways = self.config.ways;
        let base = set * self.stride;
        // Valid ways are a prefix (see the type docs).
        let full = self.meta[base + TAGS + ways - 1] != INVALID_TAG;
        let way = if full {
            // Only the random policy consumes draws, and only here, so
            // skipping the stream elsewhere leaves its sequence unchanged.
            let draw = if self.state == ReplState::Random {
                self.next_draw()
            } else {
                0
            };
            self.state.victim(self.meta[base + REPL], ways, draw)
        } else {
            self.row(set)[TAGS..]
                .iter()
                .position(|&t| t == INVALID_TAG)
                .expect("a set that is not full has an empty way")
        };
        let row = &mut self.meta[base..base + self.stride];
        let flags = row[FLAGS];
        let victim_tag = std::mem::replace(&mut row[TAGS + way], tag);
        let fp_shift = 8 * (way % 8);
        let fp = &mut row[FPS + way / 8];
        *fp = *fp & !(0xFF << fp_shift) | (tag & 0xFF) << fp_shift;
        row[FLAGS] = flags & !MRU_MASK & !(1 << way) | (way as u64) << MRU_SHIFT | dirty << way;
        self.state.touch(&mut row[REPL], ways, way, true);
        full.then(|| {
            let victim_line = victim_tag * self.config.sets as u64 + set as u64;
            (victim_line << self.line_shift, flags >> way & 1 != 0)
        })
    }

    /// Checks residency without touching replacement state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.split(addr);
        find(self.row(set), self.way_masks, tag).is_some()
    }

    /// Invalidates every line (statistics are kept).
    pub fn flush(&mut self) {
        for row in self.meta.chunks_exact_mut(self.stride) {
            row[FPS..].fill(INVALID_TAG);
            // Clear the dirty mask; the MRU hint may go stale (it falls
            // through to the scan on a mismatch, so outcomes are
            // unaffected either way). The replacement word stays: a set
            // refills every way before it next needs a victim, and each
            // fill updates the word.
            row[FLAGS] &= MRU_MASK;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(sets: usize, ways: usize) -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            sets,
            ways,
            line_bytes: 64,
            policy: ReplacementPolicy::Lru,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(4, 2);
        assert!(!c.access(0x1000, AccessKind::Read).is_hit());
        assert!(c.access(0x1000, AccessKind::Read).is_hit());
        // Same line, different byte.
        assert!(c.access(0x103F, AccessKind::Read).is_hit());
        // Next line misses.
        assert!(!c.access(0x1040, AccessKind::Read).is_hit());
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn conflict_eviction_in_one_set() {
        // 1 set, 2 ways: third distinct line evicts the LRU one.
        let mut c = tiny(1, 2);
        c.access(0x0, AccessKind::Read);
        c.access(0x40, AccessKind::Read);
        c.access(0x0, AccessKind::Read); // touch: 0x40 becomes LRU
        let r = c.access(0x80, AccessKind::Read);
        match r {
            AccessResult::Miss {
                evicted: Some((addr, dirty)),
            } => {
                assert_eq!(addr, 0x40);
                assert!(!dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert!(c.probe(0x80));
    }

    #[test]
    fn dirty_victims_reported_and_counted() {
        let mut c = tiny(1, 1);
        c.access(0x0, AccessKind::Write);
        let r = c.access(0x40, AccessKind::Read);
        assert_eq!(
            r,
            AccessResult::Miss {
                evicted: Some((0x0, true))
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny(1, 1);
        c.access(0x0, AccessKind::Read);
        c.access(0x0, AccessKind::Write); // hit, marks dirty
        let r = c.access(0x40, AccessKind::Read);
        assert_eq!(
            r,
            AccessResult::Miss {
                evicted: Some((0x0, true))
            }
        );
    }

    #[test]
    fn capacity_constructor_geometry() {
        let cfg = CacheConfig::from_capacity(12 * 1024 * 1024, 16, 64, ReplacementPolicy::Lru);
        assert_eq!(cfg.sets, 12 * 1024 * 1024 / (16 * 64));
        assert_eq!(cfg.capacity_bytes(), 12 * 1024 * 1024);
        // Sub-set capacity floors at one set.
        let tiny_cfg = CacheConfig::from_capacity(1, 4, 64, ReplacementPolicy::Lru);
        assert_eq!(tiny_cfg.sets, 1);
    }

    #[test]
    fn non_power_of_two_sets_work() {
        let cfg = CacheConfig {
            sets: 3,
            ways: 2,
            line_bytes: 64,
            policy: ReplacementPolicy::Lru,
        };
        let mut c = SetAssocCache::new(cfg);
        // Lines 0..6 spread over 3 sets (0,1,2,0,1,2): all fit.
        for l in 0..6u64 {
            c.access(l * 64, AccessKind::Read);
        }
        for l in 0..6u64 {
            assert!(c.probe(l * 64), "line {l} should be resident");
        }
    }

    #[test]
    fn lru_working_set_fits_no_capacity_misses() {
        // 64-set, 8-way cache: a 512-line working set fits exactly.
        let mut c = tiny(64, 8);
        let lines = 512u64;
        for pass in 0..5 {
            for l in 0..lines {
                let r = c.access(l * 64, AccessKind::Read);
                if pass > 0 {
                    assert!(r.is_hit(), "pass {pass} line {l} should hit");
                }
            }
        }
        assert_eq!(c.stats().misses, lines);
    }

    #[test]
    fn lru_cyclic_overflow_thrashes() {
        // Classic LRU pathology: cyclic sweep over ws > capacity misses
        // every time.
        let mut c = tiny(4, 2); // 8 lines capacity
        let lines = 16u64;
        for _ in 0..3 {
            for l in 0..lines {
                c.access(l * 64, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 3 * lines);
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = tiny(1, 2);
        c.access(0x0, AccessKind::Read);
        c.access(0x40, AccessKind::Read);
        for _ in 0..10 {
            assert!(c.probe(0x0));
        }
        // 0x0 is still LRU despite the probes; it must be the victim.
        let r = c.access(0x80, AccessKind::Read);
        assert_eq!(
            r,
            AccessResult::Miss {
                evicted: Some((0x0, false))
            }
        );
    }

    #[test]
    fn flush_invalidates_but_keeps_stats() {
        let mut c = tiny(2, 2);
        c.access(0x0, AccessKind::Write);
        c.flush();
        assert!(!c.probe(0x0));
        assert_eq!(c.stats().misses, 1);
        // Refill does not report a victim (lines were invalidated).
        let r = c.access(0x0, AccessKind::Read);
        assert_eq!(r, AccessResult::Miss { evicted: None });
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny(1, 1);
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0x0, AccessKind::Read);
        c.access(0x0, AccessKind::Read);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn install_fills_without_stats() {
        let mut c = tiny(2, 2);
        assert_eq!(c.install(0x1000), None);
        assert!(c.probe(0x1000), "installed line resident");
        assert_eq!(c.stats().accesses(), 0, "install is invisible to stats");
        // A later demand access hits.
        assert!(c.access(0x1000, AccessKind::Read).is_hit());
    }

    #[test]
    fn install_reports_dirty_victims() {
        let mut c = tiny(1, 1);
        c.access(0x0, AccessKind::Write);
        let victim = c.install(0x40);
        assert_eq!(victim, Some((0x0, true)));
        // Installing a resident line is a no-op.
        assert_eq!(c.install(0x40), None);
    }

    #[test]
    fn random_policy_still_caches() {
        let mut c = SetAssocCache::new(CacheConfig {
            sets: 16,
            ways: 4,
            line_bytes: 64,
            policy: ReplacementPolicy::Random,
        });
        for _ in 0..3 {
            for l in 0..32u64 {
                c.access(l * 64, AccessKind::Read);
            }
        }
        // Working set (32 lines) fits in 64-line cache: after the cold pass
        // everything hits even with random replacement (no conflicts since
        // 2 lines/set ≤ 4 ways).
        assert_eq!(c.stats().misses, 32);
    }
}
