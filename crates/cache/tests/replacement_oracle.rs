//! Lockstep oracle for the set-associative cache's replacement state.
//!
//! The production [`SetAssocCache`] keeps each set's LRU/FIFO state as one
//! 16-nibble recency order word, picks a victim in O(1) from its top used
//! rank, detects a full set by testing only its last way, and finds a tag
//! through a byte fingerprint per way before comparing full tags. This
//! test pins all of that against the original stamp-based cache — per-way
//! last-touch/fill sequence numbers, linear tag scans, a linear scan for
//! an empty way and a linear scan for the oldest stamp — kept verbatim as
//! the oracle (minus its cold-miss tracking, which nothing read). Half of
//! the lines the ops name share their tag's low byte with others in their
//! set, so fingerprint collisions are common. Both are driven through
//! identical seeded op streams (reads, writes, prefetch installs, probes,
//! flushes, stat resets) under every policy and every way count from 1 to
//! 16, and must agree on every result and every counter after every op.

use offchip_cache::{
    AccessKind, AccessResult, CacheConfig, CacheStats, ReplacementPolicy, SetAssocCache,
};
use offchip_simcore::FastDiv;
use proptest::prelude::*;

const INVALID_TAG: u64 = u64::MAX;
const MRU_SHIFT: u64 = 56;
const MRU_MASK: u64 = 0xFF << MRU_SHIFT;

/// The original replacement state: LRU/FIFO stamps in the cache's rows,
/// tree-PLRU bits in a private vector.
#[derive(Debug, Clone)]
enum RefReplState {
    Lru,
    TreePlru { bits: Vec<bool> },
    Fifo,
    Random,
}

impl RefReplState {
    fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> RefReplState {
        match policy {
            ReplacementPolicy::Lru => RefReplState::Lru,
            ReplacementPolicy::TreePlru if ways.is_power_of_two() && ways > 1 => {
                RefReplState::TreePlru {
                    bits: vec![false; sets * (ways - 1)],
                }
            }
            ReplacementPolicy::TreePlru => RefReplState::Lru,
            ReplacementPolicy::Fifo => RefReplState::Fifo,
            ReplacementPolicy::Random => RefReplState::Random,
        }
    }

    fn touch(
        &mut self,
        set: usize,
        ways: usize,
        w: usize,
        seq: u64,
        is_fill: bool,
        stamps: &mut [u64],
    ) {
        match self {
            RefReplState::Lru => stamps[w] = seq,
            RefReplState::TreePlru { bits } => {
                let bits = &mut bits[set * (ways - 1)..(set + 1) * (ways - 1)];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = w >= mid;
                    bits[node] = !go_right;
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
            RefReplState::Fifo => {
                if is_fill {
                    stamps[w] = seq;
                }
            }
            RefReplState::Random => {}
        }
    }

    fn victim(&self, set: usize, ways: usize, rng_draw: u64, stamps: &[u64]) -> usize {
        match self {
            RefReplState::Lru | RefReplState::Fifo => {
                let mut best = 0usize;
                let mut best_stamp = stamps[0];
                for (w, &s) in stamps.iter().enumerate().skip(1) {
                    if s < best_stamp {
                        best = w;
                        best_stamp = s;
                    }
                }
                best
            }
            RefReplState::TreePlru { bits } => {
                let bits = &bits[set * (ways - 1)..(set + 1) * (ways - 1)];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = bits[node];
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            RefReplState::Random => (rng_draw % ways as u64) as usize,
        }
    }
}

/// The original cache: `[tags | stamps | flags]` rows of `2·ways + 1`
/// words and a global touch sequence number.
struct RefCache {
    config: CacheConfig,
    meta: Vec<u64>,
    stride: usize,
    state: RefReplState,
    stats: CacheStats,
    seq: u64,
    rng_state: u64,
    line_shift: u32,
    set_div: FastDiv,
}

impl RefCache {
    fn new(config: CacheConfig) -> RefCache {
        let stride = 2 * config.ways + 1;
        let mut meta = vec![0u64; config.sets * stride];
        for row in meta.chunks_exact_mut(stride) {
            row[..config.ways].fill(INVALID_TAG);
        }
        RefCache {
            meta,
            stride,
            state: RefReplState::new(config.policy, config.sets, config.ways),
            stats: CacheStats::default(),
            seq: 0,
            rng_state: 0x9E3779B97F4A7C15,
            line_shift: config.line_bytes.trailing_zeros(),
            set_div: FastDiv::new(config.sets as u64),
            config,
        }
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let (tag, set) = self.set_div.div_rem(line);
        (set as usize, tag)
    }

    fn next_draw(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        self.seq += 1;
        let seq = self.seq;
        let ways = self.config.ways;
        let (set, tag) = self.split(addr);
        let base = set * self.stride;
        let flags_at = base + 2 * ways;
        let flags = self.meta[flags_at];
        let mru_w = (flags >> MRU_SHIFT) as usize;
        if self.meta[base + mru_w] == tag {
            if kind == AccessKind::Write {
                self.meta[flags_at] = flags | (1 << mru_w);
            }
            self.state.touch(
                set,
                ways,
                mru_w,
                seq,
                false,
                &mut self.meta[base + ways..flags_at],
            );
            self.stats.hits += 1;
            return AccessResult::Hit;
        }
        let set_tags = &self.meta[base..base + ways];
        if let Some(w) = set_tags.iter().position(|&t| t == tag) {
            let mut f = flags & !MRU_MASK | ((w as u64) << MRU_SHIFT);
            if kind == AccessKind::Write {
                f |= 1 << w;
            }
            self.meta[flags_at] = f;
            self.state.touch(
                set,
                ways,
                w,
                seq,
                false,
                &mut self.meta[base + ways..flags_at],
            );
            self.stats.hits += 1;
            return AccessResult::Hit;
        }
        self.stats.misses += 1;
        let victim_way = match set_tags.iter().position(|&t| t == INVALID_TAG) {
            Some(w) => w,
            None => {
                let draw = self.next_draw();
                self.state
                    .victim(set, ways, draw, &self.meta[base + ways..flags_at])
            }
        };
        let victim_tag = self.meta[base + victim_way];
        let victim_dirty = flags >> victim_way & 1 != 0;
        let evicted = if victim_tag != INVALID_TAG {
            let victim_line = victim_tag * self.config.sets as u64 + set as u64;
            let victim_addr = victim_line << self.line_shift;
            if victim_dirty {
                self.stats.writebacks += 1;
            }
            Some((victim_addr, victim_dirty))
        } else {
            None
        };
        self.meta[base + victim_way] = tag;
        let mut f = flags & !MRU_MASK & !(1u64 << victim_way) | ((victim_way as u64) << MRU_SHIFT);
        if kind == AccessKind::Write {
            f |= 1 << victim_way;
        }
        self.meta[flags_at] = f;
        self.state.touch(
            set,
            ways,
            victim_way,
            seq,
            true,
            &mut self.meta[base + ways..flags_at],
        );
        AccessResult::Miss { evicted }
    }

    fn install(&mut self, addr: u64) -> Option<(u64, bool)> {
        self.seq += 1;
        let seq = self.seq;
        let ways = self.config.ways;
        let (set, tag) = self.split(addr);
        let base = set * self.stride;
        let flags_at = base + 2 * ways;
        let set_tags = &self.meta[base..base + ways];
        if set_tags.contains(&tag) {
            return None;
        }
        let victim_way = match set_tags.iter().position(|&t| t == INVALID_TAG) {
            Some(w) => w,
            None => {
                let draw = self.next_draw();
                self.state
                    .victim(set, ways, draw, &self.meta[base + ways..flags_at])
            }
        };
        let flags = self.meta[flags_at];
        let victim_tag = self.meta[base + victim_way];
        let evicted = if victim_tag != INVALID_TAG {
            let victim_line = victim_tag * self.config.sets as u64 + set as u64;
            Some((victim_line << self.line_shift, flags >> victim_way & 1 != 0))
        } else {
            None
        };
        self.meta[base + victim_way] = tag;
        self.meta[flags_at] =
            flags & !MRU_MASK & !(1u64 << victim_way) | ((victim_way as u64) << MRU_SHIFT);
        self.state.touch(
            set,
            ways,
            victim_way,
            seq,
            true,
            &mut self.meta[base + ways..flags_at],
        );
        evicted
    }

    fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.split(addr);
        let base = set * self.stride;
        self.meta[base..base + self.config.ways].contains(&tag)
    }

    fn flush(&mut self) {
        let ways = self.config.ways;
        for row in self.meta.chunks_exact_mut(self.stride) {
            row[..ways].fill(INVALID_TAG);
            row[2 * ways] &= MRU_MASK;
        }
    }
}

const POLICIES: [ReplacementPolicy; 4] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::TreePlru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

const LINE_BYTES: u32 = 64;

/// The tag of the `k`-th line a set cycles over. Picks below 32 name
/// tags `0..ways + 3`, with distinct low bytes; the rest name tags that
/// share their low byte (the cache's tag fingerprint) in groups of three,
/// one group's byte being `0xFF`, an empty way's fingerprint, so lookups
/// meet fingerprint collisions with live ways and with empty ones.
fn tag_of(ways: usize, tag_pick: u64) -> u64 {
    let k = tag_pick % (ways as u64 + 3);
    if tag_pick < 32 {
        k
    } else {
        [0x00, 0x01, 0xFF][(k % 3) as usize] + 256 * (k / 3 + 1)
    }
}

/// The byte address an op names. Most ops land on at most three hot sets,
/// each cycling over `2 · (ways + 3)` distinct lines, so sets fill, evict
/// and re-reference constantly; one op in eight goes to any set.
fn address(sets: usize, ways: usize, set_pick: u64, tag_pick: u64) -> u64 {
    let sets = sets as u64;
    let set = if set_pick.is_multiple_of(8) {
        (set_pick / 8) % sets
    } else {
        set_pick % sets.min(3)
    };
    let line = tag_of(ways, tag_pick) * sets + set;
    line * LINE_BYTES as u64 + (set_pick >> 10) % LINE_BYTES as u64
}

/// Runs one op stream through both caches, comparing after every op and
/// finally comparing the residency of every line the stream could name.
fn lockstep(
    sets: usize,
    ways: usize,
    policy: ReplacementPolicy,
    ops: &[(u16, u64, u64)],
) -> Result<(), TestCaseError> {
    let config = CacheConfig {
        sets,
        ways,
        line_bytes: LINE_BYTES,
        policy,
    };
    let mut dut = SetAssocCache::new(config);
    let mut oracle = RefCache::new(config);
    for (i, &(kind, set_pick, tag_pick)) in ops.iter().enumerate() {
        let addr = address(sets, ways, set_pick, tag_pick);
        let at =
            || format!("{policy:?} sets={sets} ways={ways} op {i} (kind {kind}, addr {addr:#x})");
        match kind {
            0..=399 => prop_assert_eq!(
                dut.access(addr, AccessKind::Read),
                oracle.access(addr, AccessKind::Read),
                "read: {}",
                at()
            ),
            400..=699 => prop_assert_eq!(
                dut.access(addr, AccessKind::Write),
                oracle.access(addr, AccessKind::Write),
                "write: {}",
                at()
            ),
            700..=849 => {
                prop_assert_eq!(dut.install(addr), oracle.install(addr), "install: {}", at())
            }
            850..=992 => prop_assert_eq!(dut.probe(addr), oracle.probe(addr), "probe: {}", at()),
            993..=997 => {
                dut.reset_stats();
                oracle.reset_stats();
            }
            _ => {
                dut.flush();
                oracle.flush();
            }
        }
        prop_assert_eq!(dut.stats(), oracle.stats(), "stats: {}", at());
    }
    for set in 0..sets as u64 {
        for tag_pick in 0..64 {
            let addr = (tag_of(ways, tag_pick) * sets as u64 + set) * LINE_BYTES as u64;
            prop_assert_eq!(
                dut.probe(addr),
                oracle.probe(addr),
                "{policy:?} sets={sets} ways={ways}: final residency of {addr:#x}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every observable of the cache must match the stamp-based oracle
    /// after every op, for every policy and every way count 1..=16, over
    /// set counts 1..=64 (non-powers of two included). Flushes are rare
    /// (two ops in a thousand) so most streams run long stretches on full
    /// sets, where the victim choice is what is under test.
    #[test]
    fn cache_matches_stamp_oracle(
        sets in 1usize..65,
        ops in prop::collection::vec((0u16..1000, 0u64..1 << 16, 0u64..64), 1..1200),
    ) {
        for policy in POLICIES {
            for ways in 1..=16 {
                lockstep(sets, ways, policy, &ops)?;
            }
        }
    }
}
