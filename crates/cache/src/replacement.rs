//! Replacement policies for set-associative caches.
//!
//! The paper's machines use (approximations of) LRU in their caches; the
//! other policies exist for the ablation benches, which show that the
//! contention results are insensitive to the exact policy — the off-chip
//! request *rate* is a capacity phenomenon.

/// Which line of a set to evict on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (exact stack algorithm).
    Lru,
    /// Tree pseudo-LRU: one bit per internal node of a binary tree over the
    /// ways, as implemented by most real L1/L2 caches. Requires the number
    /// of ways to be a power of two (real PLRU trees do); non-power-of-two
    /// configurations fall back to LRU.
    TreePlru,
    /// Evict the way that was filled first.
    Fifo,
    /// Evict a uniformly random way (deterministic internal stream).
    Random,
}

/// Most ways a set can have: an LRU/FIFO order word holds one four-bit
/// way index per way.
pub(crate) const MAX_WAYS: usize = 16;

/// An order word naming way `i` at rank `i`: the state every set starts in.
const IDENTITY_ORDER: u64 = 0xFEDC_BA98_7654_3210;
/// The low bit of every nibble.
const NIBBLE_LOW: u64 = 0x1111_1111_1111_1111;
/// The high bit of every nibble.
const NIBBLE_HIGH: u64 = 0x8888_8888_8888_8888;

/// Replacement behaviour for one cache: the policy actually run, with
/// tree-PLRU over a non-power-of-two way count resolved to LRU.
///
/// The state itself is one `u64` per set, kept in the cache's per-set
/// metadata row next to the tags and passed in by the caller:
///
/// * **LRU and FIFO** keep a recency order of 16 four-bit way indices,
///   rank 0 (most recent) in the low nibble. A touch moves the way to
///   rank 0 and the victim is the way at rank `ways - 1`, so both are
///   O(1) in the way count. Ranks at and above `ways` keep their identity
///   entries, so every way index occurs exactly once in the word. FIFO
///   moves a way only when it is filled, which makes rank order fill
///   order.
/// * **Tree-PLRU** keeps one bit per internal tree node, in heap order;
///   a clear bit means the left subtree is colder.
/// * **Random** keeps nothing; its victim comes from the cache's RNG
///   stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplState {
    Lru,
    TreePlru,
    Fifo,
    Random,
}

impl ReplState {
    pub(crate) fn new(policy: ReplacementPolicy, ways: usize) -> ReplState {
        match policy {
            ReplacementPolicy::Lru => ReplState::Lru,
            ReplacementPolicy::TreePlru if ways.is_power_of_two() && ways > 1 => {
                ReplState::TreePlru
            }
            ReplacementPolicy::TreePlru => ReplState::Lru,
            ReplacementPolicy::Fifo => ReplState::Fifo,
            ReplacementPolicy::Random => ReplState::Random,
        }
    }

    /// The state word of a set no line has touched yet.
    pub(crate) fn initial_word(self) -> u64 {
        match self {
            ReplState::TreePlru => 0,
            _ => IDENTITY_ORDER,
        }
    }

    /// Records a touch (hit or fill) of way `w` in a set's state `word`.
    #[inline]
    pub(crate) fn touch(self, word: &mut u64, ways: usize, w: usize, is_fill: bool) {
        match self {
            ReplState::Lru => *word = move_to_front(*word, w),
            ReplState::Fifo if is_fill => *word = move_to_front(*word, w),
            ReplState::TreePlru => {
                // Walk root→leaf, pointing every node *away* from w.
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = w >= mid;
                    // The cold side is the one not taken.
                    *word = *word & !(1 << node) | u64::from(!go_right) << node;
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
            ReplState::Fifo | ReplState::Random => {}
        }
    }

    /// Chooses the victim way of a full set from its state `word`;
    /// `rng_draw` supplies randomness for the random policy.
    #[inline]
    pub(crate) fn victim(self, word: u64, ways: usize, rng_draw: u64) -> usize {
        match self {
            ReplState::Lru | ReplState::Fifo => (word >> (4 * (ways - 1)) & 0xF) as usize,
            ReplState::TreePlru => {
                // Follow the cold bits root→leaf.
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = word >> node & 1 != 0;
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            ReplState::Random => (rng_draw % ways as u64) as usize,
        }
    }
}

/// Moves way `w` to rank 0 of an order word; the ways ranked above it
/// each move down one rank, the ways ranked below it stay put.
#[inline]
fn move_to_front(order: u64, w: usize) -> u64 {
    // The nibble holding w becomes the only zero nibble.
    let x = order ^ (w as u64 * NIBBLE_LOW);
    // SWAR zero test: the lowest set bit marks the lowest zero nibble
    // exactly (borrows can only set false bits above it).
    let zero = x.wrapping_sub(NIBBLE_LOW) & !x & NIBBLE_HIGH;
    // Every nibble from rank 0 up to and including w's rank.
    let upto = zero ^ (zero - 1);
    order & !upto | (order << 4) & upto | w as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Harness holding the per-set state words the cache would own.
    struct Policy {
        state: ReplState,
        words: Vec<u64>,
        ways: usize,
    }

    impl Policy {
        fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> Policy {
            let state = ReplState::new(policy, ways);
            Policy {
                state,
                words: vec![state.initial_word(); sets],
                ways,
            }
        }

        fn touch(&mut self, set: usize, w: usize, is_fill: bool) {
            self.state
                .touch(&mut self.words[set], self.ways, w, is_fill);
        }

        fn victim(&self, set: usize, rng_draw: u64) -> usize {
            self.state.victim(self.words[set], self.ways, rng_draw)
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = Policy::new(ReplacementPolicy::Lru, 1, 4);
        for w in [0, 1, 2, 3, 0] {
            s.touch(0, w, false);
        }
        // Way 1 is now least recently used.
        assert_eq!(s.victim(0, 0), 1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut s = Policy::new(ReplacementPolicy::Fifo, 1, 2);
        s.touch(0, 0, true);
        s.touch(0, 1, true);
        s.touch(0, 0, false); // hit: does not refresh FIFO age
        assert_eq!(s.victim(0, 0), 0, "way 0 was filled first");
        s.touch(0, 0, true); // refill
        assert_eq!(s.victim(0, 0), 1);
    }

    #[test]
    fn lru_order_spans_all_sixteen_ranks() {
        // Touching 15..=0 in turn leaves way 15 at rank 15, the top nibble.
        let mut s = Policy::new(ReplacementPolicy::Lru, 1, 16);
        for w in (0..16).rev() {
            s.touch(0, w, false);
        }
        assert_eq!(s.victim(0, 0), 15);
        // Promoting the top-ranked way exposes the next one down.
        s.touch(0, 15, false);
        assert_eq!(s.victim(0, 0), 14);
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        let mut s = Policy::new(ReplacementPolicy::TreePlru, 1, 8);
        for w in 0..8 {
            s.touch(0, w, true);
        }
        for w in 0..8 {
            s.touch(0, w, false);
            assert_ne!(s.victim(0, 0), w, "PLRU must not evict the MRU way");
        }
    }

    #[test]
    fn plru_falls_back_to_lru_for_odd_ways() {
        let s = ReplState::new(ReplacementPolicy::TreePlru, 3);
        assert_eq!(s, ReplState::Lru);
    }

    #[test]
    fn random_uses_draw() {
        let s = Policy::new(ReplacementPolicy::Random, 1, 4);
        assert_eq!(s.victim(0, 7), 3);
        assert_eq!(s.victim(0, 8), 0);
    }

    #[test]
    fn plru_cycles_through_all_ways() {
        // Repeatedly evicting and filling must touch every way eventually.
        let mut s = Policy::new(ReplacementPolicy::TreePlru, 1, 4);
        let mut seen = [false; 4];
        for _ in 0..16 {
            let v = s.victim(0, 0);
            seen[v] = true;
            s.touch(0, v, true);
        }
        assert!(seen.iter().all(|&x| x), "seen={seen:?}");
    }

    #[test]
    fn sets_are_independent() {
        let mut s = Policy::new(ReplacementPolicy::Lru, 2, 2);
        s.touch(0, 0, false);
        s.touch(0, 1, false);
        s.touch(1, 1, false);
        s.touch(1, 0, false);
        assert_eq!(s.victim(0, 0), 0, "set 0 LRU is way 0");
        assert_eq!(s.victim(1, 0), 1, "set 1 LRU is way 1");
    }

    #[test]
    fn plru_sets_are_independent() {
        let mut s = Policy::new(ReplacementPolicy::TreePlru, 2, 4);
        s.touch(0, 3, true);
        // Set 1's tree is untouched: victim stays at way 0.
        assert_eq!(s.victim(1, 0), 0);
        assert_ne!(s.victim(0, 0), 3);
    }
}
