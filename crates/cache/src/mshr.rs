//! Miss-status holding registers (MSHRs).
//!
//! Real cores overlap a bounded number of outstanding cache misses
//! (memory-level parallelism). The MSHR file is what couples a core's
//! progress to memory latency: when it is full the core *must* stall, and
//! when an outstanding line is loaded again the access coalesces instead of
//! issuing a duplicate request. This bounded closed-loop behaviour is what
//! makes contention in the simulator emerge mechanically instead of being
//! assumed (see DESIGN.md §4).

/// Most entries an MSHR file can hold. The entries live inline in the
/// file (no heap allocation), so a file embedded in a thread's context
/// sits next to the rest of that context.
pub const MAX_MSHRS: usize = 16;

/// The entry of a free slot. Entries are line base addresses, whose low
/// bits are zero, so no entry ever equals it.
const FREE: u64 = u64::MAX;

/// A fixed-capacity MSHR file tracking outstanding line addresses.
///
/// Each outstanding miss holds a slot, and a slot keeps its index until
/// the miss completes, so the issuer can carry the index with the fill and
/// complete it without a search.
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Line base address per slot; `FREE` in free slots. Small, so the
    /// coalescing check is a linear scan.
    entries: [u64; MAX_MSHRS],
    /// Bit `i` is set while slot `i` is outstanding.
    live: u16,
    /// Outstanding slots.
    len: usize,
    capacity: usize,
    peak: usize,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a core with no MSHRs could never miss)
    /// or `capacity > MAX_MSHRS`.
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "MSHR capacity must be positive");
        assert!(
            capacity <= MAX_MSHRS,
            "MSHR capacity {capacity} exceeds the {MAX_MSHRS} entries a file holds"
        );
        MshrFile {
            entries: [FREE; MAX_MSHRS],
            live: 0,
            len: 0,
            capacity,
            peak: 0,
        }
    }

    /// Capacity in entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently outstanding misses.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.len
    }

    /// Whether a new (non-coalescing) miss can be accepted.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.len < self.capacity
    }

    /// Whether `line_addr` is already outstanding.
    #[inline]
    pub fn is_outstanding(&self, line_addr: u64) -> bool {
        self.entries[..self.capacity].contains(&line_addr)
    }

    /// Tries to register a miss for the line-aligned `line_addr`.
    ///
    /// Returns `Allocated(slot)` when a new entry was taken, `Coalesced`
    /// when the line was already in flight (no new memory request needed),
    /// or `Full` when the file has no room (the core must stall until a
    /// fill).
    #[inline]
    pub fn allocate(&mut self, line_addr: u64) -> MshrOutcome {
        debug_assert_ne!(line_addr, FREE, "not a line base address");
        if self.is_outstanding(line_addr) {
            return MshrOutcome::Coalesced;
        }
        if !self.has_room() {
            return MshrOutcome::Full;
        }
        // With room left, some slot below `capacity` is free.
        let slot = (!self.live).trailing_zeros() as usize;
        self.entries[slot] = line_addr;
        self.live |= 1 << slot;
        self.len += 1;
        self.peak = self.peak.max(self.len);
        MshrOutcome::Allocated(slot)
    }

    /// Completes the miss holding `slot`, freeing it.
    ///
    /// # Panics
    /// Panics if the slot is not outstanding — a fill for a request never
    /// sent is always a simulator bug.
    #[inline]
    pub fn complete(&mut self, slot: usize) {
        assert!(
            slot < MAX_MSHRS && self.live >> slot & 1 == 1,
            "completing a fill that was never requested"
        );
        self.live &= !(1 << slot);
        self.entries[slot] = FREE;
        self.len -= 1;
    }

    /// Highest simultaneous occupancy observed.
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak
    }
}

/// Result of [`MshrFile::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated in the given slot; a memory request must
    /// be issued, and its fill completes that slot.
    Allocated(usize),
    /// The line is already in flight; wait for the existing fill.
    Coalesced,
    /// No room; the core must stall until an entry frees.
    Full,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_refuses() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(0x40), MshrOutcome::Allocated(0));
        assert_eq!(m.allocate(0x80), MshrOutcome::Allocated(1));
        assert_eq!(m.allocate(0xC0), MshrOutcome::Full);
        assert_eq!(m.in_flight(), 2);
        assert_eq!(m.peak(), 2);
    }

    #[test]
    fn coalesces_duplicate_lines() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(0x40), MshrOutcome::Allocated(0));
        assert_eq!(m.allocate(0x40), MshrOutcome::Coalesced);
        assert_eq!(m.in_flight(), 1);
    }

    #[test]
    fn complete_frees_room() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.allocate(0x40), MshrOutcome::Allocated(0));
        assert_eq!(m.allocate(0x80), MshrOutcome::Full);
        m.complete(0);
        assert!(m.has_room());
        assert!(!m.is_outstanding(0x40));
        assert_eq!(m.allocate(0x80), MshrOutcome::Allocated(0));
        assert_eq!(m.peak(), 1);
    }

    #[test]
    fn slots_keep_their_index_until_completed() {
        let mut m = MshrFile::new(MAX_MSHRS);
        for i in 0..MAX_MSHRS {
            assert_eq!(m.allocate(i as u64 * 64), MshrOutcome::Allocated(i));
        }
        assert_eq!(m.allocate(0x10_0000), MshrOutcome::Full);
        // Completing from the middle keeps the others outstanding, and
        // the freed slot is the next one handed out.
        m.complete(5);
        assert_eq!(m.in_flight(), MAX_MSHRS - 1);
        assert!(!m.is_outstanding(5 * 64));
        assert!((0..MAX_MSHRS as u64)
            .filter(|&i| i != 5)
            .all(|i| m.is_outstanding(i * 64)));
        assert_eq!(m.allocate(0x10_0000), MshrOutcome::Allocated(5));
        assert_eq!(m.peak(), MAX_MSHRS);
    }

    #[test]
    #[should_panic(expected = "never requested")]
    fn spurious_fill_panics() {
        MshrFile::new(1).complete(0);
    }

    #[test]
    #[should_panic(expected = "never requested")]
    fn double_fill_panics() {
        let mut m = MshrFile::new(2);
        m.allocate(0x40);
        m.complete(0);
        m.complete(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        MshrFile::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn capacity_beyond_the_inline_entries_rejected() {
        MshrFile::new(MAX_MSHRS + 1);
    }
}
