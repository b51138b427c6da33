//! Address → (channel, bank, row) mapping.
//!
//! Consecutive cache lines interleave across channels (the standard
//! fine-grained interleave that lets streaming workloads use all channels);
//! within a channel, a run of lines fills a row of one bank, and rows
//! interleave across banks.

/// Decomposition of a line address into DRAM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCoord {
    /// Channel index.
    pub channel: u32,
    /// Bank index within the channel.
    pub bank: u32,
    /// Row index within the bank (open-row tracking compares these).
    pub row: u64,
}

use offchip_simcore::FastDiv;

/// The mapping function, fixed per controller.
///
/// The decomposition divisors (line size, channels, lines-per-row, banks)
/// are fixed at construction, so each is a precomputed [`FastDiv`]:
/// `map` runs on every off-chip request and several of the divisors are
/// not powers of two (3-channel controllers, scaled geometries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    line_div: FastDiv,
    channel_div: FastDiv,
    row_div: FastDiv,
    bank_div: FastDiv,
}

impl AddressMapping {
    /// Creates a mapping.
    ///
    /// # Panics
    /// Panics on zero channels/banks, a non-power-of-two line size, or a
    /// row smaller than one line.
    pub fn new(channels: u32, banks: u32, line_bytes: u32, row_bytes: u64) -> AddressMapping {
        assert!(channels > 0 && banks > 0, "need channels and banks");
        assert!(
            line_bytes > 0 && line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            row_bytes >= line_bytes as u64,
            "row must hold at least one line"
        );
        AddressMapping {
            line_div: FastDiv::new(line_bytes as u64),
            channel_div: FastDiv::new(channels as u64),
            row_div: FastDiv::new(row_bytes / line_bytes as u64),
            bank_div: FastDiv::new(banks as u64),
        }
    }

    /// Maps a byte address.
    pub fn map(&self, addr: u64) -> DramCoord {
        let line = self.line_div.div(addr);
        let (channel_line, channel) = self.channel_div.div_rem(line);
        let row_seq = self.row_div.div(channel_line);
        let (row, bank) = self.bank_div.div_rem(row_seq);
        DramCoord {
            channel: channel as u32,
            bank: bank as u32,
            row,
        }
    }

    /// Number of channels.
    #[inline]
    pub fn channels(&self) -> u32 {
        self.channel_div.divisor() as u32
    }

    /// Banks per channel.
    #[inline]
    pub fn banks(&self) -> u32 {
        self.bank_div.divisor() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_lines_interleave_channels() {
        let m = AddressMapping::new(3, 8, 64, 2048);
        let coords: Vec<u32> = (0..6).map(|l| m.map(l * 64).channel).collect();
        assert_eq!(coords, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn lines_within_a_row_share_bank_and_row() {
        let m = AddressMapping::new(1, 4, 64, 2048); // 32 lines per row
        let first = m.map(0);
        let last = m.map(31 * 64);
        assert_eq!(first.bank, last.bank);
        assert_eq!(first.row, last.row);
        let next = m.map(32 * 64);
        assert_ne!(next.bank, first.bank, "next row goes to the next bank");
    }

    #[test]
    fn rows_interleave_banks_then_advance() {
        let m = AddressMapping::new(1, 2, 64, 128); // 2 lines per row
                                                    // row_seq: line/2 -> bank = row_seq % 2, row = row_seq / 2.
        assert_eq!(m.map(0).bank, 0);
        assert_eq!(m.map(2 * 64).bank, 1);
        assert_eq!(m.map(4 * 64).bank, 0);
        assert_eq!(m.map(4 * 64).row, 1);
    }

    #[test]
    fn streaming_covers_all_channels_and_banks() {
        let m = AddressMapping::new(2, 4, 64, 512);
        let mut seen = std::collections::HashSet::new();
        for l in 0..1024u64 {
            let c = m.map(l * 64);
            seen.insert((c.channel, c.bank));
        }
        assert_eq!(seen.len(), 8, "2 channels × 4 banks all touched");
    }

    #[test]
    #[should_panic(expected = "row must hold")]
    fn tiny_row_rejected() {
        AddressMapping::new(1, 1, 64, 32);
    }
}
