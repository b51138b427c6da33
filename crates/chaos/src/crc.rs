//! CRC-32 (IEEE 802.3), the per-record integrity check of the campaign
//! journal. Bitwise rather than table-driven: journal lines are a couple
//! of hundred bytes, so the table would be all footprint and no win.

/// CRC-32/ISO-HDLC of `data` (polynomial `0xEDB88320`, reflected,
/// initial and final XOR `0xFFFFFFFF`) — the classic zlib/`cksum -o 3`
/// checksum. Detects every single-bit flip and every burst shorter than
/// 32 bits, which covers the torn-append and bit-rot corruptions the
/// journal reader must recognise.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The check value every CRC-32/ISO-HDLC implementation must match.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let base = b"{\"n\":4,\"seed\":11,\"total_cycles\":123456789}";
        let want = crc32(base);
        let mut buf = base.to_vec();
        for i in 0..buf.len() {
            for bit in 0..8 {
                buf[i] ^= 1 << bit;
                assert_ne!(crc32(&buf), want, "flip at byte {i} bit {bit}");
                buf[i] ^= 1 << bit;
            }
        }
    }
}
