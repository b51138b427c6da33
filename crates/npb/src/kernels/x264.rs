//! x264 proxy: block motion estimation, the hot loop of H.264 encoding.
//!
//! PARSEC's x264 spends the bulk of its cycles in motion estimation:
//! for every 16×16 macroblock of the current frame, search a window of
//! the reference frame for the displacement minimising the sum of
//! absolute differences (SAD). This proxy implements exactly that —
//! synthetic luma frames, exhaustive search over ±`range` pixels,
//! parallel over macroblock rows — and verifies itself by recovering
//! known global motion.

use crate::npb_rng::NpbRng;

/// A luma-only frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
    /// Row-major samples.
    pub data: Vec<u8>,
}

impl Frame {
    /// Sample at `(x, y)`.
    #[inline]
    pub fn px(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.w + x]
    }
}

/// Smooth deterministic texture sampled with a global shift — frame `t`
/// of a panning scene.
pub fn synth_frame(w: usize, h: usize, shift_x: i64, shift_y: i64) -> Frame {
    let mut data = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            let sx = x as i64 + shift_x;
            let sy = y as i64 + shift_y;
            // Band-limited texture: sums of incommensurate sinusoids, so
            // SAD has a unique minimum at the true displacement.
            let v = 96.0
                + 50.0 * ((sx as f64) * 0.137).sin()
                + 40.0 * ((sy as f64) * 0.093).cos()
                + 30.0 * ((sx as f64) * 0.041 + (sy as f64) * 0.067).sin();
            data.push(v.clamp(0.0, 255.0) as u8);
        }
    }
    Frame { w, h, data }
}

/// A noisy static frame for the no-motion test path.
pub fn synth_noise_frame(w: usize, h: usize, seed: f64) -> Frame {
    let mut rng = NpbRng::new(seed);
    Frame {
        w,
        h,
        data: (0..w * h).map(|_| (rng.next() * 255.0) as u8).collect(),
    }
}

/// Macroblock edge in pixels.
pub const MB: usize = 16;

/// Sum of absolute differences between the `MB×MB` block at `(cx, cy)` in
/// `cur` and the block at `(rx, ry)` in `reference`.
pub fn sad(cur: &Frame, reference: &Frame, cx: usize, cy: usize, rx: usize, ry: usize) -> u32 {
    debug_assert!(cx + MB <= cur.w && cy + MB <= cur.h);
    debug_assert!(rx + MB <= reference.w && ry + MB <= reference.h);
    let mut total = 0u32;
    for dy in 0..MB {
        let crow = &cur.data[(cy + dy) * cur.w + cx..][..MB];
        let rrow = &reference.data[(ry + dy) * reference.w + rx..][..MB];
        for (c, r) in crow.iter().zip(rrow) {
            total += c.abs_diff(*r) as u32;
        }
    }
    total
}

/// A motion vector with its matching cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotionVector {
    /// Horizontal displacement (reference − current).
    pub dx: i32,
    /// Vertical displacement.
    pub dy: i32,
    /// SAD at the chosen displacement.
    pub cost: u32,
}

/// Exhaustive search over ±`range` pixels around the co-located block.
pub fn motion_search(
    cur: &Frame,
    reference: &Frame,
    mbx: usize,
    mby: usize,
    range: i32,
) -> MotionVector {
    let cx = mbx * MB;
    let cy = mby * MB;
    let mut best = MotionVector {
        dx: 0,
        dy: 0,
        cost: sad(cur, reference, cx, cy, cx, cy),
    };
    for dy in -range..=range {
        for dx in -range..=range {
            let rx = cx as i64 + dx as i64;
            let ry = cy as i64 + dy as i64;
            if rx < 0 || ry < 0 || rx as usize + MB > reference.w || ry as usize + MB > reference.h
            {
                continue;
            }
            let cost = sad(cur, reference, cx, cy, rx as usize, ry as usize);
            // Deterministic tie-break: prefer the smaller displacement.
            let better = cost < best.cost
                || (cost == best.cost && dx * dx + dy * dy < best.dx * best.dx + best.dy * best.dy);
            if better {
                best = MotionVector { dx, dy, cost };
            }
        }
    }
    best
}

/// Per-frame encode output.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeStats {
    /// One vector per macroblock, row-major.
    pub vectors: Vec<MotionVector>,
    /// Sum of SAD costs (a bitrate proxy).
    pub total_cost: u64,
}

/// Motion-estimates every macroblock of `cur` against `reference`,
/// parallel over macroblock rows on `threads` threads.
///
/// # Panics
/// Panics if the frames differ in size, are smaller than one macroblock,
/// or `threads == 0`.
pub fn encode_frame(cur: &Frame, reference: &Frame, range: i32, threads: usize) -> EncodeStats {
    assert_eq!((cur.w, cur.h), (reference.w, reference.h), "size mismatch");
    assert!(
        cur.w >= MB && cur.h >= MB,
        "frame smaller than a macroblock"
    );
    assert!(threads > 0, "need at least one thread");
    let mbs_x = cur.w / MB;
    let mbs_y = cur.h / MB;
    let rows_per = mbs_y.div_ceil(threads);
    let rows: Vec<Vec<MotionVector>> = std::thread::scope(|s| {
        (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let y0 = t * rows_per;
                    for mby in y0..(y0 + rows_per).min(mbs_y) {
                        for mbx in 0..mbs_x {
                            out.push(motion_search(cur, reference, mbx, mby, range));
                        }
                    }
                    out
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("x264 worker panicked"))
            .collect()
    });
    let vectors: Vec<MotionVector> = rows.into_iter().flatten().collect();
    let total_cost = vectors.iter().map(|v| v.cost as u64).sum();
    EncodeStats {
        vectors,
        total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_frames_give_zero_vectors() {
        let f = synth_frame(96, 64, 0, 0);
        let stats = encode_frame(&f, &f, 8, 3);
        assert_eq!(stats.total_cost, 0);
        assert!(stats
            .vectors
            .iter()
            .all(|v| v.dx == 0 && v.dy == 0 && v.cost == 0));
        assert_eq!(stats.vectors.len(), (96 / 16) * (64 / 16));
    }

    #[test]
    fn global_pan_recovered_by_interior_blocks() {
        // Scene pans by (3, -2) between frames: the reference (earlier
        // frame) content appears displaced by exactly that amount.
        let reference = synth_frame(128, 96, 0, 0);
        let cur = synth_frame(128, 96, 3, -2);
        let stats = encode_frame(&cur, &reference, 6, 4);
        let mbs_x = 128 / MB;
        let mut interior_ok = 0;
        let mut interior = 0;
        for (i, v) in stats.vectors.iter().enumerate() {
            let mbx = i % mbs_x;
            let mby = i / mbs_x;
            // Skip border blocks whose true match falls outside the frame.
            if mbx == 0 || mby == 0 || mbx == mbs_x - 1 || mby == 96 / MB - 1 {
                continue;
            }
            interior += 1;
            if v.dx == 3 && v.dy == -2 {
                interior_ok += 1;
                assert_eq!(v.cost, 0, "exact match must have zero SAD");
            }
        }
        assert_eq!(interior_ok, interior, "all interior blocks recover the pan");
    }

    #[test]
    fn thread_count_does_not_change_vectors() {
        let reference = synth_frame(96, 96, 0, 0);
        let cur = synth_frame(96, 96, 1, 1);
        let a = encode_frame(&cur, &reference, 4, 1);
        let b = encode_frame(&cur, &reference, 4, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn sad_is_zero_on_self_and_positive_on_noise() {
        let f = synth_noise_frame(64, 64, 314_159_265.0);
        let g = synth_noise_frame(64, 64, 271_828_183.0);
        assert_eq!(sad(&f, &f, 16, 16, 16, 16), 0);
        assert!(sad(&f, &g, 16, 16, 16, 16) > 0);
    }

    #[test]
    fn search_range_limits_displacement() {
        let reference = synth_frame(128, 64, 0, 0);
        let cur = synth_frame(128, 64, 10, 0); // pan beyond range 4
        let stats = encode_frame(&cur, &reference, 4, 2);
        for v in &stats.vectors {
            assert!(v.dx.abs() <= 4 && v.dy.abs() <= 4);
        }
        // The best in-range match cannot be exact.
        assert!(stats.total_cost > 0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_frames_rejected() {
        let a = synth_frame(32, 32, 0, 0);
        let b = synth_frame(64, 32, 0, 0);
        encode_frame(&a, &b, 2, 1);
    }
}
