//! Shared 3-D grid utilities: indexing and parallel axis rotation.
//!
//! FT and SP both need to process a 3-D array "along" each dimension. The
//! strategy here is the cache-friendly one: keep the active dimension
//! contiguous, process whole contiguous lines in parallel, then *rotate*
//! the axes `(x, y, z) → (y, z, x)` and repeat. Three rotations restore
//! the original orientation. A rotation is a full-array permutation
//! parallelised over disjoint output slabs (safe `chunks_mut`), reading
//! the shared source.

/// Grid dimensions; `x` is the contiguous (fastest-varying) axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Contiguous extent.
    pub nx: usize,
    /// Middle extent.
    pub ny: usize,
    /// Slowest extent.
    pub nz: usize,
}

impl Dims {
    /// Creates dimensions.
    ///
    /// # Panics
    /// Panics if any extent is zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Dims {
        assert!(nx > 0 && ny > 0 && nz > 0, "empty grid");
        Dims { nx, ny, nz }
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Whether the grid has no elements (never true by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Linear index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Dimensions after one axis rotation `(x, y, z) → (y, z, x)`.
    #[inline]
    pub fn rotated(&self) -> Dims {
        Dims {
            nx: self.ny,
            ny: self.nz,
            nz: self.nx,
        }
    }
}

/// Rotates `src` (with `dims`) so the old `y` axis becomes contiguous:
/// `out[(y, z, x)] = src[(x, y, z)]`. Returns the rotated array; the new
/// dimensions are `dims.rotated()`. Parallel over output slabs.
///
/// # Panics
/// Panics if `src.len() != dims.len()` or `threads == 0`.
pub fn rotate<T: Copy + Send + Sync + Default>(src: &[T], dims: Dims, threads: usize) -> Vec<T> {
    assert_eq!(src.len(), dims.len(), "size mismatch");
    assert!(threads > 0, "need at least one thread");
    let out_dims = dims.rotated();
    let mut out = vec![T::default(); src.len()];
    // Output slab = contiguous run of new-z planes; new z == old x.
    let plane = out_dims.nx * out_dims.ny; // ny*nz elements per old-x plane
    let planes_per_chunk = out_dims.nz.div_ceil(threads);
    std::thread::scope(|s| {
        for (chunk_idx, out_chunk) in out.chunks_mut(plane * planes_per_chunk).enumerate() {
            let x0 = chunk_idx * planes_per_chunk; // old-x of first plane
            s.spawn(move || {
                for (i, slot) in out_chunk.iter_mut().enumerate() {
                    let x = x0 + i / plane;
                    let rest = i % plane;
                    let y = rest % out_dims.nx; // new-x == old y
                    let z = rest / out_dims.nx; // new-y == old z
                    *slot = src[dims.idx(x, y, z)];
                }
            });
        }
    });
    out
}

/// Applies `f` to every contiguous x-line of the grid in parallel.
///
/// # Panics
/// Panics if `data.len() != dims.len()` or `threads == 0`.
pub fn for_each_line_mut<T: Send, F>(data: &mut [T], dims: Dims, threads: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Send + Sync,
{
    assert_eq!(data.len(), dims.len(), "size mismatch");
    assert!(threads > 0, "need at least one thread");
    let lines = dims.ny * dims.nz;
    let lines_per_chunk = lines.div_ceil(threads);
    let f = &f;
    std::thread::scope(|s| {
        for (chunk_idx, chunk) in data.chunks_mut(dims.nx * lines_per_chunk).enumerate() {
            s.spawn(move || {
                for (j, line) in chunk.chunks_mut(dims.nx).enumerate() {
                    f(chunk_idx * lines_per_chunk + j, line);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_row_major() {
        let d = Dims::new(4, 3, 2);
        assert_eq!(d.len(), 24);
        assert_eq!(d.idx(0, 0, 0), 0);
        assert_eq!(d.idx(1, 0, 0), 1);
        assert_eq!(d.idx(0, 1, 0), 4);
        assert_eq!(d.idx(0, 0, 1), 12);
        assert_eq!(d.idx(3, 2, 1), 23);
    }

    #[test]
    fn rotation_permutes_correctly() {
        let d = Dims::new(2, 3, 4);
        let src: Vec<u32> = (0..24).collect();
        let out = rotate(&src, d, 3);
        let rd = d.rotated();
        assert_eq!(rd, Dims::new(3, 4, 2));
        for x in 0..d.nx {
            for y in 0..d.ny {
                for z in 0..d.nz {
                    assert_eq!(out[rd.idx(y, z, x)], src[d.idx(x, y, z)]);
                }
            }
        }
    }

    #[test]
    fn three_rotations_are_identity() {
        let d = Dims::new(3, 4, 5);
        let src: Vec<u32> = (0..60).map(|i| i * 7 % 61).collect();
        let r1 = rotate(&src, d, 4);
        let r2 = rotate(&r1, d.rotated(), 4);
        let r3 = rotate(&r2, d.rotated().rotated(), 4);
        assert_eq!(r3, src);
    }

    #[test]
    fn rotation_thread_count_irrelevant() {
        let d = Dims::new(5, 7, 3);
        let src: Vec<u64> = (0..105).map(|i| i * i).collect();
        let a = rotate(&src, d, 1);
        let b = rotate(&src, d, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn line_iteration_visits_each_line_once() {
        let d = Dims::new(4, 2, 3);
        let mut data = vec![0u32; 24];
        for_each_line_mut(&mut data, d, 3, |line_idx, line| {
            assert_eq!(line.len(), 4);
            for v in line {
                *v += 1 + line_idx as u32;
            }
        });
        // Line k (of 6) got value k+1 in all its 4 cells.
        for (i, &v) in data.iter().enumerate() {
            let line_idx = i / 4;
            assert_eq!(v, 1 + line_idx as u32);
        }
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_dims_rejected() {
        Dims::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_size_rejected() {
        rotate(&[1u32, 2], Dims::new(1, 1, 1), 1);
    }
}
