//! IS: parallel integer sorting by bucket (counting) sort.
//!
//! NPB IS ranks integer keys drawn from an approximately Gaussian
//! distribution (the average of four `randlc` uniforms, scaled to the key
//! range). The parallel algorithm is the classic three-phase counting
//! sort the OpenMP version uses: per-thread histograms over the key
//! range's buckets, a prefix sum to assign bucket base offsets, and a
//! scatter of each thread's keys into its reserved slots.

use crate::npb_rng::NpbRng;

/// Generates `n` keys in `[0, max_key)` with NPB's sum-of-four-uniforms
/// distribution.
///
/// # Panics
/// Panics if `max_key == 0`.
pub fn generate_keys(n: usize, max_key: u32, seed: f64) -> Vec<u32> {
    assert!(max_key > 0, "key range must be non-empty");
    let mut rng = NpbRng::new(seed);
    (0..n)
        .map(|_| {
            let s = rng.next() + rng.next() + rng.next() + rng.next();
            ((s / 4.0) * max_key as f64) as u32
        })
        .collect()
}

/// Sequential counting sort, the verification reference.
pub fn sort_sequential(keys: &[u32], max_key: u32) -> Vec<u32> {
    let mut counts = vec![0usize; max_key as usize];
    for &k in keys {
        counts[k as usize] += 1;
    }
    let mut out = Vec::with_capacity(keys.len());
    for (k, &c) in counts.iter().enumerate() {
        out.extend(std::iter::repeat_n(k as u32, c));
    }
    out
}

/// Parallel three-phase bucket sort on `threads` threads.
///
/// # Panics
/// Panics if `threads == 0` or `max_key == 0`.
pub fn sort_parallel(keys: &[u32], max_key: u32, threads: usize) -> Vec<u32> {
    assert!(threads > 0, "need at least one thread");
    assert!(max_key > 0, "key range must be non-empty");
    let n = keys.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(threads);

    // Phase 1: per-thread histograms.
    let histograms: Vec<Vec<usize>> = std::thread::scope(|s| {
        keys.chunks(chunk)
            .map(|slice| {
                s.spawn(move || {
                    let mut h = vec![0usize; max_key as usize];
                    for &k in slice {
                        h[k as usize] += 1;
                    }
                    h
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("IS histogram worker panicked"))
            .collect()
    });

    // Phase 2: key-major prefix sum assigning each (bucket, thread) pair
    // its base offset in the output.
    let mut offsets: Vec<Vec<usize>> = vec![vec![0; max_key as usize]; histograms.len()];
    let mut running = 0usize;
    for key in 0..max_key as usize {
        for (t, h) in histograms.iter().enumerate() {
            offsets[t][key] = running;
            running += h[key];
        }
    }
    debug_assert_eq!(running, n);

    // Phase 3: scatter. Each thread owns disjoint output slots by
    // construction; to stay in safe Rust the scatter goes through a
    // per-thread (slot, key) list merged by a final placement pass.
    let placements: Vec<Vec<(usize, u32)>> = std::thread::scope(|s| {
        keys.chunks(chunk)
            .zip(offsets)
            .map(|(slice, mut offs)| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(slice.len());
                    for &k in slice {
                        let slot = offs[k as usize];
                        offs[k as usize] += 1;
                        out.push((slot, k));
                    }
                    out
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("IS scatter worker panicked"))
            .collect()
    });
    let mut out = vec![0u32; n];
    for list in placements {
        for (slot, k) in list {
            out[slot] = k;
        }
    }
    out
}

/// NPB-style full verification: the output must be sorted and a
/// permutation of the input.
pub fn verify(input: &[u32], output: &[u32]) -> bool {
    if input.len() != output.len() {
        return false;
    }
    if output.windows(2).any(|w| w[0] > w[1]) {
        return false;
    }
    let mut a = input.to_vec();
    a.sort_unstable();
    a == output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_cover_range_with_central_tendency() {
        let keys = generate_keys(50_000, 1 << 11, 314_159_265.0);
        assert!(keys.iter().all(|&k| k < (1 << 11)));
        let mean = keys.iter().map(|&k| k as f64).sum::<f64>() / keys.len() as f64;
        // Sum of four uniforms averages to 0.5 ⇒ mean key ≈ max/2.
        assert!((mean - 1024.0).abs() < 20.0, "mean={mean}");
        // The distribution is bell-shaped: the middle half holds most keys.
        let central =
            keys.iter().filter(|&&k| (512..1536).contains(&k)).count() as f64 / keys.len() as f64;
        assert!(central > 0.9, "central mass {central}");
    }

    #[test]
    fn sequential_sort_is_correct() {
        let keys = generate_keys(10_000, 256, 271_828_183.0);
        let sorted = sort_sequential(&keys, 256);
        assert!(verify(&keys, &sorted));
    }

    #[test]
    fn parallel_matches_sequential() {
        let keys = generate_keys(30_000, 512, 271_828_183.0);
        let reference = sort_sequential(&keys, 512);
        for threads in [1, 2, 3, 7, 16] {
            let sorted = sort_parallel(&keys, 512, threads);
            assert_eq!(sorted, reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(sort_parallel(&[], 16, 4).is_empty());
        assert_eq!(sort_parallel(&[3], 16, 4), vec![3]);
        assert_eq!(sort_parallel(&[5, 1], 16, 8), vec![1, 5]);
    }

    #[test]
    fn verify_rejects_wrong_outputs() {
        let input = vec![3, 1, 2];
        assert!(!verify(&input, &[1, 2])); // wrong length
        assert!(!verify(&input, &[2, 1, 3])); // unsorted
        assert!(!verify(&input, &[1, 2, 4])); // not a permutation
        assert!(verify(&input, &[1, 2, 3]));
    }

    #[test]
    fn stability_of_key_values() {
        // Duplicated keys must all survive.
        let keys = vec![7u32; 100];
        let sorted = sort_parallel(&keys, 8, 3);
        assert_eq!(sorted, keys);
    }
}
