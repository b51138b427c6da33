//! What the host says about a process, and how fast the host is.
//!
//! CPU time and peak resident set are read from `/proc/<pid>` of the
//! process doing the work. The drift probes time two fixed loops before
//! and after each workload: the compute-bound `perfcal::spin` rate and a
//! dependent random walk over a buffer larger than the host's last-level
//! cache. The spin rate alone cannot tell a slower memory system (another
//! tenant streaming, a migrated VM) from a slower program; the walk can.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// 100 on every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds `pid` has used so far, threads that already
/// exited included.
pub fn cpu_seconds(pid: u32) -> std::io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| bad_proc("stat without a command name"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of proc(5) (utime, stime); `rest` starts at field 3.
    let tick = |i: usize| -> std::io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_S)
            .ok_or_else(|| bad_proc("stat without utime/stime"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mib(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| bad_proc("status without VmHWM"))
}

fn bad_proc(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// One reading of both host rates.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// `perfcal::spin` iterations per second.
    pub spin_per_s: f64,
    /// Dependent loads per second of the random walk.
    pub walk_per_s: f64,
}

/// The random-walk probe's buffer, allocated and paged in once.
pub struct DriftProbe {
    buf: Vec<u64>,
}

/// Loads per walk probe: enough to average over a few hundred thousand
/// DRAM round trips, short enough to cost ~0.1 s.
const WALK_STEPS: u64 = 1 << 20;

impl DriftProbe {
    /// Sizes the buffer past the host's last-level cache and touches
    /// every page of it, so the walk reads DRAM rather than one shared
    /// zero page.
    pub fn new() -> DriftProbe {
        let llc = host_llc_bytes().unwrap_or(32 << 20);
        let bytes = llc + llc.clamp(32 << 20, 256 << 20);
        let words = (bytes / 8) as usize;
        let buf: Vec<u64> = (0..words as u64).collect();
        DriftProbe { buf }
    }

    /// Buffer size in MiB.
    pub fn buffer_mib(&self) -> f64 {
        (self.buf.len() * 8) as f64 / (1 << 20) as f64
    }

    /// Measures both rates now.
    pub fn measure(&self) -> Rates {
        let spin_per_s = offchip_bench::perfcal::calibrate().rate;
        let len = self.buf.len() as u64;
        let t0 = Instant::now();
        let mut idx = 0u64;
        for step in 0..WALK_STEPS {
            // The next index depends on the loaded word, so the loads
            // serialise: one DRAM round trip each.
            let word = self.buf[idx as usize];
            idx = (word ^ step).wrapping_mul(0x9E37_79B9_7F4A_7C15) % len;
        }
        std::hint::black_box(idx);
        let walk_per_s = WALK_STEPS as f64 / t0.elapsed().as_secs_f64();
        Rates {
            spin_per_s,
            walk_per_s,
        }
    }
}

/// Size of the largest cache the kernel reports for CPU 0.
fn host_llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| e.ok())
        .filter_map(|e| std::fs::read_to_string(e.path().join("size")).ok())
        .filter_map(|s| {
            let s = s.trim();
            let (num, mult) = match s.chars().last()? {
                'K' => (&s[..s.len() - 1], 1u64 << 10),
                'M' => (&s[..s.len() - 1], 1 << 20),
                'G' => (&s[..s.len() - 1], 1 << 30),
                _ => (s, 1),
            };
            num.parse::<u64>().ok().map(|v| v * mult)
        })
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_readings_are_sane() {
        let pid = std::process::id();
        let burn = offchip_bench::perfcal::spin(20_000_000);
        std::hint::black_box(burn);
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
        assert!(cpu_seconds(u32::MAX).is_err());
    }
}
