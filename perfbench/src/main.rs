//! The repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload table2-c|serve-cold|serve-warm --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one line per metric (with its base), a digest line, the host
//! drift record, and last one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`. Exits 1 when a correctness
//! check failed, 2 on a bad command line, 3 when the benchmark itself
//! could not run (no result is printed then).

mod check;
mod client;
mod host;
mod layers;
mod replay;
mod serve;
mod stats;
mod table2;
mod trace;

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use check::Checks;
use trace::Tracer;

/// The end-to-end metrics of `BENCHMARK.json`, printed by every
/// workload's untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of `BENCHMARK.json`, printed by every
/// workload's traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("cache.accesses", "count"),
    ("cache.ns_per_access", "ns"),
    ("cache.share", "ratio"),
    ("cache.llc_miss_ratio", "ratio"),
    ("npb.ops", "count"),
    ("npb.ns_per_op", "ns"),
    ("npb.share", "ratio"),
    ("dram.requests", "count"),
    ("dram.ns_per_request", "ns"),
    ("dram.share", "ratio"),
    ("dram.row_hit_ratio", "ratio"),
    ("sched.ns_per_event", "ns"),
    ("sched.share", "ratio"),
    ("machine.runs", "count"),
    ("machine.events", "count"),
    ("machine.events_per_s", "1/s"),
    ("machine.ns_per_event", "ns"),
    ("machine.setup_us", "us"),
    ("machine.residual_share", "ratio"),
    ("machine.stall_frac", "ratio"),
    ("pool.busy_s", "s"),
    ("pool.efficiency", "ratio"),
    ("campaign.start_ms", "ms"),
    ("campaign.records", "count"),
    ("campaign.resumed", "count"),
    ("campaign.append_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

const WORKLOADS: &[&str] = &["table2-c", "serve-cold", "serve-warm"];

/// Simulation worker budget of every sweep and server: fixed, so runs
/// on hosts with different core counts do the same work.
pub const JOBS: usize = 2;

const USAGE: &str = "usage: perfbench --workload table2-c|serve-cold|serve-warm \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Mixes a workload seed with a stream number into an independent seed
/// (SplitMix64 finaliser).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Removes every `OFFCHIP_*` variable from a child's environment, so the
/// program runs with its defaults whatever the caller's shell holds.
pub fn strip_program_env(cmd: &mut Command) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("OFFCHIP_") {
            cmd.env_remove(key);
        }
    }
}

/// State of one benchmark run.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Seconds of timed work to aim for.
    pub seconds: f64,
    /// Directory holding `offchip-serve` and this binary.
    pub bin_dir: PathBuf,
    /// Outcome tally.
    pub checks: Checks,
    /// Span store (disabled unless `--trace 1`).
    pub tracer: Tracer,
    dir: PathBuf,
    scratch_dirs: usize,
    metrics: Vec<(&'static str, Option<f64>, &'static str)>,
}

impl Ctx {
    /// A fresh, empty directory for one server, worker or campaign.
    pub fn scratch(&mut self, name: &str) -> Result<PathBuf, String> {
        self.scratch_dirs += 1;
        let dir = self.dir.join(format!("{:03}-{name}", self.scratch_dirs));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Records and prints one metric with its base. `None` means the
    /// value could not be measured (for a percentile: too few samples
    /// beyond it).
    pub fn metric(
        &mut self,
        name: &'static str,
        value: impl Into<Option<f64>>,
        unit: &'static str,
        base: impl Into<String>,
    ) {
        let value = value.into();
        let shown = value.map_or("withheld".to_string(), |v| format!("{v}"));
        println!("metric {name} = {shown} {unit} ({})", base.into());
        self.metrics.push((name, value, unit));
    }
}

/// Prints `trace.overhead_frac`: traced ÷ untraced wall time, minus 1.
pub fn trace_overhead(ctx: &mut Ctx, traced_s: f64, untraced_s: f64) {
    ctx.metric(
        "trace.overhead_frac",
        traced_s / untraced_s - 1.0,
        "ratio",
        format!("traced {traced_s:.4} s / untraced {untraced_s:.4} s wall - 1"),
    );
}

/// Lets `sleep` wake within microseconds of its deadline instead of the
/// default 50 µs timer slack, which would otherwise dominate the open
/// loop's lateness. Threads inherit it.
fn reduce_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes plain integers and touches no
    // memory of ours; a failure only leaves the default slack in place.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => opts.workload = value.clone(),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        let (Some(dir), Some(Ok(seed))) = (args.get(1), args.get(2).map(|s| s.parse::<u64>()))
        else {
            eprintln!("usage: perfbench --worker DIR SEED [--setup-only]");
            std::process::exit(2);
        };
        let setup_only = args.get(3).map(String::as_str) == Some("--setup-only");
        std::process::exit(table2::worker(std::path::Path::new(dir), seed, setup_only));
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // In-process layers read these too (job count, scheduler, journal
    // directory); the benchmark measures the defaults.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("OFFCHIP_") {
            std::env::remove_var(key);
        }
    }
    offchip_obs::set_log_level(offchip_obs::LogLevel::Warn);
    reduce_timer_slack();
    match run(&opts) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
    }
}

fn run(opts: &Opts) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    let dir = bin_dir.join(format!("perfbench-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.traced as u8
    );
    let probe = host::DriftProbe::new();
    let before = probe.measure();
    let mut ctx = Ctx {
        seed: opts.seed,
        seconds: opts.seconds,
        bin_dir,
        checks: Checks::default(),
        tracer: Tracer::new(opts.traced),
        dir: dir.clone(),
        scratch_dirs: 0,
        metrics: Vec::new(),
    };
    let t0 = Instant::now();
    let outcome = match (opts.workload.as_str(), opts.traced) {
        ("table2-c", false) => table2::measure(&mut ctx),
        ("table2-c", true) => table2::traced(&mut ctx),
        ("serve-cold", false) => serve::cold(&mut ctx),
        ("serve-cold", true) => serve::cold_traced(&mut ctx),
        ("serve-warm", false) => serve::warm(&mut ctx),
        ("serve-warm", true) => serve::warm_traced(&mut ctx),
        _ => unreachable!("workload names are checked by the parser"),
    };
    let elapsed = t0.elapsed().as_secs_f64();
    let after = probe.measure();
    let probe_mib = probe.buffer_mib();
    drop(probe);
    println!(
        "host_drift {{\"probe_buffer_mib\":{:.0},\"before\":{{\"spin_per_s\":{},\"walk_per_s\":{}}},\
         \"after\":{{\"spin_per_s\":{},\"walk_per_s\":{}}},\"workload_s\":{elapsed:.3}}}",
        probe_mib,
        before.spin_per_s,
        before.walk_per_s,
        after.spin_per_s,
        after.walk_per_s,
    );
    if let Err(e) = outcome {
        return Err(format!("{e} (scratch files kept in {})", dir.display()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    if opts.traced {
        let path = ctx
            .bin_dir
            .parent()
            .unwrap_or(&ctx.bin_dir)
            .join("perfbench")
            .join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
        ctx.tracer
            .write_chrome(&path)
            .map_err(|e| format!("trace {}: {e}", path.display()))?;
        println!(
            "trace {} spans written to {}",
            ctx.tracer.len(),
            path.display()
        );
    }

    let wanted = if opts.traced { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let found = ctx.metrics.iter().find(|m| m.0 == name);
        match found {
            Some(&(_, Some(v), u)) if u == unit && v.is_finite() => {
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            _ => ctx
                .checks
                .notes
                .push(format!("metric {name} ({unit}) was not measured")),
        }
    }
    for note in &ctx.checks.notes {
        println!("check failed: {note}");
    }
    let correct = ctx.checks.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.checks.attempted.max(1),
        ctx.checks.failed,
        fields.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = offchip_json::Json::parse(&text).unwrap();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload serve-warm --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.traced),
            ("serve-warm", 7, 10.0, true)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 3")).is_err());
        assert!(parse(&args("--workload table2-c --trace 2")).is_err());
        assert!(parse(&args("--workload table2-c --seconds 0")).is_err());
    }

    #[test]
    fn seeds_mix_into_distinct_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}
