//! Hand-rolled argument parsing (the CLI's surface is small enough that a
//! parser dependency would outweigh it).

use offchip_bench::{CampaignOptions, ProgramSpec};
use offchip_chaos::ChaosSpec;
use offchip_machine::{McScheduler, MemoryPolicy};
use offchip_npb::classes::ProblemClass;
use offchip_perf::FaultSpec;
use offchip_topology::machines::Preset;
use std::sync::Arc;

/// The environment variable `fit` reads its fault spec from when
/// `--faults` is absent.
pub const FAULTS_ENV: &str = "OFFCHIP_FAULTS";

/// The most program threads `--threads` accepts: 85× the 48-core AMD
/// machine. A count far past that only spends memory and time building
/// per-thread state before the run starts.
pub const MAX_THREADS: usize = 4096;

/// Usage text shown on parse errors, followed by
/// [`offchip_bench::CAMPAIGN_USAGE`].
pub const USAGE: &str = "\
usage: offchip <command> [options]

commands:
  topology [uma|numa|amd]      print machine topology (default: all three)
  run   <program> [options]    run one configuration, print a papiex report
  sweep <program> [options]    measure omega(n) over all core counts + plot
  fit   <program> [options]    fit the analytical model and validate it
  burst <program> [options]    run the 5 us sampler and classify burstiness

<program>: paper notation - CG.C, SP.W, EP.A, IS.B, FT.C, MG.C,
           x264.simsmall|simmedium|simlarge|native

options:
  --machine uma|numa|amd       target machine (default uma)
  --cores N                    active cores (run/burst; default: all)
  --threads N                  program threads, 1 to 4096 (default: machine
                               cores)
  --scale DENOM                geometric scale 1/DENOM (default 64)
  --prefetch D                 stream-prefetch degree (default 0)
  --scheduler fcfs|frfcfs      memory-controller scheduler (default fcfs)
  --placement interleave|firsttouch   page placement (default interleave)
  --protocol paper|extended    fit input points (fit; default paper;
                               extended needs --machine numa)
  --faults SPEC                inject counter faults before fitting (fit):
                               drop=P,jitter=S,garbage=P,zero=P,seed=N
                               (also read from OFFCHIP_FAULTS when unset)
  --jobs N                     sweep-engine workers (sweep/fit; default:
                               OFFCHIP_JOBS, else available parallelism)
  --seed N                     simulation seed
  --out PATH                   also write the sweep result JSON here
                               (sweep); exit 7 = artefact write failed
                               but the journal is intact (--resume
                               regenerates it without re-simulating)
  --trace PATH                 write a Chrome trace_event JSON of the run(s)
  --metrics PATH               write the run(s)' metrics as CSV
  --log-level error|warn|info|debug
                               stderr log threshold (default: OFFCHIP_LOG,
                               else info)
  --log-format kv|json         log record format: key-value text or structured
                               JSON with trace-id stamping (default:
                               OFFCHIP_LOG_FORMAT, else kv)

run/burst take only --deadline, --max-events and --chaos-io of the
campaign options below; an option scoped to other commands exits 2.";

/// Options shared by the workload commands.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The program to run.
    pub program: ProgramSpec,
    /// Machine preset.
    pub machine: Preset,
    /// Active cores (`None` = all).
    pub cores: Option<usize>,
    /// Thread count (`None` = machine cores).
    pub threads: Option<usize>,
    /// Geometric scale denominator.
    pub scale_denom: f64,
    /// Prefetch degree.
    pub prefetch: usize,
    /// Memory-controller scheduler.
    pub scheduler: McScheduler,
    /// Page placement.
    pub placement: MemoryPolicy,
    /// Use the extended fit protocol (`--machine numa` only).
    pub extended_protocol: bool,
    /// Counter faults to inject before fitting (`fit` only): `--faults`,
    /// else `OFFCHIP_FAULTS`.
    pub faults: Option<FaultSpec>,
    /// Sweep-engine worker budget (`None`: `OFFCHIP_JOBS`, else the
    /// machine's parallelism). Validated in the command layer so that a
    /// bad value is a typed configuration error (exit 3), not a panic.
    pub jobs: Option<usize>,
    /// Simulation seed.
    pub seed: u64,
    /// The campaign flags (`--resume`, `--deadline`, `--retries`,
    /// `--max-events`, `--journal-dir`, `--watchdog`, `--chaos-io`, with
    /// `OFFCHIP_CHAOS_IO` as the fault-schedule default), parsed by the
    /// campaign layer. `sweep`/`fit` run their campaign under them;
    /// `run`/`burst` take the deadline and event budget; every command's
    /// artefact writes go through their Vfs. `--trace`/`--metrics` give
    /// them the registry every run records into.
    pub campaign: CampaignOptions,
    /// Sweep artefact output path (`sweep` only).
    pub out: Option<std::path::PathBuf>,
    /// Chrome trace_event JSON output path.
    pub trace_out: Option<std::path::PathBuf>,
    /// Metrics-snapshot CSV output path.
    pub metrics_out: Option<std::path::PathBuf>,
    /// stderr log threshold (`None`: `OFFCHIP_LOG`, else info).
    pub log_level: Option<offchip_obs::LogLevel>,
    /// Log record format (`None`: `OFFCHIP_LOG_FORMAT`, else key-value).
    pub log_format: Option<offchip_obs::LogFormat>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            program: ProgramSpec::Cg(ProblemClass::C),
            machine: Preset::Uma,
            cores: None,
            threads: None,
            scale_denom: 64.0,
            prefetch: 0,
            scheduler: McScheduler::Fcfs,
            placement: MemoryPolicy::InterleaveActive,
            extended_protocol: false,
            faults: None,
            jobs: None,
            seed: 0x0FF_C41B,
            campaign: CampaignOptions::default(),
            out: None,
            trace_out: None,
            metrics_out: None,
            log_level: None,
            log_format: None,
        }
    }
}

/// A parsed command.
#[derive(Debug, Clone)]
pub enum Command {
    /// Print topology reports.
    Topology(Option<Preset>),
    /// Run one configuration.
    Run(RunOptions),
    /// Sweep all core counts.
    Sweep(RunOptions),
    /// Fit and validate the model.
    Fit(RunOptions),
    /// Burstiness analysis.
    Burst(RunOptions),
}

/// Parses a program name in paper notation (delegates to the shared
/// parser in `offchip_bench::ProgramSpec`, which the service reuses too).
pub fn parse_program(name: &str) -> Result<ProgramSpec, String> {
    ProgramSpec::parse(name)
}

fn parse_machine(name: &str) -> Result<Preset, String> {
    Preset::from_key(name).ok_or_else(|| format!("unknown machine {name:?} (uma|numa|amd)"))
}

/// The options `cmd` refuses: the usage text scopes each to other
/// commands, and a flag accepted but never read hides a mistake.
fn refused(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "run" | "burst" => &[
            "--jobs",
            "--out",
            "--protocol",
            "--faults",
            "--resume",
            "--retries",
            "--journal-dir",
            "--watchdog",
        ],
        "sweep" => &["--cores", "--protocol", "--faults"],
        "fit" => &["--cores", "--out"],
        _ => &[],
    }
}

fn parse_options(cmd: &str, mut opts: RunOptions, rest: &[String]) -> Result<RunOptions, String> {
    let refused = refused(cmd);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if refused.contains(&flag.as_str()) {
            return Err(format!("{cmd} does not take {flag}"));
        }
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--machine" => opts.machine = parse_machine(&value()?)?,
            "--cores" => opts.cores = Some(value()?.parse().map_err(|e| format!("--cores: {e}"))?),
            "--threads" => {
                let n: usize = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if !(1..=MAX_THREADS).contains(&n) {
                    return Err(format!("--threads must be from 1 to {MAX_THREADS}"));
                }
                opts.threads = Some(n);
            }
            "--scale" => {
                opts.scale_denom = value()?.parse().map_err(|e| format!("--scale: {e}"))?;
                // `!(x >= 1)` also catches NaN; the machine scales by the
                // reciprocal, which must be positive.
                if !(opts.scale_denom >= 1.0 && opts.scale_denom.is_finite()) {
                    return Err("--scale must be a finite number ≥ 1".into());
                }
            }
            "--prefetch" => {
                opts.prefetch = value()?.parse().map_err(|e| format!("--prefetch: {e}"))?
            }
            "--scheduler" => {
                opts.scheduler = match value()?.as_str() {
                    "fcfs" => McScheduler::Fcfs,
                    "frfcfs" => McScheduler::FrFcfs,
                    other => return Err(format!("unknown scheduler {other:?}")),
                }
            }
            "--placement" => {
                opts.placement = match value()?.as_str() {
                    "interleave" => MemoryPolicy::InterleaveActive,
                    "firsttouch" => MemoryPolicy::FirstTouch,
                    other => return Err(format!("unknown placement {other:?}")),
                }
            }
            "--protocol" => {
                opts.extended_protocol = match value()?.as_str() {
                    "paper" => false,
                    "extended" => true,
                    other => return Err(format!("unknown protocol {other:?}")),
                }
            }
            "--faults" => {
                opts.faults =
                    Some(FaultSpec::parse(&value()?).map_err(|e| format!("--faults: {e}"))?)
            }
            "--jobs" => opts.jobs = Some(value()?.parse().map_err(|e| format!("--jobs: {e}"))?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => opts.out = Some(std::path::PathBuf::from(value()?)),
            "--trace" => opts.trace_out = Some(std::path::PathBuf::from(value()?)),
            "--metrics" => opts.metrics_out = Some(std::path::PathBuf::from(value()?)),
            "--log-level" => {
                let v = value()?;
                opts.log_level =
                    Some(offchip_obs::LogLevel::parse(&v).ok_or_else(|| {
                        format!("unknown log level {v:?} (error|warn|info|debug)")
                    })?);
            }
            "--log-format" => {
                let v = value()?;
                opts.log_format = Some(
                    offchip_obs::LogFormat::parse(&v)
                        .ok_or_else(|| format!("unknown log format {v:?} (kv|json)"))?,
                );
            }
            other => {
                if !opts.campaign.parse_flag(other, &mut it)? {
                    return Err(format!("unknown option {other:?}"));
                }
            }
        }
    }
    Ok(opts)
}

/// Parses the whole command line. `env_chaos` is the value of
/// `OFFCHIP_CHAOS_IO`, the `--chaos-io` default: a malformed value is a
/// usage error for every command, even one that writes nothing.
/// `env_faults` is the value of [`FAULTS_ENV`], the `--faults` default
/// of `fit`: a malformed value is a usage error there, caught before any
/// journal opens.
pub fn parse(
    argv: &[String],
    env_chaos: Option<&str>,
    env_faults: Option<&str>,
) -> Result<Command, String> {
    let Some(cmd) = argv.first() else {
        return Err("no command given".into());
    };
    match cmd.as_str() {
        "topology" => {
            ChaosSpec::from_env(env_chaos)?;
            if let Some(extra) = argv.get(2) {
                return Err(format!(
                    "topology takes nothing after its machine, got {extra:?}"
                ));
            }
            match argv.get(1) {
                Some(m) => Ok(Command::Topology(Some(parse_machine(m)?))),
                None => Ok(Command::Topology(None)),
            }
        }
        "run" | "sweep" | "fit" | "burst" => {
            let program = argv
                .get(1)
                .ok_or_else(|| format!("{cmd} needs a program (e.g. CG.C)"))?;
            let mut opts = parse_options(
                cmd,
                RunOptions {
                    program: parse_program(program)?,
                    ..RunOptions::default()
                },
                &argv[2..],
            )?;
            opts.campaign.chaos_from_env(env_chaos)?;
            if opts.extended_protocol && opts.machine != Preset::Numa {
                return Err("fit --protocol extended needs --machine numa".into());
            }
            if cmd == "fit" && opts.faults.is_none() {
                if let Some(v) = env_faults.filter(|v| !v.trim().is_empty()) {
                    let spec = FaultSpec::parse(v).map_err(|e| format!("{FAULTS_ENV}: {e}"))?;
                    opts.faults = Some(spec);
                }
            }
            if opts.trace_out.is_some() || opts.metrics_out.is_some() {
                opts.campaign.metrics = Some(Arc::default());
            }
            Ok(match cmd.as_str() {
                "run" => Command::Run(opts),
                "sweep" => Command::Sweep(opts),
                "fit" => Command::Fit(opts),
                _ => Command::Burst(opts),
            })
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_programs() {
        assert!(matches!(
            parse_program("CG.C"),
            Ok(ProgramSpec::Cg(ProblemClass::C))
        ));
        assert!(matches!(
            parse_program("mg.W"),
            Ok(ProgramSpec::Mg(ProblemClass::W))
        ));
        assert!(matches!(
            parse_program("x264.native"),
            Ok(ProgramSpec::X264("native"))
        ));
        assert!(parse_program("LU.C").is_err());
        assert!(parse_program("CG.Z").is_err());
        assert!(parse_program("CG").is_err());
    }

    #[test]
    fn parses_full_command_line() {
        let cmd = parse(
            &sv(&[
                "sweep",
                "SP.C",
                "--machine",
                "numa",
                "--prefetch",
                "2",
                "--scale",
                "32",
                "--scheduler",
                "frfcfs",
                "--placement",
                "firsttouch",
                "--jobs",
                "4",
                "--seed",
                "7",
            ]),
            None,
            None,
        )
        .unwrap();
        let Command::Sweep(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.machine, Preset::Numa);
        assert_eq!(o.prefetch, 2);
        assert_eq!(o.scale_denom, 32.0);
        assert_eq!(o.scheduler, McScheduler::FrFcfs);
        assert_eq!(o.placement, MemoryPolicy::FirstTouch);
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.seed, 7);
        // --jobs 0 parses here; the command layer rejects it as a typed
        // configuration error (exit 3), tested in cli_smoke.rs.
        assert!(parse(&sv(&["sweep", "SP.C", "--jobs", "x"]), None, None).is_err());
    }

    #[test]
    fn extended_protocol_needs_the_numa_machine() {
        let fit = |flags: &[&str]| parse(&sv(&[&["fit", "CG.S"], flags].concat()), None, None);
        for machine in ["numa", "uma", "amd"] {
            let got = fit(&["--protocol", "extended", "--machine", machine]);
            match got {
                Ok(Command::Fit(o)) => assert!(machine == "numa" && o.extended_protocol),
                Ok(_) => panic!("wrong command"),
                Err(e) => assert!(machine != "numa" && e.contains("--machine numa"), "{e}"),
            }
        }
        assert!(
            fit(&["--protocol", "extended"]).is_err(),
            "uma is the default"
        );
        assert!(fit(&["--machine", "amd", "--protocol", "paper"]).is_ok());
    }

    #[test]
    fn parses_fault_spec() {
        let cmd = parse(
            &sv(&["fit", "CG.C", "--faults", "drop=0.2,jitter=0.05,seed=9"]),
            None,
            None,
        )
        .unwrap();
        let Command::Fit(o) = cmd else {
            panic!("wrong command")
        };
        let f = o.faults.unwrap();
        assert_eq!(f.drop, 0.2);
        assert_eq!(f.jitter, 0.05);
        assert_eq!(f.seed, 9);
        assert!(parse(&sv(&["fit", "CG.C", "--faults", "drop=2"]), None, None).is_err());
        assert!(parse(&sv(&["fit", "CG.C", "--faults", "bogus=1"]), None, None).is_err());
        // OFFCHIP_FAULTS is fit's default: the flag beats it, a malformed
        // value names the variable, and no other command reads it.
        let faults = |line: &[&str], env: &str| match parse(&sv(line), None, Some(env)) {
            Ok(Command::Fit(o)) => Ok(o.faults.map(|f| f.drop)),
            Ok(_) => Ok(None),
            Err(e) => Err(e),
        };
        assert_eq!(faults(&["fit", "CG.C"], "drop=0.5"), Ok(Some(0.5)));
        assert_eq!(faults(&["fit", "CG.C"], " "), Ok(None));
        assert_eq!(
            faults(&["fit", "CG.C", "--faults", "drop=0.25"], "bogus"),
            Ok(Some(0.25))
        );
        assert_eq!(faults(&["sweep", "CG.C"], "bogus"), Ok(None));
        let e = faults(&["fit", "CG.C"], "bogus").unwrap_err();
        assert!(e.starts_with("OFFCHIP_FAULTS: "), "{e}");
    }

    #[test]
    fn parses_campaign_flags() {
        // The campaign layer owns these flags' grammar (its
        // `options_parse_contract`); the CLI hands them over, interleaved
        // with its own, and passes their errors through verbatim.
        let flags = [
            "--resume",
            "--deadline",
            "1.5",
            "--retries",
            "2",
            "--max-events",
            "500",
            "--journal-dir",
            "/tmp/j",
            "--watchdog",
            "30",
        ];
        let mut line = vec!["sweep", "CG.C", "--seed", "7"];
        line.extend(flags);
        line.extend(["--out", "/tmp/sweep.json"]);
        let Ok(Command::Sweep(o)) = parse(&sv(&line), None, None) else {
            panic!("wrong command")
        };
        let want = CampaignOptions::parse(&sv(&flags)).unwrap();
        assert_eq!(o.seed, 7);
        assert_eq!(
            o.out.as_deref(),
            Some(std::path::Path::new("/tmp/sweep.json"))
        );
        assert!(o.campaign.resume);
        assert_eq!(o.campaign.deadline, want.deadline);
        assert_eq!(o.campaign.retries, want.retries);
        assert_eq!(o.campaign.max_events, want.max_events);
        assert_eq!(o.campaign.journal_dir, want.journal_dir);
        assert_eq!(o.campaign.watchdog, want.watchdog);
        for bad in [
            ["--deadline", "1e300"],
            ["--retries", "-1"],
            ["--watchdog", "0"],
        ] {
            let mut line = vec!["sweep", "CG.C"];
            line.extend(bad);
            assert_eq!(
                parse(&sv(&line), None, None).unwrap_err(),
                CampaignOptions::parse(&sv(&bad)).unwrap_err()
            );
        }
    }

    #[test]
    fn parses_chaos_flags() {
        // `--chaos-io` becomes the campaign's Vfs; OFFCHIP_CHAOS_IO, passed
        // in, is its default, and a malformed value is a usage error for
        // every command.
        let vfs_set = |line: &[&str], env: Option<&str>| match parse(&sv(line), env, None) {
            Ok(Command::Sweep(o)) => o.campaign.vfs.is_some(),
            other => panic!("{other:?}"),
        };
        assert!(vfs_set(
            &["sweep", "CG.C", "--chaos-io", "eio@fsync:1"],
            None
        ));
        assert!(vfs_set(&["sweep", "CG.C"], Some("eio@fsync:1")));
        assert!(!vfs_set(&["sweep", "CG.C"], None));
        assert!(vfs_set(
            &["sweep", "CG.C", "--chaos-io", "eio@fsync:1"],
            Some("garbage")
        ));
        let e = parse(
            &sv(&["sweep", "CG.C", "--chaos-io", "frob@disk:1"]),
            None,
            None,
        )
        .unwrap_err();
        assert!(e.starts_with("--chaos-io: chaos-io clause"), "{e}");
        for line in [&["sweep", "CG.C"][..], &["topology"]] {
            let e = parse(&sv(line), Some("eio@write"), None).unwrap_err();
            assert!(e.starts_with("OFFCHIP_CHAOS_IO: "), "{line:?}: {e}");
        }
    }

    #[test]
    fn parses_obs_flags() {
        let cmd = parse(
            &sv(&[
                "sweep",
                "CG.A",
                "--trace",
                "/tmp/t.json",
                "--metrics",
                "/tmp/m.csv",
                "--log-level",
                "debug",
                "--log-format",
                "json",
            ]),
            None,
            None,
        )
        .unwrap();
        let Command::Sweep(o) = cmd else {
            panic!("wrong command")
        };
        assert!(
            o.campaign.metrics.is_some(),
            "--trace/--metrics build a registry"
        );
        assert_eq!(
            o.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert_eq!(
            o.metrics_out.as_deref(),
            Some(std::path::Path::new("/tmp/m.csv"))
        );
        assert_eq!(o.log_level, Some(offchip_obs::LogLevel::Debug));
        assert_eq!(o.log_format, Some(offchip_obs::LogFormat::Json));
        let Ok(Command::Run(o)) = parse(&sv(&["run", "CG.A"]), None, None) else {
            panic!("wrong command")
        };
        assert!(o.campaign.metrics.is_none(), "unobserved by default");
        assert_eq!(
            parse(&sv(&["run", "CG.A", "--obs", "trace"]), None, None).unwrap_err(),
            "unknown option \"--obs\""
        );
        assert!(parse(&sv(&["run", "CG.A", "--log-level", "chatty"]), None, None).is_err());
        assert!(parse(&sv(&["run", "CG.A", "--log-format", "yaml"]), None, None).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&sv(&[]), None, None).is_err());
        assert!(parse(&sv(&["frobnicate"]), None, None).is_err());
        assert!(parse(&sv(&["run"]), None, None).is_err());
        assert!(parse(&sv(&["run", "CG.C", "--cores"]), None, None).is_err());
        assert!(parse(&sv(&["run", "CG.C", "--machine", "sparc"]), None, None).is_err());
        let max = MAX_THREADS.to_string();
        let over = (MAX_THREADS + 1).to_string();
        for bad in [
            ["--scale", "0.5"],
            ["--scale", "nan"],
            ["--scale", "inf"],
            ["--threads", "0"],
            ["--threads", &over],
        ] {
            let mut line = vec!["run", "CG.C"];
            line.extend(bad);
            assert!(parse(&sv(&line), None, None).is_err(), "{bad:?}");
        }
        // The thread cap is inclusive, and the usage text states it.
        assert!(parse(&sv(&["run", "CG.C", "--threads", &max]), None, None).is_ok());
        assert!(USAGE.contains(&format!("program threads, 1 to {MAX_THREADS} ")));
    }

    #[test]
    fn topology_variants() {
        assert!(matches!(
            parse(&sv(&["topology"]), None, None),
            Ok(Command::Topology(None))
        ));
        assert!(matches!(
            parse(&sv(&["topology", "amd"]), None, None),
            Ok(Command::Topology(Some(Preset::Amd)))
        ));
        assert!(parse(&sv(&["topology", "uma", "extra"]), None, None).is_err());
    }
}
