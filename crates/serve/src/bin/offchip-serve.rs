//! `offchip-serve` — the contention-prediction HTTP service.
//!
//! ```text
//! offchip-serve [--addr HOST:PORT] [--workers N] [--jobs N] [--journal-dir DIR]
//!               [--max-queue N] [--max-conns N] [--header-deadline MS]
//!               [--chaos-net SPEC] [--log-format kv|json]
//! ```
//!
//! Binds (port 0 = ephemeral), prints `offchip-serve listening on
//! HOST:PORT` on stdout (tests and CI parse that line for the port),
//! and serves until SIGTERM/SIGINT, then drains and exits 0.
//!
//! A request's fill budget is its `X-Offchip-Deadline-Ms` header, else
//! 600 s. A key's circuit breaker opens after 3 consecutive failed fills
//! and probes once per 8 requests while open.
//!
//! Environment: `OFFCHIP_SEEDS` (1 to 64) and `OFFCHIP_QUICK` set the
//! fill-campaign seed count, `OFFCHIP_JOBS` the default simulation
//! worker budget, `OFFCHIP_JOURNAL_DIR` the default journal directory,
//! `OFFCHIP_LOG` the log level, `OFFCHIP_LOG_FORMAT` the log format
//! (overridden by `--log-format`), `OFFCHIP_CHAOS_IO` a filesystem fault
//! schedule for the fill campaigns, `OFFCHIP_CHAOS_NET` a socket fault
//! schedule (overridden by `--chaos-net`).

use offchip_serve::{signal, PredictService, Server, ServerOptions, ServiceConfig};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "\
usage: offchip-serve [--addr HOST:PORT] [--workers N] [--jobs N] [--journal-dir DIR]
                     [--max-queue N] [--max-conns N] [--header-deadline MS]
                     [--chaos-net SPEC] [--log-format kv|json]
  --addr HOST:PORT        bind address (default 127.0.0.1:7071; port 0 = ephemeral)
  --workers N             HTTP worker threads (default 8)
  --jobs N                simulation worker budget for fill campaigns (default OFFCHIP_JOBS,
                          else available parallelism)
  --journal-dir DIR       campaign journal directory (default results/ or OFFCHIP_JOURNAL_DIR)
  --max-queue N           connections waiting for a worker before shedding (default 128)
  --max-conns N           queued + in-service connections before shedding (default 1024)
  --header-deadline MS    budget to read one full request after its first byte (default 10000)
  --chaos-net SPEC        socket fault schedule, e.g. stall@read:2:300,reset@write:3
                          or seed:42 (default OFFCHIP_CHAOS_NET)
  --log-format kv|json    log record format: key-value text or structured JSON with
                          trace-id stamping (default OFFCHIP_LOG_FORMAT or kv)";

#[derive(Debug)]
struct Parsed {
    server: ServerOptions,
    service: ServiceConfig,
    /// `--log-format`, applied by `main` (the parser sets no globals).
    log_format: Option<offchip_obs::LogFormat>,
}

/// The environment variables the parser reads. `main` passes the
/// process's values in, so the parser reads no process state.
#[derive(Debug, Default)]
struct Env {
    /// `OFFCHIP_SEEDS`, the fill campaigns' seed count.
    seeds: Option<String>,
    /// `OFFCHIP_QUICK`, whose `1` cuts the fill campaigns to one seed.
    quick: Option<String>,
    /// `OFFCHIP_JOBS`, the `--jobs` default.
    jobs: Option<String>,
    /// `OFFCHIP_CHAOS_IO`, the fill campaigns' filesystem fault schedule.
    chaos_io: Option<String>,
    /// `OFFCHIP_CHAOS_NET`, the `--chaos-net` default.
    chaos_net: Option<String>,
}

impl Env {
    fn of_process() -> Env {
        let var = |name| std::env::var(name).ok();
        Env {
            seeds: var(offchip_bench::SEEDS_ENV),
            quick: var("OFFCHIP_QUICK"),
            jobs: var(offchip_pool::JOBS_ENV),
            chaos_io: var(offchip_chaos::CHAOS_ENV),
            chaos_net: var(offchip_chaos::NET_CHAOS_ENV),
        }
    }
}

/// Parses the command line, with `env` supplying the defaults the flags
/// override.
fn parse_args(args: &[String], env: &Env) -> Result<Parsed, String> {
    let mut server = ServerOptions::default();
    let mut service = ServiceConfig::default();
    let mut jobs = None;
    let mut log_format = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--addr" => server.addr = value()?,
            "--workers" => {
                let n: usize = value()?.parse().map_err(|e| format!("--workers: {e}"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".into());
                }
                server.workers = n;
            }
            "--jobs" => {
                let n: usize = value()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                jobs = Some(n);
            }
            "--journal-dir" => service.journal_dir = Some(PathBuf::from(value()?)),
            "--max-queue" => {
                let n: usize = value()?.parse().map_err(|e| format!("--max-queue: {e}"))?;
                if n == 0 {
                    return Err("--max-queue must be at least 1".into());
                }
                server.admission.max_queue = n;
            }
            "--max-conns" => {
                let n: usize = value()?.parse().map_err(|e| format!("--max-conns: {e}"))?;
                if n == 0 {
                    return Err("--max-conns must be at least 1".into());
                }
                server.admission.max_conns = n;
            }
            "--header-deadline" => {
                let ms: u64 = value()?
                    .parse()
                    .map_err(|e| format!("--header-deadline: {e}"))?;
                if ms == 0 {
                    return Err("--header-deadline must be at least 1 ms".into());
                }
                server.header_deadline = Duration::from_millis(ms);
            }
            "--chaos-net" => {
                let spec = offchip_chaos::NetSpec::parse(&value()?)
                    .map_err(|e| format!("--chaos-net: {e}"))?;
                server.chaos_net = Some(spec);
            }
            "--log-format" => {
                let v = value()?;
                let f = offchip_obs::LogFormat::parse(&v)
                    .ok_or_else(|| format!("--log-format: expected kv or json, got {v:?}"))?;
                log_format = Some(f);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if server.admission.max_conns < server.admission.max_queue {
        return Err("--max-conns must be at least --max-queue".into());
    }
    service.seeds = offchip_bench::seeds_from(env.quick.as_deref(), env.seeds.as_deref())?;
    service.jobs = offchip_pool::resolve_jobs_from(jobs, env.jobs.as_deref())
        .map_err(|e| format!("{}: {e}", offchip_pool::JOBS_ENV))?;
    service.chaos_io = offchip_chaos::ChaosSpec::from_env(env.chaos_io.as_deref())?;
    if server.chaos_net.is_none() {
        server.chaos_net = offchip_chaos::NetSpec::from_env(env.chaos_net.as_deref())?;
    }
    Ok(Parsed {
        server,
        service,
        log_format,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args, &Env::of_process()) {
        Ok(p) => p,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("offchip-serve: {e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(if e.is_empty() { 0 } else { 2 });
        }
    };
    if let Some(f) = parsed.log_format {
        offchip_obs::set_log_format(f);
    }
    // Filesystem fault schedules hit the fill campaigns' journals — the
    // route by which e2e tests trip the circuit breaker.
    if let Some(spec) = &parsed.service.chaos_io {
        offchip_obs::warn!("serve: chaos-io fault schedule active: {spec}");
    }
    if let Some(spec) = &parsed.server.chaos_net {
        offchip_obs::warn!(
            "serve: chaos-net fault schedule active: {} fault(s)",
            spec.faults.len()
        );
    }

    signal::install();
    let service = PredictService::new(parsed.service.clone());
    let server = match Server::bind(&parsed.server, service) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("offchip-serve: cannot bind {}: {e}", parsed.server.addr);
            std::process::exit(5);
        }
    };
    // Stdout, flushed: the e2e tests and CI parse this line for the
    // ephemeral port.
    println!("offchip-serve listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    offchip_obs::info!(
        "serve: {} worker(s), {} fill job(s), journal dir {}, queue {} (high-water {}), \
         {} conn(s) max",
        parsed.server.workers,
        parsed.service.jobs,
        parsed
            .service
            .journal_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "default".into()),
        parsed.server.admission.max_queue,
        parsed.server.admission.high_water(),
        parsed.server.admission.max_conns,
    );

    // The signal handlers' flag is the server's shutdown flag.
    server.run(signal::flag());
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_serve::AdmissionConfig;

    fn parse(line: &str) -> Result<Parsed, String> {
        parse_in(line, Env::default())
    }

    fn parse_in(line: &str, env: Env) -> Result<Parsed, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args, &env)
    }

    fn jobs_env(value: &str) -> Env {
        Env {
            jobs: Some(value.into()),
            ..Env::default()
        }
    }

    /// Every flag that takes a count or a millisecond budget; 0 is never
    /// meaningful for any of them.
    const NUMERIC: [&str; 5] = [
        "--workers",
        "--jobs",
        "--max-queue",
        "--max-conns",
        "--header-deadline",
    ];

    #[test]
    fn numeric_flags_reject_zero_garbage_and_a_missing_value() {
        for flag in NUMERIC {
            let err = parse(&format!("{flag} 0")).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} must be at least 1")),
                "{flag} 0: {err}"
            );
            let err = parse(&format!("{flag} many")).unwrap_err();
            assert!(err.starts_with(&format!("{flag}: ")), "{flag} many: {err}");
            assert_eq!(parse(flag).unwrap_err(), format!("{flag} needs a value"));
        }
        for flag in ["--addr", "--journal-dir", "--chaos-net", "--log-format"] {
            assert_eq!(parse(flag).unwrap_err(), format!("{flag} needs a value"));
        }
    }

    #[test]
    fn cross_checks_and_spec_values_are_rejected() {
        assert_eq!(
            parse("--max-conns 4 --max-queue 8").unwrap_err(),
            "--max-conns must be at least --max-queue"
        );
        let err = parse("--log-format xml").unwrap_err();
        assert!(
            err.starts_with("--log-format: expected kv or json"),
            "{err}"
        );
        let err = parse("--chaos-net explode@read").unwrap_err();
        assert!(err.starts_with("--chaos-net: "), "{err}");
        // A seed count is capped, not handed to an allocation.
        let err = parse(&format!("--chaos-net seed:1:{}", u64::MAX)).unwrap_err();
        assert!(
            err.starts_with("--chaos-net: ") && err.contains("cap"),
            "{err}"
        );
    }

    #[test]
    fn jobs_default_to_the_environment_and_reject_its_garbage() {
        for bad in ["abc", "0", ""] {
            let err = parse_in("", jobs_env(bad)).unwrap_err();
            assert!(err.starts_with("OFFCHIP_JOBS: "), "{bad:?}: {err}");
        }
        let parsed = parse_in("", jobs_env("3")).unwrap();
        assert_eq!(parsed.service.jobs, 3);
        let parsed = parse_in("--jobs 2", jobs_env("abc")).unwrap();
        assert_eq!(parsed.service.jobs, 2, "--jobs wins over the environment");
        let parsed = parse("").unwrap();
        assert_eq!(parsed.service.jobs, offchip_pool::default_jobs());
    }

    #[test]
    fn seeds_come_from_the_environment_and_reject_its_garbage() {
        let seeds_env = |seeds: &str, quick: Option<&str>| Env {
            seeds: Some(seeds.into()),
            quick: quick.map(String::from),
            ..Env::default()
        };
        let cap_plus_one = (offchip_bench::MAX_SEEDS + 1).to_string();
        for bad in ["abc", "0", cap_plus_one.as_str()] {
            for quick in [None, Some("1")] {
                let err = parse_in("", seeds_env(bad, quick)).unwrap_err();
                assert!(err.starts_with("OFFCHIP_SEEDS: "), "{bad:?}: {err}");
            }
        }
        let seeds = |env| parse_in("", env).unwrap().service.seeds;
        assert_eq!(seeds(seeds_env("2", None)).len(), 2);
        assert_eq!(seeds(seeds_env("5", Some("1"))).len(), 1);
        assert_eq!(seeds(Env::default()), ServiceConfig::default().seeds);
    }

    #[test]
    fn chaos_schedules_default_to_the_environment_and_reject_its_garbage() {
        let io = |value: &str| Env {
            chaos_io: Some(value.into()),
            ..Env::default()
        };
        let err = parse_in("", io("explode@write")).unwrap_err();
        assert!(
            err.starts_with("OFFCHIP_CHAOS_IO: chaos-io clause"),
            "{err}"
        );
        let parsed = parse_in("", io("eio@write:2")).unwrap();
        assert_eq!(
            parsed.service.chaos_io,
            Some(offchip_chaos::ChaosSpec::parse("eio@write:2").unwrap())
        );
        assert_eq!(parse_in("", io(" ")).unwrap().service.chaos_io, None);
        let net = |value: &str| Env {
            chaos_net: Some(value.into()),
            ..Env::default()
        };
        let err = parse_in("", net("explode@read")).unwrap_err();
        assert!(
            err.starts_with("OFFCHIP_CHAOS_NET: chaos-net clause"),
            "{err}"
        );
        let parsed = parse_in("--chaos-net reset@read:1", net("explode@read")).unwrap();
        assert!(parsed.server.chaos_net.is_some(), "--chaos-net wins");
    }

    #[test]
    fn unknown_and_removed_flags_are_unknown_options() {
        // The three `--slo-*` flags left with the burn-rate tracker, and
        // the breaker and request-deadline flags became constants; a
        // script still passing one must fail loudly, not be ignored.
        let slo = ["availability 0.99", "p99-ms 500", "gate-readyz"].map(|f| format!("--slo-{f}"));
        let constants = [
            "--breaker-threshold 3",
            "--breaker-probe-every 2",
            "--request-deadline 100",
        ];
        let lines = ["--bogus", "serve"]
            .into_iter()
            .chain(slo.iter().map(String::as_str))
            .chain(constants);
        for line in lines {
            let flag = line.split_whitespace().next().unwrap();
            assert_eq!(
                parse(line).unwrap_err(),
                format!("unknown option {flag:?}"),
                "{line}"
            );
        }
    }

    #[test]
    fn help_is_the_empty_error() {
        // `main` prints the usage and exits 0 on the empty message.
        assert_eq!(parse("--help").unwrap_err(), "");
        assert_eq!(parse("-h").unwrap_err(), "");
        assert_eq!(parse("--workers 2 --help --bogus").unwrap_err(), "");
    }

    #[test]
    fn a_full_command_line_sets_every_field() {
        let parsed = parse(
            "--addr 0.0.0.0:9000 --workers 3 --jobs 2 --journal-dir journals \
             --max-queue 16 --max-conns 64 --header-deadline 250 \
             --chaos-net stall@read:2:300 --log-format json",
        )
        .unwrap();
        assert_eq!(
            parsed.server,
            ServerOptions {
                addr: "0.0.0.0:9000".into(),
                workers: 3,
                admission: AdmissionConfig {
                    max_queue: 16,
                    max_conns: 64,
                },
                header_deadline: Duration::from_millis(250),
                chaos_net: Some(offchip_chaos::NetSpec::parse("stall@read:2:300").unwrap()),
            }
        );
        assert_eq!(
            parsed.service,
            ServiceConfig {
                journal_dir: Some(PathBuf::from("journals")),
                jobs: 2,
                ..ServiceConfig::default()
            }
        );
        assert_eq!(parsed.log_format, Some(offchip_obs::LogFormat::Json));
    }
}
