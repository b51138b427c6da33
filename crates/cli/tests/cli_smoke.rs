//! Smoke tests driving the CLI binary end to end.

use std::process::Command;

fn offchip() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_offchip"));
    // Keep sweep/fit campaign journals out of the working tree.
    cmd.env(
        "OFFCHIP_JOURNAL_DIR",
        std::env::temp_dir().join("offchip-cli-smoke-journals"),
    );
    cmd
}

fn run_ok(args: &[&str]) -> String {
    let out = offchip().args(args).output().expect("spawn offchip");
    assert!(
        out.status.success(),
        "offchip {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn topology_prints_all_machines() {
    let out = run_ok(&["topology"]);
    assert!(out.contains("Xeon E5320"));
    assert!(out.contains("Xeon X5650"));
    assert!(out.contains("Opteron 6172"));
    assert!(out.contains("hop matrix"));
}

#[test]
fn run_prints_papiex_report() {
    let out = run_ok(&["run", "IS.S", "--machine", "uma", "--cores", "2"]);
    assert!(out.contains("PAPI_TOT_CYC"));
    assert!(out.contains("IS.S"));
}

#[test]
fn fit_prints_model_parameters() {
    let out = run_ok(&["fit", "CG.W", "--machine", "uma", "--scale", "128"]);
    assert!(out.contains("M/M/1"));
    assert!(out.contains("measured"));
}

#[test]
fn burst_classifies_traffic() {
    let out = run_ok(&["burst", "CG.S", "--machine", "uma", "--cores", "4"]);
    assert!(out.contains("verdict"));
    assert!(out.contains("idle fraction"));
}

#[test]
fn sweep_plots_omega() {
    let out = run_ok(&["sweep", "EP.S", "--machine", "uma", "--scale", "128"]);
    assert!(out.contains("omega"));
    assert!(out.contains("n= 8") || out.contains("n=8") || out.contains("n= 2"));
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = offchip()
        .args(["run", "LU.C"])
        .output()
        .expect("spawn offchip");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown kernel"));
    assert!(err.contains("usage:"));
}

#[test]
fn bad_config_exits_with_config_code() {
    // 99 cores on the 8-core UMA machine: parses fine, validates never.
    let out = offchip()
        .args(["run", "IS.S", "--machine", "uma", "--cores", "99"])
        .output()
        .expect("spawn offchip");
    assert_eq!(out.status.code(), Some(3), "config errors exit 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("n_cores"), "diagnosis names the knob: {err}");
}

#[test]
fn malformed_fault_spec_is_a_usage_error() {
    let out = offchip()
        .args(["fit", "CG.W", "--faults", "drop=2"])
        .output()
        .expect("spawn offchip");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("out of range"), "{err}");
}

#[test]
fn malformed_fault_env_exits_2_before_any_journal_opens() {
    // OFFCHIP_FAULTS is parsed with the command line, like --faults: a
    // malformed value costs no sweep.
    let dir = std::env::temp_dir().join(format!("offchip-cli-faults-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = offchip()
        .args(["fit", "CG.S", "--machine", "uma", "--scale", "128"])
        .arg("--journal-dir")
        .arg(&dir)
        .env("OFFCHIP_FAULTS", "bogus")
        .output()
        .expect("spawn offchip");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("OFFCHIP_FAULTS"), "names the variable: {err}");
    let journals = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    assert_eq!(journals, 0, "no journal written under {}", dir.display());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn extended_protocol_off_numa_exits_2_before_any_journal_opens() {
    // The extended protocol adds the Intel NUMA machine's full-machine
    // point; on any other machine it would silently fit the paper's.
    let dir = std::env::temp_dir().join(format!("offchip-cli-protocol-{}", std::process::id()));
    for machine in ["uma", "amd"] {
        let out = offchip()
            .args(["fit", "CG.S", "--scale", "128", "--protocol", "extended"])
            .args(["--machine", machine])
            .arg("--journal-dir")
            .arg(&dir)
            .output()
            .expect("spawn offchip");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{machine}: {err}");
        assert!(err.contains("--machine numa"), "{machine}: {err}");
        assert!(
            !dir.exists(),
            "{machine}: no journal under {}",
            dir.display()
        );
    }
}

#[test]
fn options_scoped_to_other_commands_exit_2() {
    // Each option the usage scopes to other commands is refused by name,
    // never accepted and ignored.
    let dir = std::env::temp_dir().join(format!("offchip-cli-scoped-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_file = dir.join("out.json");
    let out_path = out_file.to_str().expect("utf-8 temp path");
    let journal_dir = dir.join("journals");
    let journal_path = journal_dir.to_str().expect("utf-8 temp path");
    let run_refuses = [
        vec!["--jobs", "3"],
        vec!["--out", out_path],
        vec!["--protocol", "extended"],
        vec!["--faults", "drop=0.5"],
        vec!["--resume"],
        vec!["--retries", "5"],
        vec!["--journal-dir", journal_path],
        vec!["--watchdog", "0.000001"],
    ];
    let mut cases = Vec::new();
    for flags in &run_refuses {
        cases.push((vec!["run", "IS.S", "--cores", "2"], flags.clone()));
        cases.push((vec!["burst", "CG.S", "--cores", "4"], flags.clone()));
    }
    for flags in [
        vec!["--cores", "3"],
        vec!["--protocol", "extended"],
        vec!["--faults", "drop=0.5"],
    ] {
        cases.push((vec!["sweep", "EP.S", "--scale", "128"], flags));
    }
    for flags in [vec!["--cores", "3"], vec!["--out", out_path]] {
        cases.push((vec!["fit", "CG.S", "--scale", "128"], flags));
    }
    cases.push((vec!["topology", "uma"], vec!["bogus", "extra"]));
    for (command, flags) in &cases {
        let named = flags[0];
        let out = offchip()
            .args(command)
            .args(flags)
            .output()
            .expect("spawn offchip");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command:?} {flags:?}: {err}");
        let first = err.lines().next().unwrap_or_default();
        assert!(
            first.contains(command[0]) && first.contains(named),
            "{command:?} {flags:?}: the error names the command and {named}: {err}"
        );
    }
    assert!(!dir.exists(), "no file or journal directory was written");
}

#[test]
fn faulted_fit_reports_quality_or_typed_error() {
    // Heavy but survivable faults: the robust pipeline must either fit
    // (printing its degradation ledger) or refuse with exit code 4 — and
    // never panic (which would exit 101).
    let out = offchip()
        .args([
            "fit",
            "CG.W",
            "--machine",
            "uma",
            "--scale",
            "128",
            "--faults",
            "drop=0.2,jitter=0.05,seed=11",
        ])
        .output()
        .expect("spawn offchip");
    let code = out.status.code().expect("not killed by signal");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    match code {
        0 => assert!(stdout.contains("fit quality:"), "{stdout}"),
        4 => assert!(stderr.contains("model fit failed"), "{stderr}"),
        other => panic!("unexpected exit {other}:\n{stdout}\n{stderr}"),
    }
}

#[test]
fn overwhelming_faults_exit_with_fit_code() {
    // Dropping every sweep point leaves nothing to fit: a typed refusal.
    let out = offchip()
        .args([
            "fit",
            "CG.W",
            "--machine",
            "uma",
            "--scale",
            "128",
            "--faults",
            "drop=1.0",
        ])
        .output()
        .expect("spawn offchip");
    assert_eq!(out.status.code(), Some(4), "fit errors exit 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("model fit failed"), "{err}");
}

#[test]
fn alternate_knobs_accepted() {
    let out = run_ok(&[
        "run",
        "SP.S",
        "--machine",
        "numa",
        "--cores",
        "4",
        "--prefetch",
        "2",
        "--scheduler",
        "frfcfs",
        "--placement",
        "firsttouch",
        "--scale",
        "128",
        "--seed",
        "9",
    ]);
    assert!(out.contains("SP.S"));
    assert!(out.contains("LLC_MISSES"), "Intel NUMA LLC event");
}

#[test]
fn sweep_accepts_jobs_flag_and_logs_timing_to_stderr() {
    // Diagnostics (timing, heartbeats) go to stderr so piped stdout stays
    // a clean report; the omega table itself stays on stdout.
    let out = offchip()
        .args([
            "sweep",
            "EP.S",
            "--machine",
            "uma",
            "--scale",
            "128",
            "--jobs",
            "2",
        ])
        .output()
        .expect("spawn offchip");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("omega"), "report on stdout: {stdout}");
    assert!(
        !stdout.contains("sweep timing:"),
        "no diagnostics on stdout: {stdout}"
    );
    assert!(
        stderr.contains("sweep timing:") && stderr.contains("jobs=2"),
        "timing line on stderr names the worker count: {stderr}"
    );
    assert!(stderr.contains("runs/s"), "throughput reported: {stderr}");
}

#[test]
fn sweep_resume_replays_the_journal() {
    // An uninterrupted sweep, then the same sweep with --resume: every run
    // must replay from the journal (0 executed) and the omega table must
    // come out identical, which is the byte-identity contract end to end.
    let dir = std::env::temp_dir().join(format!("offchip-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |resume: bool| {
        let mut cmd = offchip();
        cmd.args([
            "sweep",
            "IS.S",
            "--machine",
            "uma",
            "--scale",
            "128",
            "--jobs",
            "2",
        ])
        .env("OFFCHIP_JOURNAL_DIR", &dir);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("spawn offchip");
        assert!(
            out.status.success(),
            "sweep (resume={resume}) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8(out.stdout).expect("utf8 stdout"),
            String::from_utf8(out.stderr).expect("utf8 stderr"),
        )
    };
    let (first, _) = run(false);
    let (second, second_err) = run(true);
    assert!(
        second_err.contains("0 runs executed, 8 resumed"),
        "resume status logged to stderr: {second_err}"
    );
    let omega_table = |s: &str| {
        s.lines()
            .filter(|l| l.trim_start().starts_with("n="))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(omega_table(&first), omega_table(&second));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_and_metrics_flags_write_artefacts() {
    let dir = std::env::temp_dir().join(format!("offchip-cli-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.csv");
    let out = offchip()
        .args([
            "sweep",
            "IS.S",
            "--machine",
            "uma",
            "--scale",
            "128",
            "--jobs",
            "2",
        ])
        .arg("--trace")
        .arg(&trace)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("spawn offchip");
    assert!(
        out.status.success(),
        "traced sweep failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tj = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        tj.starts_with("{\"traceEvents\":["),
        "chrome shape: {}",
        &tj[..60.min(tj.len())]
    );
    assert!(tj.contains("\"ph\":\"X\""), "complete events present");
    assert!(
        tj.contains("\"cat\":\"dram\""),
        "DRAM service spans present"
    );
    let mc = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(mc.starts_with("kind,name,value"), "csv header: {mc}");
    assert!(
        mc.contains("dram.queue_wait_cycles"),
        "queue-wait histogram: {mc}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_trace_rename_exits_5_and_leaves_no_file() {
    // `--metrics` and `--trace` go through the Vfs like every other
    // artefact. The metrics file is renamed first, so failing the second
    // rename hits the trace: a runtime error that leaves neither the
    // trace nor its temp file behind.
    let dir = std::env::temp_dir().join(format!("offchip-cli-obs-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = offchip()
        .args(["run", "CG.S", "--machine", "uma", "--cores", "4", "--trace"])
        .arg(dir.join("t.json"))
        .arg("--metrics")
        .arg(dir.join("m.csv"))
        .args(["--chaos-io", "eio@rename:2"])
        .output()
        .expect("spawn offchip");
    assert_eq!(
        out.status.code(),
        Some(5),
        "failed trace write exits 5:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    left.sort();
    assert_eq!(left, ["m.csv"], "only the metrics file is written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_jobs_exits_with_config_code() {
    let out = offchip()
        .args([
            "sweep",
            "EP.S",
            "--machine",
            "uma",
            "--scale",
            "128",
            "--jobs",
            "0",
        ])
        .output()
        .expect("spawn offchip");
    assert_eq!(out.status.code(), Some(3), "--jobs 0 is a config error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("jobs"), "diagnosis names the knob: {err}");
}

#[test]
fn garbage_jobs_env_exits_with_config_code() {
    let out = offchip()
        .args(["sweep", "EP.S", "--machine", "uma", "--scale", "128"])
        .env("OFFCHIP_JOBS", "abc")
        .output()
        .expect("spawn offchip");
    assert_eq!(out.status.code(), Some(3), "garbage OFFCHIP_JOBS exits 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("jobs"), "diagnosis names the knob: {err}");
}

#[test]
fn non_integer_jobs_flag_is_a_usage_error() {
    let out = offchip()
        .args(["sweep", "EP.S", "--machine", "uma", "--jobs", "two"])
        .output()
        .expect("spawn offchip");
    assert_eq!(out.status.code(), Some(2), "flag parse failures exit 2");
}

#[test]
fn unrepresentable_durations_are_usage_errors() {
    // `--deadline`/`--watchdog` SECS beyond `Duration`'s range used to
    // panic (exit 101); one that rounds to zero nanoseconds used to
    // become a zero deadline that failed every run.
    for args in [
        ["run", "CG.S", "--deadline", "1e300"],
        ["sweep", "CG.S", "--watchdog", "1e300"],
        ["run", "CG.S", "--deadline", "1e-300"],
    ] {
        let out = offchip().args(args).output().expect("spawn offchip");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("must be a positive number of seconds"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn hostile_numeric_flags_exit_2_or_3_never_panic() {
    // A non-finite scale and zero threads are usage errors (they used to
    // trip asserts, exit 101); a prefetch degree past the LLC's lines is
    // a configuration error, caught before a run or a campaign journal
    // starts (it used to grow the event queue without bound).
    let huge_prefetch = ["--scale", "128", "--prefetch", "99999999999"];
    let cases: [(&[&str], &[&str], i32); 7] = [
        (&["run", "CG.S"], &["--scale", "nan"], 2),
        (&["run", "CG.S"], &["--scale", "inf"], 2),
        (&["run", "CG.S"], &["--threads", "0"], 2),
        (&["run", "CG.S"], &huge_prefetch, 3),
        (&["burst", "CG.S"], &huge_prefetch, 3),
        (&["sweep", "CG.S"], &huge_prefetch, 3),
        (&["fit", "CG.S"], &huge_prefetch, 3),
    ];
    for (command, flags, code) in cases {
        let out = offchip()
            .args(command)
            .args(flags)
            .output()
            .expect("spawn offchip");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(code),
            "{command:?} {flags:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{command:?} {flags:?}: {err}");
    }
}

#[test]
fn malformed_chaos_spec_is_a_usage_error() {
    let out = offchip()
        .args([
            "sweep",
            "EP.S",
            "--machine",
            "uma",
            "--chaos-io",
            "explode@write",
        ])
        .output()
        .expect("spawn offchip");
    assert_eq!(out.status.code(), Some(2), "bad --chaos-io exits 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("chaos-io"), "diagnosis names the flag: {err}");
}

#[test]
fn malformed_chaos_env_is_a_usage_error() {
    let out = offchip()
        .args(["topology"])
        .env("OFFCHIP_CHAOS_IO", "eio@write")
        .output()
        .expect("spawn offchip");
    assert_eq!(out.status.code(), Some(2), "bad OFFCHIP_CHAOS_IO exits 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("OFFCHIP_CHAOS_IO"),
        "diagnosis names the variable: {err}"
    );
}

#[test]
fn torn_artefact_rename_exits_7_and_resume_recovers_byte_identical() {
    // The tentpole contract end to end: a sweep whose artefact rename is
    // torn exits 7 with every measurement journaled; the same sweep with
    // --resume under a clean Vfs re-simulates nothing and produces an
    // artefact byte-identical to a chaos-free run.
    let dir = std::env::temp_dir().join(format!("offchip-cli-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let golden_path = dir.join("golden.json");
    let out_path = dir.join("sweep.json");
    let sweep = |out: &std::path::Path, extra: &[&str], chaos: Option<&str>| {
        let mut cmd = offchip();
        cmd.args([
            "sweep",
            "IS.S",
            "--machine",
            "uma",
            "--scale",
            "128",
            "--jobs",
            "2",
        ])
        .arg("--out")
        .arg(out)
        .args(extra)
        .env("OFFCHIP_JOURNAL_DIR", dir.join("journals"));
        if let Some(spec) = chaos {
            cmd.args(["--chaos-io", spec]);
        }
        cmd.output().expect("spawn offchip")
    };

    // A chaos-free golden artefact from a separate journal directory
    // would race the faulted campaign's journal name, so produce it
    // first, then reset the journals for the faulted run.
    let golden = sweep(&golden_path, &[], None);
    assert!(golden.status.success(), "golden sweep failed");
    let _ = std::fs::remove_dir_all(dir.join("journals"));

    // write_atomic = write + fsync + rename per artefact; the journal has
    // its own appends. Failing the first *rename* hits the artefact (the
    // journal never renames) after every point journaled successfully.
    let faulted = sweep(&out_path, &[], Some("eio@rename:1"));
    assert_eq!(
        faulted.status.code(),
        Some(7),
        "artefact write failure with intact journal exits 7:\n{}",
        String::from_utf8_lossy(&faulted.stderr)
    );
    let err = String::from_utf8_lossy(&faulted.stderr);
    assert!(err.contains("--resume"), "remedy suggested: {err}");
    assert!(!out_path.exists(), "no torn artefact left behind");

    let resumed = sweep(&out_path, &["--resume"], None);
    assert!(
        resumed.status.success(),
        "clean resume failed:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_err = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        resumed_err.contains("0 runs executed"),
        "resume re-simulated nothing: {resumed_err}"
    );
    let golden_bytes = std::fs::read(&golden_path).expect("golden artefact");
    let resumed_bytes = std::fs::read(&out_path).expect("resumed artefact");
    assert_eq!(golden_bytes, resumed_bytes, "artefacts byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}
