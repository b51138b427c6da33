//! Every experiment binary checks `OFFCHIP_JOBS` and `OFFCHIP_SEEDS`
//! before it opens a campaign: a bad value is a usage error (exit 2) that
//! names the variable and leaves no journal behind.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The binaries that fan sweeps out to `OFFCHIP_JOBS` workers, and
/// whether each takes the campaign flags (`--journal-dir`).
const BINARIES: [(&str, &str, bool); 8] = [
    ("table2", env!("CARGO_BIN_EXE_table2"), true),
    ("table4", env!("CARGO_BIN_EXE_table4"), true),
    ("figure3", env!("CARGO_BIN_EXE_figure3"), true),
    ("figure4", env!("CARGO_BIN_EXE_figure4"), true),
    ("figure5", env!("CARGO_BIN_EXE_figure5"), true),
    ("figure6", env!("CARGO_BIN_EXE_figure6"), true),
    ("ablations", env!("CARGO_BIN_EXE_ablations"), true),
    ("perfstat", env!("CARGO_BIN_EXE_perfstat"), false),
];

/// Runs every binary with `var` set to each of `bad` (and the other
/// variable this file checks unset) and requires exit 2, a message
/// naming `var`, and an untouched journal directory.
fn rejected_before_any_journal_opens(var: &str, other: &str, bad: &[String]) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("offchip-bad-{var}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, exe, campaign) in BINARIES {
        for bad in bad {
            let mut cmd = Command::new(exe);
            if campaign {
                cmd.arg("--journal-dir").arg(&dir);
            }
            let mut child = cmd
                .env(var, bad)
                .env_remove(other)
                .env("OFFCHIP_QUICK", "1")
                .env_remove("OFFCHIP_CHAOS_IO")
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap();
            // A binary that ignored the value would start its experiment.
            let started = Instant::now();
            let status = loop {
                if let Some(status) = child.try_wait().unwrap() {
                    break status;
                }
                if started.elapsed() > Duration::from_secs(60) {
                    let _ = child.kill();
                    panic!("{name} with {var}={bad:?} still running after 60 s");
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            let stderr = std::io::read_to_string(child.stderr.take().unwrap()).unwrap();
            assert_eq!(status.code(), Some(2), "{name} {var}={bad:?}: {stderr}");
            assert!(
                stderr.contains(var),
                "{name} must name the variable: {stderr}"
            );
            let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
            assert!(left.is_empty(), "{name} left {left:?} behind");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_offchip_jobs_exits_2_before_any_journal_opens() {
    let bad = ["abc", "0"].map(String::from);
    rejected_before_any_journal_opens("OFFCHIP_JOBS", "OFFCHIP_SEEDS", &bad);
}

#[test]
fn bad_offchip_seeds_exits_2_before_any_journal_opens() {
    // One past the cap is refused even under `OFFCHIP_QUICK=1`, which
    // runs one seed whatever the count.
    let bad = [
        "abc".to_string(),
        "0".to_string(),
        (offchip_bench::MAX_SEEDS + 1).to_string(),
    ];
    rejected_before_any_journal_opens("OFFCHIP_SEEDS", "OFFCHIP_JOBS", &bad);
}
