//! Kill-and-resume property test for the crash-safe campaign layer
//! (proptest): truncate the run journal at an arbitrary record boundary —
//! including a torn half-record, the on-disk state of a SIGKILL
//! mid-append — resume, and assert the final sweep JSON is byte-identical
//! to an uninterrupted run, at `--jobs 1` and `--jobs 4`.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use offchip::npb::classes::ProblemClass;
use offchip::topology::machines;
use offchip_bench::{build_workload, Campaign, CampaignOptions, ProgramSpec};
use offchip_json::ToJson;

const NS: [usize; 3] = [1, 2, 4];
const SEEDS: [u64; 2] = [3, 11];

fn machine() -> offchip::topology::MachineSpec {
    machines::intel_uma_8().scaled(1.0 / 64.0)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offchip-killresume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The uninterrupted run's artefact JSON and its complete journal lines,
/// computed once (journal records carry no paths, so the lines replant
/// into any scratch directory).
fn golden() -> &'static (String, Vec<String>) {
    static GOLDEN: OnceLock<(String, Vec<String>)> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let dir = scratch("golden");
        let opts = CampaignOptions {
            journal_dir: Some(dir.clone()),
            ..CampaignOptions::default()
        };
        let campaign = Campaign::start("kr", &opts).expect("open journal");
        let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
        let cs = campaign
            .run_sweep(&machine(), w.as_ref(), &NS, &SEEDS, 1)
            .expect("sweep");
        assert!(cs.errors.is_empty(), "golden run must be clean");
        let json = cs.sweep.to_json().to_pretty_string();
        let lines = std::fs::read_to_string(campaign.journal_path())
            .expect("read journal")
            .lines()
            .map(str::to_string)
            .collect::<Vec<_>>();
        assert_eq!(lines.len(), NS.len() * SEEDS.len());
        let _ = std::fs::remove_dir_all(&dir);
        (json, lines)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `keep` chooses the record boundary the "kill" lands on; `cut`
    /// optionally leaves a torn fragment of the next record behind
    /// (0 = clean cut, 1/2 = one- or two-thirds of the line, unterminated).
    #[test]
    fn killed_campaign_resumes_byte_identical(keep in 0usize..7, cut in 0u64..3) {
        let (golden_json, lines) = golden();
        let keep = keep.min(lines.len());
        let mut body = lines[..keep].join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        if cut > 0 && keep < lines.len() {
            // Journal lines are ASCII JSON, so byte slicing is safe.
            let next = &lines[keep];
            let torn = next.len() * cut as usize / 3;
            body.push_str(&next[..torn]); // no trailing newline: torn append
        }

        for jobs in [1usize, 4] {
            let dir = scratch(&format!("{keep}-{cut}-{jobs}"));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            std::fs::write(dir.join("kr.journal"), &body).expect("plant journal");
            let opts = CampaignOptions {
                resume: true,
                journal_dir: Some(dir.clone()),
                ..CampaignOptions::default()
            };
            let campaign = Campaign::start("kr", &opts).expect("open journal");
            let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
            let cs = campaign
                .run_sweep(&machine(), w.as_ref(), &NS, &SEEDS, jobs)
                .expect("sweep");
            prop_assert!(cs.errors.is_empty(), "jobs={jobs}: {:?}", cs.errors);
            prop_assert_eq!(cs.resumed, keep, "torn fragments never replay");
            prop_assert_eq!(cs.executed, lines.len() - keep);
            let json = cs.sweep.to_json().to_pretty_string();
            prop_assert_eq!(&json, golden_json, "jobs = {}", jobs);
            // After the resumed run the journal is whole again: a second
            // resume replays everything.
            let opts2 = CampaignOptions { resume: true, journal_dir: Some(dir.clone()), ..CampaignOptions::default() };
            let again = Campaign::start("kr", &opts2).expect("reopen journal");
            let cs2 = again
                .run_sweep(&machine(), w.as_ref(), &NS, &SEEDS, jobs)
                .expect("sweep");
            prop_assert_eq!(cs2.executed, 0);
            prop_assert_eq!(cs2.resumed, lines.len());
            prop_assert_eq!(&cs2.sweep.to_json().to_pretty_string(), golden_json);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
