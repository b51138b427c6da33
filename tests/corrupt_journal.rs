//! Corrupt-journal corpus: every way a campaign journal can rot on disk,
//! and the healing each must get.
//!
//! A real (schema-2, CRC-suffixed) journal is generated once, then
//! mutated into the corpus — foreign schema numbers, truncation
//! mid-record, a checksum that no longer matches its body, interleaved
//! garbage, a stripped-to-legacy schema-1 journal, and a journal that is
//! not even UTF-8. For each variant `--resume` must either replay the
//! intact records and re-run the rest (healing: the resumed sweep is
//! byte-identical to an uninterrupted run) or, when the file is beyond
//! record-level repair, quarantine it with a typed [`JournalFault`] and
//! restart — never panic, never replay a damaged record.

use std::path::PathBuf;
use std::sync::OnceLock;

use offchip::npb::classes::ProblemClass;
use offchip::topology::machines;
use offchip_bench::{build_workload, Campaign, CampaignOptions, ProgramSpec};
use offchip_json::ToJson;

const NS: [usize; 2] = [1, 2];
const SEEDS: [u64; 2] = [3, 11];

fn machine() -> offchip::topology::MachineSpec {
    machines::intel_uma_8().scaled(1.0 / 64.0)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offchip-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The pristine run: artefact JSON plus the journal's raw lines.
fn golden() -> &'static (String, Vec<String>) {
    static GOLDEN: OnceLock<(String, Vec<String>)> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let dir = scratch("golden");
        let opts = CampaignOptions {
            journal_dir: Some(dir.clone()),
            ..CampaignOptions::default()
        };
        let campaign = Campaign::start("cj", &opts).expect("open journal");
        let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
        let cs = campaign
            .run_sweep(&machine(), w.as_ref(), &NS, &SEEDS, 1)
            .expect("sweep");
        assert!(cs.errors.is_empty());
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

/// Resumes a campaign from `body` planted as the journal and returns
/// `(executed, resumed, artefact_json)`; the run itself must succeed.
fn resume_from(tag: &str, body: &[u8]) -> (usize, usize, String) {
    let dir = scratch(tag);
    std::fs::write(dir.join("cj.journal"), body).expect("plant journal");
    let opts = CampaignOptions {
        resume: true,
        journal_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let campaign = Campaign::start("cj", &opts).expect("open journal");
    let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
    let cs = campaign
        .run_sweep(&machine(), w.as_ref(), &NS, &SEEDS, 1)
        .expect("sweep");
    assert!(cs.errors.is_empty(), "{tag}: {:?}", cs.errors);
    let _ = std::fs::remove_dir_all(&dir);
    (
        cs.executed,
        cs.resumed,
        cs.sweep.to_json().to_pretty_string(),
    )
}

#[test]
fn foreign_schema_records_are_skipped_not_replayed() {
    let (golden_json, lines) = golden();
    // Rewrite every record's schema field to a number this code never
    // wrote (a journal from some future incompatible version) while
    // keeping the CRC valid — the schema check itself must reject it.
    let foreign: Vec<String> = lines
        .iter()
        .map(|l| {
            let body = l.rsplit_once('#').expect("crc suffix").0;
            let body = body.replace("\"schema\":2", "\"schema\":9");
            format!("{body}#{:08x}", offchip_chaos::crc32(body.as_bytes()))
        })
        .collect();
    let mut body = foreign.join("\n");
    body.push('\n');
    let (executed, resumed, json) = resume_from("foreign", body.as_bytes());
    assert_eq!(resumed, 0, "foreign-schema records must not replay");
    assert_eq!(executed, lines.len());
    assert_eq!(&json, golden_json);
}

#[test]
fn truncation_mid_record_drops_only_the_torn_tail() {
    let (golden_json, lines) = golden();
    // Keep two whole records, then a torn fragment of the third with no
    // newline: the on-disk state of power loss mid-append.
    let mut body = lines[..2].join("\n");
    body.push('\n');
    body.push_str(&lines[2][..lines[2].len() / 2]);
    let (executed, resumed, json) = resume_from("truncated", body.as_bytes());
    assert_eq!(resumed, 2);
    assert_eq!(executed, lines.len() - 2);
    assert_eq!(&json, golden_json);
}

#[test]
fn checksum_mismatch_quarantines_the_record() {
    let (golden_json, lines) = golden();
    // Bit-rot one digit inside the first record's body: the CRC suffix
    // still parses but no longer matches, so the record — plausible JSON
    // with plausible numbers — must be dropped, not trusted.
    let mut rotted = lines.clone();
    let pos = rotted[0].find("\"total_cycles\":").expect("field") + "\"total_cycles\":".len();
    let mut bytes = rotted[0].clone().into_bytes();
    bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
    rotted[0] = String::from_utf8(bytes).unwrap();
    let mut body = rotted.join("\n");
    body.push('\n');
    let (executed, resumed, json) = resume_from("bitrot", body.as_bytes());
    assert_eq!(resumed, lines.len() - 1, "only the rotted record re-runs");
    assert_eq!(executed, 1);
    assert_eq!(&json, golden_json);
}

#[test]
fn interleaved_garbage_lines_are_ignored() {
    let (golden_json, lines) = golden();
    let mut corpus = Vec::new();
    corpus.push("# a comment some tool scribbled".to_string());
    for (i, l) in lines.iter().enumerate() {
        corpus.push(l.clone());
        corpus.push(format!("garbage {i} \u{1F4A5} not json at all"));
        corpus.push(String::new());
    }
    corpus.push("{\"schema\":2,\"but\":\"no checksum\"}".to_string());
    let mut body = corpus.join("\n");
    body.push('\n');
    let (executed, resumed, json) = resume_from("garbage", body.as_bytes());
    assert_eq!(resumed, lines.len(), "every real record survives the noise");
    assert_eq!(executed, 0);
    assert_eq!(&json, golden_json);
}

#[test]
fn legacy_schema1_journals_still_replay() {
    let (golden_json, lines) = golden();
    // A journal written before the CRC era: strip the suffix and rewrite
    // the schema field. Backward compatibility demands a full replay.
    let legacy: Vec<String> = lines
        .iter()
        .map(|l| {
            l.rsplit_once('#')
                .expect("crc suffix")
                .0
                .replace("\"schema\":2", "\"schema\":1")
        })
        .collect();
    let mut body = legacy.join("\n");
    body.push('\n');
    let (executed, resumed, json) = resume_from("legacy", body.as_bytes());
    assert_eq!(resumed, lines.len(), "legacy records replay in full");
    assert_eq!(executed, 0);
    assert_eq!(&json, golden_json);
}

#[test]
fn schema2_body_with_torn_suffix_must_not_replay_as_legacy() {
    let (golden_json, lines) = golden();
    // Tear the CRC suffix off a schema-2 record. Without the schema
    // check this would sneak through the legacy path as a checksum-less
    // record; the schema field pins it to the era that requires a CRC.
    let torn: Vec<String> = lines
        .iter()
        .map(|l| l.rsplit_once('#').expect("crc suffix").0.to_string())
        .collect();
    let mut body = torn.join("\n");
    body.push('\n');
    let (executed, resumed, json) = resume_from("torn-suffix", body.as_bytes());
    assert_eq!(resumed, 0, "suffix-less schema-2 records are not trusted");
    assert_eq!(executed, lines.len());
    assert_eq!(&json, golden_json);
}

#[test]
fn non_utf8_journal_is_quarantined_with_a_typed_fault() {
    let (golden_json, _) = golden();
    let dir = scratch("utf8");
    let journal = dir.join("cj.journal");
    std::fs::write(&journal, [0xFF, 0xFE, 0x00, 0x80, 0xFF]).expect("plant rot");
    let opts = CampaignOptions {
        resume: true,
        journal_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let campaign = Campaign::start("cj", &opts).expect("quarantine, not failure");
    let fault = campaign.journal_fault().expect("typed JournalFault");
    assert_eq!(fault.path, journal);
    let quarantined = fault.quarantined_to.clone().expect("renamed aside");
    assert!(quarantined.exists(), "evidence preserved");
    assert!(!fault.error.is_empty());
    // The campaign restarted from zero records and completes the grid.
    let w = build_workload(ProgramSpec::Cg(ProblemClass::S), 8);
    let cs = campaign
        .run_sweep(&machine(), w.as_ref(), &NS, &SEEDS, 1)
        .expect("sweep");
    assert_eq!(cs.resumed, 0);
    assert_eq!(cs.executed, NS.len() * SEEDS.len());
    assert_eq!(&cs.sweep.to_json().to_pretty_string(), golden_json);
    let _ = std::fs::remove_dir_all(&dir);
}
