//! Result rendering and persistence.

use std::path::PathBuf;

use offchip_chaos::Vfs;
use offchip_json::{json_obj, ToJson};

/// A named experiment result: arbitrary JSON-serialisable payload plus
/// provenance, written under `target/experiments/<id>.json`.
#[derive(Debug, Clone)]
pub struct ExperimentResult<T: ToJson> {
    /// Experiment id (`"table2"`, `"figure5"`, ...).
    pub id: String,
    /// The paper artefact being reproduced.
    pub paper_artifact: String,
    /// The payload.
    pub data: T,
}

impl<T: ToJson> ToJson for ExperimentResult<T> {
    fn to_json(&self) -> offchip_json::Json {
        json_obj! {
            "id" => self.id,
            "paper_artifact" => self.paper_artifact,
            "data" => self.data.to_json(),
        }
    }
}

/// Directory experiment JSON lands in.
pub fn experiments_dir() -> PathBuf {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(dir).join("experiments")
}

/// Writes the result as pretty JSON through `vfs`; returns the path.
/// Errors are propagated so a harness binary fails loudly rather than
/// silently dropping data. The write is atomic (tmp + rename), so a crash
/// never leaves a half-written artefact where a complete one stood.
pub fn write_json<T: ToJson>(
    result: &ExperimentResult<T>,
    vfs: &dyn Vfs,
) -> std::io::Result<PathBuf> {
    let path = experiments_dir().join(format!("{}.json", result.id));
    vfs.write_atomic(&path, &result.to_json().to_pretty_string())?;
    Ok(path)
}

/// Persists `result` through `vfs` — the binary's one Vfs, the campaign's
/// own — or exits with the documented code: the shared epilogue of every
/// experiment binary. On write failure:
///
/// * with `journal` (the campaign's journal path): exit
///   [`crate::campaign::EXIT_ARTEFACT_FAILED`] (7) — every measurement is
///   journaled, so `--resume` regenerates the artefact without
///   re-simulating anything;
/// * without a journal: exit 5 (runtime error), the measurements are
///   gone with the process.
pub fn persist_or_exit<T: ToJson>(
    result: &ExperimentResult<T>,
    vfs: &dyn Vfs,
    journal: Option<&std::path::Path>,
) -> PathBuf {
    match write_json(result, vfs) {
        Ok(path) => path,
        Err(e) => {
            let path = experiments_dir().join(format!("{}.json", result.id));
            match journal {
                Some(journal) => {
                    offchip_obs::error!(
                        "failed to write artefact {} ({e}); journal {} is intact — \
                         rerun with --resume to regenerate it without re-simulating",
                        path.display(),
                        journal.display()
                    );
                    std::process::exit(i32::from(crate::campaign::EXIT_ARTEFACT_FAILED));
                }
                None => {
                    offchip_obs::error!("failed to write artefact {} ({e})", path.display());
                    std::process::exit(5);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_to_disk() {
        let r = ExperimentResult {
            id: "selftest".into(),
            paper_artifact: "none".into(),
            data: vec![1.0f64, 2.5],
        };
        let path = write_json(&r, &offchip_chaos::RealVfs).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("selftest"));
        assert!(body.contains("2.5"));
    }
}
