//! The CLI's error type and its exit-code contract.
//!
//! Scripts drive this binary, so failures are distinguishable without
//! parsing stderr:
//!
//! | code | meaning                                        |
//! |------|------------------------------------------------|
//! | 0    | success                                        |
//! | 2    | usage: the command line did not parse          |
//! | 3    | configuration rejected (machine/simulation)    |
//! | 4    | model fit failed (typed `FitError` diagnosis)  |
//! | 5    | runtime failure inside an otherwise valid run  |
//! | 6    | campaign interrupted but journaled — completed |
//! |      | points are on disk; rerun with `--resume`      |
//! | 7    | artefact write failed but the journal is       |
//! |      | intact — `--resume` regenerates the artefact   |
//! |      | without re-simulating anything                 |

use offchip_bench::{SweepError, SweepFitError};
use offchip_machine::ConfigError;
use offchip_model::FitError;

/// Exit code for command-line parse failures (handled in `main`).
pub const EXIT_USAGE: u8 = 2;

/// A failure executing a parsed command.
#[derive(Debug)]
pub enum CliError {
    /// The simulation configuration was rejected before running.
    Config(ConfigError),
    /// The sweep layer rejected its inputs or produced corrupt points
    /// (empty seed list, non-finite counters) — a configuration-class
    /// failure, same exit code as [`CliError::Config`].
    Sweep(SweepError),
    /// The analytical model could not be fitted.
    Fit(FitError),
    /// A run produced something the command could not consume.
    Runtime(String),
    /// A sweep campaign lost points (panic, deadline, budget) but every
    /// completed run is journaled; rerunning with `--resume` finishes the
    /// grid without repeating them.
    Interrupted {
        /// Lost `(n, seed)` runs.
        lost: usize,
        /// Journal path holding the completed runs.
        journal: std::path::PathBuf,
    },
    /// Every measurement succeeded and is journaled, but the final
    /// artefact could not be written (disk full, I/O error). Graceful
    /// degradation: `--resume` regenerates the artefact from the journal
    /// without re-simulating.
    ArtefactWrite {
        /// The artefact that could not be written.
        path: std::path::PathBuf,
        /// The journal holding every completed run.
        journal: std::path::PathBuf,
        /// The underlying I/O error, rendered.
        error: String,
    },
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Config(_) | CliError::Sweep(_) => 3,
            CliError::Fit(_) => 4,
            CliError::Runtime(_) => 5,
            CliError::Interrupted { .. } => offchip_bench::EXIT_INTERRUPTED,
            CliError::ArtefactWrite { .. } => offchip_bench::EXIT_ARTEFACT_FAILED,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Config(e) => write!(f, "invalid configuration: {e}"),
            CliError::Sweep(e) => write!(f, "sweep rejected: {e}"),
            CliError::Fit(e) => write!(f, "model fit failed: {e}"),
            CliError::Runtime(e) => write!(f, "{e}"),
            CliError::Interrupted { lost, journal } => write!(
                f,
                "campaign interrupted: {lost} point(s) lost; completed runs are journaled \
                 in {} — rerun with --resume to finish without repeating them",
                journal.display()
            ),
            CliError::ArtefactWrite {
                path,
                journal,
                error,
            } => write!(
                f,
                "failed to write artefact {} ({error}); every measurement is journaled in {} \
                 — rerun with --resume to regenerate the artefact without re-simulating",
                path.display(),
                journal.display()
            ),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> CliError {
        CliError::Config(e)
    }
}

impl From<SweepError> for CliError {
    fn from(e: SweepError) -> CliError {
        CliError::Sweep(e)
    }
}

/// The fit path's counter errors are configuration-class (exit 3); a
/// refused fit or validation is a fit failure (exit 4).
impl From<SweepFitError> for CliError {
    fn from(e: SweepFitError) -> CliError {
        match e {
            SweepFitError::Misses(e) | SweepFitError::Cycles(e) => CliError::Sweep(e),
            SweepFitError::Fit { error, .. } | SweepFitError::Validation(error) => {
                CliError::Fit(error)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_path_errors_keep_their_exit_codes_and_texts() {
        let cases = [
            (
                SweepFitError::Misses(SweepError::NoFinitePoints),
                3,
                "sweep rejected: every sweep point's reading is non-finite; nothing to average",
            ),
            (
                SweepFitError::Cycles(SweepError::CorruptPoint(3)),
                3,
                "sweep rejected: sweep point n = 3 has a non-finite or non-positive cycle count",
            ),
            (
                SweepFitError::Fit {
                    protocol: "Intel UMA {1,4,5}",
                    error: FitError::TooFewUsablePoints {
                        usable: 0,
                        dropped: 3,
                    },
                },
                4,
                "model fit failed: only 0 usable points remain after dropping 3; fitting \
                 needs at least 3 — re-measure the sweep",
            ),
            (
                SweepFitError::Validation(FitError::MissingBaseline),
                4,
                "model fit failed: sweep is missing the n = 1 baseline C(1)",
            ),
        ];
        for (e, code, text) in cases {
            let cli = CliError::from(e);
            assert_eq!((cli.exit_code(), cli.to_string().as_str()), (code, text));
        }
    }
}
