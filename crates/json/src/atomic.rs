//! Crash-safe file persistence for experiment artefacts and journals.
//!
//! Two durability idioms, for two failure models:
//!
//! * [`write_atomic`] — whole-file artefacts (`results/*.json`,
//!   `BENCH_sim.json`, the CLI's `--trace` and `--metrics` files). The
//!   contents go to a temporary file in the *same directory*, are
//!   fsynced, and the file is renamed over the destination. A kill at
//!   any instant leaves either the old bytes or the new bytes at the
//!   destination path — never a truncated mixture, and never a stale
//!   temp file (the failure path removes it).
//! * [`append_line`] — journals. One full line (record + `\n`) is written
//!   with a single `write_all` to a file opened in append mode, then
//!   fsynced. A kill can tear at most the *trailing* line, which journal
//!   readers must tolerate (skip) — every earlier record is intact because
//!   appends never rewrite old bytes.
//!
//! Every helper routes through the process-global [`offchip_chaos::Vfs`]
//! ([`offchip_chaos::vfs`]), so a `--chaos-io` fault schedule exercises the
//! exact code paths production runs. With no schedule installed the global
//! is the zero-overhead `RealVfs` passthrough.

use std::path::Path;

pub use offchip_chaos::AppendFile;

/// Writes `contents` to `path` atomically: temp file in the same
/// directory → fsync → rename. The destination is never observable in a
/// partially written state, and no temp file survives a failure.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    offchip_chaos::vfs().write_atomic(path, contents)
}

/// Appends `line` (a newline is added) to `file` with one write followed
/// by an fsync, so a kill tears at most this line and never an earlier
/// one.
pub fn append_line(file: &mut AppendFile, line: &str) -> std::io::Result<()> {
    offchip_chaos::vfs().append_line(file, line)
}

/// Opens `path` for durable appends (creating parent directories), for
/// use with [`append_line`].
pub fn open_append(path: &Path) -> std::io::Result<AppendFile> {
    offchip_chaos::vfs().open_append(path)
}

/// Reads the whole file at `path` as UTF-8 through the process-global
/// Vfs, so read-side faults (bit-rot, truncation, EIO) reach the parsers
/// that must survive them.
pub fn read_to_string(path: &Path) -> std::io::Result<String> {
    offchip_chaos::vfs().read_to_string(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("offchip-json-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_previous_contents() {
        let dir = tmp_dir("atomic");
        let path = dir.join("artefact.json");
        write_atomic(&path, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        write_atomic(&path, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        // No temp litter left behind on the success path.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    }

    #[test]
    fn atomic_write_creates_parent_directories() {
        let dir = tmp_dir("mkdirs").join("a/b");
        let path = dir.join("deep.json");
        write_atomic(&path, "[]").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[]");
    }

    #[test]
    fn append_line_accumulates_whole_lines() {
        let dir = tmp_dir("append");
        let path = dir.join("x.journal");
        let _ = std::fs::remove_file(&path);
        let mut f = open_append(&path).unwrap();
        append_line(&mut f, "{\"n\":1}").unwrap();
        append_line(&mut f, "{\"n\":2}").unwrap();
        drop(f);
        // Reopening appends, never truncates.
        let mut f = open_append(&path).unwrap();
        append_line(&mut f, "{\"n\":3}").unwrap();
        let body = read_to_string(&path).unwrap();
        assert_eq!(body, "{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n");
    }
}
