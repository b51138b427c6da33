//! Durable journal appends on the real filesystem.
//!
//! [`append_line`] writes one full line (record + `\n`) with a single
//! `write_all` to a file opened in append mode, then fsyncs it. A kill
//! can tear at most the *trailing* line, which journal readers must
//! tolerate (skip) — every earlier record is intact because appends never
//! rewrite old bytes.
//!
//! Both helpers call [`offchip_chaos::RealVfs`] directly. Code that must
//! run under injected faults takes an [`offchip_chaos::Vfs`] value
//! instead (a campaign's comes from its `CampaignOptions`); these
//! helpers serve callers that time the real syscalls.

use std::path::Path;

use offchip_chaos::{RealVfs, Vfs};

pub use offchip_chaos::AppendFile;

/// Appends `line` (a newline is added) to `file` with one write followed
/// by an fsync, so a kill tears at most this line and never an earlier
/// one.
pub fn append_line(file: &mut AppendFile, line: &str) -> std::io::Result<()> {
    RealVfs.append_line(file, line)
}

/// Opens `path` for durable appends (creating parent directories), for
/// use with [`append_line`].
pub fn open_append(path: &Path) -> std::io::Result<AppendFile> {
    RealVfs.open_append(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_line_accumulates_whole_lines() {
        let dir = std::env::temp_dir().join(format!("offchip-json-append-{}", std::process::id()));
        let path = dir.join("x.journal");
        let _ = std::fs::remove_file(&path);
        let mut f = open_append(&path).unwrap();
        append_line(&mut f, "{\"n\":1}").unwrap();
        append_line(&mut f, "{\"n\":2}").unwrap();
        drop(f);
        // Reopening appends, never truncates.
        let mut f = open_append(&path).unwrap();
        append_line(&mut f, "{\"n\":3}").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n");
    }
}
