//! The [`Vfs`] trait and its two implementations: the production
//! [`RealVfs`] passthrough and the fault-injecting [`ChaosVfs`].
//!
//! The durable idioms (`write_atomic`, `append_line`) are provided
//! methods on the trait, built from four overridable primitives
//! (`prim_write`, `prim_sync`, `prim_rename`, `prim_read`). [`RealVfs`]
//! keeps the defaults; [`ChaosVfs`] overrides the primitives to consult
//! a [`ChaosSpec`] schedule before delegating. Because the composite
//! logic — including temp-file cleanup on the failure path — lives in
//! one place, every fault the schedule can raise exercises the exact
//! code production runs.

use crate::spec::{ChaosSpec, FaultKind, OpClass};
use crate::Fault;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A journal-style append handle: the open file plus the length that is
/// known to be durably synced, which is what a lying fsync rolls back to.
#[derive(Debug)]
pub struct AppendFile {
    file: File,
    path: PathBuf,
    synced_len: u64,
}

impl AppendFile {
    /// The path this handle appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What a `prim_sync` call is making durable; a lying fsync treats the
/// two differently (see [`FaultKind::LyingFsync`]).
#[derive(Debug, Clone, Copy)]
pub enum SyncTarget {
    /// The temp file of a `write_atomic` — not yet published, so a lost
    /// sync can only lose the *new* artefact, never tear the old one.
    Temp,
    /// An append file; bytes past `synced_len` are the ones an
    /// acknowledged-then-lost fsync silently drops.
    Append {
        /// File length as of the last honest fsync.
        synced_len: u64,
    },
}

/// Every durable I/O operation the experiment stack performs, as a
/// substitutable interface. A binary builds one instance — [`RealVfs`],
/// or a [`ChaosVfs`] from `--chaos-io` / `OFFCHIP_CHAOS_IO` — and passes
/// it to every component that touches the disk; tests hand a
/// [`ChaosVfs`] directly to the component under test.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// One whole-buffer write to an open file. Default: `write_all`.
    fn prim_write(&self, file: &File, buf: &[u8], _path: &Path) -> io::Result<()> {
        let mut f = file;
        f.write_all(buf)
    }

    /// One fsync. Default: `File::sync_all`.
    fn prim_sync(&self, file: &File, _target: SyncTarget) -> io::Result<()> {
        file.sync_all()
    }

    /// One rename. `contents` is the buffer being published when the
    /// rename is the commit step of a `write_atomic` (a torn rename uses
    /// it to fabricate a half-written destination). Default:
    /// `std::fs::rename`.
    fn prim_rename(&self, from: &Path, to: &Path, _contents: Option<&[u8]>) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    /// One whole-file read. Default: `std::fs::read`.
    fn prim_read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    /// Writes `contents` to `path` atomically: temp file in the same
    /// directory → fsync → rename. The destination is never observable
    /// in a partially written state, and — whatever step fails — no
    /// stale temp file is left behind.
    fn write_atomic(&self, path: &Path, contents: &str) -> io::Result<()> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)?;
        }
        // Name the temp file after the destination plus a pid suffix so
        // concurrent writers of *different* artefacts never collide, and
        // a leftover from a kill is recognisable and harmless.
        let file_name = path
            .file_name()
            .ok_or_else(|| io::Error::other("write_atomic: path has no file name"))?;
        let tmp = path.with_file_name(format!(
            ".{}.tmp.{}",
            file_name.to_string_lossy(),
            std::process::id()
        ));
        let result = (|| {
            let f = File::create(&tmp)?;
            self.prim_write(&f, contents.as_bytes(), &tmp)?;
            self.prim_sync(&f, SyncTarget::Temp)?;
            drop(f);
            self.prim_rename(&tmp, path, Some(contents.as_bytes()))
        })();
        if result.is_err() {
            // The temp file may hold a partial artefact; a later retry
            // under the same pid would silently resume from it, and a
            // crashed campaign would litter results/. Remove it before
            // surfacing the error.
            let _ = std::fs::remove_file(&tmp);
        }
        result?;
        // Durability of the rename itself requires the directory entry
        // to be flushed; best-effort — some platforms refuse to fsync a
        // directory.
        if let Some(dir) = dir {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Opens `path` for durable appends (creating parent directories),
    /// for use with [`Vfs::append_line`].
    fn open_append(&self, path: &Path) -> io::Result<AppendFile> {
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let synced_len = file.metadata()?.len();
        Ok(AppendFile {
            file,
            path: path.to_path_buf(),
            synced_len,
        })
    }

    /// Appends `line` (a newline is added) to `file` with one write
    /// followed by an fsync, so a crash tears at most this line and
    /// never an earlier one.
    fn append_line(&self, file: &mut AppendFile, line: &str) -> io::Result<()> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.prim_write(&file.file, buf.as_bytes(), &file.path)?;
        self.prim_sync(
            &file.file,
            SyncTarget::Append {
                synced_len: file.synced_len,
            },
        )?;
        file.synced_len = file.file.metadata()?.len();
        Ok(())
    }

    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.prim_read(path)
    }

    /// Reads the whole file at `path` as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        String::from_utf8(self.read(path)?).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Renames `from` to `to` (used to quarantine unreadable journals).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.prim_rename(from, to, None)
    }

    /// The fault schedule this Vfs injects, for logs; `None` for the
    /// real filesystem.
    fn schedule(&self) -> Option<String> {
        None
    }
}

/// The production passthrough: every primitive is the real syscall.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

impl Vfs for RealVfs {}

#[derive(Debug)]
struct ChaosState {
    /// `(fault, fired)` — each scheduled fault fires at most once.
    faults: Vec<(Fault<FaultKind>, bool)>,
    /// 1-based per-class operation counters.
    counters: [u64; OpClass::COUNT],
    /// Human-readable log of the faults that actually fired.
    fired: Vec<String>,
}

/// A [`Vfs`] that injects the faults of a [`ChaosSpec`] at the scheduled
/// operations and behaves like [`RealVfs`] everywhere else. Operation
/// counting is per instance, per [`OpClass`], in program order; each
/// scheduled fault fires exactly once.
#[derive(Debug)]
pub struct ChaosVfs {
    state: Mutex<ChaosState>,
}

impl ChaosVfs {
    /// A chaos Vfs executing `spec`.
    pub fn new(spec: ChaosSpec) -> ChaosVfs {
        ChaosVfs {
            state: Mutex::new(ChaosState {
                faults: spec.faults.into_iter().map(|f| (f, false)).collect(),
                counters: [0; OpClass::COUNT],
                fired: Vec::new(),
            }),
        }
    }

    /// A chaos Vfs executing the pseudorandom schedule for `seed`
    /// (see [`ChaosSpec::from_seed`]).
    pub fn from_seed(seed: u64) -> ChaosVfs {
        ChaosVfs::new(ChaosSpec::from_seed(seed))
    }

    /// The faults that have fired so far, in firing order — one
    /// `kind@op:index` string each. Lets tests and the chaos smoke
    /// harness assert the schedule actually hit something.
    pub fn fired(&self) -> Vec<String> {
        self.state
            .lock()
            .expect("chaos state lock poisoned")
            .fired
            .clone()
    }

    /// Advances the counter for `op` and returns the fault scheduled at
    /// the new index, if any (marking it fired).
    fn arm(&self, op: OpClass, path: &Path) -> Option<FaultKind> {
        let mut st = self.state.lock().expect("chaos state lock poisoned");
        let idx = op.index();
        st.counters[idx] += 1;
        let n = st.counters[idx];
        let hit = st
            .faults
            .iter()
            .position(|(f, fired)| !*fired && f.op == op && f.at == n)?;
        st.faults[hit].1 = true;
        let kind = st.faults[hit].0.kind;
        st.fired
            .push(format!("{kind}@{op}:{n} path={}", path.display()));
        Some(kind)
    }
}

fn injected(kind: io::ErrorKind, what: &str, op: OpClass, path: &Path) -> io::Error {
    io::Error::new(
        kind,
        format!("chaos: injected {what} on {op} of {}", path.display()),
    )
}

impl Vfs for ChaosVfs {
    fn schedule(&self) -> Option<String> {
        let st = self.state.lock().expect("chaos state lock poisoned");
        let faults = st.faults.iter().map(|&(fault, _)| fault).collect();
        Some(ChaosSpec { faults }.to_string())
    }

    fn prim_write(&self, file: &File, buf: &[u8], path: &Path) -> io::Result<()> {
        match self.arm(OpClass::Write, path) {
            None => RealVfs.prim_write(file, buf, path),
            Some(FaultKind::Enospc) => Err(injected(
                io::ErrorKind::StorageFull,
                "ENOSPC",
                OpClass::Write,
                path,
            )),
            Some(FaultKind::Short(n)) => {
                // A torn write: a prefix reaches the disk, then the
                // device errors out.
                let n = (n as usize).min(buf.len());
                let mut f = file;
                f.write_all(&buf[..n])?;
                Err(injected(
                    io::ErrorKind::Other,
                    "short write (EIO)",
                    OpClass::Write,
                    path,
                ))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "EIO", OpClass::Write, path)),
        }
    }

    fn prim_sync(&self, file: &File, target: SyncTarget) -> io::Result<()> {
        match self.arm(OpClass::Fsync, Path::new("<fsync>")) {
            None => RealVfs.prim_sync(file, target),
            Some(FaultKind::Enospc) => Err(injected(
                io::ErrorKind::StorageFull,
                "ENOSPC",
                OpClass::Fsync,
                Path::new("<fsync>"),
            )),
            Some(FaultKind::LyingFsync) => match target {
                // Acknowledged-then-lost: report success, silently drop
                // everything appended since the last honest sync.
                SyncTarget::Append { synced_len } => file.set_len(synced_len),
                // For a not-yet-published temp file a lost sync has no
                // observable effect unless the publish also fails, which
                // `torn@rename` models explicitly — so: recorded no-op.
                SyncTarget::Temp => Ok(()),
            },
            Some(_) => Err(injected(
                io::ErrorKind::Other,
                "EIO",
                OpClass::Fsync,
                Path::new("<fsync>"),
            )),
        }
    }

    fn prim_rename(&self, from: &Path, to: &Path, contents: Option<&[u8]>) -> io::Result<()> {
        match self.arm(OpClass::Rename, to) {
            None => RealVfs.prim_rename(from, to, contents),
            Some(FaultKind::Torn) => {
                // A non-atomic replace caught mid-copy: the destination
                // ends up with a half-written file, and the operation
                // still reports failure.
                if let Some(bytes) = contents {
                    let _ = std::fs::write(to, &bytes[..bytes.len() / 2]);
                }
                Err(injected(
                    io::ErrorKind::Other,
                    "torn rename (EIO)",
                    OpClass::Rename,
                    to,
                ))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "EIO", OpClass::Rename, to)),
        }
    }

    fn prim_read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.arm(OpClass::Read, path) {
            None => RealVfs.prim_read(path),
            Some(FaultKind::BitFlip(pos)) => {
                let mut data = RealVfs.prim_read(path)?;
                if !data.is_empty() {
                    let byte = (pos as usize / 8) % data.len();
                    data[byte] ^= 1 << (pos % 8);
                }
                Ok(data)
            }
            Some(FaultKind::Truncate(n)) => {
                let mut data = RealVfs.prim_read(path)?;
                data.truncate(n as usize);
                Ok(data)
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "EIO", OpClass::Read, path)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("offchip-chaos-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tmp_litter(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect()
    }

    fn chaos(spec: &str) -> ChaosVfs {
        ChaosVfs::new(ChaosSpec::parse(spec).unwrap())
    }

    #[test]
    fn atomic_write_replaces_previous_contents() {
        let dir = tmp_dir("atomic");
        let path = dir.join("artefact.json");
        RealVfs.write_atomic(&path, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        RealVfs.write_atomic(&path, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        // No temp litter left behind on the success path.
        assert!(tmp_litter(&dir).is_empty(), "{:?}", tmp_litter(&dir));
    }

    #[test]
    fn atomic_write_creates_parent_directories() {
        let path = tmp_dir("mkdirs").join("a/b/deep.json");
        RealVfs.write_atomic(&path, "[]").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[]");
    }

    #[test]
    fn real_vfs_roundtrips() {
        let dir = tmp_dir("real");
        let path = dir.join("artefact.json");
        RealVfs.write_atomic(&path, "{\"v\":1}").unwrap();
        assert_eq!(RealVfs.read_to_string(&path).unwrap(), "{\"v\":1}");
        let jpath = dir.join("x.journal");
        let mut j = RealVfs.open_append(&jpath).unwrap();
        RealVfs.append_line(&mut j, "a").unwrap();
        RealVfs.append_line(&mut j, "b").unwrap();
        drop(j);
        let mut j = RealVfs.open_append(&jpath).unwrap();
        RealVfs.append_line(&mut j, "c").unwrap();
        assert_eq!(RealVfs.read_to_string(&jpath).unwrap(), "a\nb\nc\n");
        assert!(tmp_litter(&dir).is_empty());
    }

    /// The satellite fix: whatever step of `write_atomic` fails, the
    /// temp file must not survive — under every failing fault class.
    #[test]
    fn failed_write_atomic_never_leaves_a_temp_file() {
        for spec in [
            "enospc@write:1",
            "eio@write:1",
            "short@write:1:3",
            "eio@fsync:1",
            "enospc@fsync:1",
            "eio@rename:1",
            "torn@rename:1",
        ] {
            let dir = tmp_dir("notmp");
            let path = dir.join("artefact.json");
            let v = chaos(spec);
            let err = v.write_atomic(&path, "0123456789").unwrap_err();
            assert!(err.to_string().contains("chaos"), "{spec}: {err}");
            assert!(
                tmp_litter(&dir).is_empty(),
                "{spec} left temp litter: {:?}",
                tmp_litter(&dir)
            );
            assert_eq!(v.fired().len(), 1, "{spec} did not fire");
            // And the Vfs is past its fault now: a retry succeeds and
            // repairs whatever the fault left at the destination.
            v.write_atomic(&path, "0123456789").unwrap();
            assert_eq!(v.read_to_string(&path).unwrap(), "0123456789");
        }
    }

    #[test]
    fn torn_rename_leaves_half_written_destination() {
        let dir = tmp_dir("torn");
        let path = dir.join("artefact.json");
        let v = chaos("torn@rename:1");
        v.write_atomic(&path, "0123456789").unwrap_err();
        // The destination holds a torn half — exactly the state a
        // non-atomic writer would leave after a crash.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "01234");
    }

    #[test]
    fn short_append_persists_a_prefix_then_fails() {
        let dir = tmp_dir("short");
        let jpath = dir.join("x.journal");
        let v = chaos("short@write:2:4");
        let mut j = v.open_append(&jpath).unwrap();
        v.append_line(&mut j, "{\"n\":1}").unwrap();
        let err = v.append_line(&mut j, "{\"n\":2}").unwrap_err();
        assert!(err.to_string().contains("short write"));
        assert_eq!(v.read_to_string(&jpath).unwrap(), "{\"n\":1}\n{\"n\"");
    }

    #[test]
    fn lying_fsync_acknowledges_then_drops_the_append() {
        let dir = tmp_dir("lying");
        let jpath = dir.join("x.journal");
        let v = chaos("lyingfsync@fsync:2");
        let mut j = v.open_append(&jpath).unwrap();
        v.append_line(&mut j, "{\"n\":1}").unwrap();
        // The lying fsync reports success...
        v.append_line(&mut j, "{\"n\":2}").unwrap();
        // ...but the second record is gone.
        assert_eq!(v.read_to_string(&jpath).unwrap(), "{\"n\":1}\n");
        // Later appends land after the survivor, not after a hole.
        v.append_line(&mut j, "{\"n\":3}").unwrap();
        assert_eq!(v.read_to_string(&jpath).unwrap(), "{\"n\":1}\n{\"n\":3}\n");
    }

    #[test]
    fn read_faults_corrupt_or_fail_exactly_once() {
        let dir = tmp_dir("read");
        let path = dir.join("data.json");
        RealVfs.write_atomic(&path, "abcdefgh").unwrap();

        let v = chaos("bitflip@read:1:8");
        let flipped = v.read(&path).unwrap();
        assert_eq!(flipped, b"a\x63cdefgh"); // byte 1 ('b'), bit 0 flipped
        assert_eq!(v.read(&path).unwrap(), b"abcdefgh");

        let v = chaos("trunc@read:1:3");
        assert_eq!(v.read(&path).unwrap(), b"abc");

        let v = chaos("eio@read:2");
        assert_eq!(v.read(&path).unwrap(), b"abcdefgh");
        assert!(v.read(&path).is_err());
        assert_eq!(v.read(&path).unwrap(), b"abcdefgh");
    }

    #[test]
    fn counters_are_per_class_and_faults_fire_once() {
        let dir = tmp_dir("count");
        let path = dir.join("a.json");
        let v = chaos("eio@write:2");
        // write_atomic #1: write op 1 (ok), fsync 1, rename 1.
        v.write_atomic(&path, "one").unwrap();
        // Reads don't advance the write counter.
        v.read(&path).unwrap();
        // write_atomic #2: write op 2 → EIO.
        v.write_atomic(&path, "two").unwrap_err();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one");
        // Fault consumed; write op 3 succeeds.
        v.write_atomic(&path, "three").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "three");
        // The fired log names the file physically written — the temp file.
        let fired = v.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(
            v.schedule().as_deref(),
            Some("eio@write:2"),
            "fired faults stay listed"
        );
        assert_eq!(RealVfs.schedule(), None);
        assert!(fired[0].starts_with("eio@write:2 path="), "{fired:?}");
        assert!(fired[0].contains(".a.json.tmp."), "{fired:?}");
    }

    #[test]
    fn enospc_maps_to_storage_full() {
        let dir = tmp_dir("enospc");
        let v = chaos("enospc@write:1");
        let err = v.write_atomic(&dir.join("x.json"), "x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }
}
