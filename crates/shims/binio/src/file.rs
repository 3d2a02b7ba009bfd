//! The one way a file a reader may see is written: [`install`].

use std::ffi::OsStr;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The infix every temp name carries, and what [`is_temp`] looks for.
const TEMP_INFIX: &str = ".tmp.";

/// Process-wide sequence for temp names, so no two writes — in particular
/// two threads installing the same path — ever share a temp file.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh temp path beside `path`: `<stem>.tmp.<pid>.<seq>`.
pub fn temp_beside(path: &Path) -> PathBuf {
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{seq}", std::process::id()))
}

/// Whether a directory entry is an [`install`] temp file — live, or the
/// orphan of a writer that died before its rename.
pub fn is_temp(file_name: &OsStr) -> bool {
    file_name.to_string_lossy().contains(TEMP_INFIX)
}

/// Installs `bytes` at `path` atomically: written to a temp file of this
/// write's own in the same directory, fsync'd, then renamed into place.
/// A reader sees the old complete file or the new one, never a prefix,
/// and a file reported installed survives a crash (its directory entry
/// rides on the rename, which is not itself fsync'd). The temp file is
/// removed if any step fails. The directory must exist.
///
/// # Errors
///
/// Returns the I/O error of the create, write, fsync or rename.
pub fn install(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_beside(path);
    fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("binio-install-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn install_replaces_the_whole_file() {
        let dir = scratch("replace");
        let path = dir.join("entry.csv");
        install(&path, b"first, longer contents").unwrap();
        install(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(names(&dir), ["entry.csv"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_install_leaves_nothing_behind() {
        let dir = scratch("fail");
        // The rename fails: the target is a directory.
        let path = dir.join("taken.jsonl");
        fs::create_dir(&path).unwrap();
        assert!(install(&path, b"bytes").is_err());
        assert_eq!(names(&dir), ["taken.jsonl"]);
        // The create fails: no such directory.
        assert!(install(&dir.join("missing").join("x.run"), b"bytes").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_names_are_distinct_and_recognised() {
        let path = Path::new("cache/0123456789abcdef.run");
        let (a, b) = (temp_beside(path), temp_beside(path));
        assert_ne!(a, b);
        let name = a.file_name().unwrap();
        let prefix = format!("0123456789abcdef.tmp.{}.", std::process::id());
        assert!(name.to_string_lossy().starts_with(&prefix), "{a:?}");
        assert!(is_temp(name));
        assert!(!is_temp(OsStr::new("0123456789abcdef.run")));
        assert!(!is_temp(OsStr::new("journal.log")));
    }
}
