//! Crash-safe filesystem primitives shared by every layer that persists
//! state (WAL, version graph, checkpoint file).
//!
//! There is exactly one correct sequence for durably replacing a file on a
//! POSIX filesystem — write a sibling temp file, fsync it, rename it into
//! place, fsync the parent directory (the rename is only durable once its
//! directory entry is) — and it lives here once rather than per call site.

use std::path::Path;

use crate::env::{DiskEnv, OpenMode};
use crate::error::{DbError, IoResultExt, Result};

/// Fsyncs (through `env`) the directory containing `path`, making
/// renames/removals of entries in it durable. A path with no parent
/// component syncs `.`.
pub fn sync_parent_dir_in(env: &dyn DiskEnv, path: &Path) -> Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    env.sync_dir(parent).ctx("fsyncing parent directory")
}

/// Atomically (and, when `fsync` is set, durably) replaces the file at
/// `path` in `env` with `bytes`: temp-file write → fsync → rename →
/// parent-dir fsync. A crash at any point leaves either the old file or
/// the new one, never a torn mixture.
pub fn write_file_durably_in(
    env: &dyn DiskEnv,
    path: &Path,
    bytes: &[u8],
    fsync: bool,
) -> Result<()> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| DbError::Invalid("durable write target has no file name".into()))?;
    let tmp = path.with_file_name(format!("{name}.tmp"));
    {
        let file = env
            .open(&tmp, OpenMode::Truncate)
            .ctx("creating temp file")?;
        file.write_all_at(bytes, 0).ctx("writing temp file")?;
        if fsync {
            file.sync_data().ctx("fsyncing temp file")?;
        }
    }
    env.rename(&tmp, path).ctx("installing file")?;
    if fsync {
        sync_parent_dir_in(env, path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StdEnv;

    #[test]
    fn replaces_content_atomically() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("f");
        write_file_durably_in(&StdEnv, &path, b"one", false).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        write_file_durably_in(&StdEnv, &path, b"two", true).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        // No temp residue.
        assert!(!path.with_file_name("f.tmp").exists());
    }

    #[test]
    fn sync_parent_of_root_relative_path_is_ok() {
        // A bare file name has no parent component; "." is synced instead.
        sync_parent_dir_in(&StdEnv, Path::new("some-file")).unwrap();
    }
}
