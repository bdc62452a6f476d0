//! Shared test-only helpers. This crate is a dev-dependency of every
//! suite that touches the filesystem, so the RAII temp-directory guard
//! and the failing writer live in exactly one place instead of being
//! copy-pasted per test binary.

#![forbid(unsafe_code)]

use std::io;
use std::path::{Path, PathBuf};

/// A writer that accepts `budget` bytes and then fails every write with
/// "disk full": what a streaming writer meets when the disk fills up
/// part-way through a document.
pub struct FailAfter {
    pub budget: usize,
}

impl io::Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return Err(io::Error::other("disk full"));
        }
        let n = buf.len().min(self.budget);
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The message `f` panicked with, or `None` when it returned.
pub fn panic_message<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Option<String> {
    let payload = std::panic::catch_unwind(f).err()?;
    payload.downcast_ref::<String>().cloned()
}

/// RAII temp directory: created unique per test, removed on drop — also
/// when the test panics, so failed runs don't leak shard directories into
/// the system temp dir.
pub struct TmpDir {
    path: PathBuf,
}

impl TmpDir {
    /// Create a fresh directory namespaced by `tag`, process, and thread.
    pub fn new(tag: &str) -> TmpDir {
        let path = std::env::temp_dir().join(format!(
            "dnnd-it-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TmpDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Path of `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl AsRef<Path> for TmpDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_fresh_and_removes_on_drop() {
        let kept;
        {
            let d = TmpDir::new("testutil-self");
            kept = d.path().to_path_buf();
            assert!(kept.is_dir());
            std::fs::write(d.join("x"), b"y").unwrap();
        }
        assert!(!kept.exists(), "drop must remove the directory");
    }
}
