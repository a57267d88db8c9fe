//! Scratch directories for the durable workload's segment logs.
//!
//! Each epoch's log lives in `<root>/run-<pid>-<n>` behind a drop guard, so
//! a run that panics removes its directories while unwinding.  A killed run
//! cannot clean up after itself; the next run sweeps every `run-<pid>-*`
//! directory whose process no longer exists.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where the benchmark keeps its scratch directories, relative to the
/// directory it runs in.
pub const SCRATCH_ROOT: &str = ".perfbench_scratch";

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A scratch directory that is removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh, empty directory under `root`.
    pub fn create(root: &Path) -> std::io::Result<Self> {
        let path = root.join(format!(
            "run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total bytes of the regular files below the directory.
    pub fn disk_bytes(&self) -> u64 {
        tree_bytes(&self.0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&entry.path()),
            Ok(t) if t.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Removes the `run-<pid>-*` directories under `root` left by processes
/// that no longer exist.  Returns how many were removed.
pub fn sweep_stale(root: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .and_then(|n| n.strip_prefix("run-"))
            .and_then(|rest| rest.split('-').next())
            .and_then(|pid| pid.parse::<u32>().ok())
        else {
            continue;
        };
        let alive = pid == std::process::id() || Path::new(&format!("/proc/{pid}")).exists();
        if !alive && std::fs::remove_dir_all(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}
