//! Scratch directories vanish when their guard drops, including while a
//! panicking run unwinds, and a later run sweeps what a killed run left.

use perfbench::scratch::{sweep_stale, ScratchDir};
use std::path::PathBuf;

fn fresh_root(name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    root
}

#[test]
fn guards_remove_their_directory_on_drop_and_on_panic() {
    let root = fresh_root("scratch-guard");
    let dir = ScratchDir::create(&root).unwrap();
    let path = dir.path().to_path_buf();
    std::fs::write(path.join("seg"), b"x").unwrap();
    assert_eq!(dir.disk_bytes(), 1);
    drop(dir);
    assert!(!path.exists());

    let unwound = std::panic::catch_unwind(|| {
        let dir = ScratchDir::create(&root).unwrap();
        std::fs::write(dir.path().join("seg"), b"x").unwrap();
        panic!("run failed mid-epoch");
    });
    assert!(unwound.is_err());
    assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0);
}

#[test]
fn sweeping_removes_only_directories_of_dead_processes() {
    let root = fresh_root("scratch-sweep");
    // Above the kernel's largest pid, so never a live process.
    let stale = root.join("run-4194305-0");
    std::fs::create_dir_all(stale.join("t")).unwrap();
    let live = ScratchDir::create(&root).unwrap();
    let unrelated = root.join("keep-me");
    std::fs::create_dir_all(&unrelated).unwrap();

    assert_eq!(sweep_stale(&root), 1);
    assert!(!stale.exists());
    assert!(live.path().exists());
    assert!(unrelated.exists());
}
