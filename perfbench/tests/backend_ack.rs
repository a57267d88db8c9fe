//! The backend decorator must hand back the inner `AppendAck` untouched.
//! Waiting inside `append_batch` would hold the shard lock across the
//! group-commit sync and serialize appenders that should share a window.

use bytes::Bytes;
use dpsync_edb::backend::{GroupCommitConfig, SegmentLogConfig};
use dpsync_edb::server::ServerStorage;
use dpsync_edb::{BackendConfig, StorageBackend};
use perfbench::probes::BackendProbe;
use perfbench::scratch::ScratchDir;
use perfbench::trace::Recorder;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: u64 = 150;
/// Enough appenders on one table that shared windows clearly beat
/// one window per batch (with two, the gap is within scheduler noise).
const APPENDERS: u64 = 4;

fn group_commit_log(dir: &ScratchDir) -> Arc<dyn StorageBackend> {
    BackendConfig::SegmentLog(
        SegmentLogConfig::new(dir.path()).with_group_commit(GroupCommitConfig::default()),
    )
    .build()
    .expect("segment log opens")
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
}

#[test]
fn decorated_appends_return_a_pending_ack() {
    let dir = ScratchDir::create(root()).unwrap();
    let probe = BackendProbe::new(group_commit_log(&dir), Arc::new(Recorder::default()));
    let mut store = probe.open_table("t").unwrap();
    let ack = store
        .append_batch(1, &[Bytes::from(vec![7u8; 95])])
        .unwrap();
    assert!(
        !ack.is_durable(),
        "the decorator must not wait for durability"
    );
    ack.wait().unwrap();
}

/// Mean time per batch for `APPENDERS` threads appending to one table.
fn two_appenders(decorated: bool) -> Duration {
    let dir = ScratchDir::create(root()).unwrap();
    let mut backend = group_commit_log(&dir);
    if decorated {
        backend = Arc::new(BackendProbe::new(backend, Arc::new(Recorder::default())));
    }
    let storage = ServerStorage::with_backend(backend).unwrap();
    let batch = vec![Bytes::from(vec![1u8; 95]); 4];
    let started = Instant::now();
    std::thread::scope(|scope| {
        for offset in 0..APPENDERS {
            let (storage, batch) = (&storage, &batch);
            scope.spawn(move || {
                for i in 0..BATCHES {
                    storage.ingest("t", APPENDERS * i + offset, batch).unwrap();
                }
            });
        }
    });
    started.elapsed() / (APPENDERS * BATCHES) as u32
}

#[test]
fn the_decorator_does_not_serialize_group_commit() {
    // Best of three on each side damps scheduler noise.
    let best = |decorated| (0..3).map(|_| two_appenders(decorated)).min().unwrap();
    let plain = best(false);
    let decorated = best(true);
    assert!(
        decorated.as_secs_f64() <= plain.as_secs_f64() * 1.5 + 50e-6,
        "decorated {decorated:?} per batch vs {plain:?} undecorated"
    );
}
