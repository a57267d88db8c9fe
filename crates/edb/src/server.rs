//! The untrusted server's storage and its adversarial view.
//!
//! DP-Sync's adversary is the semi-honest server (§4.3).  Everything the
//! server can observe while following the protocol is captured in
//! [`AdversaryView`]:
//!
//! * the **update pattern** — when updates happened and how many ciphertexts
//!   each carried (Definition 2),
//! * the **setup volume** — the size of the initial outsourcing,
//! * per-query observations — which kind of query ran and, depending on the
//!   engine's leakage class, the (possibly noisy) response volume.
//!
//! The privacy verification machinery in `dpsync-core` operates exclusively
//! on this transcript: it never looks at owner-side state, mirroring the
//! formal model in which the leakage function is all the adversary gets.
//!
//! # Sharding
//!
//! Storage is sharded **per table**: each table's ciphertext store, which
//! also holds its slice of the update-pattern transcript, is the
//! [`TableStore`] the backend opened for it, behind an independent `RwLock`
//! (a [`ShardHandle`]), so owners of different tables can run `Π_Update`
//! concurrently without serializing on one global lock.  The table map
//! itself is only write-locked when a new table is created; steady-state
//! ingest takes the map read lock just long enough to clone the shard
//! handle.
//!
//! Concurrency does not change what the adversary formally sees: the
//! transcript of Definition 2 is a *set* of `(t, |γ_t|)` events, and
//! [`ServerStorage::adversary_view`] merges the per-table shards into one
//! canonical ordered transcript (sorted by time, then table name, then
//! per-table arrival index).  The simulation driver reads the transcript
//! through this merge however many threads it runs, so the privacy verifier
//! always sees the same canonical view regardless of thread interleaving.
//!
//! # Storage backends
//!
//! How a shard *materializes* its ciphertexts is delegated to a pluggable
//! [`StorageBackend`] (see [`crate::backend`]): the default in-memory store,
//! or the durable encrypted segment log.  Every store records the same
//! `(time, volume)` observation, so the adversary view — and therefore the
//! leakage profile — is backend-independent by construction.
//! [`ServerStorage::with_backend`] additionally *recovers* tables that
//! already exist on a durable backend's medium, rebuilding the pre-crash
//! transcript before any new protocol runs.

use crate::backend::{MemoryBackend, StorageBackend, StorageError, TableStore};
use crate::leakage::{UpdateEvent, UpdatePattern};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

pub use crate::view::{AdversaryView, QueryObservation};

/// A shareable handle to one table's store: its ciphertexts plus the update
/// events the server observed for it, in arrival order.
pub type ShardHandle = Arc<RwLock<Box<dyn TableStore>>>;

/// The server's ciphertext store across tables, plus the adversary view.
///
/// All methods take `&self`: per-table state lives behind the shard locks and
/// the query transcript behind its own mutex, so one `ServerStorage` can be
/// driven by several owner threads at once.
#[derive(Debug)]
pub struct ServerStorage {
    backend: Arc<dyn StorageBackend>,
    shards: RwLock<BTreeMap<String, ShardHandle>>,
    queries: Mutex<Vec<QueryObservation>>,
}

impl Default for ServerStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStorage {
    /// Creates empty storage on the in-memory backend.
    pub fn new() -> Self {
        Self {
            backend: Arc::new(MemoryBackend::new()),
            shards: RwLock::new(BTreeMap::new()),
            queries: Mutex::new(Vec::new()),
        }
    }

    /// Creates storage on an explicit backend, recovering every table that
    /// already exists on the backend's medium (a reopened segment log
    /// rebuilds its pre-crash transcript here).
    pub fn with_backend(backend: Arc<dyn StorageBackend>) -> Result<Self, StorageError> {
        let mut shards = BTreeMap::new();
        for table in backend.existing_tables()? {
            let store = backend.open_table(&table)?;
            shards.insert(table, Arc::new(RwLock::new(store)));
        }
        Ok(Self {
            backend,
            shards: RwLock::new(shards),
            queries: Mutex::new(Vec::new()),
        })
    }

    /// The shard handle for `table`, creating (opening) it when absent.
    ///
    /// Steady-state callers hold the map lock only long enough to clone the
    /// `Arc`; all per-table work happens under the shard's own lock.
    pub fn shard(&self, table: &str) -> Result<ShardHandle, StorageError> {
        if let Some(shard) = self.shards.read().get(table) {
            return Ok(Arc::clone(shard));
        }
        let mut map = self.shards.write();
        // Re-check under the write lock: another thread may have opened the
        // table between our read and write acquisitions.
        if let Some(shard) = map.get(table) {
            return Ok(Arc::clone(shard));
        }
        let store = self.backend.open_table(table)?;
        let shard = Arc::new(RwLock::new(store));
        map.insert(table.to_string(), Arc::clone(&shard));
        Ok(shard)
    }

    /// Appends ciphertexts to a table and records the update observation,
    /// returning only once the batch is **durable** on the backend.
    ///
    /// Only `table`'s shard is write-locked, and only for the append itself:
    /// a group-committing backend's durability wait happens *after* the
    /// guard is dropped, so concurrent `Π_Update` runs — same table or not —
    /// stage into one shared sync window instead of serializing one fsync
    /// each.  Backend I/O failures surface as [`StorageError`] (the engines
    /// wrap them into [`crate::EdbError::Storage`]); on error the batch was
    /// never acknowledged (under group commit a failed *sync* poisons the
    /// backend, which then refuses all further appends — see
    /// [`crate::backend::segment_log`]).
    pub fn ingest(
        &self,
        table: &str,
        time: u64,
        ciphertexts: &[Bytes],
    ) -> Result<(), StorageError> {
        let ack = self.shard(table)?.write().append_batch(time, ciphertexts)?;
        ack.wait()
    }

    /// Records a query observation.
    pub fn observe_query(&self, observation: QueryObservation) {
        self.queries.lock().push(observation);
    }

    /// Runs `f` over the shard of `table`, if present (read-locked).
    pub fn with_shard<R>(&self, name: &str, f: impl FnOnce(&dyn TableStore) -> R) -> Option<R> {
        let shard = self.shards.read().get(name).map(Arc::clone)?;
        let guard = shard.read();
        Some(f(&**guard))
    }

    /// Number of ciphertexts in a table (0 when missing).
    pub fn ciphertext_count(&self, table: &str) -> u64 {
        self.with_shard(table, |store| store.ciphertext_count())
            .unwrap_or(0)
    }

    /// Total ciphertext bytes stored for a table (0 when missing).
    pub fn table_bytes(&self, table: &str) -> u64 {
        self.with_shard(table, |store| store.ciphertext_bytes())
            .unwrap_or(0)
    }

    /// Scans every ciphertext of `table` in arrival order (`None` when the
    /// table does not exist).  Used by recovery checks and white-box tests;
    /// durable backends read back from their medium.
    pub fn scan_table(
        &self,
        table: &str,
        visit: &mut dyn FnMut(&[u8]),
    ) -> Option<Result<(), StorageError>> {
        self.with_shard(table, |store| store.scan(visit))
    }

    /// Merges the per-table shards into the canonical adversary transcript.
    ///
    /// Update events are ordered by `(time, table name, per-table arrival
    /// index)` — a deterministic total order independent of how owner threads
    /// interleaved their uploads, so the privacy verifier sees the same
    /// transcript whether the simulation ran sequentially or sharded — and,
    /// by the same argument, independent of which storage backend
    /// materialized the ciphertexts.
    pub fn adversary_view(&self) -> AdversaryView {
        let shards: Vec<(String, ShardHandle)> = self
            .shards
            .read()
            .iter()
            .map(|(name, shard)| (name.clone(), Arc::clone(shard)))
            .collect();

        // (time, table, per-table index) keys; BTreeMap iteration over table
        // names is already sorted, so a stable sort by time alone yields the
        // canonical (time, table, index) order.
        let mut events: Vec<UpdateEvent> = Vec::new();
        let mut total_bytes = 0u64;
        for (_, shard) in &shards {
            let guard = shard.read();
            events.extend_from_slice(guard.updates());
            total_bytes += guard.ciphertext_bytes();
        }
        events.sort_by_key(|e| e.time);

        let mut pattern = UpdatePattern::new();
        for e in events {
            pattern.record(e.time, e.volume);
        }

        let mut queries = self.queries.lock().clone();
        queries.sort_by_key(|q| q.sequence);
        AdversaryView::from_parts(pattern, queries, total_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendConfig, SegmentLogConfig};
    use std::thread;

    fn ct(len: usize) -> Bytes {
        Bytes::from(vec![0u8; len])
    }

    fn ingest(s: &ServerStorage, table: &str, time: u64, cts: Vec<Bytes>) {
        s.ingest(table, time, &cts).expect("memory ingest");
    }

    #[test]
    fn ingest_accumulates_ciphertexts_and_pattern() {
        let s = ServerStorage::new();
        ingest(&s, "yellow", 0, vec![ct(95); 120]);
        ingest(&s, "yellow", 30, vec![ct(95); 4]);
        ingest(&s, "green", 30, vec![ct(95); 2]);
        assert_eq!(s.ciphertext_count("yellow"), 124);
        assert_eq!(s.ciphertext_count("green"), 2);
        assert_eq!(s.ciphertext_count("missing"), 0);
        let view = s.adversary_view();
        let pattern = view.update_pattern();
        assert_eq!(pattern.len(), 3);
        assert_eq!(pattern.total_volume(), 126);
        assert_eq!(view.total_ciphertext_bytes(), 126 * 95);
    }

    #[test]
    fn merged_transcript_is_canonically_ordered() {
        let s = ServerStorage::new();
        // Interleave ingests out of time/table order.
        ingest(&s, "yellow", 30, vec![ct(10); 2]);
        ingest(&s, "green", 0, vec![ct(10); 5]);
        ingest(&s, "yellow", 0, vec![ct(10); 3]);
        ingest(&s, "green", 30, vec![ct(10); 1]);
        let view = s.adversary_view();
        // Sorted by (time, table): green@0, yellow@0, green@30, yellow@30.
        assert_eq!(view.update_pattern().times(), vec![0, 0, 30, 30]);
        assert_eq!(view.update_pattern().volumes(), vec![5, 3, 1, 2]);
    }

    #[test]
    fn empty_updates_are_still_visible_events() {
        // An update carrying only zero ciphertexts would still be observed as
        // a protocol run; DP-Sync never produces one (Perturb returns nothing
        // when the noisy count is <= 0), but the server model must not hide it.
        let s = ServerStorage::new();
        ingest(&s, "t", 5, vec![]);
        let view = s.adversary_view();
        assert_eq!(view.update_pattern().len(), 1);
        assert_eq!(view.update_pattern().total_volume(), 0);
    }

    #[test]
    fn query_observations_are_appended_in_order() {
        let s = ServerStorage::new();
        for i in 0..3 {
            s.observe_query(QueryObservation {
                sequence: i,
                kind: "count".into(),
                touched_records: 10 * i,
                observed_response_volume: if i == 2 { Some(5) } else { None },
            });
        }
        let view = s.adversary_view();
        let qs = view.queries();
        assert_eq!(qs.len(), 3);
        assert_eq!(qs[2].observed_response_volume, Some(5));
        assert_eq!(qs[1].touched_records, 10);
    }

    #[test]
    fn shard_accessors_and_scan() {
        let s = ServerStorage::new();
        ingest(&s, "t", 1, vec![ct(10), ct(20)]);
        s.with_shard("t", |shard| {
            assert_eq!(shard.ciphertext_count(), 2);
            assert_eq!(shard.ciphertext_bytes(), 30);
            assert_eq!(shard.updates().len(), 1);
        })
        .unwrap();
        assert!(s.with_shard("other", |_| ()).is_none());
        assert_eq!(s.table_bytes("t"), 30);
        let mut lens = Vec::new();
        s.scan_table("t", &mut |c| lens.push(c.len()))
            .unwrap()
            .unwrap();
        assert_eq!(lens, vec![10, 20]);
        assert!(s.scan_table("missing", &mut |_| ()).is_none());
    }

    #[test]
    fn concurrent_ingest_to_disjoint_tables_merges_cleanly() {
        let shared = Arc::new(ServerStorage::new());
        let tables = ["yellow", "green", "blue", "red"];
        thread::scope(|scope| {
            for table in tables {
                let storage = Arc::clone(&shared);
                scope.spawn(move || {
                    for t in 0..100u64 {
                        storage.ingest(table, t, &vec![ct(10); 2]).unwrap();
                    }
                });
            }
        });
        let stored: u64 = tables.iter().map(|t| shared.ciphertext_count(t)).sum();
        assert_eq!(stored, 4 * 100 * 2);
        let view = shared.adversary_view();
        assert_eq!(view.update_pattern().len(), 400);
        // Canonical order: times ascending, ties broken by table name.
        let times = view.update_pattern().times();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(view.total_ciphertext_bytes(), 8000);
    }

    #[test]
    fn segment_log_storage_recovers_the_transcript_on_reopen() {
        let dir = std::env::temp_dir().join(format!("dpsync-server-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = BackendConfig::SegmentLog(SegmentLogConfig::new(&dir));

        let before = {
            let s = ServerStorage::with_backend(config.build().unwrap()).unwrap();
            s.ingest("yellow", 0, &vec![ct(95); 5]).unwrap();
            s.ingest("green", 7, &vec![ct(95); 2]).unwrap();
            s.ingest("yellow", 30, &vec![ct(95); 1]).unwrap();
            s.adversary_view()
        };

        let s = ServerStorage::with_backend(config.build().unwrap()).unwrap();
        assert_eq!(s.adversary_view(), before);
        assert_eq!(s.ciphertext_count("yellow"), 6);
        // Recovered tables keep accepting appends.
        s.ingest("yellow", 60, &vec![ct(95); 3]).unwrap();
        assert_eq!(s.ciphertext_count("yellow"), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
