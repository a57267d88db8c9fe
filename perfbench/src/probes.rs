//! Pass-through decorators that time calls into each layer's public trait.
//!
//! Every decorator forwards **every** trait method explicitly, including the
//! defaulted ones (`register_view`, `query_view`, `register_index`,
//! `query_indexed`, `next_wake`, `accountant`).  A decorator that fell back
//! on a trait default would silently change behaviour: the default view and
//! index methods report "unsupported", which turns views and indexes into
//! scans, and the default `next_wake` turns a sparse strategy dense.  The
//! `decorator_equivalence` test pins this by requiring byte-identical
//! reports and adversary views with and without the decorators.

use crate::trace::{ns, EngineRead, ReadPath, ReadSpan, Recorder, WriteSpan};
use dpsync_core::strategy::{StrategyKind, SyncDecision, SyncStrategy, TickContext};
use dpsync_core::timeline::Timestamp;
use dpsync_crypto::EncryptedRecord;
use dpsync_dp::{Epsilon, PrivacyAccountant};
use dpsync_edb::backend::AppendAck;
use dpsync_edb::cost::CostModel;
use dpsync_edb::leakage::{LeakageProfile, UpdateEvent};
use dpsync_edb::sogdb::{EdbError, QueryOutcome, SecureOutsourcedDatabase, TableStats};
use dpsync_edb::{
    AdversaryView, IndexDef, Query, Schema, StorageBackend, StorageError, TableStore, ViewDef,
};
use rand::RngCore;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// When the strategy on this thread last decided to synchronize: the
    /// owner encrypts between that instant and its next `Π_Setup` /
    /// `Π_Update` call, on the same thread.
    static SYNC_DECIDED: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The match key of a read: the table it touches.
fn read_key(query: &Query) -> String {
    query
        .tables()
        .first()
        .map_or_else(String::new, |t| t.to_string())
}

/// Times a strategy's calls and marks where the owner's encryption starts.
///
/// Durations accumulate locally and reach the recorder when the strategy is
/// dropped (at the end of the run), so the hot path takes no lock.
pub struct StrategyProbe {
    inner: Box<dyn SyncStrategy>,
    recorder: Arc<Recorder>,
    on_tick_ns: Vec<u64>,
    total_ns: u64,
    syncs: u64,
}

impl StrategyProbe {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn SyncStrategy>, recorder: Arc<Recorder>) -> Self {
        Self {
            inner,
            recorder,
            on_tick_ns: Vec::new(),
            total_ns: 0,
            syncs: 0,
        }
    }
}

impl Drop for StrategyProbe {
    fn drop(&mut self) {
        let on_tick = std::mem::take(&mut self.on_tick_ns);
        let (total, syncs) = (self.total_ns, self.syncs);
        self.recorder.with(|s| {
            s.on_tick_ns.extend(on_tick);
            s.strategy_ns += total;
            s.syncs += syncs;
        });
    }
}

impl SyncStrategy for StrategyProbe {
    fn kind(&self) -> StrategyKind {
        self.inner.kind()
    }

    fn epsilon(&self) -> Option<Epsilon> {
        self.inner.epsilon()
    }

    fn initial_fetch(&mut self, initial_size: u64, rng: &mut dyn RngCore) -> u64 {
        let started = Instant::now();
        let fetch = self.inner.initial_fetch(initial_size, rng);
        let ended = Instant::now();
        self.total_ns += ns(ended - started);
        SYNC_DECIDED.with(|c| c.set(Some(ended)));
        fetch
    }

    fn on_tick(&mut self, ctx: &TickContext, rng: &mut dyn RngCore) -> SyncDecision {
        SYNC_DECIDED.with(|c| c.set(None));
        let started = Instant::now();
        let decision = self.inner.on_tick(ctx, rng);
        let ended = Instant::now();
        let span = ns(ended - started);
        self.on_tick_ns.push(span);
        self.total_ns += span;
        if decision.is_sync() {
            self.syncs += 1;
            SYNC_DECIDED.with(|c| c.set(Some(ended)));
        }
        decision
    }

    fn next_wake(&self, now: Timestamp) -> Option<Timestamp> {
        let started = Instant::now();
        let wake = self.inner.next_wake(now);
        NEXT_WAKE_NS.with(|c| c.set(c.get() + ns(started.elapsed())));
        wake
    }

    fn accountant(&self) -> Option<&PrivacyAccountant> {
        self.inner.accountant()
    }
}

thread_local! {
    /// `next_wake` time on this thread (the method takes `&self`, so it
    /// cannot accumulate into the probe); drained by [`take_next_wake_ns`].
    static NEXT_WAKE_NS: Cell<u64> = const { Cell::new(0) };
}

/// Takes the `next_wake` time accumulated on the calling thread.
pub fn take_next_wake_ns() -> u64 {
    NEXT_WAKE_NS.with(|c| c.replace(0))
}

/// Clears this thread's encryption mark and `next_wake` counter before a
/// timed region starts.
pub fn reset_thread_marks() {
    SYNC_DECIDED.with(|c| c.set(None));
    NEXT_WAKE_NS.with(|c| c.set(0));
}

/// Times the owner's and the analyst's protocol calls at their engine
/// handle (a mux session, or the in-process engine).
pub struct ClientProbe<'a> {
    inner: &'a dyn SecureOutsourcedDatabase,
    recorder: Arc<Recorder>,
}

impl<'a> ClientProbe<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn SecureOutsourcedDatabase, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }

    fn write(
        &self,
        table: &str,
        time: u64,
        records: u64,
        setup: bool,
        call: impl FnOnce() -> Result<(), EdbError>,
    ) -> Result<(), EdbError> {
        let started = Instant::now();
        let encrypt = SYNC_DECIDED.with(Cell::take).map(|from| ns(started - from));
        let result = call();
        let span = ns(started.elapsed());
        self.recorder.with(|s| {
            if let Some(encrypt) = encrypt {
                s.encrypt.push((encrypt, records));
            }
            s.client_writes.push(WriteSpan {
                table: table.to_string(),
                time,
                ns: span,
                records,
                setup,
                ok: result.is_ok(),
            });
        });
        result
    }

    fn read(
        &self,
        key: String,
        path: ReadPath,
        call: impl FnOnce() -> Result<QueryOutcome, EdbError>,
    ) -> Result<QueryOutcome, EdbError> {
        let started = Instant::now();
        let result = call();
        let span = ns(started.elapsed());
        self.recorder.with(|s| {
            let seq = s.client_read_seq.entry(key.clone()).or_default();
            let this = *seq;
            *seq += 1;
            s.client_reads.push(ReadSpan {
                key,
                seq: this,
                path,
                ns: span,
                ok: result.is_ok(),
            });
        });
        result
    }

    fn control<R>(&self, call: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = call();
        let span = ns(started.elapsed());
        self.recorder.with(|s| s.client_control_ns += span);
        result
    }
}

impl SecureOutsourcedDatabase for ClientProbe<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn leakage_profile(&self) -> LeakageProfile {
        self.inner.leakage_profile()
    }

    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }

    fn setup(
        &self,
        table: &str,
        schema: Schema,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        let n = records.len() as u64;
        self.write(table, 0, n, true, || {
            self.inner.setup(table, schema, records)
        })
    }

    fn update(
        &self,
        table: &str,
        time: u64,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        let n = records.len() as u64;
        self.write(table, time, n, false, || {
            self.inner.update(table, time, records)
        })
    }

    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.read(read_key(query), ReadPath::Scan, || {
            self.inner.query(query, rng)
        })
    }

    fn supports(&self, query: &Query) -> bool {
        self.control(|| self.inner.supports(query))
    }

    fn table_stats(&self, table: &str) -> TableStats {
        self.control(|| self.inner.table_stats(table))
    }

    fn adversary_view(&self) -> AdversaryView {
        self.control(|| self.inner.adversary_view())
    }

    fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        self.control(|| self.inner.register_view(def))
    }

    fn query_view(&self, name: &str, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.read(format!("view/{name}"), ReadPath::View, || {
            self.inner.query_view(name, rng)
        })
    }

    fn register_index(&self, def: &IndexDef) -> Result<(), EdbError> {
        self.control(|| self.inner.register_index(def))
    }

    fn query_indexed(
        &self,
        name: &str,
        query: &Query,
        rng: &mut dyn RngCore,
    ) -> Result<QueryOutcome, EdbError> {
        self.read(read_key(query), ReadPath::Index, || {
            self.inner.query_indexed(name, query, rng)
        })
    }
}

/// Times the engine's side of every protocol call: handed to
/// `EngineProvider::Shared` over TCP, or called directly in-process.
pub struct EngineProbe {
    inner: Arc<dyn SecureOutsourcedDatabase>,
    recorder: Arc<Recorder>,
}

impl EngineProbe {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn SecureOutsourcedDatabase>, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }

    fn write(
        &self,
        table: &str,
        time: u64,
        call: impl FnOnce() -> Result<(), EdbError>,
    ) -> Result<(), EdbError> {
        let started = Instant::now();
        let result = call();
        let span = ns(started.elapsed());
        self.recorder.with(|s| {
            *s.engine_writes
                .entry((table.to_string(), time))
                .or_default() += span;
        });
        result
    }

    fn read(
        &self,
        key: String,
        path: ReadPath,
        rng: &mut dyn RngCore,
        call: impl FnOnce(&mut dyn RngCore) -> Result<QueryOutcome, EdbError>,
    ) -> Result<QueryOutcome, EdbError> {
        let mut entropy = EntropyProbe {
            inner: rng,
            draws_ns: Vec::new(),
        };
        let started = Instant::now();
        let result = call(&mut entropy);
        let span = ns(started.elapsed());
        let draws = entropy.draws_ns;
        self.recorder.with(|s| {
            let seq = s.engine_read_seq.entry(key.clone()).or_default();
            let this = *seq;
            *seq += 1;
            s.engine_reads.insert(
                (key, this),
                EngineRead {
                    ns: span,
                    entropy_ns: draws.iter().sum(),
                    touched: result.as_ref().map_or(0, |o| o.touched_records),
                    path,
                },
            );
            s.entropy_ns.extend(draws);
        });
        result
    }

    fn control<R>(&self, call: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = call();
        let span = ns(started.elapsed());
        self.recorder.with(|s| s.engine_control_ns += span);
        result
    }
}

impl SecureOutsourcedDatabase for EngineProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn leakage_profile(&self) -> LeakageProfile {
        self.inner.leakage_profile()
    }

    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }

    fn setup(
        &self,
        table: &str,
        schema: Schema,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        self.write(table, 0, || self.inner.setup(table, schema, records))
    }

    fn update(
        &self,
        table: &str,
        time: u64,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        self.write(table, time, || self.inner.update(table, time, records))
    }

    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.read(read_key(query), ReadPath::Scan, rng, |rng| {
            self.inner.query(query, rng)
        })
    }

    fn supports(&self, query: &Query) -> bool {
        self.control(|| self.inner.supports(query))
    }

    fn table_stats(&self, table: &str) -> TableStats {
        self.control(|| self.inner.table_stats(table))
    }

    fn adversary_view(&self) -> AdversaryView {
        self.control(|| self.inner.adversary_view())
    }

    fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        self.control(|| self.inner.register_view(def))
    }

    fn query_view(&self, name: &str, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.read(format!("view/{name}"), ReadPath::View, rng, |rng| {
            self.inner.query_view(name, rng)
        })
    }

    fn register_index(&self, def: &IndexDef) -> Result<(), EdbError> {
        self.control(|| self.inner.register_index(def))
    }

    fn query_indexed(
        &self,
        name: &str,
        query: &Query,
        rng: &mut dyn RngCore,
    ) -> Result<QueryOutcome, EdbError> {
        self.read(read_key(query), ReadPath::Index, rng, |rng| {
            self.inner.query_indexed(name, query, rng)
        })
    }
}

/// A pass-through RNG that times every draw.  Around the engine's `rng`
/// on the server side of the wire, each draw is one entropy round trip.
struct EntropyProbe<'r> {
    inner: &'r mut dyn RngCore,
    draws_ns: Vec<u64>,
}

impl EntropyProbe<'_> {
    fn timed<R>(&mut self, draw: impl FnOnce(&mut dyn RngCore) -> R) -> R {
        let started = Instant::now();
        let value = draw(&mut *self.inner);
        self.draws_ns.push(ns(started.elapsed()));
        value
    }
}

impl RngCore for EntropyProbe<'_> {
    fn next_u32(&mut self) -> u32 {
        self.timed(|rng| rng.next_u32())
    }

    fn next_u64(&mut self) -> u64 {
        self.timed(|rng| rng.next_u64())
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.timed(|rng| rng.fill_bytes(dest))
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.timed(|rng| rng.try_fill_bytes(dest))
    }
}

/// Times a storage backend's appends and scans.  The stores it opens return
/// the inner [`AppendAck`] untouched: waiting inside `append_batch` would
/// hold the shard lock and serialize group commit.
#[derive(Debug)]
pub struct BackendProbe {
    inner: Arc<dyn StorageBackend>,
    recorder: Arc<Recorder>,
}

impl BackendProbe {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn StorageBackend>, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }
}

impl StorageBackend for BackendProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn open_table(&self, table: &str) -> Result<Box<dyn TableStore>, StorageError> {
        Ok(Box::new(StoreProbe {
            inner: self.inner.open_table(table)?,
            table: table.to_string(),
            recorder: Arc::clone(&self.recorder),
        }))
    }

    fn existing_tables(&self) -> Result<Vec<String>, StorageError> {
        self.inner.existing_tables()
    }
}

#[derive(Debug)]
struct StoreProbe {
    inner: Box<dyn TableStore>,
    table: String,
    recorder: Arc<Recorder>,
}

impl TableStore for StoreProbe {
    fn append_batch(
        &mut self,
        time: u64,
        ciphertexts: &[bytes::Bytes],
    ) -> Result<AppendAck, StorageError> {
        let started = Instant::now();
        let ack = self.inner.append_batch(time, ciphertexts);
        let span = ns(started.elapsed());
        self.recorder.with(|s| {
            *s.appends.entry((self.table.clone(), time)).or_default() += span;
            s.append_ns.push(span);
        });
        ack
    }

    fn ciphertext_count(&self) -> u64 {
        self.inner.ciphertext_count()
    }

    fn ciphertext_bytes(&self) -> u64 {
        self.inner.ciphertext_bytes()
    }

    fn updates(&self) -> &[UpdateEvent] {
        self.inner.updates()
    }

    fn scan(&self, visit: &mut dyn FnMut(&[u8])) -> Result<(), StorageError> {
        let started = Instant::now();
        let result = self.inner.scan(visit);
        let span = ns(started.elapsed());
        self.recorder.with(|s| s.scan_ns += span);
        result
    }
}
