//! Span records kept in memory while an epoch runs, and the per-layer
//! breakdown computed from them afterwards.
//!
//! Spans come from the decorators in [`crate::probes`], which time calls into
//! each layer's public trait from the outside.  Requests are matched across
//! layers by key: a write by `(table, time)` (a `Π_Setup` is the write at
//! time 0), a read by `(key, n)` where `key` is the queried table (or
//! `view/<name>` for a view read) and `n` counts reads of that key.  A
//! layer's self time is its span minus the spans of the layers it called:
//!
//! ```text
//! client span C  ⊇  engine span E  ⊇  backend span B, entropy round trips R
//! net self    = C − E + R      (wire, reactor queue, entropy sub-protocol)
//! engine self = E − B − R      (decrypt, mirror, views, EMM, ack wait)
//! backend     = B
//! ```

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// How the analyst's read reached the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadPath {
    /// `Π_Query`: a full scan of the encrypted mirror.
    Scan,
    /// `query_view`: a registered materialized view.
    View,
    /// `query_indexed`: an encrypted-multimap index.
    Index,
}

/// One `Π_Setup` or `Π_Update` call seen at a client handle.
#[derive(Debug, Clone)]
pub struct WriteSpan {
    /// Table written.
    pub table: String,
    /// Update time (0 for `Π_Setup`).
    pub time: u64,
    /// Round trip in nanoseconds.
    pub ns: u64,
    /// Ciphertexts carried.
    pub records: u64,
    /// Whether the call was `Π_Setup`.
    pub setup: bool,
    /// Whether the call returned `Ok`.
    pub ok: bool,
}

/// One analyst read seen at a client handle.
#[derive(Debug, Clone)]
pub struct ReadSpan {
    /// Match key (see the module docs).
    pub key: String,
    /// Ordinal of this read among reads of `key`.
    pub seq: u64,
    /// Which read method the analyst dispatched.
    pub path: ReadPath,
    /// Round trip in nanoseconds.
    pub ns: u64,
    /// Whether the call returned `Ok`.
    pub ok: bool,
}

/// One read seen at the engine (server side of the wire, if any).
#[derive(Debug, Clone, Copy)]
pub struct EngineRead {
    /// Engine span in nanoseconds.
    pub ns: u64,
    /// Time spent inside the caller's RNG during the span (entropy round
    /// trips over the wire).
    pub entropy_ns: u64,
    /// `QueryOutcome::touched_records`, 0 on error.
    pub touched: u64,
    /// Which read method was called.
    pub path: ReadPath,
}

/// Everything recorded during one epoch.
#[derive(Debug, Default)]
pub struct Spans {
    /// Client-side writes, in completion order.
    pub client_writes: Vec<WriteSpan>,
    /// Client-side reads, in completion order.
    pub client_reads: Vec<ReadSpan>,
    /// Per-key read counters on the client side.
    pub client_read_seq: HashMap<String, u64>,
    /// Client-side time in every other protocol call (`supports`,
    /// `table_stats`, registrations, `adversary_view`).
    pub client_control_ns: u64,
    /// Owner-side encryption spans: `(ns, records)`.
    pub encrypt: Vec<(u64, u64)>,
    /// Every `on_tick` duration.
    pub on_tick_ns: Vec<u64>,
    /// Time in every strategy call (`on_tick`, `initial_fetch`,
    /// `next_wake`).
    pub strategy_ns: u64,
    /// `on_tick` calls that returned `Sync`.
    pub syncs: u64,
    /// Engine-side writes keyed by `(table, time)`.
    pub engine_writes: HashMap<(String, u64), u64>,
    /// Engine-side reads keyed by `(key, seq)`.
    pub engine_reads: HashMap<(String, u64), EngineRead>,
    /// Per-key read counters on the engine side.
    pub engine_read_seq: HashMap<String, u64>,
    /// Engine-side time in the calls counted by `client_control_ns`.
    pub engine_control_ns: u64,
    /// Every entropy draw's duration, seen from the engine.
    pub entropy_ns: Vec<u64>,
    /// Backend append spans keyed by `(table, time)`.
    pub appends: HashMap<(String, u64), u64>,
    /// Every append duration.
    pub append_ns: Vec<u64>,
    /// Time in backend scans.
    pub scan_ns: u64,
}

/// A shared, lock-protected span store for one epoch.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Mutex<Spans>,
}

impl Recorder {
    /// Runs `f` on the span store.  A probe that panicked mid-record leaves
    /// only statistics behind, so a poisoned lock is recovered rather than
    /// propagated (this also runs from `Drop`).
    pub fn with<R>(&self, f: impl FnOnce(&mut Spans) -> R) -> R {
        f(&mut self.spans.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Takes the recorded spans, leaving the store empty.
    pub fn take(&self) -> Spans {
        self.with(std::mem::take)
    }
}

/// Duration as whole nanoseconds.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The value at quantile `q` of `values` (nearest rank on the sorted list);
/// 0 for an empty list.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Per-layer totals over one or more traced epochs.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// Summed driver-thread wall clock of the timed regions, ns.
    pub wall_ns: f64,
    /// Strategy self time, ns.
    pub strategy_ns: f64,
    /// `on_tick` durations.
    pub on_tick_ns: Vec<u64>,
    /// `on_tick` calls that returned `Sync`.
    pub syncs: u64,
    /// Encryption self time, ns.
    pub encrypt_ns: f64,
    /// Records encrypted.
    pub encrypt_records: u64,
    /// Net self time per `Π_Update`, ns.
    pub net_update_ns: Vec<u64>,
    /// Net self time of writes (setup included), ns.
    pub net_write_ns: f64,
    /// Net self time per read, ns.
    pub net_read_ns: Vec<u64>,
    /// Net self time of reads, ns.
    pub net_read_total_ns: f64,
    /// Net self time of control calls, ns.
    pub net_control_ns: f64,
    /// Entropy draw durations.
    pub entropy_ns: Vec<u64>,
    /// Engine self time per `Π_Update`, ns.
    pub engine_update_ns: Vec<u64>,
    /// Engine self time of writes (setup included), ns.
    pub engine_write_ns: f64,
    /// Records carried by writes.
    pub write_records: u64,
    /// Engine self time per read, by path, ns.
    pub engine_read_ns: HashMap<&'static str, Vec<u64>>,
    /// Engine self time of reads, ns.
    pub engine_read_total_ns: f64,
    /// Engine time of control calls, ns.
    pub engine_control_ns: f64,
    /// `touched_records` per read.
    pub touched: Vec<u64>,
    /// Backend append durations.
    pub append_ns: Vec<u64>,
    /// Backend append self time, ns.
    pub append_total_ns: f64,
    /// Backend scan self time, ns.
    pub scan_ns: f64,
    /// Reads dispatched per path.
    pub plans: HashMap<&'static str, u64>,
    /// Client spans of every protocol call, ns (net + engine + backend).
    pub client_total_ns: f64,
}

fn path_label(path: ReadPath) -> &'static str {
    match path {
        ReadPath::Scan => "scan",
        ReadPath::View => "view",
        ReadPath::Index => "index",
    }
}

impl Breakdown {
    /// Folds one epoch's spans into the breakdown.  `wall` is the summed
    /// driver-thread wall clock of the epoch's timed region.
    pub fn add(&mut self, spans: &Spans, wall: Duration) {
        self.wall_ns += ns(wall) as f64;
        self.strategy_ns += spans.strategy_ns as f64;
        self.on_tick_ns.extend_from_slice(&spans.on_tick_ns);
        self.syncs += spans.syncs;
        for (span_ns, records) in &spans.encrypt {
            self.encrypt_ns += *span_ns as f64;
            self.encrypt_records += records;
        }
        for w in &spans.client_writes {
            let key = (w.table.clone(), w.time);
            let engine = spans.engine_writes.get(&key).copied().unwrap_or(0);
            let backend = spans.appends.get(&key).copied().unwrap_or(0);
            let net = w.ns.saturating_sub(engine);
            let engine_self = engine.saturating_sub(backend);
            self.client_total_ns += w.ns as f64;
            self.net_write_ns += net as f64;
            self.engine_write_ns += engine_self as f64;
            self.write_records += w.records;
            if !w.setup && w.ok {
                self.net_update_ns.push(net);
                self.engine_update_ns.push(engine_self);
            }
        }
        for r in &spans.client_reads {
            *self.plans.entry(path_label(r.path)).or_default() += 1;
            self.client_total_ns += r.ns as f64;
            let Some(engine) = spans.engine_reads.get(&(r.key.clone(), r.seq)) else {
                self.net_read_ns.push(r.ns);
                self.net_read_total_ns += r.ns as f64;
                continue;
            };
            let net = (r.ns + engine.entropy_ns).saturating_sub(engine.ns);
            let engine_self = engine.ns.saturating_sub(engine.entropy_ns);
            self.net_read_ns.push(net);
            self.net_read_total_ns += net as f64;
            self.engine_read_total_ns += engine_self as f64;
            self.engine_read_ns
                .entry(path_label(engine.path))
                .or_default()
                .push(engine_self);
            self.touched.push(engine.touched);
        }
        // Scans only run inside engine calls, so their time is carved out
        // of the engine's read self time.
        self.scan_ns += spans.scan_ns as f64;
        self.engine_read_total_ns -= spans.scan_ns as f64;
        self.client_total_ns += spans.client_control_ns as f64;
        self.net_control_ns += spans.client_control_ns as f64
            - spans.engine_control_ns.min(spans.client_control_ns) as f64;
        self.engine_control_ns += spans.engine_control_ns.min(spans.client_control_ns) as f64;
        self.entropy_ns.extend_from_slice(&spans.entropy_ns);
        self.append_ns.extend_from_slice(&spans.append_ns);
        self.append_total_ns += spans.appends.values().sum::<u64>() as f64;
    }

    /// Self time of every named layer, ns; `core.simulation` is the wall
    /// clock minus this.
    pub fn named_ns(&self) -> f64 {
        self.strategy_ns + self.encrypt_ns + self.client_total_ns
    }
}
