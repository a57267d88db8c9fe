//! The Secure Outsourced Growing Database (SOGDB) protocol interface.
//!
//! Definition 1 of the paper specifies a SOGDB as three protocols plus a
//! synchronization algorithm:
//!
//! * `Π_Setup((λ, D₀), ⊥, ⊥)` — owner outsources the initial database;
//! * `Π_Update(γ, DS_t, ⊥)` — owner appends a batch of (real + dummy)
//!   encrypted records;
//! * `Π_Query(⊥, DS_t, q_t)` — analyst evaluates a query against the
//!   outsourced structure;
//! * `Sync(D)` — the owner-side strategy (implemented in `dpsync-core`).
//!
//! [`SecureOutsourcedDatabase`] is the Rust rendering of the first three.
//! Engines are object-safe so the owner runtime and the experiment harness
//! can swap them freely (`Box<dyn SecureOutsourcedDatabase>`).

use crate::backend::StorageError;
use crate::cost::CostModel;
use crate::emm::IndexDef;
use crate::exec::ExecError;
use crate::leakage::LeakageProfile;
use crate::query::{Query, QueryAnswer};
use crate::schema::Schema;
use crate::server::AdversaryView;
use crate::views::ViewDef;
use dpsync_crypto::{CryptoError, EncryptedRecord};
use rand::RngCore;

/// Errors surfaced by SOGDB protocol implementations.
#[derive(Debug, Clone, PartialEq)]
pub enum EdbError {
    /// A cryptographic failure (authentication, malformed ciphertext, ...).
    Crypto(CryptoError),
    /// A relational execution failure (unknown table/column).
    Exec(ExecError),
    /// The engine does not support this query shape (e.g. joins on the
    /// Crypt-ε-like engine, mirroring footnote 2 of the paper).
    UnsupportedQuery {
        /// Engine name.
        engine: &'static str,
        /// Query kind that was rejected.
        kind: &'static str,
    },
    /// Setup was called twice for the same table.
    AlreadySetUp(String),
    /// Update or query referenced a table that was never set up.
    NotSetUp(String),
    /// A stored row failed to decode after decryption.
    CorruptRow(String),
    /// The storage backend failed (I/O error, on-disk corruption).
    ///
    /// Carried through from [`crate::backend::StorageError`] so owner and
    /// analyst code paths propagate backend failures cleanly instead of
    /// panicking; the underlying error is reachable via
    /// [`std::error::Error::source`].
    Storage(StorageError),
    /// `query_view` referenced a view name that was never registered.
    UnknownView(String),
    /// A view registration was rejected: unsupported query shape, a reserved
    /// column reference, or a name already bound to a different definition.
    InvalidView(String),
    /// `query_indexed` referenced an index name that was never registered.
    UnknownIndex(String),
    /// An index registration or indexed read was rejected: an unindexable
    /// column type, a name already bound to a different definition, or a
    /// query the named index cannot serve.
    InvalidIndex(String),
}

impl std::fmt::Display for EdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdbError::Crypto(e) => write!(f, "crypto error: {e}"),
            EdbError::Exec(e) => write!(f, "execution error: {e}"),
            EdbError::UnsupportedQuery { engine, kind } => {
                write!(f, "engine `{engine}` does not support {kind} queries")
            }
            EdbError::AlreadySetUp(t) => write!(f, "table `{t}` was already set up"),
            EdbError::NotSetUp(t) => write!(f, "table `{t}` has not been set up"),
            EdbError::CorruptRow(msg) => write!(f, "corrupt row: {msg}"),
            EdbError::Storage(e) => write!(f, "storage error: {e}"),
            EdbError::UnknownView(name) => write!(f, "unknown view `{name}`"),
            EdbError::InvalidView(msg) => write!(f, "invalid view definition: {msg}"),
            EdbError::UnknownIndex(name) => write!(f, "unknown index `{name}`"),
            EdbError::InvalidIndex(msg) => write!(f, "invalid index use: {msg}"),
        }
    }
}

impl std::error::Error for EdbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdbError::Crypto(e) => Some(e),
            EdbError::Exec(e) => Some(e),
            EdbError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for EdbError {
    fn from(e: CryptoError) -> Self {
        EdbError::Crypto(e)
    }
}

impl From<ExecError> for EdbError {
    fn from(e: ExecError) -> Self {
        EdbError::Exec(e)
    }
}

impl From<StorageError> for EdbError {
    fn from(e: StorageError) -> Self {
        EdbError::Storage(e)
    }
}

/// Size statistics of one outsourced table, as measurable by the owner or the
/// experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Number of ciphertexts stored on the server.
    pub ciphertext_count: u64,
    /// Total ciphertext bytes stored on the server.
    pub ciphertext_bytes: u64,
    /// Number of real (non-dummy) records among them.
    pub real_records: u64,
    /// Number of dummy records among them.
    pub dummy_records: u64,
}

impl TableStats {
    /// Dummy bytes, assuming all ciphertexts share the fixed record size.
    pub fn dummy_bytes(&self) -> u64 {
        self.ciphertext_bytes
            .checked_div(self.ciphertext_count)
            .map_or(0, |per_record| self.dummy_records * per_record)
    }
}

/// The outcome of one `Π_Query` run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The answer released to the analyst.
    pub answer: QueryAnswer,
    /// Estimated query execution time under the engine's [`CostModel`]
    /// (stands in for the paper's testbed wall-clock QET).
    pub estimated_seconds: f64,
    /// Wall-clock seconds this simulated execution actually took.
    pub measured_seconds: f64,
    /// Number of ciphertexts the engine touched.
    pub touched_records: u64,
}

/// The SOGDB protocol suite exposed by every engine.
///
/// All protocol methods take `&self`: engine state is sharded per table
/// behind interior locks (see [`crate::server::ServerStorage`]), so several
/// owners — one per table, each on its own thread — can run `Π_Update`
/// concurrently against one engine without serializing on a global lock.
/// The `Send + Sync` bound is what lets callers share one
/// `&dyn SecureOutsourcedDatabase` across those owner threads, e.g. several
/// simulation-driver threads each running a slice of an owner fleet.
pub trait SecureOutsourcedDatabase: Send + Sync {
    /// A short engine name ("oblidb", "crypt-epsilon").
    fn name(&self) -> &'static str;

    /// The engine's leakage profile (determines DP-Sync compatibility, §6).
    fn leakage_profile(&self) -> LeakageProfile;

    /// The engine's cost model.
    fn cost_model(&self) -> CostModel;

    /// `Π_Setup`: creates `table` with `schema` and ingests the initial batch
    /// of encrypted records at time 0.
    fn setup(
        &self,
        table: &str,
        schema: Schema,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError>;

    /// `Π_Update`: appends a batch of encrypted records to `table` at `time`.
    ///
    /// Locks only `table`'s shard — updates to distinct tables proceed in
    /// parallel.
    fn update(&self, table: &str, time: u64, records: Vec<EncryptedRecord>)
        -> Result<(), EdbError>;

    /// `Π_Query`: evaluates `query` over the current outsourced structure.
    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError>;

    /// Whether the engine supports this query shape.
    ///
    /// The answer depends on the query's shape alone, never on data or
    /// engine state, so callers may ask once per query and remember it (the
    /// analyst does).  Both engines decide it that way: ObliDB supports every
    /// shape, Crypt-ε refuses joins and selections.
    fn supports(&self, query: &Query) -> bool;

    /// Size statistics for `table` (zeroes when the table does not exist).
    fn table_stats(&self, table: &str) -> TableStats;

    /// The transcript of everything the server has observed.
    fn adversary_view(&self) -> AdversaryView;

    /// Registers a materialized view so subsequent `Π_Update` batches are
    /// applied to it incrementally (see [`crate::views`]).
    ///
    /// Registration is idempotent for an identical definition.  The default
    /// implementation rejects views so engines opt in explicitly.
    fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        let _ = def;
        Err(EdbError::UnsupportedQuery {
            engine: self.name(),
            kind: "view",
        })
    }

    /// `Π_Query` served from a registered materialized view in O(result
    /// size), instead of rescanning the table.
    ///
    /// Engines must keep the released transcript (query observation, touched
    /// record count, estimated QET, and any DP noise drawn from `rng`)
    /// byte-identical to what [`SecureOutsourcedDatabase::query`] on the
    /// view's underlying query would have produced — only the measured wall
    /// clock may differ.  The default implementation rejects view reads.
    fn query_view(&self, name: &str, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        let _ = (name, rng);
        Err(EdbError::UnsupportedQuery {
            engine: self.name(),
            kind: "view",
        })
    }

    /// Registers an encrypted-multimap selection index so subsequent
    /// `Π_Update` batches maintain it incrementally (see [`crate::emm`]).
    ///
    /// Registration is idempotent for an identical definition.  The default
    /// implementation rejects indexes so engines opt in explicitly.
    fn register_index(&self, def: &IndexDef) -> Result<(), EdbError> {
        let _ = def;
        Err(EdbError::UnsupportedQuery {
            engine: self.name(),
            kind: "index",
        })
    }

    /// `Π_Query` served through a registered encrypted multimap: only the
    /// index entries matching the query's condition on the indexed column are
    /// fetched, instead of scanning the whole table.
    ///
    /// Unlike [`SecureOutsourcedDatabase::query_view`], an indexed read has a
    /// *different* declared transcript: the server observes kind `"index"`
    /// and a touched-record count equal to the number of index entries
    /// fetched (a response-volume signal).  The leakage-aware planner in
    /// `dpsync-core` only chooses this path under a policy that permits that
    /// leakage; the released *answer* must still equal the full scan's
    /// bit-for-bit.  The default implementation rejects indexed reads.
    fn query_indexed(
        &self,
        name: &str,
        query: &Query,
        rng: &mut dyn RngCore,
    ) -> Result<QueryOutcome, EdbError> {
        let _ = (name, query, rng);
        Err(EdbError::UnsupportedQuery {
            engine: self.name(),
            kind: "index",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_stats_dummy_bytes() {
        let stats = TableStats {
            ciphertext_count: 10,
            ciphertext_bytes: 950,
            real_records: 7,
            dummy_records: 3,
        };
        assert_eq!(stats.dummy_bytes(), 3 * 95);
        assert_eq!(TableStats::default().dummy_bytes(), 0);
    }

    #[test]
    fn error_display_and_conversions() {
        let e: EdbError = CryptoError::AuthenticationFailed.into();
        assert!(e.to_string().contains("crypto"));
        let e: EdbError = ExecError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("unknown table"));
        let e = EdbError::UnsupportedQuery {
            engine: "crypt-epsilon",
            kind: "join",
        };
        assert!(e.to_string().contains("join"));
        assert!(EdbError::AlreadySetUp("x".into())
            .to_string()
            .contains("already"));
        assert!(EdbError::NotSetUp("x".into())
            .to_string()
            .contains("not been set up"));
        assert!(EdbError::CorruptRow("bad".into())
            .to_string()
            .contains("bad"));
        assert!(EdbError::UnknownView("q1".into())
            .to_string()
            .contains("unknown view `q1`"));
        assert!(EdbError::InvalidView("join shape".into())
            .to_string()
            .contains("invalid view definition"));
        assert!(EdbError::UnknownIndex("idx".into())
            .to_string()
            .contains("unknown index `idx`"));
        assert!(EdbError::InvalidIndex("float column".into())
            .to_string()
            .contains("invalid index use"));
    }

    #[test]
    fn storage_errors_convert_and_expose_their_source() {
        use std::error::Error as _;
        let inner = StorageError::Io {
            path: "/data/seg-000001.dpl".into(),
            message: "disk full".into(),
        };
        let e: EdbError = inner.clone().into();
        assert!(matches!(e, EdbError::Storage(_)));
        assert!(e.to_string().contains("disk full"));
        let source = e.source().expect("storage errors carry a source");
        assert_eq!(source.to_string(), inner.to_string());
        // Non-wrapping variants have no source.
        assert!(EdbError::NotSetUp("t".into()).source().is_none());
    }
}
