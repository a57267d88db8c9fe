//! An ObliDB-like engine: oblivious query processing, L-0 leakage.
//!
//! ObliDB (Eskandarian & Zaharia) runs relational operators obliviously
//! inside an SGX enclave: every select/aggregate touches all records, joins
//! touch all pairs, and result sizes are padded, so the server learns neither
//! access patterns nor response volumes.  The simulator preserves exactly the
//! properties DP-Sync relies on:
//!
//! * answers are **exact** over the synced (non-dummy) records,
//! * query cost is **linear** in the number of stored ciphertexts for
//!   Q1/Q2-style queries and **quadratic** for joins (the cost model charges
//!   enclave-like per-record / per-pair constants),
//! * the adversary observes the update pattern and the query kinds, but no
//!   response volumes ([`LeakageClass::L0ResponseVolumeHiding`]).

use crate::backend::{StorageBackend, StorageError};
use crate::cost::CostModel;
use crate::engines::base::{sealed, Engine, ReleaseRule};
use crate::leakage::{LeakageClass, LeakageProfile};
use crate::query::{Query, QueryAnswer};
use crate::server::ServerStorage;
use dpsync_crypto::MasterKey;
use rand::RngCore;
use std::sync::Arc;

/// The ObliDB-like engine.
pub type ObliDbEngine = Engine<Oblivious>;

/// ObliDB's L-0 release rule: the exact answer, with no response volume
/// observed by the server, for every query shape.
#[derive(Debug)]
pub struct Oblivious;

impl sealed::Sealed for Oblivious {}

impl ReleaseRule for Oblivious {
    const NAME: &'static str = "oblidb";

    const PROFILE: LeakageProfile = LeakageProfile {
        class: LeakageClass::L0ResponseVolumeHiding,
        update_leaks_beyond_pattern: false,
        native_dummy_support: true,
    };

    fn supports(_query: &Query) -> bool {
        true
    }

    fn release(&self, exact: QueryAnswer, _rng: &mut dyn RngCore) -> (QueryAnswer, Option<u64>) {
        (exact, None)
    }
}

impl ObliDbEngine {
    /// Creates an engine sharing the owner's master key, with the default
    /// ObliDB cost model and in-memory ciphertext storage.
    pub fn new(master: &MasterKey) -> Self {
        Engine::over(master, ServerStorage::new(), CostModel::oblidb(), Oblivious)
    }

    /// Creates an engine over an explicit storage backend (e.g. the durable
    /// segment log), with the default cost model.
    pub fn with_backend(
        master: &MasterKey,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, StorageError> {
        let storage = ServerStorage::with_backend(backend)?;
        Ok(Engine::over(
            master,
            storage,
            CostModel::oblidb(),
            Oblivious,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emm::IndexDef;
    use crate::engines::base::encrypt_batch;
    use crate::query::paper_queries;
    use crate::row::Row;
    use crate::schema::{DataType, Schema, Value};
    use crate::sogdb::{EdbError, SecureOutsourcedDatabase};
    use dpsync_crypto::RecordCryptor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ])
    }

    fn row(t: u64, p: i64) -> Row {
        Row::new(vec![Value::Timestamp(t), Value::Int(p)])
    }

    fn engine_with_data() -> (ObliDbEngine, RecordCryptor) {
        let master = MasterKey::from_bytes([42u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = ObliDbEngine::new(&master);
        let rows: Vec<Row> = (0..20).map(|i| row(i, 40 + i as i64 * 5)).collect();
        let batch = encrypt_batch(&mut cryptor, &rows, 10);
        engine.setup("yellow", schema(), batch).unwrap();
        (engine, cryptor)
    }

    #[test]
    fn answers_are_exact_and_ignore_dummies() {
        let (engine, _) = engine_with_data();
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = engine
            .query(&paper_queries::q1_range_count("yellow"), &mut rng)
            .unwrap();
        // pickup_id = 40 + 5i in [50,100] -> i in [2,12] -> 11 rows.
        assert_eq!(outcome.answer, QueryAnswer::Scalar(11.0));
        assert_eq!(outcome.touched_records, 30);
    }

    #[test]
    fn group_by_and_join_supported() {
        let (engine, mut cryptor) = engine_with_data();
        let rows: Vec<Row> = (0..5).map(|i| row(i, 7)).collect();
        engine
            .update(
                "green_setup_placeholder",
                1,
                encrypt_batch(&mut cryptor, &rows, 0),
            )
            .unwrap_err(); // not set up yet
        engine
            .setup("green", schema(), encrypt_batch(&mut cryptor, &rows, 2))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let q2 = engine
            .query(&paper_queries::q2_group_by_count("green"), &mut rng)
            .unwrap();
        assert_eq!(q2.answer.total(), 5.0);
        let q3 = engine
            .query(&paper_queries::q3_join_count("yellow", "green"), &mut rng)
            .unwrap();
        // yellow times 0..20 (one each), green times 0..5 (one each) -> 5 matches.
        assert_eq!(q3.answer, QueryAnswer::Scalar(5.0));
        assert!(engine.supports(&paper_queries::q3_join_count("yellow", "green")));
    }

    #[test]
    fn estimated_cost_grows_with_outsourced_data() {
        let (engine, mut cryptor) = engine_with_data();
        let mut rng = StdRng::seed_from_u64(3);
        let before = engine
            .query(&paper_queries::q2_group_by_count("yellow"), &mut rng)
            .unwrap()
            .estimated_seconds;
        let more: Vec<Row> = (0..100).map(|i| row(100 + i, 60)).collect();
        engine
            .update("yellow", 50, encrypt_batch(&mut cryptor, &more, 50))
            .unwrap();
        let after = engine
            .query(&paper_queries::q2_group_by_count("yellow"), &mut rng)
            .unwrap()
            .estimated_seconds;
        assert!(after > before);
    }

    #[test]
    fn leakage_profile_is_l0_and_compatible() {
        let (engine, _) = engine_with_data();
        let profile = engine.leakage_profile();
        assert_eq!(profile.class, LeakageClass::L0ResponseVolumeHiding);
        assert!(profile.dp_sync_compatible());
        assert_eq!(engine.name(), "oblidb");
    }

    #[test]
    fn adversary_never_sees_response_volumes() {
        let (engine, _) = engine_with_data();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..3 {
            engine
                .query(&paper_queries::q1_range_count("yellow"), &mut rng)
                .unwrap();
        }
        let view = engine.adversary_view();
        assert_eq!(view.queries().len(), 3);
        assert!(view
            .queries()
            .iter()
            .all(|q| q.observed_response_volume.is_none()));
        // The update pattern is still fully visible.
        assert_eq!(view.update_pattern().len(), 1);
        assert_eq!(view.update_pattern().total_volume(), 30);
    }

    #[test]
    fn view_read_is_transcript_identical_to_scan() {
        use crate::views::ViewDef;
        // Two identically-loaded engines: one answers Q1 by scan, the other
        // through a registered view.  Everything the analyst or the
        // adversary can compare — answer, estimate, touched count, query
        // observations — must match bit-for-bit.
        let (scan_engine, _) = engine_with_data();
        let (view_engine, mut cryptor) = engine_with_data();
        let q1 = paper_queries::q1_range_count("yellow");
        view_engine
            .register_view(&ViewDef::new("q1", q1.clone()).unwrap())
            .unwrap();
        // Ingest one more mixed batch through the maintenance path.
        let batch = encrypt_batch(&mut cryptor, &[row(50, 75)], 2);
        view_engine.update("yellow", 60, batch).unwrap();
        let mut cryptor2 = {
            let master = MasterKey::from_bytes([42u8; 32]);
            let mut c = RecordCryptor::new(&master);
            // Skip the nonces engine_with_data consumed so ciphertext bytes
            // differ; the adversary view comparison below excludes them.
            let _ = encrypt_batch(
                &mut c,
                &(0..20)
                    .map(|i| row(i, 40 + i as i64 * 5))
                    .collect::<Vec<_>>(),
                10,
            );
            c
        };
        let batch = encrypt_batch(&mut cryptor2, &[row(50, 75)], 2);
        scan_engine.update("yellow", 60, batch).unwrap();

        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let scan = scan_engine.query(&q1, &mut rng_a).unwrap();
        let view = view_engine.query_view("q1", &mut rng_b).unwrap();
        assert_eq!(view.answer, scan.answer);
        assert_eq!(view.estimated_seconds, scan.estimated_seconds);
        assert_eq!(view.touched_records, scan.touched_records);
        // The servers' query transcripts are identical.
        assert_eq!(
            scan_engine.adversary_view().queries(),
            view_engine.adversary_view().queries()
        );
        // Unknown view names fail cleanly.
        let mut rng = StdRng::seed_from_u64(10);
        assert!(matches!(
            view_engine.query_view("nope", &mut rng),
            Err(EdbError::UnknownView(_))
        ));
    }

    #[test]
    fn indexed_read_matches_scan_answer_and_declares_index_kind() {
        let (engine, _) = engine_with_data();
        let q1 = paper_queries::q1_range_count("yellow");
        engine
            .register_index(&IndexDef::new("idx", "yellow", "pickup_id").unwrap())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let scan = engine.query(&q1, &mut rng).unwrap();
        let indexed = engine.query_indexed("idx", &q1, &mut rng).unwrap();
        // The answer is bit-identical to the scan; the cost and transcript
        // honestly reflect the smaller fetch.
        assert_eq!(indexed.answer, scan.answer);
        assert_eq!(indexed.touched_records, 11);
        assert!(indexed.estimated_seconds < scan.estimated_seconds);
        let view = engine.adversary_view();
        let observed = view.queries().last().unwrap();
        assert_eq!(observed.kind, "index");
        assert_eq!(observed.touched_records, 11);
        assert_eq!(observed.observed_response_volume, None);
        // Unknown index names fail cleanly.
        assert!(matches!(
            engine.query_indexed("nope", &q1, &mut rng),
            Err(EdbError::UnknownIndex(_))
        ));
    }

    #[test]
    fn reads_draw_nothing_from_the_callers_rng() {
        use crate::views::ViewDef;
        // The exact release needs no randomness and the shared read step
        // draws none of its own, so scan, view and indexed reads all leave
        // the caller's rng where it was: in-process and remote runs keep
        // identical rng streams.
        let (engine, _) = engine_with_data();
        let q1 = paper_queries::q1_range_count("yellow");
        engine
            .register_view(&ViewDef::new("q1", q1.clone()).unwrap())
            .unwrap();
        engine
            .register_index(&IndexDef::new("idx", "yellow", "pickup_id").unwrap())
            .unwrap();
        let start = StdRng::seed_from_u64(12);
        let mut rng = start.clone();
        engine.query(&q1, &mut rng).unwrap();
        engine.query_view("q1", &mut rng).unwrap();
        engine.query_indexed("idx", &q1, &mut rng).unwrap();
        assert_eq!(rng, start);
        assert_eq!(engine.adversary_view().queries().len(), 3);
    }

    #[test]
    fn table_stats_reflect_dummy_split() {
        let (engine, _) = engine_with_data();
        let stats = engine.table_stats("yellow");
        assert_eq!(stats.real_records, 20);
        assert_eq!(stats.dummy_records, 10);
        assert_eq!(stats.ciphertext_count, 30);
    }
}
