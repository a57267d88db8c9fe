//! A Crypt-ε-like engine: crypto-assisted DP query answering, L-DP leakage.
//!
//! Crypt-ε (Roy Chowdhury et al.) answers aggregate queries over encrypted
//! data with a per-query differential-privacy budget: released counts carry
//! Laplace noise, so the scheme only ever leaks differentially-private
//! response volumes (the L-DP group of §6).  The paper's evaluation sets the
//! query budget to ε = 3 and notes that Crypt-ε does not support joins
//! (footnote 2), both of which this simulator reproduces.
//!
//! What the simulator preserves from the real system, for the purposes of
//! evaluating DP-Sync:
//!
//! * query answers are the exact count over synced non-dummy records **plus
//!   Laplace noise** with scale `1/ε_query` (per released value),
//! * only DP-noised aggregates are released: joins and row selections are
//!   rejected (a selection's rows, and so their count, carry no noise),
//! * per-record query cost is an order of magnitude heavier than the
//!   SGX-based engine (crypto-assisted aggregation), and
//! * the adversary observes the update pattern and noisy response volumes
//!   only.

use crate::cost::CostModel;
use crate::emm::IndexDef;
use crate::engines::base::{EngineCore, ReadPath};
use crate::leakage::{LeakageClass, LeakageProfile};
use crate::query::{Query, QueryAnswer};
use crate::schema::Schema;
use crate::server::AdversaryView;
use crate::sogdb::{EdbError, QueryOutcome, SecureOutsourcedDatabase, TableStats};
use crate::views::ViewDef;
use dpsync_crypto::{EncryptedRecord, MasterKey};
use dpsync_dp::{Epsilon, Laplace};
use rand::RngCore;

/// Default per-query privacy budget used in the paper's evaluation (§8).
pub const DEFAULT_QUERY_EPSILON: f64 = 3.0;

/// The Crypt-ε-like engine.
#[derive(Debug)]
pub struct CryptEpsilonEngine {
    core: EngineCore,
    cost: CostModel,
    query_epsilon: Epsilon,
}

impl CryptEpsilonEngine {
    /// Creates an engine with the paper's default query budget (ε = 3) and
    /// in-memory ciphertext storage.
    pub fn new(master: &MasterKey) -> Self {
        Self::with_query_epsilon(master, Epsilon::new_unchecked(DEFAULT_QUERY_EPSILON))
    }

    /// Creates an engine over an explicit storage backend (e.g. the durable
    /// segment log), with the default query budget.
    pub fn with_backend(
        master: &MasterKey,
        backend: std::sync::Arc<dyn crate::backend::StorageBackend>,
    ) -> Result<Self, crate::backend::StorageError> {
        Ok(Self {
            core: EngineCore::with_backend(master, backend)?,
            cost: CostModel::crypt_epsilon(),
            query_epsilon: Epsilon::new_unchecked(DEFAULT_QUERY_EPSILON),
        })
    }

    /// Creates an engine with a custom per-query budget.
    pub fn with_query_epsilon(master: &MasterKey, query_epsilon: Epsilon) -> Self {
        Self {
            core: EngineCore::new(master),
            cost: CostModel::crypt_epsilon(),
            query_epsilon,
        }
    }

    /// The per-query privacy budget used to perturb released answers.
    pub fn query_epsilon(&self) -> Epsilon {
        self.query_epsilon
    }

    /// The L-DP release rule, shared by every read path: a shape Crypt-ε
    /// cannot release is rejected before anything is fetched, and the exact
    /// answer is perturbed, the server observing only its noisy volume.
    /// A view's query needs no check: views cover count shapes only.
    fn read(&self, path: ReadPath<'_>, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        if let ReadPath::Scan(query) | ReadPath::Index(_, query) = path {
            if !self.supports(query) {
                return Err(EdbError::UnsupportedQuery {
                    engine: self.name(),
                    kind: query.kind(),
                });
            }
        }
        // The exact answer is the same on every read path, so the Laplace
        // draws from the caller's rng, and therefore the release and the
        // noisy volume, are too: fixed-seed runs (including remote ones
        // through the entropy sub-protocol) release identical answers with
        // views or indexes on or off.
        self.core.read(path, &self.cost, |exact| {
            let answer = self.perturb_answer(exact, rng);
            let noisy_volume = answer.total().max(0.0).round() as u64;
            (answer, Some(noisy_volume))
        })
    }

    fn perturb_answer(&self, answer: QueryAnswer, rng: &mut dyn RngCore) -> QueryAnswer {
        let noise = Laplace::new(0.0, 1.0 / self.query_epsilon.value())
            .expect("query epsilon is validated");
        // The raw perturbed value is released as-is — a Laplace draw can
        // drive a count below zero, and flooring it here would bias the
        // released distribution and desynchronize the transcript from the
        // release.  Consumers that want a presentable count clamp at the
        // analyst trust boundary (see `dpsync-core`'s `Analyst`), never on
        // the server.
        //
        // Each release costs at most one RNG call, which over the wire is
        // one entropy round trip: a scalar takes one `next_u64`, k groups
        // take one `fill_bytes` of 8k bytes (one word per group in key
        // order), no groups take nothing.  `DpRng` fills with the
        // little-endian bytes of successive `next_u64` words, so the noise
        // equals k single draws.
        match answer {
            QueryAnswer::Scalar(v) => QueryAnswer::Scalar((v + noise.sample(rng)).round()),
            QueryAnswer::Groups(groups) => {
                let draws = noise.sample_n(rng, groups.len());
                QueryAnswer::Groups(
                    groups
                        .into_iter()
                        .zip(draws)
                        .map(|((k, v), z)| (k, (v + z).round()))
                        .collect(),
                )
            }
            QueryAnswer::Rows(_) => unreachable!("selections are rejected before the fetch"),
        }
    }
}

impl SecureOutsourcedDatabase for CryptEpsilonEngine {
    fn name(&self) -> &'static str {
        "crypt-epsilon"
    }

    fn leakage_profile(&self) -> LeakageProfile {
        LeakageProfile {
            class: LeakageClass::LDpDifferentiallyPrivateVolume,
            update_leaks_beyond_pattern: false,
            native_dummy_support: false,
        }
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn setup(
        &self,
        table: &str,
        schema: Schema,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        self.core.setup(table, schema, records)
    }

    fn update(
        &self,
        table: &str,
        time: u64,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        self.core.ingest(table, time, records)
    }

    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.read(ReadPath::Scan(query), rng)
    }

    fn supports(&self, query: &Query) -> bool {
        !matches!(query, Query::JoinCount { .. } | Query::Select { .. })
    }

    fn table_stats(&self, table: &str) -> TableStats {
        self.core.table_stats(table)
    }

    fn adversary_view(&self) -> AdversaryView {
        self.core.storage().adversary_view()
    }

    fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        // Views only cover count shapes, which Crypt-ε supports; nothing is
        // observed by the server at registration time.
        self.core.register_view(def)
    }

    fn query_view(&self, name: &str, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.read(ReadPath::View(name), rng)
    }

    fn register_index(&self, def: &IndexDef) -> Result<(), EdbError> {
        // Index maintenance inserts one entry per padded record; the server
        // observes nothing beyond the Definition-2 update pattern.
        self.core.register_index(def)
    }

    fn query_indexed(
        &self,
        name: &str,
        query: &Query,
        rng: &mut dyn RngCore,
    ) -> Result<QueryOutcome, EdbError> {
        self.read(ReadPath::Index(name, query), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::base::encrypt_batch;
    use crate::query::paper_queries;
    use crate::row::Row;
    use crate::schema::{DataType, Value};
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

    fn engine_with_data(n: usize) -> (CryptEpsilonEngine, RecordCryptor) {
        let master = MasterKey::from_bytes([11u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = CryptEpsilonEngine::new(&master);
        let rows: Vec<Row> = (0..n).map(|i| row(i as u64, 75)).collect();
        let batch = encrypt_batch(&mut cryptor, &rows, n / 2);
        engine.setup("yellow", schema(), batch).unwrap();
        (engine, cryptor)
    }

    #[test]
    fn answers_are_noisy_but_close() {
        let (engine, _) = engine_with_data(200);
        let mut rng = StdRng::seed_from_u64(5);
        let q = paper_queries::q1_range_count("yellow");
        let mut errors = Vec::new();
        for _ in 0..50 {
            let outcome = engine.query(&q, &mut rng).unwrap();
            errors.push((outcome.answer.as_scalar().unwrap() - 200.0).abs());
        }
        let mean_error = errors.iter().sum::<f64>() / errors.len() as f64;
        // With epsilon = 3 the expected absolute Laplace error is 1/3.
        assert!(mean_error < 2.0, "mean error {mean_error}");
        assert!(errors.iter().any(|e| *e > 0.0), "noise was never added");
    }

    #[test]
    fn group_by_answers_are_noisy_per_group() {
        let (engine, _) = engine_with_data(100);
        let mut rng = StdRng::seed_from_u64(6);
        let outcome = engine
            .query(&paper_queries::q2_group_by_count("yellow"), &mut rng)
            .unwrap();
        let groups = outcome.answer.as_groups().unwrap();
        assert_eq!(groups.len(), 1);
        let count = groups.values().next().unwrap();
        assert!((count - 100.0).abs() < 10.0);
    }

    #[test]
    fn many_group_answers_draw_one_sample_per_group_in_key_order() {
        use crate::query::Predicate;
        use crate::views::ViewDef;
        // 240 rows over 30 pickup ids.  Each engine gets the same rows.
        let build = || {
            let master = MasterKey::from_bytes([13u8; 32]);
            let mut cryptor = RecordCryptor::new(&master);
            let engine = CryptEpsilonEngine::new(&master);
            let rows: Vec<Row> = (0..240).map(|i| row(i, 40 + (i % 30) as i64)).collect();
            let batch = encrypt_batch(&mut cryptor, &rows, 40);
            engine.setup("yellow", schema(), batch).unwrap();
            engine
        };
        // The release of the per-group loop: `v + sample(rng)` for each
        // group in key order, from a clone of the query's rng.
        let per_group = |engine: &CryptEpsilonEngine, query: &Query, rng: &StdRng| {
            let noise = Laplace::new(0.0, 1.0 / DEFAULT_QUERY_EPSILON).unwrap();
            let mut rng = rng.clone();
            let (exact, _) = engine.core.execute(query).unwrap();
            let groups = exact
                .as_groups()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), (v + noise.sample(&mut rng)).round()))
                .collect();
            (QueryAnswer::Groups(groups), rng)
        };
        let start = StdRng::seed_from_u64(90);

        let q2 = paper_queries::q2_group_by_count("yellow");
        let (scan, view) = (build(), build());
        view.register_view(&ViewDef::new("q2", q2.clone()).unwrap())
            .unwrap();
        let (expected, after) = per_group(&scan, &q2, &start);
        assert_eq!(expected.as_groups().unwrap().len(), 30);
        let mut rng = start.clone();
        assert_eq!(scan.query(&q2, &mut rng).unwrap().answer, expected);
        assert_eq!(rng, after);
        let mut rng = start.clone();
        assert_eq!(view.query_view("q2", &mut rng).unwrap().answer, expected);
        assert_eq!(rng, after);
        assert_eq!(
            scan.adversary_view().queries(),
            view.adversary_view().queries()
        );

        let q2_range = Query::GroupByCount {
            table: "yellow".into(),
            group_by: "pickup_id".into(),
            predicate: Some(Predicate::Between("pickup_id".into(), 50.0, 100.0)),
        };
        let (scan, index) = (build(), build());
        index
            .register_index(&IndexDef::new("idx", "yellow", "pickup_id").unwrap())
            .unwrap();
        let (expected, after) = per_group(&scan, &q2_range, &start);
        assert_eq!(expected.as_groups().unwrap().len(), 20);
        let mut rng = start.clone();
        assert_eq!(scan.query(&q2_range, &mut rng).unwrap().answer, expected);
        assert_eq!(rng, after);
        let mut rng = start.clone();
        let indexed = index.query_indexed("idx", &q2_range, &mut rng).unwrap();
        assert_eq!(indexed.answer, expected);
        assert_eq!(rng, after);
        assert_eq!(
            index.adversary_view().queries()[0].observed_response_volume,
            scan.adversary_view().queries()[0].observed_response_volume
        );
    }

    #[test]
    fn joins_are_rejected() {
        let (engine, _) = engine_with_data(10);
        let mut rng = StdRng::seed_from_u64(7);
        let q = paper_queries::q3_join_count("yellow", "yellow");
        assert!(!engine.supports(&q));
        assert!(matches!(
            engine.query(&q, &mut rng),
            Err(EdbError::UnsupportedQuery { kind: "join", .. })
        ));
    }

    #[test]
    fn selections_are_rejected_before_anything_is_fetched() {
        use crate::query::Predicate;
        // A selection would release exact rows to the analyst and their
        // exact count to the server, outside the engine's L-DP class.  It is
        // refused on the scan and on the index path alike: no observation,
        // no sequence number, no draw from the caller's rng.
        let (engine, _) = engine_with_data(37);
        engine
            .register_index(&IndexDef::new("idx", "yellow", "pickup_id").unwrap())
            .unwrap();
        let select = Query::Select {
            table: "yellow".into(),
            columns: vec!["pick_time".into()],
            predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(75))),
        };
        assert!(!engine.supports(&select));
        let start = StdRng::seed_from_u64(12);
        let mut rng = start.clone();
        assert!(matches!(
            engine.query(&select, &mut rng),
            Err(EdbError::UnsupportedQuery { kind: "select", .. })
        ));
        assert!(matches!(
            engine.query_indexed("idx", &select, &mut rng),
            Err(EdbError::UnsupportedQuery { kind: "select", .. })
        ));
        assert_eq!(rng, start);
        assert!(engine.adversary_view().queries().is_empty());
        engine
            .query(&paper_queries::q1_range_count("yellow"), &mut rng)
            .unwrap();
        assert_eq!(engine.adversary_view().queries()[0].sequence, 0);
    }

    #[test]
    fn leakage_profile_is_ldp_and_compatible() {
        let (engine, _) = engine_with_data(10);
        let profile = engine.leakage_profile();
        assert_eq!(profile.class, LeakageClass::LDpDifferentiallyPrivateVolume);
        assert!(profile.dp_sync_compatible());
        assert!(!profile.native_dummy_support);
        assert_eq!(engine.name(), "crypt-epsilon");
        assert_eq!(engine.query_epsilon().value(), DEFAULT_QUERY_EPSILON);
    }

    #[test]
    fn adversary_sees_noisy_volumes_only() {
        let (engine, _) = engine_with_data(50);
        let mut rng = StdRng::seed_from_u64(8);
        engine
            .query(&paper_queries::q1_range_count("yellow"), &mut rng)
            .unwrap();
        let view = engine.adversary_view();
        assert_eq!(view.queries().len(), 1);
        let observed = view.queries()[0].observed_response_volume.unwrap();
        // The observed volume is the noisy released count, close to but not
        // guaranteed equal to the true 50.
        assert!((observed as i64 - 50).abs() < 20);
    }

    #[test]
    fn cost_model_is_heavier_than_oblidb() {
        let (engine, _) = engine_with_data(100);
        let mut rng = StdRng::seed_from_u64(9);
        let outcome = engine
            .query(&paper_queries::q2_group_by_count("yellow"), &mut rng)
            .unwrap();
        assert!(outcome.estimated_seconds > CostModel::oblidb().group_by_cost(150));
    }

    #[test]
    fn view_read_draws_identical_noise_as_scan() {
        use crate::views::ViewDef;
        // Same data, same seed: the noisy view answer and the noisy volume
        // the adversary observes must equal the scan path's bit-for-bit,
        // because the exact answers (and therefore the Laplace draws) match.
        let (scan_engine, _) = engine_with_data(60);
        let (view_engine, _) = engine_with_data(60);
        let q1 = paper_queries::q1_range_count("yellow");
        view_engine
            .register_view(&ViewDef::new("q1", q1.clone()).unwrap())
            .unwrap();
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let scan = scan_engine.query(&q1, &mut rng_a).unwrap();
        let view = view_engine.query_view("q1", &mut rng_b).unwrap();
        assert_eq!(view.answer, scan.answer);
        assert_eq!(view.estimated_seconds, scan.estimated_seconds);
        assert_eq!(view.touched_records, scan.touched_records);
        assert_eq!(
            scan_engine.adversary_view().queries(),
            view_engine.adversary_view().queries()
        );
    }

    #[test]
    fn indexed_read_draws_identical_noise_as_scan_and_rejects_joins() {
        let (scan_engine, _) = engine_with_data(60);
        let (index_engine, _) = engine_with_data(60);
        let q1 = paper_queries::q1_range_count("yellow");
        index_engine
            .register_index(&IndexDef::new("idx", "yellow", "pickup_id").unwrap())
            .unwrap();
        let mut rng_a = StdRng::seed_from_u64(78);
        let mut rng_b = StdRng::seed_from_u64(78);
        let scan = scan_engine.query(&q1, &mut rng_a).unwrap();
        let indexed = index_engine.query_indexed("idx", &q1, &mut rng_b).unwrap();
        // Same exact answer, same rng state → the same noisy release and the
        // same noisy volume on the transcript.
        assert_eq!(indexed.answer, scan.answer);
        assert_eq!(
            index_engine.adversary_view().queries()[0].observed_response_volume,
            scan_engine.adversary_view().queries()[0].observed_response_volume
        );
        // The observation declares the index plan and its fetch count.
        let observed = index_engine.adversary_view().queries()[0].clone();
        assert_eq!(observed.kind, "index");
        assert_eq!(observed.touched_records, 60);
        // Joins stay unsupported through the indexed path too.
        let mut rng = StdRng::seed_from_u64(79);
        assert!(matches!(
            index_engine.query_indexed(
                "idx",
                &paper_queries::q3_join_count("yellow", "yellow"),
                &mut rng
            ),
            Err(EdbError::UnsupportedQuery { kind: "join", .. })
        ));
    }

    #[test]
    fn negative_noisy_draws_are_released_raw() {
        // An empty table with a very small query budget produces large
        // noise; the engine must release the raw perturbed value — negative
        // draws included — because clamping belongs at the analyst trust
        // boundary, never on the server, where it would bias the released
        // distribution.  The adversary-observed volume stays a u64 (a
        // negative release is observed as volume 0).
        let master = MasterKey::from_bytes([12u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = CryptEpsilonEngine::with_query_epsilon(&master, Epsilon::new_unchecked(0.05));
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &[], 0))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let mut saw_negative = false;
        for _ in 0..100 {
            let outcome = engine
                .query(&paper_queries::q1_range_count("yellow"), &mut rng)
                .unwrap();
            saw_negative |= outcome.answer.as_scalar().unwrap() < 0.0;
        }
        assert!(saw_negative, "a 100-draw Laplace run must dip below zero");
        for q in engine.adversary_view().queries() {
            // The transcript's observed volume is the released value's u64
            // image: never negative by construction of the type.
            assert!(q.observed_response_volume.is_some());
        }
    }
}
