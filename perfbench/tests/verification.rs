//! Verification must catch a wrong outcome: a reference built from another
//! seed, or a run that lost an update, counts as a failed operation instead
//! of passing silently.

use dpsync_crypto::EncryptedRecord;
use dpsync_edb::cost::CostModel;
use dpsync_edb::leakage::LeakageProfile;
use dpsync_edb::sogdb::{EdbError, QueryOutcome, SecureOutsourcedDatabase, TableStats};
use dpsync_edb::{AdversaryView, IndexDef, Query, Schema, ViewDef};
use perfbench::harness::verdict;
use perfbench::verify;
use perfbench::workloads::{master_key, run_epoch, Inputs, Mode, Scale, Workload};
use rand::RngCore;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

#[test]
fn a_correct_epoch_verifies_and_another_seed_does_not() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for workload in Workload::ALL {
        let inputs = Inputs::generate(workload, Scale::tiny(workload), 3);
        let epoch = run_epoch(&inputs, Mode::Timed, root, Instant::now()).expect("epoch runs");
        assert_eq!(verdict(&epoch.observed, &inputs), 0, "{}", workload.name());
        let other = Inputs::generate(workload, Scale::tiny(workload), 4);
        assert_eq!(
            verdict(&epoch.observed, &other),
            1,
            "{}: a reference from another seed must fail",
            workload.name()
        );
    }
}

/// Acknowledges the first non-setup update without storing it.
struct DropOneUpdate {
    inner: Box<dyn SecureOutsourcedDatabase>,
    dropped: AtomicBool,
}

impl SecureOutsourcedDatabase for DropOneUpdate {
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
        self.inner.setup(table, schema, records)
    }
    fn update(
        &self,
        table: &str,
        time: u64,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        if !self.dropped.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        self.inner.update(table, time, records)
    }
    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.inner.query(query, rng)
    }
    fn supports(&self, query: &Query) -> bool {
        self.inner.supports(query)
    }
    fn table_stats(&self, table: &str) -> TableStats {
        self.inner.table_stats(table)
    }
    fn adversary_view(&self) -> AdversaryView {
        self.inner.adversary_view()
    }
    fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        self.inner.register_view(def)
    }
    fn query_view(&self, name: &str, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.inner.query_view(name, rng)
    }
    fn register_index(&self, def: &IndexDef) -> Result<(), EdbError> {
        self.inner.register_index(def)
    }
    fn query_indexed(
        &self,
        name: &str,
        query: &Query,
        rng: &mut dyn RngCore,
    ) -> Result<QueryOutcome, EdbError> {
        self.inner.query_indexed(name, query, rng)
    }
}

#[test]
fn a_dropped_update_fails_verification() {
    for workload in Workload::ALL {
        let inputs = Inputs::generate(workload, Scale::tiny(workload), 5);
        let lossy = DropOneUpdate {
            inner: workload.engine_kind().build(&master_key()),
            dropped: AtomicBool::new(false),
        };
        let observed = verify::replay(&inputs, &lossy);
        assert!(
            lossy.dropped.load(Ordering::SeqCst),
            "an update was dropped"
        );
        assert_eq!(
            verdict(&observed, &inputs),
            1,
            "{}: a lost update must fail verification",
            workload.name()
        );
    }
}
