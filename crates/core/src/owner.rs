//! The data owner's runtime.
//!
//! The owner is the party that receives records over time, stages them in the
//! local cache, and — exactly when the configured strategy says so — encrypts
//! a batch (padding with dummy records as instructed) and runs the
//! `Π_Setup` / `Π_Update` protocols against the outsourced database.
//!
//! The owner is deliberately engine-agnostic: protocol calls go through
//! `&mut dyn SecureOutsourcedDatabase`, so the same owner code drives the
//! ObliDB-like and Crypt-ε-like engines (and any future engine satisfying the
//! P4 constraints).

use crate::cache::LocalCache;
use crate::strategy::{SyncDecision, SyncStrategy, TickContext};
use crate::timeline::Timestamp;
use dpsync_crypto::{MasterKey, RecordCryptor};
use dpsync_edb::sogdb::{EdbError, SecureOutsourcedDatabase};
use dpsync_edb::{Row, Schema};
use rand::RngCore;

/// What happened at one time unit from the owner's perspective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// The time unit this report covers.
    pub time: Timestamp,
    /// Whether an update was posted.
    pub synced: bool,
    /// Real records uploaded at this tick.
    pub synced_real: u64,
    /// Dummy records uploaded at this tick.
    pub synced_dummy: u64,
}

impl TickReport {
    fn idle(time: Timestamp) -> Self {
        Self {
            time,
            synced: false,
            synced_real: 0,
            synced_dummy: 0,
        }
    }

    /// Total records uploaded at this tick.
    pub fn synced_total(&self) -> u64 {
        self.synced_real + self.synced_dummy
    }
}

/// The data owner for one outsourced table.
pub struct Owner {
    table: String,
    schema: Schema,
    strategy: Box<dyn SyncStrategy>,
    cache: LocalCache,
    cryptor: RecordCryptor,
    received_total: u64,
    outsourced_real: u64,
    outsourced_dummy: u64,
    set_up: bool,
}

impl std::fmt::Debug for Owner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Owner")
            .field("table", &self.table)
            .field("strategy", &self.strategy.kind())
            .field("received_total", &self.received_total)
            .field("outsourced_real", &self.outsourced_real)
            .field("outsourced_dummy", &self.outsourced_dummy)
            .finish()
    }
}

impl Owner {
    /// Creates an owner for `table` with an empty cache.
    pub fn new(
        table: impl Into<String>,
        schema: Schema,
        master: &MasterKey,
        strategy: Box<dyn SyncStrategy>,
    ) -> Self {
        let table = table.into();
        // Several owners may share one engine (and therefore one master key),
        // e.g. the Yellow Cab and Green Boro tables in the join experiment.
        // Partition the nonce sequence space by table name so independent
        // owners never reuse a (key, nonce) pair.
        let sequence_base = {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in table.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            (h & 0xffff_ffff) << 32
        };
        Self {
            table,
            schema,
            strategy,
            cache: LocalCache::new(),
            cryptor: RecordCryptor::with_sequence(master, sequence_base),
            received_total: 0,
            outsourced_real: 0,
            outsourced_dummy: 0,
            set_up: false,
        }
    }

    /// The table this owner maintains.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The strategy driving this owner.
    pub fn strategy(&self) -> &dyn SyncStrategy {
        self.strategy.as_ref()
    }

    /// The local cache (read access, for metrics and tests).
    pub fn cache(&self) -> &LocalCache {
        &self.cache
    }

    /// Total records logically received so far (`|D_t|`).
    pub fn received_total(&self) -> u64 {
        self.received_total
    }

    /// Real records uploaded so far.
    pub fn outsourced_real(&self) -> u64 {
        self.outsourced_real
    }

    /// Dummy records uploaded so far.
    pub fn outsourced_dummy(&self) -> u64 {
        self.outsourced_dummy
    }

    /// The logical gap `LG(t)`: records received but not yet outsourced.
    ///
    /// Because the cache is drained strictly in arrival order (FIFO), the
    /// cache length *is* the logical gap.
    pub fn logical_gap(&self) -> u64 {
        self.cache.len()
    }

    /// Runs `Π_Setup`: caches the initial database, asks the strategy how
    /// many records the initial outsourcing carries, and posts it at t = 0.
    pub fn setup(
        &mut self,
        initial_rows: Vec<Row>,
        edb: &dyn SecureOutsourcedDatabase,
        rng: &mut dyn RngCore,
    ) -> Result<TickReport, EdbError> {
        assert!(
            !self.set_up,
            "Owner::setup called twice for table {}",
            self.table
        );
        self.received_total += initial_rows.len() as u64;
        self.cache.write_all(initial_rows);
        let fetch = self.strategy.initial_fetch(self.cache.len(), rng);
        let (records, real, dummy) = self.encrypt_fetch(fetch)?;
        edb.setup(&self.table, self.schema.clone(), records)?;
        self.set_up = true;
        self.outsourced_real += real;
        self.outsourced_dummy += dummy;
        Ok(TickReport {
            time: Timestamp::ZERO,
            synced: true,
            synced_real: real,
            synced_dummy: dummy,
        })
    }

    /// Advances one time unit: caches `arrivals`, consults the strategy, and
    /// runs `Π_Update` when instructed.
    pub fn tick(
        &mut self,
        time: Timestamp,
        arrivals: &[Row],
        edb: &dyn SecureOutsourcedDatabase,
        rng: &mut dyn RngCore,
    ) -> Result<TickReport, EdbError> {
        assert!(
            self.set_up,
            "Owner::tick called before setup for table {}",
            self.table
        );
        self.received_total += arrivals.len() as u64;
        self.cache.write_all(arrivals.iter().cloned());

        let ctx = TickContext {
            time,
            arrived: arrivals.len() as u64,
            cache_len: self.cache.len(),
        };
        match self.strategy.on_tick(&ctx, rng) {
            SyncDecision::None => Ok(TickReport::idle(time)),
            SyncDecision::Sync { fetch, .. } => {
                let (records, real, dummy) = self.encrypt_fetch(fetch)?;
                if records.is_empty() {
                    return Ok(TickReport::idle(time));
                }
                edb.update(&self.table, time.value(), records)?;
                self.outsourced_real += real;
                self.outsourced_dummy += dummy;
                Ok(TickReport {
                    time,
                    synced: true,
                    synced_real: real,
                    synced_dummy: dummy,
                })
            }
        }
    }

    fn encrypt_fetch(
        &mut self,
        fetch: u64,
    ) -> Result<(Vec<dpsync_crypto::EncryptedRecord>, u64, u64), EdbError> {
        let read = self.cache.read(fetch);
        let real = read.records.len() as u64;
        let dummy = read.dummies_needed;
        let mut out = Vec::with_capacity((real + dummy) as usize);
        // One payload buffer for the whole batch; dummies reuse the prepared
        // padded plaintext but are each a fresh encryption.
        self.cryptor.encrypt_batch_into(
            &read.records,
            |row, buf| row.encode_into(buf),
            dummy as usize,
            &mut out,
        )?;
        Ok((out, real, dummy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{
        AboveNoisyThresholdStrategy, DpTimerStrategy, SynchronizeEveryTime, SynchronizeUponReceipt,
    };
    use dpsync_dp::{DpRng, Epsilon};
    use dpsync_edb::engines::ObliDbEngine;
    use dpsync_edb::query::paper_queries;
    use dpsync_edb::{DataType, Value};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ])
    }

    fn row(t: u64, p: i64) -> Row {
        Row::new(vec![Value::Timestamp(t), Value::Int(p)])
    }

    fn master() -> MasterKey {
        MasterKey::from_bytes([7u8; 32])
    }

    #[test]
    fn sur_owner_keeps_zero_logical_gap() {
        let master = master();
        let engine = ObliDbEngine::new(&master);
        let mut owner = Owner::new(
            "yellow",
            schema(),
            &master,
            Box::new(SynchronizeUponReceipt::new()),
        );
        let mut rng = DpRng::seed_from_u64(1);
        owner
            .setup(vec![row(0, 1), row(0, 2)], &engine, &mut rng)
            .unwrap();
        for t in 1..=50u64 {
            let arrivals = if t % 3 == 0 { vec![row(t, 60)] } else { vec![] };
            owner
                .tick(Timestamp(t), &arrivals, &engine, &mut rng)
                .unwrap();
            assert_eq!(owner.logical_gap(), 0, "SUR must never lag");
        }
        assert_eq!(owner.outsourced_dummy(), 0);
        assert_eq!(owner.outsourced_real(), owner.received_total());
        let stats = engine.table_stats("yellow");
        assert_eq!(stats.real_records, owner.received_total());
        assert_eq!(stats.dummy_records, 0);
    }

    #[test]
    fn set_owner_uploads_every_tick_with_dummies() {
        let master = master();
        let engine = ObliDbEngine::new(&master);
        let mut owner = Owner::new(
            "yellow",
            schema(),
            &master,
            Box::new(SynchronizeEveryTime::new()),
        );
        let mut rng = DpRng::seed_from_u64(2);
        owner.setup(vec![row(0, 1)], &engine, &mut rng).unwrap();
        let mut total_uploaded = 1u64;
        for t in 1..=40u64 {
            let arrivals = if t % 4 == 0 { vec![row(t, 70)] } else { vec![] };
            let report = owner
                .tick(Timestamp(t), &arrivals, &engine, &mut rng)
                .unwrap();
            assert!(report.synced);
            assert_eq!(report.synced_total(), 1);
            total_uploaded += 1;
        }
        assert_eq!(
            engine.table_stats("yellow").ciphertext_count,
            total_uploaded
        );
        // 10 arrivals out of 40 ticks -> 30 dummies.
        assert_eq!(owner.outsourced_dummy(), 30);
        assert_eq!(owner.logical_gap(), 0);
    }

    #[test]
    fn dp_timer_owner_defers_and_catches_up() {
        let master = master();
        let engine = ObliDbEngine::new(&master);
        let strategy = DpTimerStrategy::with_flush(Epsilon::new_unchecked(1.0), 30, None);
        let mut owner = Owner::new("yellow", schema(), &master, Box::new(strategy));
        let mut rng = DpRng::seed_from_u64(3);
        owner.setup(vec![], &engine, &mut rng).unwrap();
        for t in 1..=3_000u64 {
            let arrivals = if t % 2 == 0 { vec![row(t, 55)] } else { vec![] };
            owner
                .tick(Timestamp(t), &arrivals, &engine, &mut rng)
                .unwrap();
        }
        // The logical gap stays bounded (Theorem 6): with eps=1 and k=100 the
        // 95% bound is c + 2*sqrt(k*ln 20) ≈ 30 + 35; give generous slack.
        assert!(owner.logical_gap() < 150, "gap {}", owner.logical_gap());
        // Most received records made it to the server.
        assert!(owner.outsourced_real() > owner.received_total() * 8 / 10);
        // Queries over the engine reflect the synced data, never the dummies.
        let outcome = engine
            .query(&paper_queries::q2_group_by_count("yellow"), &mut rng)
            .unwrap();
        assert!((outcome.answer.total() - owner.outsourced_real() as f64).abs() < 1e-9);
    }

    #[test]
    fn dp_ant_owner_respects_eventual_consistency_via_flush() {
        let master = master();
        let engine = ObliDbEngine::new(&master);
        let strategy = AboveNoisyThresholdStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            15,
            Some(crate::strategy::CacheFlush::new(200, 10)),
        );
        let mut owner = Owner::new("yellow", schema(), &master, Box::new(strategy));
        let mut rng = DpRng::seed_from_u64(4);
        owner.setup(vec![row(0, 1); 5], &engine, &mut rng).unwrap();
        // A short burst of arrivals followed by a long quiet period: the
        // flush must eventually push everything to the server.
        for t in 1..=2_000u64 {
            let arrivals = if t <= 30 { vec![row(t, 60)] } else { vec![] };
            owner
                .tick(Timestamp(t), &arrivals, &engine, &mut rng)
                .unwrap();
        }
        assert_eq!(
            owner.logical_gap(),
            0,
            "flush should have drained the cache"
        );
        assert_eq!(owner.outsourced_real(), 35);
    }

    #[test]
    fn fifo_preserves_arrival_order_on_server() {
        let master = master();
        let engine = ObliDbEngine::new(&master);
        let mut owner = Owner::new(
            "yellow",
            schema(),
            &master,
            Box::new(SynchronizeUponReceipt::new()),
        );
        let mut rng = DpRng::seed_from_u64(5);
        owner.setup(vec![], &engine, &mut rng).unwrap();
        for t in 1..=20u64 {
            owner
                .tick(Timestamp(t), &[row(t, t as i64)], &engine, &mut rng)
                .unwrap();
        }
        // P3 (consistent eventually, strong form): reading the synced rows in
        // storage order recovers the arrival order.
        let outcome = engine
            .query(
                &dpsync_edb::Query::Select {
                    table: "yellow".into(),
                    columns: vec!["pickup_id".into()],
                    predicate: None,
                },
                &mut rng,
            )
            .unwrap();
        let ids: Vec<i64> = outcome
            .answer
            .as_rows()
            .unwrap()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(ids, (1..=20).collect::<Vec<i64>>());
    }

    #[test]
    #[should_panic(expected = "setup")]
    fn tick_before_setup_panics() {
        let master = master();
        let engine = ObliDbEngine::new(&master);
        let mut owner = Owner::new(
            "yellow",
            schema(),
            &master,
            Box::new(SynchronizeUponReceipt::new()),
        );
        let mut rng = DpRng::seed_from_u64(6);
        let _ = owner.tick(Timestamp(1), &[], &engine, &mut rng);
    }

    #[test]
    fn two_owners_share_one_engine_without_nonce_reuse() {
        let master = master();
        let engine = ObliDbEngine::new(&master);
        let mut yellow = Owner::new(
            "yellow",
            schema(),
            &master,
            Box::new(SynchronizeUponReceipt::new()),
        );
        let mut green = Owner::new(
            "green",
            schema(),
            &master,
            Box::new(SynchronizeUponReceipt::new()),
        );
        let mut rng = DpRng::seed_from_u64(7);
        yellow.setup(vec![row(1, 1)], &engine, &mut rng).unwrap();
        green.setup(vec![row(1, 2)], &engine, &mut rng).unwrap();
        for t in 1..=10u64 {
            yellow
                .tick(Timestamp(t), &[row(t, 10)], &engine, &mut rng)
                .unwrap();
            green
                .tick(Timestamp(t), &[row(t, 20)], &engine, &mut rng)
                .unwrap();
        }
        let join = engine
            .query(&paper_queries::q3_join_count("yellow", "green"), &mut rng)
            .unwrap();
        // Every timestamp 1..=10 appears once in each table, plus the setup
        // rows both at t=1 -> 10 + 1 (setup-setup) + 1 (setup-tick) + 1 = 14?
        // Compute explicitly: yellow times {1, 1..10}, green times {1, 1..10}:
        // t=1 appears twice in each (2*2=4 pairs), t=2..10 once each (9 pairs).
        assert_eq!(join.answer.as_scalar().unwrap(), 13.0);
        assert!(format!("{yellow:?}").contains("yellow"));
    }
}
