//! Property-based integration tests (proptest) over the public API: cache
//! invariants, strategy invariants, crypto round-trips and the theoretical
//! bounds of Table 2 checked against simulated runs.

use dp_sync::core::cache::LocalCache;
use dp_sync::core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, SyncStrategy, SynchronizeEveryTime,
    SynchronizeUponReceipt, TickContext,
};
use dp_sync::core::Timestamp;
use dp_sync::crypto::{MasterKey, RecordCryptor, RecordPlaintext};
use dp_sync::dp::{laplace_sum_tail_alpha, DpRng, Epsilon, Laplace};
use dp_sync::edb::{Row, Value};
use proptest::prelude::*;

fn arbitrary_row() -> impl Strategy<Value = Row> {
    (0u64..50_000, 1i64..=265, 1i64..=265, 0.0f64..30.0).prop_map(|(t, p, d, dist)| {
        Row::new(vec![
            Value::Timestamp(t),
            Value::Int(p),
            Value::Int(d),
            Value::Float(dist),
        ])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache invariant: a FIFO read returns records in exactly the order they
    /// were written and reports a dummy deficit that tops the read up to `n`.
    #[test]
    fn cache_read_conserves_records(rows in prop::collection::vec(arbitrary_row(), 0..60), read_size in 0u64..100) {
        let mut cache = LocalCache::new();
        cache.write_all(rows.clone());
        let before = cache.len();
        let read = cache.read(read_size);
        prop_assert_eq!(read.records.len() as u64 + cache.len(), before);
        prop_assert_eq!(read.records.len() as u64 + read.dummies_needed, read_size.max(read.records.len() as u64));
        prop_assert_eq!(read.total(), read_size.max(read.records.len() as u64));
        // Order preservation.
        for (i, record) in read.records.iter().enumerate() {
            prop_assert_eq!(record, &rows[i]);
        }
    }

    /// Record encryption round-trips for every payload that fits, and the
    /// ciphertext length never depends on the payload.
    #[test]
    fn record_encryption_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..=64), seed in any::<[u8; 32]>()) {
        let master = MasterKey::from_bytes(seed);
        let mut cryptor = RecordCryptor::new(&master);
        let plaintext = RecordPlaintext::real(payload);
        let ciphertext = cryptor.encrypt(&plaintext).unwrap();
        prop_assert_eq!(ciphertext.to_bytes().len(), dp_sync::crypto::EncryptedRecord::TOTAL_LEN);
        prop_assert_eq!(cryptor.decrypt(&ciphertext).unwrap(), plaintext);
    }

    /// SUR uploads exactly what arrives; SET uploads exactly one record per
    /// quiet tick — for any arrival sequence.
    #[test]
    fn naive_strategy_volume_invariants(arrivals in prop::collection::vec(0u64..3, 1..200)) {
        let mut rng = DpRng::seed_from_u64(1);
        let mut sur = SynchronizeUponReceipt::new();
        let mut set = SynchronizeEveryTime::new();
        for (i, &arrived) in arrivals.iter().enumerate() {
            let ctx = TickContext { time: Timestamp(i as u64 + 1), arrived, cache_len: arrived };
            let sur_decision = sur.on_tick(&ctx, &mut rng);
            prop_assert_eq!(sur_decision.fetch(), arrived);
            let set_decision = set.on_tick(&ctx, &mut rng);
            prop_assert_eq!(set_decision.fetch(), arrived.max(1));
        }
    }

    /// DP-Timer never posts a strategy-scheduled synchronization off its grid,
    /// for any period, flush configuration and arrival sequence.
    #[test]
    fn dp_timer_stays_on_its_grid(
        period in 1u64..60,
        flush_interval in 50u64..500,
        arrivals in prop::collection::vec(0u64..2, 1..300),
        seed in any::<u64>(),
    ) {
        let mut strategy = DpTimerStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            period,
            Some(CacheFlush::new(flush_interval, 5)),
        );
        let mut rng = DpRng::seed_from_u64(seed);
        for (i, &arrived) in arrivals.iter().enumerate() {
            let t = i as u64 + 1;
            let ctx = TickContext { time: Timestamp(t), arrived, cache_len: 0 };
            let decision = strategy.on_tick(&ctx, &mut rng);
            if decision.is_sync() {
                prop_assert!(t.is_multiple_of(period) || t.is_multiple_of(flush_interval),
                    "sync at t={} with period={} flush={}", t, period, flush_interval);
            }
        }
    }

    /// The DP-ANT accountant never exceeds its configured budget under
    /// parallel composition across rounds.
    #[test]
    fn dp_ant_budget_is_respected(theta in 1u64..50, arrivals in prop::collection::vec(0u64..2, 1..300), seed in any::<u64>()) {
        let eps = Epsilon::new_unchecked(0.5);
        let mut strategy = AboveNoisyThresholdStrategy::with_flush(eps, theta, None);
        let mut rng = DpRng::seed_from_u64(seed);
        for (i, &arrived) in arrivals.iter().enumerate() {
            let ctx = TickContext { time: Timestamp(i as u64 + 1), arrived, cache_len: 0 };
            let _ = strategy.on_tick(&ctx, &mut rng);
        }
        // Each round spends epsilon/2 (SVT) + epsilon/2 (Perturb); across
        // disjoint rounds the ledger's per-entry budgets never exceed eps/2.
        if let Some(accountant) = strategy.accountant() {
            for entry in accountant.ledger() {
                prop_assert!(entry.epsilon.value() <= eps.value() / 2.0 + 1e-12);
            }
        }
    }

    /// Lemma 19 / Corollary 20 empirically: sums of k Laplace draws exceed the
    /// closed-form alpha with probability at most beta (with sampling slack).
    #[test]
    fn laplace_sum_tail_bound_holds(k in 5u64..40, epsilon in 0.2f64..2.0, seed in any::<u64>()) {
        let b = 1.0 / epsilon;
        let beta = 0.1;
        let alpha = laplace_sum_tail_alpha(k, b, beta);
        let dist = Laplace::new(0.0, b).unwrap();
        let mut rng = DpRng::seed_from_u64(seed);
        let trials = 400;
        let mut exceed = 0u32;
        for _ in 0..trials {
            let sum: f64 = (0..k).map(|_| dist.sample(&mut rng)).sum();
            if sum >= alpha { exceed += 1; }
        }
        // beta = 0.1 => expected exceedances ~40; allow generous slack for 400 trials.
        prop_assert!(exceed <= 80, "exceeded {} times out of {}", exceed, trials);
    }
}
