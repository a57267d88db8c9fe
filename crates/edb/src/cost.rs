//! An explicit query/update cost model.
//!
//! The paper reports wall-clock query execution times (QET) measured on an
//! SGX testbed (ObliDB) and a crypto-assisted DP engine (Crypt-ε).  Absolute
//! seconds cannot be reproduced without that hardware, but the *shape* of
//! every QET figure is determined by how many ciphertexts each strategy
//! leaves on the server — QET is "essentially a linear combination of the
//! amount of outsourced data" (§4.5.1).  The cost model makes that linear
//! relationship explicit and is calibrated so that the default workload sizes
//! land in the same ballpark as the paper's Table 5, which keeps the
//! regenerated tables readable side-by-side with the original.
//!
//! Engines also report real wall-clock time for their (plaintext-simulated)
//! execution; both numbers appear in experiment outputs.

/// Per-operation cost coefficients, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-query overhead (protocol setup, enclave entry, ...).
    pub query_overhead: f64,
    /// Cost per record scanned by a filtered count (Q1-style).
    pub count_per_record: f64,
    /// Cost per record scanned by a group-by aggregation (Q2-style).
    pub group_by_per_record: f64,
    /// Cost per *pair of records* considered by a join (Q3-style, O(N·M)).
    pub join_per_pair: f64,
    /// Cost per record processed by the update protocol.
    pub update_per_record: f64,
    /// Cost per record processed by the setup protocol.
    pub setup_per_record: f64,
}

impl CostModel {
    /// Cost model calibrated to the ObliDB-like engine (oblivious scans in an
    /// enclave; joins are nested-loop oblivious and therefore quadratic).
    pub fn oblidb() -> Self {
        Self {
            query_overhead: 0.02,
            count_per_record: 2.9e-4,
            group_by_per_record: 1.25e-4,
            join_per_pair: 7.0e-9,
            update_per_record: 9.0e-5,
            setup_per_record: 9.0e-5,
        }
    }

    /// Cost model calibrated to the Crypt-ε-like engine (crypto-assisted
    /// aggregation; every released group requires heavier cryptographic
    /// machinery, joins are unsupported).
    pub fn crypt_epsilon() -> Self {
        Self {
            query_overhead: 0.3,
            count_per_record: 1.12e-3,
            group_by_per_record: 4.1e-3,
            join_per_pair: f64::INFINITY,
            update_per_record: 4.0e-4,
            setup_per_record: 4.0e-4,
        }
    }

    /// Estimated QET for a filtered count over `records` ciphertexts.
    pub fn count_cost(&self, records: u64) -> f64 {
        self.query_overhead + self.count_per_record * records as f64
    }

    /// Estimated QET for a group-by count over `records` ciphertexts.
    pub fn group_by_cost(&self, records: u64) -> f64 {
        self.query_overhead + self.group_by_per_record * records as f64
    }

    /// Estimated QET for a join over `left × right` ciphertext pairs.
    pub fn join_cost(&self, left: u64, right: u64) -> f64 {
        self.query_overhead + self.join_per_pair * (left as f64) * (right as f64)
    }

    /// Estimated cost of updating `records` ciphertexts.
    pub fn update_cost(&self, records: u64) -> f64 {
        self.update_per_record * records as f64
    }

    /// Estimated cost of the setup protocol over `records` ciphertexts.
    pub fn setup_cost(&self, records: u64) -> f64 {
        self.setup_per_record * records as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_linearly_with_record_count() {
        let m = CostModel::oblidb();
        let one = m.count_cost(10_000) - m.query_overhead;
        let two = m.count_cost(20_000) - m.query_overhead;
        assert!((two / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn join_cost_is_quadratic() {
        let m = CostModel::oblidb();
        let base = m.join_cost(10_000, 10_000) - m.query_overhead;
        let double_both = m.join_cost(20_000, 20_000) - m.query_overhead;
        assert!((double_both / base - 4.0).abs() < 1e-9);
    }

    #[test]
    fn oblidb_defaults_land_near_table5_scale() {
        // Table 5 (ObliDB / SUR): Q1 ≈ 5.4 s, Q2 ≈ 2.3 s, Q3 ≈ 2.8 s over
        // ≈18.4k (yellow) and ≈21.3k (green) records.
        let m = CostModel::oblidb();
        let q1 = m.count_cost(18_429);
        let q2 = m.group_by_cost(18_429);
        let q3 = m.join_cost(18_429, 21_300);
        assert!((3.0..8.0).contains(&q1), "q1={q1}");
        assert!((1.5..4.0).contains(&q2), "q2={q2}");
        assert!((1.5..5.0).contains(&q3), "q3={q3}");
    }

    #[test]
    fn crypt_epsilon_defaults_land_near_table5_scale() {
        // Table 5 (Crypt-ε / SUR): Q1 ≈ 21 s, Q2 ≈ 76 s.
        let m = CostModel::crypt_epsilon();
        let q1 = m.count_cost(18_429);
        let q2 = m.group_by_cost(18_429);
        assert!((15.0..30.0).contains(&q1), "q1={q1}");
        assert!((50.0..110.0).contains(&q2), "q2={q2}");
        assert!(m.join_cost(10, 10).is_infinite());
    }

    #[test]
    fn update_and_setup_costs_are_proportional() {
        let m = CostModel::oblidb();
        assert_eq!(m.update_cost(0), 0.0);
        assert!(m.update_cost(100) > 0.0);
        assert_eq!(m.setup_cost(1_000), m.setup_per_record * 1_000.0);
    }

    #[test]
    fn crypt_epsilon_is_slower_per_record_than_oblidb() {
        let c = CostModel::crypt_epsilon();
        let o = CostModel::oblidb();
        assert!(c.count_per_record > o.count_per_record);
        assert!(c.group_by_per_record > o.group_by_per_record);
    }
}
