//! Synthetic NYC-taxi-like growing-database workloads.
//!
//! The generator reproduces the statistical shape of the paper's cleaned
//! June-2020 TLC traces that the evaluation actually depends on:
//!
//! * a fixed number of records (18 429 for Yellow Cab, 21 300 for Green Boro
//!   after the paper's cleaning steps),
//! * replayed over 43 200 one-minute time units (30 days),
//! * at most one record per minute (the paper's dedup rule),
//! * a diurnal arrival profile (trips cluster in daytime hours),
//! * pickup/dropoff zone identifiers in 1..=265 (the TLC zone domain) with a
//!   skewed zone popularity, plus trip distance and fare measures.
//!
//! Every quantity measured by the evaluation — logical gaps, counting-query
//! errors, storage sizes, query execution times — depends only on this shape,
//! not on the actual taxi values, so the synthetic trace preserves the
//! figures' behaviour.  The real CSVs can be substituted through
//! [`crate::csv`].

use crate::arrival::ArrivalProcess;
use dpsync_core::sparse::OwnerWorkload;
use dpsync_dp::DpRng;
use dpsync_edb::{DataType, Row, Schema, Value};
use rand::Rng;

/// Number of TLC taxi zones.
pub const TLC_ZONE_COUNT: i64 = 265;
/// One-minute time units in June 2020 (30 days).
pub const JUNE_2020_MINUTES: u64 = 43_200;
/// Cleaned Yellow Cab record count reported in the paper.
pub const YELLOW_CAB_RECORDS: u64 = 18_429;
/// Cleaned Green Boro record count reported in the paper.
pub const GREEN_TAXI_RECORDS: u64 = 21_300;

/// One taxi trip record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaxiRecord {
    /// Pickup time as a minute offset into the observation window; doubles
    /// as the arrival time of the record at the owner (the paper multiplexes
    /// pickup time as the receive time).
    pub pick_time: u64,
    /// Pickup zone identifier (1..=265).
    pub pickup_id: i64,
    /// Dropoff zone identifier (1..=265).
    pub dropoff_id: i64,
    /// Trip distance in miles.
    pub distance: f64,
    /// Fare amount in dollars.
    pub fare: f64,
}

impl TaxiRecord {
    /// Converts the record to a relational row matching [`taxi_schema`].
    pub fn to_row(&self) -> Row {
        Row::new(vec![
            Value::Timestamp(self.pick_time),
            Value::Int(self.pickup_id),
            Value::Int(self.dropoff_id),
            Value::Float(self.distance),
            Value::Float(self.fare),
        ])
    }
}

/// The taxi table schema shared by both datasets.
pub fn taxi_schema() -> Schema {
    Schema::from_pairs(&[
        ("pick_time", DataType::Timestamp),
        ("pickup_id", DataType::Int),
        ("dropoff_id", DataType::Int),
        ("distance", DataType::Float),
        ("fare", DataType::Float),
    ])
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaxiConfig {
    /// Exact number of records to generate.
    pub record_count: u64,
    /// Number of one-minute time units to spread them over.
    pub horizon: u64,
    /// Random seed.
    pub seed: u64,
}

impl TaxiConfig {
    /// The paper's Yellow Cab trace shape.
    pub fn paper_yellow(seed: u64) -> Self {
        Self {
            record_count: YELLOW_CAB_RECORDS,
            horizon: JUNE_2020_MINUTES,
            seed,
        }
    }

    /// The paper's Green Boro trace shape.
    pub fn paper_green(seed: u64) -> Self {
        Self {
            record_count: GREEN_TAXI_RECORDS,
            horizon: JUNE_2020_MINUTES,
            seed,
        }
    }

    /// A scaled-down trace with the same density, for fast tests and smoke
    /// experiments: `scale` divides both the horizon and the record count.
    pub fn scaled_yellow(seed: u64, scale: u64) -> Self {
        let scale = scale.max(1);
        Self {
            record_count: YELLOW_CAB_RECORDS / scale,
            horizon: JUNE_2020_MINUTES / scale,
            seed,
        }
    }

    /// A scaled-down Green Boro trace.
    pub fn scaled_green(seed: u64, scale: u64) -> Self {
        let scale = scale.max(1);
        Self {
            record_count: GREEN_TAXI_RECORDS / scale,
            horizon: JUNE_2020_MINUTES / scale,
            seed,
        }
    }
}

/// A generated (or loaded) taxi dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct TaxiDataset {
    records: Vec<TaxiRecord>,
    horizon: u64,
}

impl TaxiDataset {
    /// Generates a synthetic dataset from `config`.
    ///
    /// The generator first draws per-minute arrival indicators from a diurnal
    /// profile calibrated to the target density, then adjusts (adding or
    /// removing arrival minutes uniformly at random) until the record count
    /// is exactly `config.record_count`, and finally samples the zone and
    /// measure attributes per record.
    pub fn generate(config: TaxiConfig) -> Self {
        assert!(
            config.record_count <= config.horizon,
            "at most one record per minute: record_count must not exceed horizon"
        );
        let rng = DpRng::seed_from_u64(config.seed);
        let density = config.record_count as f64 / config.horizon.max(1) as f64;
        let process = ArrivalProcess::Diurnal {
            base: (density * 0.4).min(1.0),
            amplitude: (density * 1.2).min(1.0),
            period: 1_440.min(config.horizon.max(1)),
        };

        let mut arrival_rng = rng.derive("arrivals");
        let mut minutes: Vec<bool> = (1..=config.horizon)
            .map(|t| process.sample(t, &mut arrival_rng) > 0)
            .collect();

        // Adjust to the exact record count.
        let mut adjust_rng = rng.derive("adjust");
        let mut current: u64 = minutes.iter().filter(|&&m| m).count() as u64;
        while current < config.record_count {
            let idx = adjust_rng.gen_range(0..minutes.len());
            if !minutes[idx] {
                minutes[idx] = true;
                current += 1;
            }
        }
        while current > config.record_count {
            let idx = adjust_rng.gen_range(0..minutes.len());
            if minutes[idx] {
                minutes[idx] = false;
                current -= 1;
            }
        }

        // Sample attributes. Zone popularity is skewed: a few hub zones
        // attract a disproportionate share of pickups, which gives the Q2
        // group-by answer the heavy-tailed shape of real TLC data.
        let mut attr_rng = rng.derive("attributes");
        let records = minutes
            .iter()
            .enumerate()
            .filter(|(_, &arrived)| arrived)
            .map(|(i, _)| {
                let pick_time = (i + 1) as u64;
                TaxiRecord {
                    pick_time,
                    pickup_id: skewed_zone(&mut attr_rng),
                    dropoff_id: skewed_zone(&mut attr_rng),
                    distance: (attr_rng.gen::<f64>() * 12.0 + 0.3) * 1.0,
                    fare: attr_rng.gen::<f64>() * 55.0 + 3.0,
                }
            })
            .collect();
        Self {
            records,
            horizon: config.horizon,
        }
    }

    /// Wraps externally loaded records (e.g. from the real TLC CSV).
    pub fn from_records(mut records: Vec<TaxiRecord>, horizon: u64) -> Self {
        records.sort_by_key(|r| r.pick_time);
        records.dedup_by_key(|r| r.pick_time);
        records.retain(|r| r.pick_time <= horizon);
        Self { records, horizon }
    }

    /// The records, ordered by pickup time.
    pub fn records(&self) -> &[TaxiRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The number of time units the dataset spans.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Converts the dataset to the simulation's [`OwnerWorkload`] for
    /// `table`; run it over [`TaxiDataset::horizon`] ticks.
    ///
    /// Records with `pick_time == 0` form the initial database `D₀`; records
    /// at minute `t ≥ 1` arrive at tick `t`, one event per arrival minute
    /// (the dataset holds at most one record per minute, in time order).
    pub fn to_workload(&self, table: &str) -> OwnerWorkload {
        let mut initial_rows = Vec::new();
        let mut arrivals = Vec::new();
        for record in &self.records {
            if record.pick_time == 0 {
                initial_rows.push(record.to_row());
            } else if record.pick_time <= self.horizon {
                arrivals.push((record.pick_time, vec![record.to_row()]));
            }
        }
        OwnerWorkload {
            table: table.to_string(),
            schema: taxi_schema(),
            initial_rows,
            join_time: 0,
            leave_time: None,
            arrivals,
        }
    }
}

/// Samples a zone identifier with a hub-skewed popularity distribution.
fn skewed_zone<R: Rng + ?Sized>(rng: &mut R) -> i64 {
    // 30% of pickups come from 15 "hub" zones, the rest are uniform.
    if rng.gen::<f64>() < 0.30 {
        rng.gen_range(120..135)
    } else {
        rng.gen_range(1..=TLC_ZONE_COUNT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_hits_exact_record_count() {
        let cfg = TaxiConfig {
            record_count: 1_843,
            horizon: 4_320,
            seed: 1,
        };
        let ds = TaxiDataset::generate(cfg);
        assert_eq!(ds.len(), 1_843);
        assert_eq!(ds.horizon(), 4_320);
        assert!(!ds.is_empty());
    }

    #[test]
    fn paper_configs_match_reported_counts() {
        assert_eq!(TaxiConfig::paper_yellow(0).record_count, 18_429);
        assert_eq!(TaxiConfig::paper_green(0).record_count, 21_300);
        assert_eq!(TaxiConfig::paper_yellow(0).horizon, 43_200);
        let scaled = TaxiConfig::scaled_yellow(0, 10);
        assert_eq!(scaled.record_count, 1_842);
        assert_eq!(scaled.horizon, 4_320);
    }

    #[test]
    fn at_most_one_record_per_minute() {
        let ds = TaxiDataset::generate(TaxiConfig::scaled_yellow(7, 20));
        let mut seen = std::collections::HashSet::new();
        for r in ds.records() {
            assert!(seen.insert(r.pick_time), "duplicate minute {}", r.pick_time);
            assert!(r.pick_time >= 1 && r.pick_time <= ds.horizon());
        }
    }

    #[test]
    fn attributes_are_in_domain() {
        let ds = TaxiDataset::generate(TaxiConfig::scaled_green(3, 20));
        for r in ds.records() {
            assert!((1..=TLC_ZONE_COUNT).contains(&r.pickup_id));
            assert!((1..=TLC_ZONE_COUNT).contains(&r.dropoff_id));
            assert!(r.distance > 0.0 && r.distance < 20.0);
            assert!(r.fare > 0.0 && r.fare < 100.0);
        }
    }

    #[test]
    fn zone_distribution_is_skewed_towards_hubs() {
        let ds = TaxiDataset::generate(TaxiConfig {
            record_count: 5_000,
            horizon: 20_000,
            seed: 5,
        });
        let hub_share = ds
            .records()
            .iter()
            .filter(|r| (120..135).contains(&r.pickup_id))
            .count() as f64
            / ds.len() as f64;
        // ~30% targeted + ~5% uniform mass falling in the hub range.
        assert!(
            hub_share > 0.25 && hub_share < 0.45,
            "hub share {hub_share}"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = TaxiDataset::generate(TaxiConfig::scaled_yellow(11, 30));
        let b = TaxiDataset::generate(TaxiConfig::scaled_yellow(11, 30));
        let c = TaxiDataset::generate(TaxiConfig::scaled_yellow(12, 30));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn diurnal_shape_is_visible_in_the_trace() {
        let ds = TaxiDataset::generate(TaxiConfig {
            record_count: 8_000,
            horizon: 43_200,
            seed: 9,
        });
        // Count arrivals in the first quarter vs the middle of each day.
        let mut night = 0u64;
        let mut day = 0u64;
        for r in ds.records() {
            let minute_of_day = r.pick_time % 1_440;
            if minute_of_day < 200 {
                night += 1;
            } else if (620..820).contains(&minute_of_day) {
                day += 1;
            }
        }
        assert!(day > night, "day {day} vs night {night}");
    }

    #[test]
    fn workload_conversion_preserves_counts_and_order() {
        let ds = TaxiDataset::generate(TaxiConfig::scaled_yellow(2, 40));
        let workload = ds.to_workload("yellow");
        assert_eq!(workload.table, "yellow");
        assert_eq!(workload.total_rows(), ds.len());
        // One event per arrival minute, in order, inside the horizon, and the
        // workload schema matches the rows produced.
        assert_eq!(workload.arrivals.len() as u64, ds.len());
        let mut previous = 0;
        for (t, rows) in &workload.arrivals {
            assert!(*t > previous && *t <= ds.horizon());
            assert!(workload.schema.validates(rows[0].values()));
            previous = *t;
        }
    }

    #[test]
    fn from_records_dedups_and_sorts() {
        let records = vec![
            TaxiRecord {
                pick_time: 5,
                pickup_id: 1,
                dropoff_id: 2,
                distance: 1.0,
                fare: 5.0,
            },
            TaxiRecord {
                pick_time: 2,
                pickup_id: 3,
                dropoff_id: 4,
                distance: 1.0,
                fare: 5.0,
            },
            TaxiRecord {
                pick_time: 5,
                pickup_id: 9,
                dropoff_id: 9,
                distance: 1.0,
                fare: 5.0,
            },
            TaxiRecord {
                pick_time: 999,
                pickup_id: 9,
                dropoff_id: 9,
                distance: 1.0,
                fare: 5.0,
            },
        ];
        let ds = TaxiDataset::from_records(records, 100);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.records()[0].pick_time, 2);
        assert_eq!(ds.records()[1].pick_time, 5);
        assert_eq!(
            ds.records()[1].pickup_id,
            1,
            "first record at a minute wins"
        );
    }

    #[test]
    #[should_panic(expected = "at most one record per minute")]
    fn impossible_density_is_rejected() {
        let _ = TaxiDataset::generate(TaxiConfig {
            record_count: 100,
            horizon: 50,
            seed: 1,
        });
    }

    #[test]
    fn row_conversion_matches_schema() {
        let r = TaxiRecord {
            pick_time: 77,
            pickup_id: 42,
            dropoff_id: 17,
            distance: 3.2,
            fare: 14.5,
        };
        let row = r.to_row();
        assert!(taxi_schema().validates(row.values()));
        assert_eq!(row.value(1), Some(&Value::Int(42)));
    }
}
