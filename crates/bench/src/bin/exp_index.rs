//! `exp_index` — the encrypted-multimap selection-index sweep.
//!
//! Loads the paper's Q1 (range count) shape plus a selective point lookup
//! against tables of increasing size, each with a 25% dummy-padding steady
//! state and an EMM registered on the predicate column, and measures per
//! size:
//!
//! * **full-scan latency** — `Π_Query` answered by scanning the encrypted
//!   mirror (the planner's
//!   [`LeakagePolicy::TranscriptOnly`](dpsync_edb::planner::LeakagePolicy::TranscriptOnly)
//!   plan, O(N));
//! * **indexed latency** — the same query served through
//!   [`query_indexed`](dpsync_edb::sogdb::SecureOutsourcedDatabase::query_indexed):
//!   only the PRF-labelled candidate locators for the condition's value
//!   buckets are fetched (O(result), plus the declared indexed-volume
//!   leakage);
//! * **maintenance overhead** — the extra `Π_Update` ingest cost per record
//!   with two indexes registered (dummies included — every padded record
//!   inserts exactly one entry, so the overhead is a function only of the
//!   already-leaked update volume) versus plain ingest.
//!
//! The two query shapes bracket the planner's decision space: Q1's range
//! covers ~19% of the 265-value pickup domain, so fetching and decrypting
//! every matching locator costs more than the straight mirror scan — while
//! the point lookup touches one value bucket and the EMM wins by an
//! order of magnitude, growing with N.  At the largest swept size the binary
//! asserts the acceptance floor pinned by this PR: the indexed point
//! selection must be **at least 10x** faster than the full scan; it exits
//! nonzero otherwise.
//!
//! Output: an aligned text table plus an optional BENCH-format JSON report
//! (`--out FILE`) with per-size `index_q1_{scan,read}_N<rows>` and
//! `index_point_{scan,read}_N<rows>` entries, `index_maint_overhead`
//! (ns per maintained record) and `index_speedup` (largest-size Q1 speedup
//! in `throughput_per_sec`).
//!
//! Usage:
//!
//! ```text
//! exp_index [--seed 2021] [--smoke] [--out FILE]
//! ```

use dpsync_bench::cli::{self, unknown, Args, CliError};
use dpsync_bench::perf::{
    format_us, ingest_batches, loaded_engine, median_ns, median_read_ns, record_count,
    register_indexes, time_ingest, BenchReport, BenchResult, MAINTAINED_INDEXES, REPORT_VERSION,
};
use dpsync_bench::report::TextTable;
use dpsync_crypto::MasterKey;
use dpsync_dp::DpRng;
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{Predicate, Query, Value};

struct Config {
    seed: u64,
    smoke: bool,
    out: Option<String>,
}

fn parse(args: &mut Args) -> Result<Config, CliError> {
    let mut config = Config {
        seed: 2021,
        smoke: false,
        out: None,
    };
    while let Some(flag) = args.next_arg()? {
        match flag.as_str() {
            "--seed" => config.seed = args.value(&flag)?,
            "--smoke" => config.smoke = true,
            "--out" => config.out = Some(args.string(&flag)?),
            _ => return Err(unknown(&flag)),
        }
    }
    Ok(config)
}

/// One swept table size: per-query latencies (ns) for scan and indexed reads.
struct SizePoint {
    rows: usize,
    scan_q1_ns: f64,
    read_q1_ns: f64,
    scan_point_ns: f64,
    read_point_ns: f64,
}

const INDEX: &str = "emm_pickup";

fn point_query() -> Query {
    Query::Count {
        table: "index".into(),
        predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(77))),
    }
}

fn sweep_size(rows: usize, samples: usize, reps: usize, seed: u64) -> SizePoint {
    let engine = loaded_engine("index", rows, seed);
    register_indexes(&engine, "index", &[(INDEX, "pickup_id")]);
    let q1 = paper_queries::q1_range_count("index");
    let point = point_query();
    // Answers are pinned equal before any timing: the indexed read must
    // reproduce the scan bit for bit at every swept size.
    for query in [&q1, &point] {
        let mut rng = DpRng::seed_from_u64(seed);
        let scanned = engine.query(query, &mut rng).expect("scan succeeds");
        let mut rng = DpRng::seed_from_u64(seed);
        let indexed = engine
            .query_indexed(INDEX, query, &mut rng)
            .expect("indexed read succeeds");
        assert_eq!(
            scanned.answer, indexed.answer,
            "indexed answer diverged from the scan at N={rows}"
        );
    }
    SizePoint {
        rows,
        scan_q1_ns: median_read_ns(samples, reps, seed, |rng| engine.query(&q1, rng)),
        read_q1_ns: median_read_ns(samples, reps, seed, |rng| {
            engine.query_indexed(INDEX, &q1, rng)
        }),
        scan_point_ns: median_read_ns(samples, reps, seed, |rng| engine.query(&point, rng)),
        read_point_ns: median_read_ns(samples, reps, seed, |rng| {
            engine.query_indexed(INDEX, &point, rng)
        }),
    }
}

/// Per-record ingest cost (ns) with and without two indexes registered,
/// over 96 batches of the suite's `Π_Update` shape: small flushes, 25% dummies.
fn maintenance_overhead(samples: usize, seed: u64) -> (f64, f64) {
    let master = MasterKey::from_bytes([0xB3; 32]);
    let batches = ingest_batches(96, 8, seed, &master);
    let ingest = |with_indexes: bool| {
        median_ns(samples, || {
            time_ingest(&ObliDbEngine::new(&master), "index", &batches, |e| {
                if with_indexes {
                    register_indexes(e, "index", &MAINTAINED_INDEXES);
                }
            })
        }) / record_count(&batches) as f64
    };
    (ingest(false), ingest(true))
}

fn main() {
    let config = cli::parse_env(
        "exp_index",
        "usage: exp_index [--seed S] [--smoke] [--out FILE]",
        parse,
    );
    let (sizes, samples, reps): (&[usize], usize, usize) = if config.smoke {
        (&[1_000, 4_000, 16_000], 5, 8)
    } else {
        (&[5_000, 25_000, 100_000], 9, 16)
    };
    println!(
        "encrypted-multimap selection-index sweep — sizes {sizes:?} (seed {})\n",
        config.seed
    );

    let points: Vec<SizePoint> = sizes
        .iter()
        .map(|&rows| {
            let point = sweep_size(rows, samples, reps, config.seed);
            println!(
                "  N={rows}: Q1 scan {} / index {}, point scan {} / index {}",
                format_us(point.scan_q1_ns),
                format_us(point.read_q1_ns),
                format_us(point.scan_point_ns),
                format_us(point.read_point_ns)
            );
            point
        })
        .collect();
    let (plain_ingest_ns, indexed_ingest_ns) = maintenance_overhead(samples, config.seed);
    let maint_ns = (indexed_ingest_ns - plain_ingest_ns).max(0.0);
    println!(
        "  ingest: {plain_ingest_ns:.0} ns/record plain, {indexed_ingest_ns:.0} ns/record with \
         two indexes ({maint_ns:.0} ns/record maintenance)\n"
    );

    let mut table = TextTable::new([
        "table rows",
        "Q1 scan",
        "Q1 index",
        "Q1 speedup",
        "point scan",
        "point index",
        "point speedup",
    ]);
    for p in &points {
        table.add_row([
            p.rows.to_string(),
            format_us(p.scan_q1_ns),
            format_us(p.read_q1_ns),
            format!("{:.1}x", p.scan_q1_ns / p.read_q1_ns.max(1.0)),
            format_us(p.scan_point_ns),
            format_us(p.read_point_ns),
            format!("{:.1}x", p.scan_point_ns / p.read_point_ns.max(1.0)),
        ]);
    }
    print!("{}", table.render());

    let largest = points.last().expect("sweep is non-empty");
    let speedup = largest.scan_point_ns / largest.read_point_ns.max(1.0);
    println!(
        "\nat N={}: the EMM point selection is {speedup:.0}x faster than the full scan \
         (leakage: declared per-query fetch volume; update pattern unchanged)",
        largest.rows
    );
    if speedup < 10.0 {
        eprintln!(
            "exp_index: FAIL — EMM point-selection speedup {speedup:.1}x at N={} is below the \
             10x acceptance floor",
            largest.rows
        );
        std::process::exit(1);
    }

    if let Some(path) = &config.out {
        let mut results: Vec<BenchResult> = Vec::new();
        for p in &points {
            for (name, ns) in [
                (format!("index_q1_scan_N{}", p.rows), p.scan_q1_ns),
                (format!("index_q1_read_N{}", p.rows), p.read_q1_ns),
                (format!("index_point_scan_N{}", p.rows), p.scan_point_ns),
                (format!("index_point_read_N{}", p.rows), p.read_point_ns),
            ] {
                results.push(BenchResult {
                    name,
                    median_ns_per_op: ns,
                    throughput_per_sec: 1e9 / ns.max(1.0),
                    records_processed: p.rows as u64,
                    samples: samples as u64,
                });
            }
        }
        results.push(BenchResult {
            name: "index_maint_overhead".into(),
            median_ns_per_op: maint_ns,
            throughput_per_sec: if maint_ns > 0.0 { 1e9 / maint_ns } else { 0.0 },
            records_processed: 1,
            samples: samples as u64,
        });
        results.push(BenchResult {
            name: "index_speedup".into(),
            median_ns_per_op: largest.read_point_ns,
            throughput_per_sec: speedup,
            records_processed: largest.rows as u64,
            samples: samples as u64,
        });
        let report = BenchReport {
            version: REPORT_VERSION,
            label: "index".into(),
            seed: config.seed,
            smoke: config.smoke,
            workers: 1,
            results,
        };
        std::fs::write(path, report.to_json()).expect("write BENCH report");
        println!("\nBENCH report written to {path}");
    }
}
