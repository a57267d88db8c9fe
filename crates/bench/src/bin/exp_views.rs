//! `exp_views` — the materialized-view crossover sweep.
//!
//! Loads the paper's Q1 (range count) and Q2 (group-by count) shapes against
//! tables of increasing size, each with a 25% dummy-padding steady state, and
//! measures three things per size:
//!
//! * **full-scan latency** — `Π_Query` answered by scanning the encrypted
//!   mirror (the pre-view baseline, O(N));
//! * **view-read latency** — the same query served from an incrementally
//!   maintained [`MaterializedView`](dpsync_edb::MaterializedView) (O(result));
//! * **maintenance overhead** — the extra `Π_Update` ingest cost per record
//!   (dummies included — every padded record flows through the view delta
//!   path, so the overhead is a function only of the already-leaked update
//!   volume) with both paper views registered, versus plain ingest.
//!
//! From those it reports the **crossover**: a recurring query posed every
//! epoch costs `scan(N)` without a view and `Δ·maint + read` with one, where
//! `Δ` is the number of records ingested between poses (`--delta`, default
//! 128).  The sweep prints the smallest table size at which the view wins and
//! the break-even `Δ*` at the largest size — pose-to-pose ingest volumes
//! below `Δ*` favor the view.
//!
//! Output: an aligned text table plus an optional BENCH-format JSON report
//! (`--out FILE`) with per-size `views_q{1,2}_{scan,read}_N<rows>` entries,
//! `views_maint_overhead` (ns per maintained record in `median_ns_per_op`)
//! and `views_crossover` (crossover table size in `median_ns_per_op`, 0 when
//! the view wins at every swept size; largest-size Q1 speedup in
//! `throughput_per_sec`).
//!
//! Usage:
//!
//! ```text
//! exp_views [--seed 2021] [--delta 128] [--smoke] [--out FILE]
//! ```

use dpsync_bench::perf::{
    median_ns, synthetic_rows, taxi_like_schema, BenchReport, BenchResult, REPORT_VERSION,
};
use dpsync_bench::report::TextTable;
use dpsync_crypto::{MasterKey, RecordCryptor};
use dpsync_dp::DpRng;
use dpsync_edb::engines::base::encrypt_batch;
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::ViewDef;
use std::hint::black_box;
use std::time::Instant;

struct Config {
    seed: u64,
    delta: u64,
    smoke: bool,
    out: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            seed: 2021,
            delta: 128,
            smoke: false,
            out: None,
        }
    }
}

const USAGE: &str = "usage: exp_views [--seed S] [--delta N] [--smoke] [--out FILE]";

fn parse_args() -> Config {
    let mut config = Config::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let bad = |flag: &str, v: Option<&String>| -> ! {
        eprintln!(
            "exp_views: invalid value {:?} for `{flag}` (see --help)",
            v.map(String::as_str).unwrap_or("<missing>")
        );
        std::process::exit(2);
    };
    while i < args.len() {
        let value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "--seed" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    config.seed = v;
                    i += 1;
                }
                None => bad("--seed", value(i)),
            },
            "--delta" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    config.delta = v;
                    i += 1;
                }
                None => bad("--delta", value(i)),
            },
            "--smoke" => config.smoke = true,
            "--out" => match value(i) {
                Some(v) => {
                    config.out = Some(v.clone());
                    i += 1;
                }
                None => bad("--out", None),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("exp_views: unknown argument `{other}` (see --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    config
}

/// One swept table size: per-query latencies (ns) for scan and view reads.
struct SizePoint {
    rows: usize,
    scan_q1_ns: f64,
    read_q1_ns: f64,
    scan_q2_ns: f64,
    read_q2_ns: f64,
}

fn loaded_engine(rows: usize, seed: u64, with_views: bool) -> ObliDbEngine {
    let master = MasterKey::from_bytes([0xC4; 32]);
    let mut cryptor = RecordCryptor::new(&master);
    let engine = ObliDbEngine::new(&master);
    engine
        .setup(
            "views",
            taxi_like_schema(),
            encrypt_batch(&mut cryptor, &synthetic_rows(rows, seed), rows / 4),
        )
        .expect("fresh engine");
    if with_views {
        for (name, query) in [
            ("q1", paper_queries::q1_range_count("views")),
            ("q2", paper_queries::q2_group_by_count("views")),
        ] {
            let def = ViewDef::new(name, query).expect("paper queries are view-supported");
            engine.register_view(&def).expect("view registers");
        }
    }
    engine
}

fn sweep_size(rows: usize, samples: usize, reps: usize, seed: u64) -> SizePoint {
    let engine = loaded_engine(rows, seed, true);
    let q1 = paper_queries::q1_range_count("views");
    let q2 = paper_queries::q2_group_by_count("views");
    let time_queries = |run: &dyn Fn(&mut DpRng)| -> f64 {
        median_ns(samples, || {
            let mut rng = DpRng::seed_from_u64(seed);
            let started = Instant::now();
            for _ in 0..reps {
                run(&mut rng);
            }
            started.elapsed()
        }) / reps as f64
    };
    SizePoint {
        rows,
        scan_q1_ns: time_queries(&|rng| {
            black_box(engine.query(&q1, rng).expect("scan succeeds"));
        }),
        read_q1_ns: time_queries(&|rng| {
            black_box(engine.query_view("q1", rng).expect("view read succeeds"));
        }),
        scan_q2_ns: time_queries(&|rng| {
            black_box(engine.query(&q2, rng).expect("scan succeeds"));
        }),
        read_q2_ns: time_queries(&|rng| {
            black_box(engine.query_view("q2", rng).expect("view read succeeds"));
        }),
    }
}

/// Per-record ingest cost (ns) with and without the paper views registered.
/// Batches mirror the suite's `Π_Update` shape: small flushes, 25% dummies.
fn maintenance_overhead(samples: usize, seed: u64) -> (f64, f64) {
    const BATCHES: usize = 96;
    const BATCH_SIZE: usize = 8;
    let master = MasterKey::from_bytes([0xB3; 32]);
    let mut cryptor = RecordCryptor::new(&master);
    let batches: Vec<Vec<dpsync_crypto::EncryptedRecord>> = (0..BATCHES)
        .map(|b| {
            let rows = synthetic_rows(BATCH_SIZE * 3 / 4, seed ^ (b as u64).wrapping_mul(0x9e37));
            encrypt_batch(&mut cryptor, &rows, BATCH_SIZE / 4)
        })
        .collect();
    let records: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let ingest = |with_views: bool| -> f64 {
        median_ns(samples, || {
            let engine = ObliDbEngine::new(&master);
            engine
                .setup("views", taxi_like_schema(), Vec::new())
                .expect("fresh engine");
            if with_views {
                for (name, query) in [
                    ("q1", paper_queries::q1_range_count("views")),
                    ("q2", paper_queries::q2_group_by_count("views")),
                ] {
                    let def = ViewDef::new(name, query).expect("supported shape");
                    engine.register_view(&def).expect("view registers");
                }
            }
            let cloned: Vec<_> = batches.to_vec();
            let started = Instant::now();
            for (time, batch) in cloned.into_iter().enumerate() {
                engine
                    .update("views", time as u64 + 1, batch)
                    .expect("ingest succeeds");
            }
            let elapsed = started.elapsed();
            black_box(engine.table_stats("views").ciphertext_count);
            elapsed
        }) / records as f64
    };
    let plain = ingest(false);
    let viewed = ingest(true);
    (plain, viewed)
}

fn format_us(ns: f64) -> String {
    format!("{:.2} µs", ns / 1e3)
}

fn main() {
    let config = parse_args();
    let (sizes, samples, reps): (&[usize], usize, usize) = if config.smoke {
        (&[1_000, 4_000, 16_000], 5, 8)
    } else {
        (&[5_000, 20_000, 80_000, 320_000], 9, 16)
    };
    println!(
        "materialized-view crossover sweep — sizes {sizes:?}, Δ={} records/pose (seed {})\n",
        config.delta, config.seed
    );

    let points: Vec<SizePoint> = sizes
        .iter()
        .map(|&rows| {
            let point = sweep_size(rows, samples, reps, config.seed);
            println!(
                "  N={rows}: Q1 scan {} / view {}, Q2 scan {} / view {}",
                format_us(point.scan_q1_ns),
                format_us(point.read_q1_ns),
                format_us(point.scan_q2_ns),
                format_us(point.read_q2_ns)
            );
            point
        })
        .collect();
    let (plain_ingest_ns, viewed_ingest_ns) = maintenance_overhead(samples, config.seed);
    let maint_ns = (viewed_ingest_ns - plain_ingest_ns).max(0.0);
    println!(
        "  ingest: {plain_ingest_ns:.0} ns/record plain, {viewed_ingest_ns:.0} ns/record with \
         both views ({maint_ns:.0} ns/record maintenance)\n"
    );

    let mut table = TextTable::new([
        "table rows",
        "Q1 scan",
        "Q1 view",
        "Q1 speedup",
        "Q2 scan",
        "Q2 view",
        "Q2 speedup",
    ]);
    for p in &points {
        table.add_row([
            p.rows.to_string(),
            format_us(p.scan_q1_ns),
            format_us(p.read_q1_ns),
            format!("{:.0}x", p.scan_q1_ns / p.read_q1_ns.max(1.0)),
            format_us(p.scan_q2_ns),
            format_us(p.read_q2_ns),
            format!("{:.0}x", p.scan_q2_ns / p.read_q2_ns.max(1.0)),
        ]);
    }
    print!("{}", table.render());

    // Recurring-query cost per pose: `scan(N)` without the view versus
    // `Δ·maint + read(N)` with it.  The crossover is the smallest swept size
    // where the view side wins, linearly interpolated between the bracketing
    // sizes; 0 means the view already wins at the smallest swept size.
    let view_cost = |p: &SizePoint| config.delta as f64 * maint_ns + p.read_q1_ns;
    let crossover_rows: f64 = if view_cost(&points[0]) < points[0].scan_q1_ns {
        0.0
    } else {
        let mut found = f64::INFINITY;
        for pair in points.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            let lo_gap = view_cost(lo) - lo.scan_q1_ns;
            let hi_gap = view_cost(hi) - hi.scan_q1_ns;
            if lo_gap >= 0.0 && hi_gap < 0.0 {
                let t = lo_gap / (lo_gap - hi_gap);
                found = lo.rows as f64 + t * (hi.rows - lo.rows) as f64;
                break;
            }
        }
        found
    };
    let largest = points.last().expect("sweep is non-empty");
    // Break-even pose-to-pose ingest volume at the largest size: below this
    // many records per pose the view wins even counting its maintenance.
    let break_even = if maint_ns > 0.0 {
        (largest.scan_q1_ns - largest.read_q1_ns).max(0.0) / maint_ns
    } else {
        f64::INFINITY
    };
    match crossover_rows {
        0.0 => println!(
            "\ncrossover: the view wins at every swept size (Δ={} records/pose)",
            config.delta
        ),
        r if r.is_infinite() => println!(
            "\ncrossover: not reached within the sweep (Δ={} records/pose)",
            config.delta
        ),
        r => println!(
            "\ncrossover: the view wins above ≈{:.0} rows (Δ={} records/pose)",
            r, config.delta
        ),
    }
    println!(
        "break-even at N={}: the view wins while fewer than ≈{break_even:.0} records arrive \
         between poses",
        largest.rows
    );

    if let Some(path) = &config.out {
        let mut results: Vec<BenchResult> = Vec::new();
        for p in &points {
            for (name, ns) in [
                (format!("views_q1_scan_N{}", p.rows), p.scan_q1_ns),
                (format!("views_q1_read_N{}", p.rows), p.read_q1_ns),
                (format!("views_q2_scan_N{}", p.rows), p.scan_q2_ns),
                (format!("views_q2_read_N{}", p.rows), p.read_q2_ns),
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
            name: "views_maint_overhead".into(),
            median_ns_per_op: maint_ns,
            throughput_per_sec: if maint_ns > 0.0 { 1e9 / maint_ns } else { 0.0 },
            records_processed: 1,
            samples: samples as u64,
        });
        results.push(BenchResult {
            name: "views_crossover".into(),
            median_ns_per_op: if crossover_rows.is_finite() {
                crossover_rows
            } else {
                -1.0
            },
            throughput_per_sec: largest.scan_q1_ns / largest.read_q1_ns.max(1.0),
            records_processed: config.delta,
            samples: samples as u64,
        });
        let report = BenchReport {
            version: REPORT_VERSION,
            label: "views".into(),
            seed: config.seed,
            smoke: config.smoke,
            workers: 1,
            results,
        };
        std::fs::write(path, report.to_json()).expect("write BENCH report");
        println!("\nBENCH report written to {path}");
    }
}
