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

use dpsync_bench::cli::{self, unknown, Args, CliError};
use dpsync_bench::perf::{
    format_us, ingest_batches, loaded_engine, median_ns, median_read_ns, record_count,
    register_paper_views, time_ingest, BenchReport, BenchResult, REPORT_VERSION,
};
use dpsync_bench::report::TextTable;
use dpsync_crypto::MasterKey;
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;

struct Config {
    seed: u64,
    delta: u64,
    smoke: bool,
    out: Option<String>,
}

fn parse(args: &mut Args) -> Result<Config, CliError> {
    let mut config = Config {
        seed: 2021,
        delta: 128,
        smoke: false,
        out: None,
    };
    while let Some(flag) = args.next_arg()? {
        match flag.as_str() {
            "--seed" => config.seed = args.value(&flag)?,
            "--delta" => config.delta = args.value(&flag)?,
            "--smoke" => config.smoke = true,
            "--out" => config.out = Some(args.string(&flag)?),
            _ => return Err(unknown(&flag)),
        }
    }
    Ok(config)
}

/// One swept table size: per-query latencies (ns) for scan and view reads.
struct SizePoint {
    rows: usize,
    scan_q1_ns: f64,
    read_q1_ns: f64,
    scan_q2_ns: f64,
    read_q2_ns: f64,
}

fn sweep_size(rows: usize, samples: usize, reps: usize, seed: u64) -> SizePoint {
    let engine = loaded_engine("views", rows, seed);
    register_paper_views(&engine, "views");
    let q1 = paper_queries::q1_range_count("views");
    let q2 = paper_queries::q2_group_by_count("views");
    SizePoint {
        rows,
        scan_q1_ns: median_read_ns(samples, reps, seed, |rng| engine.query(&q1, rng)),
        read_q1_ns: median_read_ns(samples, reps, seed, |rng| engine.query_view("q1", rng)),
        scan_q2_ns: median_read_ns(samples, reps, seed, |rng| engine.query(&q2, rng)),
        read_q2_ns: median_read_ns(samples, reps, seed, |rng| engine.query_view("q2", rng)),
    }
}

/// Per-record ingest cost (ns) with and without the paper views registered,
/// over 96 batches of the suite's `Π_Update` shape: small flushes, 25% dummies.
fn maintenance_overhead(samples: usize, seed: u64) -> (f64, f64) {
    let master = MasterKey::from_bytes([0xB3; 32]);
    let batches = ingest_batches(96, 8, seed, &master);
    let ingest = |with_views: bool| {
        median_ns(samples, || {
            time_ingest(&ObliDbEngine::new(&master), "views", &batches, |e| {
                if with_views {
                    register_paper_views(e, "views");
                }
            })
        }) / record_count(&batches) as f64
    };
    (ingest(false), ingest(true))
}

fn main() {
    let config = cli::parse_env(
        "exp_views",
        "usage: exp_views [--seed S] [--delta N] [--smoke] [--out FILE]",
        parse,
    );
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
