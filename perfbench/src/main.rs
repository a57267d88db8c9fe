//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON object as the last line of standard output: end-to-end
//! metrics with `--trace 0`, the per-layer breakdown with `--trace 1`.

use perfbench::harness;
use perfbench::workloads::{Scale, Workload};

const USAGE: &str = "usage: perfbench --workload fleet_tcp|durable_views|analyst_reads_tcp \
                     --seed <u64> --seconds <u64> --trace 0|1";

fn usage_error(message: &str) -> ! {
    eprintln!("perfbench: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            usage_error(&format!("`{}` needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| *s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage_error("missing or invalid argument");
    };
    let result = harness::run(workload, Scale::full(workload), seed, seconds, trace);
    println!("{}", result.to_json());
}
