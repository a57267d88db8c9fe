//! Regenerates Table 3: the leakage classification of published encrypted
//! database schemes and their compatibility with DP-Sync.
//!
//! Usage: `cargo run -p dpsync-bench --bin exp_table3`
//!
//! Table 3 is a static classification — the binary takes no flags at all,
//! and rejects any argument (including `--transport`/`--backend`) rather
//! than silently ignoring it.

use dpsync_bench::cli::{self, CliError};
use dpsync_bench::experiments::tables::table3_text;

fn main() {
    cli::parse_env(
        "exp_table3",
        "usage: exp_table3 (no flags: the table is a static classification)",
        |args| match args.next_arg()? {
            Some(arg) => Err(CliError::Invalid(format!(
                "unknown argument `{arg}` — Table 3 is a static classification computed in \
                 process; the binary takes no flags"
            ))),
            None => Ok(()),
        },
    );
    println!("Table 3 — leakage groups and corresponding encrypted database schemes\n");
    print!("{}", table3_text().render());
}
