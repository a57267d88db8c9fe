//! `dpsync-serve` — the outsourced DP-Sync server as a standalone process.
//!
//! Runs an [`dpsync_net::EdbTcpServer`] in factory mode: every session
//! (plain connections carry one; multiplexed connections carry many) asks
//! for the engine it wants (`ObliDB` or `Crypt-ε`, in-memory or durable
//! segment-log storage), so independent experiment runs — e.g. the ten
//! `strategy × engine` simulations of `exp_table5 --transport tcp` — share
//! one server process without colliding on table names.
//!
//! Usage:
//!
//! ```text
//! dpsync-serve [--addr 127.0.0.1:7450] [--disk-root DIR] [--io-deadline-secs N] [--workers N]
//! ```
//!
//! * `--addr` — listen address (default `127.0.0.1:7450`, the address the
//!   experiment binaries' `--transport tcp` connects to by default).
//! * `--disk-root` — enables disk-backed sessions: each gets a scratch
//!   subdirectory under `DIR`, removed when the session ends.  Without it,
//!   disk session requests are rejected.
//! * `--io-deadline-secs` — per-connection progress deadline (default 10).
//! * `--workers` — engine worker threads behind the reactor (default 0 =
//!   available parallelism).
//!
//! The process runs until killed.  Disk-session scratch directories are
//! removed when their connection ends; killing the process *mid-session*
//! skips that cleanup (signals run no destructors).  Whatever a hard kill
//! leaves behind is swept at the next startup: the server owns its
//! `--disk-root` exclusively, so any `dpsync-session-*` directory found
//! there at boot is a stale leftover and is removed before listening.

use dpsync_net::{
    sweep_stale_session_dirs, EdbTcpServer, EngineFactory, EngineProvider, ServeOptions,
    DEFAULT_SERVE_ADDR,
};
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// What the command line asks the server for.
#[derive(Debug)]
struct Settings {
    addr: String,
    factory: EngineFactory,
    options: ServeOptions,
}

/// Parses the arguments after the program name; `Ok(None)` asks for the
/// usage.  An unknown flag, a flag without its value or a value that does
/// not parse is an `Err` naming the flag.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Settings>, String> {
    let mut settings = Settings {
        addr: DEFAULT_SERVE_ADDR.to_string(),
        factory: EngineFactory::default(),
        options: ServeOptions::default(),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--addr" => settings.addr = value()?,
            "--disk-root" => settings.factory.disk_root = Some(PathBuf::from(value()?)),
            "--io-deadline-secs" => {
                settings.options.io_deadline = Duration::from_secs(number(&flag, value()?)?);
            }
            "--workers" => settings.options.workers = number(&flag, value()?)?,
            "--help" | "-h" => return Ok(None),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Some(settings))
}

fn number<T: FromStr>(flag: &str, raw: String) -> Result<T, String>
where
    T::Err: Display,
{
    raw.parse()
        .map_err(|e| format!("invalid value `{raw}` for `{flag}`: {e}"))
}

fn main() {
    let Settings {
        addr,
        factory,
        options,
    } = match parse(std::env::args().skip(1)) {
        Ok(Some(settings)) => settings,
        Ok(None) => {
            println!(
                "usage: dpsync-serve [--addr {DEFAULT_SERVE_ADDR}] [--disk-root DIR] [--io-deadline-secs 10] [--workers 0]"
            );
            return;
        }
        Err(message) => {
            eprintln!("dpsync-serve: {message} (see --help)");
            std::process::exit(2);
        }
    };

    if let Some(root) = &factory.disk_root {
        if let Err(e) = std::fs::create_dir_all(root) {
            eprintln!(
                "dpsync-serve: cannot create disk root {}: {e}",
                root.display()
            );
            std::process::exit(1);
        }
        // Reclaim scratch directories a SIGKILLed predecessor left behind.
        let swept = sweep_stale_session_dirs(root);
        if swept > 0 {
            eprintln!(
                "dpsync-serve: swept {swept} stale session director{} under {}",
                if swept == 1 { "y" } else { "ies" },
                root.display()
            );
        }
    }

    let disk_note = factory
        .disk_root
        .as_ref()
        .map(|root| format!(", disk sessions under {}", root.display()))
        .unwrap_or_else(|| ", memory sessions only".to_string());

    let server =
        match EdbTcpServer::bind_with_options(&addr, EngineProvider::Factory(factory), options) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("dpsync-serve: cannot bind {addr}: {e}");
                std::process::exit(1);
            }
        };

    // The readiness line scripts wait for before connecting.
    println!(
        "dpsync-serve listening on {}{disk_note}",
        server.local_addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Serve until killed; the accept loop runs on its own thread.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Option<Settings>, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn every_flag_parses_and_help_asks_for_the_usage() {
        let settings = parse_strs(&[
            "--addr",
            "127.0.0.1:0",
            "--disk-root",
            "/srv/dpsync",
            "--io-deadline-secs",
            "3",
            "--workers",
            "2",
        ])
        .expect("valid flags parse")
        .expect("no --help");
        assert_eq!(settings.addr, "127.0.0.1:0");
        assert_eq!(
            settings.factory.disk_root,
            Some(PathBuf::from("/srv/dpsync"))
        );
        assert_eq!(settings.options.io_deadline, Duration::from_secs(3));
        assert_eq!(settings.options.workers, 2);
        let defaults = parse_strs(&[]).expect("no flags parse").expect("no --help");
        assert_eq!(defaults.addr, DEFAULT_SERVE_ADDR);
        assert_eq!(defaults.factory.disk_root, None);
        assert!(parse_strs(&["--workers", "2", "-h"])
            .expect("help")
            .is_none());
    }

    #[test]
    fn a_flag_without_its_value_is_rejected_naming_the_flag() {
        for flag in ["--addr", "--disk-root", "--io-deadline-secs", "--workers"] {
            let err = parse_strs(&["--addr", "127.0.0.1:0", flag]).unwrap_err();
            assert_eq!(err, format!("`{flag}` needs a value"));
        }
    }

    #[test]
    fn a_bad_value_is_rejected_naming_the_flag_and_the_value() {
        let err = parse_strs(&["--workers", "x"]).unwrap_err();
        assert!(err.contains("`--workers`") && err.contains("`x`"), "{err}");
        let err = parse_strs(&["--io-deadline-secs", "-1"]).unwrap_err();
        assert!(
            err.contains("`--io-deadline-secs`") && err.contains("`-1`"),
            "{err}"
        );
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        let err = parse_strs(&["--disk-rot", "/srv/dpsync"]).unwrap_err();
        assert_eq!(err, "unknown argument `--disk-rot`");
    }
}
