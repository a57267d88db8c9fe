//! The one command-line parser behind every binary in this crate.
//!
//! A binary reads its arguments left to right through [`Args`]: it asks for
//! the next flag or positional word, and a flag that takes a value asks for
//! that value, parsed, before the next flag is read.  Parsing is strict:
//! an unknown flag, a flag without its value or a value that does not parse
//! is a [`CliError::Invalid`] naming the flag and the value, never a silent
//! no-op.  [`parse_env`] turns that into the process contract: `--help` (or
//! `-h`) prints the usage and exits 0, a rejected argument prints one line to
//! stderr and exits 2.

use std::fmt::Display;

/// Why a command line was not parsed into a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: the caller should print its usage.
    Help,
    /// A rejected argument, explained in one line.
    Invalid(String),
}

/// An unknown flag (or an unexpected positional word).
pub fn unknown(arg: &str) -> CliError {
    CliError::Invalid(format!("unknown argument `{arg}`"))
}

/// A command line, read left to right.
#[derive(Debug)]
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The arguments after the program name.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        Self(args.into_iter())
    }

    /// The next flag or positional word, in command-line order; `None` at the
    /// end.  `--help` and `-h` end parsing with [`CliError::Help`].
    pub fn next_arg(&mut self) -> Result<Option<String>, CliError> {
        match self.0.next() {
            Some(arg) if arg == "--help" || arg == "-h" => Err(CliError::Help),
            next => Ok(next),
        }
    }

    /// The raw value of `flag`: the argument after it, whatever it is.
    pub fn string(&mut self, flag: &str) -> Result<String, CliError> {
        self.0
            .next()
            .ok_or_else(|| CliError::Invalid(format!("`{flag}` needs a value")))
    }

    /// The value of `flag`, parsed by `parse`.
    pub fn value_with<T, E: Display>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, CliError> {
        let raw = self.string(flag)?;
        parse(&raw)
            .map_err(|e| CliError::Invalid(format!("invalid value `{raw}` for `{flag}`: {e}")))
    }

    /// The value of `flag`, parsed with [`str::parse`].
    pub fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        self.value_with(flag, str::parse)
    }
}

/// Parses this process's arguments with `parse`.  On `--help` it prints
/// `usage` and exits 0; on a rejected argument it prints one line, naming
/// `binary`, to stderr and exits 2.
pub fn parse_env<T>(
    binary: &str,
    usage: &str,
    parse: impl FnOnce(&mut Args) -> Result<T, CliError>,
) -> T {
    match parse(&mut Args::new(std::env::args().skip(1))) {
        Ok(parsed) => parsed,
        Err(CliError::Help) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(CliError::Invalid(message)) => {
            eprintln!("{binary}: {message} (see --help)");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy binary: `--n N`, `--name S`, the `--on` switch and positionals.
    fn toy(args: &[&str]) -> Result<(u64, String, bool, Vec<String>), CliError> {
        let mut args = Args::new(args.iter().copied());
        let (mut n, mut name, mut on, mut words) = (0, String::new(), false, Vec::new());
        while let Some(arg) = args.next_arg()? {
            match arg.as_str() {
                "--n" => n = args.value(&arg)?,
                "--name" => name = args.string(&arg)?,
                "--on" => on = true,
                _ if !arg.starts_with('-') => words.push(arg),
                _ => return Err(unknown(&arg)),
            }
        }
        Ok((n, name, on, words))
    }

    fn invalid(result: Result<(u64, String, bool, Vec<String>), CliError>) -> String {
        match result {
            Err(CliError::Invalid(message)) => message,
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn flags_and_positionals_come_out_in_order() {
        assert_eq!(
            toy(&["a", "--n", "7", "b", "--on", "--name", "--n"]),
            Ok((7, "--n".into(), true, vec!["a".into(), "b".into()]))
        );
        assert_eq!(toy(&[]), Ok((0, String::new(), false, Vec::new())));
    }

    #[test]
    fn help_stops_parsing_wherever_it_appears() {
        assert_eq!(toy(&["--help"]), Err(CliError::Help));
        assert_eq!(toy(&["--n", "3", "-h", "--bogus"]), Err(CliError::Help));
    }

    #[test]
    fn every_rejection_names_the_flag_and_the_value() {
        let message = invalid(toy(&["--on", "--bogus"]));
        assert!(message.contains("`--bogus`"), "{message}");
        let message = invalid(toy(&["--n"]));
        assert!(message.contains("`--n`") && message.contains("needs a value"));
        let message = invalid(toy(&["--n", "5OO"]));
        assert!(
            message.contains("`--n`") && message.contains("`5OO`"),
            "{message}"
        );
        let message = invalid(toy(&["--n", "-1"]));
        assert!(message.contains("`-1`"), "{message}");
    }

    #[test]
    fn value_with_reports_the_parsers_reason() {
        let mut args = Args::new(["fast"]);
        let err = args
            .value_with("--speed", |v| match v {
                "slow" => Ok(1),
                _ => Err("expected slow"),
            })
            .unwrap_err();
        assert_eq!(
            err,
            CliError::Invalid("invalid value `fast` for `--speed`: expected slow".into())
        );
    }
}
