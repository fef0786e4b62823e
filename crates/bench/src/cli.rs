//! The `figures` binary's one argument grammar and its typed failure.
//!
//! Every subcommand splits its arguments with [`Args::split`] against its
//! table of accepted flags ([`Flags`]), and `run`, `launch` and `serve` read
//! `--scale`/`--seed`/`--topo`/`--traffic` with [`run_spec`], the parsing
//! counterpart of [`RunSpec::args`]. So an unknown option, a flag without
//! its value and a bad run flag read the same on every subcommand.
//!
//! Every subcommand returns `Result<(), CliError>`; `main` is the single
//! place that prints the error and picks the process exit code: exit 2 for
//! invalid invocations (unknown names listing the valid choices, bad flags,
//! unbuildable specs), with the usage text only when the invocation shape
//! itself was wrong.

use jellyfish::experiment::RunSpec;
use jellyfish::figures::Scale;

/// The seed of a run that names none.
const DEFAULT_SEED: u64 = 2012;

/// The flags one subcommand accepts, and how many positionals.
#[derive(Debug)]
pub struct Flags {
    /// Flags that take the next argument as their value (`--seed 7`).
    pub values: &'static [&'static str],
    /// Bare switches (`--json`).
    pub switches: &'static [&'static str],
    /// How many positional arguments the subcommand takes; one more is an
    /// unknown option.
    pub positionals: usize,
}

/// An argument list split by a [`Flags`] table.
#[derive(Debug, Default)]
pub struct Args {
    /// The positional arguments, in order.
    pub positionals: Vec<String>,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Splits `args` into positionals, `--flag value` pairs and bare
    /// switches. A flag's value is the next argument, whatever it is. An
    /// argument starting with `--` that `flags` does not list, or a
    /// positional beyond `flags.positionals`, is an unknown option.
    pub fn split(args: &[String], flags: &Flags) -> Result<Args, CliError> {
        let mut out = Args::default();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if let Some(&flag) = flags.values.iter().find(|&&f| f == arg) {
                let value = rest
                    .next()
                    .ok_or_else(|| CliError::Invalid(format!("{flag} needs a value")))?;
                out.values.push((flag, value.clone()));
            } else if let Some(&flag) = flags.switches.iter().find(|&&f| f == arg) {
                out.switches.push(flag);
            } else if arg.starts_with("--") || out.positionals.len() == flags.positionals {
                return Err(CliError::Usage(format!("unknown option '{arg}'")));
            } else {
                out.positionals.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// The value of `flag`; the last one when it was given twice.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    /// The value of `flag` read by `parse`, or `None` when it was not given;
    /// a value `parse` rejects is an invalid invocation.
    pub fn parse<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        self.value(flag).map(parse).transpose().map_err(CliError::Invalid)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// Reads `--scale`, `--seed`, `--topo` and `--traffic` into a [`RunSpec`]:
/// the parsing counterpart of [`RunSpec::args`]. An absent flag keeps the
/// default run: laptop scale, seed [`DEFAULT_SEED`], no override.
pub fn run_spec(args: &Args) -> Result<RunSpec, CliError> {
    Ok(RunSpec {
        scale: args
            .parse("--scale", |raw| raw.parse().map_err(|e| format!("{e}")))?
            .unwrap_or(Scale::Laptop),
        seed: args
            .parse("--seed", |raw| {
                raw.parse()
                    .map_err(|_| format!("unparsable --seed '{raw}': expected an unsigned integer"))
            })?
            .unwrap_or(DEFAULT_SEED),
        topo: args
            .parse("--topo", |raw| raw.parse().map_err(|e| format!("unparsable --topo: {e}")))?,
        traffic: args.parse("--traffic", |raw| {
            raw.parse().map_err(|e| format!("unparsable --traffic: {e}"))
        })?,
    })
}

/// Why a `figures` invocation failed, carrying the exit code and (for
/// unknown names) the valid-choices listing every subcommand reports the
/// same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An unknown name where a registry defines the choices: experiment,
    /// subcommand, scale, scheme... Exit 2.
    UnknownChoice {
        /// What kind of name was expected (`experiment`, `topo subcommand`).
        what: String,
        /// What the user typed.
        got: String,
        /// Comma-separated valid choices.
        valid: String,
    },
    /// Any other invalid invocation (bad flag value, unbuildable spec,
    /// unreadable file). Exit 2.
    Invalid(String),
    /// An invocation whose shape is wrong enough to reprint the usage text
    /// (unknown flag, missing subcommand). Exit 2.
    Usage(String),
}

impl CliError {
    /// Unknown-name constructor; every "valid choices" message goes through
    /// here so they all read identically.
    pub fn unknown(what: &str, got: &str, valid: impl Into<String>) -> Self {
        CliError::UnknownChoice {
            what: what.to_string(),
            got: got.to_string(),
            valid: valid.into(),
        }
    }

    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        2
    }

    /// Whether `main` should append the usage text after the message.
    pub fn wants_usage(&self) -> bool {
        matches!(self, CliError::Usage(_))
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownChoice { what, got, valid } => {
                write!(f, "unknown {what} '{got}' (valid choices: {valid})")
            }
            CliError::Invalid(msg) | CliError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Existing helpers return `Result<_, String>`; fold those into the
/// catch-all invalid-invocation case.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Invalid(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The run flags alone, as `run`, `launch` and `serve` list them.
    const RUN_FLAGS: Flags = Flags {
        values: &["--scale", "--seed", "--topo", "--traffic"],
        switches: &["--json"],
        positionals: 1,
    };

    fn split(args: &[&str]) -> Result<Args, CliError> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        Args::split(&args, &RUN_FLAGS)
    }

    #[test]
    fn exit_codes_match_the_historical_contract() {
        assert_eq!(CliError::unknown("experiment", "x", "a, b").exit_code(), 2);
        assert_eq!(CliError::Invalid("bad".into()).exit_code(), 2);
        assert_eq!(CliError::Usage("bad".into()).exit_code(), 2);
    }

    #[test]
    fn unknown_choices_render_uniformly() {
        let e = CliError::unknown("topo subcommand", "mk", "list, show, build");
        assert_eq!(
            format!("{e}"),
            "unknown topo subcommand 'mk' (valid choices: list, show, build)"
        );
    }

    #[test]
    fn only_usage_errors_reprint_usage() {
        assert!(CliError::Usage("x".into()).wants_usage());
        assert!(!CliError::Invalid("x".into()).wants_usage());
    }

    #[test]
    fn split_sorts_positionals_values_and_switches() {
        let args = split(&["--seed", "3", "fig9", "--json", "--seed", "--json"]).unwrap();
        assert_eq!(args.positionals, ["fig9"]);
        assert_eq!(args.value("--seed"), Some("--json"), "the last value wins, taken verbatim");
        assert!(args.switch("--json"));
        assert_eq!(args.value("--topo"), None);
        assert!(!split(&["fig9"]).unwrap().switch("--json"));
    }

    #[test]
    fn run_spec_reads_back_what_args_prints() {
        let bare = RunSpec::new(Scale::Tiny, 7);
        let topo = bare.clone().with_topo("fattree:k=4+fail_links=0.1".parse().unwrap());
        let traffic = bare.clone().with_traffic("zipf:s=1.2,hot_racks=4+epochs=2".parse().unwrap());
        let both = topo.clone().with_traffic("stride:k=3".parse().unwrap());
        for run in [bare, topo, traffic, both, RunSpec::new(Scale::Paper, u64::MAX)] {
            let args = Args::split(&run.args(), &RUN_FLAGS).unwrap();
            assert_eq!(run_spec(&args).unwrap(), run, "{:?}", run.args());
        }
        let default = run_spec(&split(&[]).unwrap()).unwrap();
        assert_eq!(default, RunSpec::new(Scale::Laptop, DEFAULT_SEED));
    }
}
