//! Command-line parsing. Every malformed command line becomes a
//! [`UsageError`]; the binary prints the usage text and exits 2.

use std::path::PathBuf;

use crate::{WorkloadKind, DEFAULT_SEED};

/// Usage text.
pub const USAGE: &str = "\
usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
                 [--scale <f>] [--spans <path>]

  --workload  fig5_sweep | easy_backlog | matched_backlog | service_stream
  --seed      input seed (default 42)
  --seconds   how long the timed repetitions run (default 10)
  --trace     0: end-to-end metrics from an untraced run (default)
              1: per-layer metrics from a run with traced repetitions
  --scale     input size as a share of the full workload, in (0, 1]
              (default 1; digests are pinned at 1 only)
  --spans     where a traced run writes its spans
              (default perfbench/out/spans-<workload>-<seed>.tsv)

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed repetitions.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Input size as a share of the full workload.
    pub scale: f64,
    /// Span file of a traced run.
    pub spans: PathBuf,
}

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a workload.
    Run(Options),
    /// Print usage and exit successfully.
    Help,
}

fn value<T: std::str::FromStr>(
    flag: &str,
    v: Option<String>,
    ok: impl Fn(&T) -> bool,
) -> Result<T, UsageError> {
    let v = v.ok_or_else(|| UsageError(format!("{flag} needs a value")))?;
    v.parse::<T>()
        .ok()
        .filter(|x| ok(x))
        .ok_or_else(|| UsageError(format!("{flag}: invalid value `{v}`")))
}

/// Parse the arguments after the program name.
///
/// # Errors
/// [`UsageError`] for an unknown flag, a missing or invalid value, or a
/// missing `--workload`.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, UsageError> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = 1.0;
    let mut spans = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--workload" => {
                let name: String = value(&flag, args.next(), |_| true)?;
                let kind = WorkloadKind::ALL
                    .into_iter()
                    .find(|k| k.name() == name)
                    .ok_or_else(|| UsageError(format!("unknown workload `{name}`")))?;
                workload = Some(kind);
            }
            "--seed" => seed = value(&flag, args.next(), |_| true)?,
            "--seconds" => {
                seconds = value(&flag, args.next(), |s: &f64| s.is_finite() && *s > 0.0)?;
            }
            "--trace" => {
                let t: u8 = value(&flag, args.next(), |t| *t <= 1)?;
                trace = t == 1;
            }
            "--scale" => {
                scale = value(&flag, args.next(), |s: &f64| *s > 0.0 && *s <= 1.0)?;
            }
            "--spans" => {
                spans = Some(PathBuf::from(value::<String>(&flag, args.next(), |_| {
                    true
                })?))
            }
            other => return Err(UsageError(format!("unknown flag `{other}`"))),
        }
    }
    let workload = workload.ok_or_else(|| UsageError("--workload is required".into()))?;
    let spans = spans.unwrap_or_else(|| {
        PathBuf::from(format!(
            "perfbench/out/spans-{}-{seed}.tsv",
            workload.name()
        ))
    });
    Ok(Command::Run(Options {
        workload,
        seed,
        seconds,
        trace,
        scale,
        spans,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let Ok(Command::Run(o)) = parse(args(
            "--workload easy_backlog --seed 7 --seconds 10 --trace 1",
        )) else {
            panic!("should parse");
        };
        assert_eq!(o.workload, WorkloadKind::EasyBacklog);
        assert_eq!((o.seed, o.seconds, o.trace, o.scale), (7, 10.0, true, 1.0));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--seed 7",
            "--workload nope",
            "--workload fig5_sweep --bogus",
            "--workload fig5_sweep --seed",
            "--workload fig5_sweep --seed x",
            "--workload fig5_sweep --trace 2",
            "--workload fig5_sweep --seconds 0",
            "--workload fig5_sweep --scale 1.5",
        ] {
            assert!(parse(args(bad)).is_err(), "`{bad}` should be rejected");
        }
    }
}
