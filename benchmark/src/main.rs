//! `nshard-benchmark`: the repo benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <pretrain|search_narrow|search_wide|serve_mixed|all> \
//!     [--seed 2023] [--seconds 30] [--trace [0|1]] [--smoke] [--repeat-check]
//! ```
//!
//! One run measures one workload, checks its outputs, prints every metric by
//! name with its unit, and ends with one JSON line. See `README.md`.

mod host;
mod layers;
mod repeat;
mod report;
mod scrape;
mod script;
mod stats;
mod surface;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `None` = all four in turn.
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat_check: bool,
}

/// `BENCHMARK.json`'s `run_seconds`: the length the op rates and the
/// recorded baseline refer to.
pub const RUN_SECONDS: f64 = 30.0;

/// `--smoke` runs each workload at about a twentieth of its op count.
const SMOKE_SECONDS: f64 = RUN_SECONDS / 20.0;

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2023,
        seconds: RUN_SECONDS,
        trace: false,
        repeat_check: false,
    };
    let mut named_workload = false;
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        let value = raw.get(i + 1).map(String::as_str);
        let needs_value = || value.ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--workload" => {
                let name = needs_value()?;
                named_workload = true;
                args.workload = match name {
                    "all" => None,
                    _ => Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    ),
                };
                i += 1;
            }
            "--seed" => {
                args.seed = needs_value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                args.seconds = needs_value()?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                i += 1;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match value {
                Some("0") => i += 1,
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--smoke" => {
                args.seconds = SMOKE_SECONDS;
                named_workload = true;
            }
            "--repeat-check" => {
                args.repeat_check = true;
                named_workload = true;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if !named_workload {
        return Err("--workload <name|all> is required".to_string());
    }
    Ok(args)
}

/// Runs one workload and prints its report; `true` when every output check
/// passed.
fn run_one(workload: Workload, args: &Args) -> bool {
    let result = if args.trace {
        layers::run_traced(workload, args.seed, args.seconds)
            .map(|r| report::print_traced(workload, args, &r))
    } else {
        workloads::run(workload, args.seed, args.seconds)
            .map(|o| report::print_outcome(workload, args, &o))
    };
    match result {
        Ok(correct) => correct,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            false
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nsee benchmark/README.md for usage");
            return ExitCode::from(2);
        }
    };
    let ok = if args.repeat_check {
        repeat::run(&args)
    } else {
        // Every selected workload runs, whatever the earlier ones reported.
        let selected = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        let passed: Vec<bool> = selected.into_iter().map(|w| run_one(w, &args)).collect();
        passed.into_iter().all(|ok| ok)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse(&[
            "--workload",
            "search_wide",
            "--seed",
            "7",
            "--seconds",
            "25",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Workload::SearchWide));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 25.0, true));
        let args = parse(&["--workload", "pretrain", "--trace", "0"]).unwrap();
        assert!(!args.trace);
    }

    #[test]
    fn bare_trace_flag_and_all_and_smoke() {
        let args = parse(&["--trace", "--workload", "all"]).unwrap();
        assert!(args.trace);
        assert_eq!(args.workload, None);
        assert_eq!(args.seed, 2023);
        let args = parse(&["--smoke"]).unwrap();
        assert_eq!(args.seconds, SMOKE_SECONDS);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "pretrain", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "pretrain", "--frobnicate"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }
}
