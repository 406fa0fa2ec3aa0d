//! `repro <experiment>… | all [--check] [--out-dir DIR]` — regenerates the
//! paper's tables and figures ([`nshard_bench::repro::run`]).
//!
//! Without `--check` each result is written to `DIR/<experiment>.json`
//! (default `results`) and its tables are printed. With `--check` nothing
//! is written: each result is regenerated in memory and compared with the
//! file already there, wall-clock fields masked; the first differing JSON
//! path of every failing experiment is printed with both values and the
//! exit status is non-zero.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut names = Vec::new();
    let mut check = false;
    let mut out_dir = Some(PathBuf::from("results"));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out-dir" => out_dir = args.next().map(PathBuf::from),
            _ => names.push(arg),
        }
    }
    let outcome = match out_dir {
        Some(out_dir) if !names.is_empty() => nshard_bench::repro::run(&names, check, &out_dir),
        _ => Err("usage: repro <experiment>... | all [--check] [--out-dir DIR]".to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}
