//! `--repeat-check`: do two sets of runs of the same code agree?
//!
//! Runs this executable as child processes — two sets of five untraced runs
//! per workload, alternating, plus one traced run per set — and fails if a
//! pair of medians differs by more than the metric's bound or if anything
//! that is a count differs at all. The timing metrics carry no bound: their
//! medians and spreads are printed beside the 10% they were meant to hold.

use std::process::Command;

use crate::report::{END_TO_END, TIMING, TIMING_BOUND};
use crate::stats::{median, quartiles, spread};
use crate::workloads::Workload;
use crate::Args;

const RUNS_PER_SET: usize = 5;

/// Metrics that are counts or pure functions of the inputs: they must read
/// exactly the same in both sets.
const EXACT_END_TO_END: &[&str] = &["cost_vs_baseline", "ok_share"];
const EXACT_PER_LAYER: &[&str] = &[
    "core.evaluated_plans_per_op",
    "cost.lookups_per_op",
    "cost.misses_per_op",
    "online.evaluated_plans_per_replan",
    "online.migration_mb_per_replan",
    "serve.response_cache_hit_rate",
    "serve.rejected_total",
    "serve.degraded_total",
    "serve.fallback_total",
];

/// What a child run printed that the check reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result line, then the timing lines above it.
    pub metrics: Vec<(String, f64)>,
    pub plans_digest: Option<String>,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Reads the result line (the last line), the timing lines and the digest
/// line of a run's standard output.
pub fn parse_child_output(stdout: &str) -> Option<ChildResult> {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty())?;
    let field = |key: &str| -> Option<&str> {
        let rest = line.split_once(&format!("\"{key}\": "))?.1;
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let metrics_body = line.split_once("\"metrics\": {")?.1;
    let mut metrics: Vec<(String, f64)> = metrics_body
        .split("\"unit\"")
        .filter_map(|chunk| {
            let (before, value) = chunk.rsplit_once("{\"value\": ")?;
            let name = before.rsplit('"').nth(1)?;
            Some((
                name.to_string(),
                value.trim_end_matches([',', ' ']).parse().ok()?,
            ))
        })
        .collect();
    for (name, _, _) in TIMING {
        let printed = stdout.lines().find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next() == Some(name)).then(|| words.next()?.parse().ok())?
        });
        metrics.extend(printed.map(|value| (name.to_string(), value)));
    }
    Some(ChildResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
        plans_digest: stdout
            .lines()
            .find_map(|l| l.strip_prefix("plans_digest"))
            .map(|d| d.trim().to_string()),
    })
}

fn run_child(workload: Workload, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = parse_child_output(&stdout)
        .ok_or_else(|| format!("{}: no result line in child output", workload.name()))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{}: child run failed its output checks:\n{stdout}",
            workload.name()
        ));
    }
    Ok(result)
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    match better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

pub fn run(args: &Args) -> bool {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    let mut fail = |message: String| {
        println!("FAIL {message}");
        ok = false;
    };

    // sets[set][workload] = that set's runs, in the order they were made.
    let mut sets: [Vec<Vec<ChildResult>>; 2] = [
        vec![Vec::new(); workloads.len()],
        vec![Vec::new(); workloads.len()],
    ];
    for round in 0..RUNS_PER_SET {
        for (w, workload) in workloads.iter().enumerate() {
            // Alternate which set goes first, so drift hits both alike.
            for set in [round % 2, 1 - round % 2] {
                match run_child(*workload, args, false) {
                    Ok(result) => {
                        println!(
                            "run {}/{RUNS_PER_SET} set {} {:<14} p50 {:>10.4} ms  {:>9.3} ops/s",
                            round + 1,
                            ["A", "B"][set],
                            workload.name(),
                            result.metric("latency_p50_ms").unwrap_or(f64::NAN),
                            result.metric("ops_per_s").unwrap_or(f64::NAN),
                        );
                        sets[set][w].push(result);
                    }
                    Err(e) => {
                        fail(e);
                        return false;
                    }
                }
            }
        }
    }

    println!("\n| workload | metric | unit | set A median [q1, q3] | set B median [q1, q3] | spread A / B | B vs A | bound |");
    println!("|---|---|---|---|---|---|---|---|");
    let bounded = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| (name, unit, better, Some(bound)));
    let timing = TIMING
        .iter()
        .map(|&(name, unit, better)| (name, unit, better, None));
    let compared: Vec<_> = bounded.chain(timing).collect();
    for (w, workload) in workloads.iter().enumerate() {
        for &(name, unit, better, bound) in &compared {
            let values = |set: usize| -> Vec<f64> {
                sets[set][w].iter().filter_map(|r| r.metric(name)).collect()
            };
            let (a, b) = (values(0), values(1));
            let (ma, mb) = (median(&a), median(&b));
            let (qa, qb) = (quartiles(&a), quartiles(&b));
            let worse = worsening(ma, mb, better).max(worsening(mb, ma, better));
            let bound_text = match bound {
                Some(bound) => format!("{:.1}%", bound * 100.0),
                None if worse > TIMING_BOUND => "none (over 10%)".to_string(),
                None => "none (within 10%)".to_string(),
            };
            println!(
                "| {} | {name} | {unit} | {ma:.4} [{:.4}, {:.4}] | {mb:.4} [{:.4}, {:.4}] | {:.1}% / {:.1}% | {:+.2}% | {bound_text} |",
                workload.name(), qa.0, qa.1, qb.0, qb.1,
                spread(&a) * 100.0,
                spread(&b) * 100.0,
                worsening(ma, mb, better) * 100.0,
            );
            if bound.is_some_and(|bound| worse > bound) {
                fail(format!(
                    "{}/{name}: medians {ma} and {mb} differ by more than the bound",
                    workload.name()
                ));
            }
            let exact = EXACT_END_TO_END.contains(&name);
            if exact && a.iter().chain(&b).any(|v| v.to_bits() != a[0].to_bits()) {
                fail(format!("{}/{name} did not repeat exactly", workload.name()));
            }
        }
        let runs: Vec<&ChildResult> = sets[0][w].iter().chain(&sets[1][w]).collect();
        let same = |f: &dyn Fn(&ChildResult) -> String| runs.iter().all(|r| f(r) == f(runs[0]));
        if !same(&|r| format!("{:?}", r.plans_digest)) {
            fail(format!(
                "{}: plans_digest did not repeat exactly",
                workload.name()
            ));
        }
        if !same(&|r| format!("{}/{}", r.failed, r.attempted)) {
            fail(format!(
                "{}: failed/attempted did not repeat exactly",
                workload.name()
            ));
        }
        println!(
            "| {} | plans_digest | | {} | {} | | | exact |",
            workload.name(),
            runs[0].plans_digest.as_deref().unwrap_or("-"),
            runs[runs.len() - 1].plans_digest.as_deref().unwrap_or("-"),
        );
    }

    println!("\ncount metrics of the traced runs (one per set):");
    for workload in &workloads {
        let traced: Vec<ChildResult> =
            match (0..2).map(|_| run_child(*workload, args, true)).collect() {
                Ok(results) => results,
                Err(e) => {
                    fail(e);
                    continue;
                }
            };
        for name in EXACT_PER_LAYER {
            let (a, b) = (traced[0].metric(name), traced[1].metric(name));
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
            println!(
                "  {:<14} {name:<36} {:>20} {:>20}",
                workload.name(),
                show(a),
                show(b)
            );
            if a.map(f64::to_bits) != b.map(f64::to_bits) {
                fail(format!("{}/{name} did not repeat exactly", workload.name()));
            }
        }
    }
    println!("\nrepeat-check {}", if ok { "passed" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_the_report_prints() {
        let stdout = "# pretrain\nops_per_s                2.750000 1/s\n\
            latency_p50_ms         351.250000 ms\n\
            plans_digest       00ff00ff00ff00ff\n\
            {\"correct\": true, \"attempted\": 68, \"failed\": 0, \"metrics\": \
            {\"setup_s\": {\"value\": 0.81, \"unit\": \"s\"}, \
            \"cost.hit_rate\": {\"value\": 0.000012, \"unit\": \"ratio\"}}}\n\n";
        let result = parse_child_output(stdout).unwrap();
        assert!(result.correct);
        assert_eq!((result.attempted, result.failed), (68, 0));
        assert_eq!(
            result.metrics,
            vec![
                ("setup_s".to_string(), 0.81),
                ("cost.hit_rate".to_string(), 0.000012),
                ("ops_per_s".to_string(), 2.75),
                ("latency_p50_ms".to_string(), 351.25),
            ]
        );
        assert_eq!(result.plans_digest.as_deref(), Some("00ff00ff00ff00ff"));
        assert_eq!(result.metric("ops_per_s"), Some(2.75));
        // A run too short for a tail percentile prints none.
        assert_eq!(result.metric("latency_tail_ms"), None);
        assert!(parse_child_output("no result here").is_none());
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, "lower") < 0.0);
    }
}
