//! Printing: every metric by name with its unit, then the one JSON line the
//! driver reads.

use crate::layers::{TraceReport, PER_LAYER};
use crate::stats::{highest_supported_percentile, percentile, samples_beyond};
use crate::trace::layer_of;
use crate::workloads::{ClassCount, Outcome, Workload};
use crate::Args;

/// The bounded end-to-end metrics: name, unit, which direction is better,
/// and the share of the parent's median by which the metric may worsen
/// before a change counts as a regression. `BENCHMARK.json` lists exactly
/// these (a unit test compares the two).
///
/// `ok_share` is 1 − `failed_share`: the driver's bounds are relative and
/// its metrics may not be 0, so the failure bound of +0.002 absolute is a
/// 0.002 share of a value that is 1 on every correct run.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("cost_vs_baseline", "ratio", "lower", 0.05),
    ("ok_share", "ratio", "higher", 0.002),
];

/// The timing metrics of an untraced run: printed, compared between sets by
/// `--repeat-check`, but not bounded — see README "Why timing is reported,
/// not bounded".
pub const TIMING: &[(&str, &str, &str)] = &[
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
];

/// The bound ISSUE 12 meant the timing metrics to hold; `--repeat-check`
/// says on which side of it two sets of runs came out.
pub const TIMING_BOUND: f64 = 0.10;

fn all_finite(metrics: &[(&str, &str, f64)]) -> bool {
    metrics.iter().all(|m| m.2.is_finite())
}

/// The last line of standard output. Values keep every digit they were
/// measured with; one that is not finite is written as 0 and fails the run.
fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && all_finite(metrics),
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

fn print_header(workload: Workload, args: &Args, traced: bool) {
    println!(
        "# {} · seed {} · --seconds {} · {} · host.hardware_threads {}",
        workload.name(),
        args.seed,
        args.seconds,
        if traced { "traced run" } else { "tracing off" },
        crate::host::hardware_threads()
    );
}

fn print_classes(classes: &[ClassCount]) {
    for c in classes {
        println!(
            "  {:<10} attempted {:>6}  failed {:>4}",
            c.label, c.attempted, c.failed
        );
    }
}

fn print_errors(errors: &[String]) {
    for e in errors.iter().take(10) {
        println!("  CHECK FAILED: {e}");
    }
    if errors.len() > 10 {
        println!("  … and {} more", errors.len() - 10);
    }
}

/// Prints an untraced run; returns whether every output check passed.
pub fn print_outcome(workload: Workload, args: &Args, o: &Outcome) -> bool {
    let n = o.latencies_ms.len();
    let failed_share = o.failed() as f64 / o.attempted().max(1) as f64;
    let metrics = [
        ("setup_s", "s", o.setup_s),
        ("cost_vs_baseline", "ratio", o.cost_vs_baseline),
        ("ok_share", "ratio", 1.0 - failed_share),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| (m.0, m.1))
        .eq(END_TO_END.iter().map(|m| (m.0, m.1))));
    // The tail is the highest percentile this many ops support; a run too
    // short to support any (a smoke run) prints none.
    let tail = highest_supported_percentile(n);
    let mut timing = vec![
        ("ops_per_s", "1/s", o.ops_per_s()),
        ("latency_p50_ms", "ms", percentile(&o.latencies_ms, 50.0)),
    ];
    if let Some(p) = tail {
        timing.push(("latency_tail_ms", "ms", percentile(&o.latencies_ms, p)));
    }
    debug_assert!(timing
        .iter()
        .map(|m| (m.0, m.1))
        .eq(TIMING.iter().take(timing.len()).map(|m| (m.0, m.1))));
    let correct = o.errors.is_empty() && all_finite(&metrics) && all_finite(&timing);

    print_header(workload, args, false);
    println!(
        "timed phase: {} ops, {} closed-loop client(s), {:.3} s",
        o.attempted(),
        o.clients,
        o.timed_s
    );
    for (name, unit, value) in metrics.iter().chain(&timing) {
        println!("{name:<18} {value:>14.6} {unit}");
    }
    match tail {
        Some(p) => println!(
            "latency samples    {n:>14}   (latency_tail_ms is p{p}: {} samples beyond it)",
            samples_beyond(n, p)
        ),
        None => println!(
            "latency samples    {n:>14}   (too few for a tail percentile: ten samples must lie beyond it)"
        ),
    }
    // Drift inside the run: a slow tenth shows a host that slowed down.
    let tenths: Vec<String> = o
        .latencies_ms
        .chunks(n.div_ceil(10).max(1))
        .map(|chunk| format!("{:.3}", percentile(chunk, 50.0)))
        .collect();
    println!("p50 by tenth of the op list, ms: {}", tenths.join(" "));
    println!(
        "failed_share       {failed_share:>14.6} ratio ({} failed of {} attempted)",
        o.failed(),
        o.attempted()
    );
    print_classes(&o.classes);
    println!(
        "cost_vs_baseline over {} of {} tasks with a feasible greedy baseline",
        o.compared_tasks.0, o.compared_tasks.1
    );
    for (name, value) in &o.facts {
        println!("{name:<18} {value}");
    }
    println!("plans_digest       {:016x}", o.plans_digest);
    print_errors(&o.errors);
    println!(
        "{}",
        json_line(correct, o.attempted(), o.failed(), &metrics)
    );
    correct
}

/// Prints a traced run; returns whether every output check passed.
pub fn print_traced(workload: Workload, args: &Args, r: &TraceReport) -> bool {
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            (
                *name,
                *unit,
                r.metrics.get(name).copied().unwrap_or(f64::NAN),
            )
        })
        .collect();
    let correct = r.errors.is_empty() && all_finite(&metrics);
    let attempted: usize = r.classes.iter().map(|c| c.attempted).sum();
    let failed: usize = r.classes.iter().map(|c| c.failed).sum();

    print_header(workload, args, true);
    println!(
        "traced ops: {}  p50 traced {:.4} ms / untraced {:.4} ms",
        r.traced_ops, r.traced_p50_ms, r.untraced_p50_ms
    );
    print_classes(&r.classes);
    println!(
        "\nself time of {}'s spans (span = duration − children):",
        workload.name()
    );
    println!(
        "  {:<16} {:>7} {:>12} {:>8}",
        "span", "calls", "self ms", "share"
    );
    for row in &r.self_times {
        let name = if row.span == "op" {
            "op (unattributed)"
        } else {
            row.span
        };
        println!(
            "  {:<16} {:>7} {:>12.3} {:>7.2}%",
            name,
            row.calls,
            row.self_ms,
            row.share * 100.0
        );
    }
    let mut by_layer: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for row in r.self_times.iter().filter(|row| row.span != "op") {
        *by_layer.entry(layer_of(row.span)).or_default() += row.share;
    }
    let layers: Vec<String> = by_layer
        .iter()
        .map(|(layer, share)| format!("{layer} {:.2}%", share * 100.0))
        .collect();
    println!("  by layer: {}", layers.join(", "));
    println!("\nper-layer metrics:");
    for (name, unit, value) in &metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("spans written to {}", r.trace_file.display());
    print_errors(&r.errors);
    println!("{}", json_line(correct, attempted, failed, &metrics));
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = json_line(
            true,
            10,
            0,
            &[("latency_ms", "ms", 1.25), ("setup_s", "s", 0.5)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = text
            .split("\"end_to_end\"")
            .nth(1)
            .and_then(|rest| rest.split("\"per_layer\"").next())
            .expect("end_to_end section");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(section.matches("\"name\"").count(), END_TO_END.len());
        assert!(text.contains(&format!("\"run_seconds\": {}", crate::RUN_SECONDS)));
        for workload in Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\"", workload.name())));
        }
    }

    #[test]
    fn a_value_that_is_not_finite_fails_the_run() {
        let line = json_line(true, 0, 0, &[("x", "ms", f64::NAN)]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1,"));
        assert!(line.contains("\"value\": 0,"));
    }
}
