//! Parser for the daemon's `/metrics` text (Prometheus exposition format).

/// One sample line: `name{labels} value` or `name value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// Every sample in `text`; comment, blank and malformed lines are skipped.
pub fn parse(text: &str) -> Vec<Sample> {
    text.lines().filter_map(parse_line).collect()
}

fn parse_line(line: &str) -> Option<Sample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (series, value) = line.rsplit_once(char::is_whitespace)?;
    let value = value.parse().ok()?;
    let series = series.trim();
    let (name, labels) = match series.split_once('{') {
        None => (series, Vec::new()),
        Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}')?)?),
    };
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    body.split(',')
        .filter(|pair| !pair.trim().is_empty())
        .map(|pair| {
            let (key, value) = pair.split_once('=')?;
            let value = value.trim().strip_prefix('"')?.strip_suffix('"')?;
            Some((key.trim().to_string(), value.to_string()))
        })
        .collect()
}

/// Sum over every series of `name`, whatever its labels; 0 when absent (a
/// labelled counter that never fired is not rendered at all).
pub fn total(samples: &[Sample], name: &str) -> f64 {
    // Not `sum()`: an empty float sum is -0.0, which prints as "-0".
    samples
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |total, s| total + s.value)
}

/// Counters of the daemon that a run without shed, degraded or fallback
/// plans leaves at zero.
pub const ZERO_COUNTERS: [&str; 3] = [
    "nshard_serve_rejected_total",
    "nshard_serve_degraded_total",
    "nshard_serve_fallback_total",
];

/// Response-cache hits over lookups. A ratio of counts: it repeats exactly.
pub fn response_cache_hit_rate(samples: &[Sample]) -> f64 {
    let hits = total(samples, "nshard_serve_response_cache_hits_total");
    hits / (hits + total(samples, "nshard_serve_response_cache_misses_total"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP nshard_serve_degraded_total Degraded plans
# TYPE nshard_serve_degraded_total counter
nshard_serve_degraded_total 0
nshard_serve_rejected_total{reason=\"queue_full\"} 3
nshard_serve_rejected_total{reason=\"deadline\"} 2
nshard_serve_requests_total{endpoint=\"plan\",code=\"200\"} 41
nshard_serve_search_latency_ms_sum 12.5

garbage line without a number
nshard_net_keepalive_reuse_total 998
";

    #[test]
    fn parses_plain_and_labelled_samples() {
        let samples = parse(TEXT);
        assert_eq!(samples.len(), 6);
        assert_eq!(samples[3].name, "nshard_serve_requests_total");
        assert_eq!(
            samples[3].labels,
            vec![
                ("endpoint".to_string(), "plan".to_string()),
                ("code".to_string(), "200".to_string())
            ]
        );
        assert_eq!(samples[3].value, 41.0);
    }

    #[test]
    fn totals_sum_over_labels_and_default_to_zero() {
        let samples = parse(TEXT);
        assert_eq!(total(&samples, "nshard_serve_rejected_total"), 5.0);
        assert_eq!(total(&samples, "nshard_serve_degraded_total"), 0.0);
        assert_eq!(total(&samples, "nshard_net_keepalive_reuse_total"), 998.0);
        assert!(total(&samples, "nshard_serve_fallback_total").is_sign_positive());
    }
}
