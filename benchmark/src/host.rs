//! Host readings that explain a noisy run. They move no end-to-end metric.

use std::time::Instant;

/// Logical CPUs visible to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Milliseconds a fixed integer loop takes: the same work every call, so a
/// slow reading means a slow host, not a slow program.
pub fn spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
pub fn steal_and_total_jiffies() -> Option<(u64, u64)> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted inside user and nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor gave to someone else between two
/// readings of [`steal_and_total_jiffies`].
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// CPU milliseconds (user + system, all threads) this process has used.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_self_stat(&s))
        .unwrap_or(0.0)
}

fn parse_self_stat(text: &str) -> Option<f64> {
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // USER_HZ is 100 on every Linux this runs on.
    Some((utime + stime) as f64 * 10.0)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_stat_steal() {
        let text = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_proc_stat(text), Some((30, 1000)));
        assert_eq!(steal_share(Some((30, 1000)), Some((40, 1100))), 0.1);
        assert_eq!(steal_share(None, Some((40, 1100))), 0.0);
    }

    #[test]
    fn parses_self_stat_with_spaces_in_the_name() {
        let text = "42 (my prog) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_self_stat(text), Some(3000.0));
    }

    #[test]
    fn parses_vm_hwm() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t  20480 kB\n"),
            Some(20480)
        );
    }
}
