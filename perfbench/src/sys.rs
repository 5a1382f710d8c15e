//! Readings from `/proc`: thread CPU time, peak memory and the network
//! settings a loopback run depends on.

use std::fs;

/// CPU nanoseconds run by this process's live threads whose name starts
/// with `prefix`, from `/proc/self/task/*/schedstat` (time on CPU, so
/// waiting on a run queue is not counted).
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|c| c.trim_end().starts_with(prefix))
        })
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// CPU seconds the calling thread has run since it read `start_ns` from
/// [`crate::os::thread_cpu_ns`]. Set-up is timed this way: it counts the work
/// set-up does and not the time a shared host's neighbours take away.
pub fn cpu_seconds_since(start_ns: u64) -> f64 {
    crate::os::thread_cpu_ns().saturating_sub(start_ns) as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine settings a loopback run depends on, as `key=value` pairs.
pub fn environment() -> Vec<(&'static str, String)> {
    let read = |path: &str| {
        fs::read_to_string(path)
            .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|_| "unknown".to_owned())
    };
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or_else(|_| "unknown".to_owned(), |n| n.to_string()),
        ),
        (
            "ip_local_port_range",
            read("/proc/sys/net/ipv4/ip_local_port_range"),
        ),
        ("tcp_tw_reuse", read("/proc/sys/net/ipv4/tcp_tw_reuse")),
        ("somaxconn", read("/proc/sys/net/core/somaxconn")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_live() {
        let before = crate::os::thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(crate::os::thread_cpu_ns() > before);
        assert!(peak_rss_mb() > 0.0);
        assert_eq!(environment().len(), 4);
    }
}
