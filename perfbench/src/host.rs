//! The host a result was measured on, and process counters from
//! `/proc/self`.

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of the full line, utime 14, stime 15.
    let tick = |i: usize| f.get(i - 3).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(14) + tick(15)) / TICKS_PER_S
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The source commit, when the benchmark runs inside a git work tree.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_counters_read() {
        assert!(super::peak_rss_mib() > 0.0);
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(super::cpu_seconds() > 0.0);
    }
}
