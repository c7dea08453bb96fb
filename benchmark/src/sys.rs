//! What the benchmark reads from the operating system (Linux `/proc`).

/// Kernel clock ticks per second that `/proc/self/stat` counts CPU time in.
/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux this runs on, and std has no
/// portable way to ask.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used so far;
/// 0 where `/proc` is missing.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields are counted after
    // its closing parenthesis: state is field 0, utime 11, stime 12.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC
}

/// Peak resident set size of this process so far (`VmHWM`), in MB; 0 where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
