//! The host fingerprint printed with every result, so that a loaded or
//! different host shows next to the numbers it produced.

use std::hint::black_box;
use std::time::Instant;

/// The 1-minute load average from `/proc/loadavg`, if readable.
pub fn load_avg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds taken by a fixed single-threaded integer loop: the same
/// number on the same idle host, larger when the host is slower or busy.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..50_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The commit of the checkout, when it is a git work tree of its own.
pub fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// `rustc -V` of the compiler that built this binary.
pub const RUSTC: &str = env!("KMBENCH_RUSTC");

/// Host-wide CPU ticks from `/proc/stat`: `(steal, total)`. Steal is time
/// a virtual CPU was runnable but the hypervisor ran something else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}
