//! Where and on what a result was measured.

use crate::json::{obj, Value};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// 1-minute load average, or -1 when `/proc/loadavg` is unreadable.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Commit, compiler, core count and load at the start of a run.  The CI
/// checkout is not a git repository; the commit then reads "unknown".
pub fn capture() -> Value {
    obj(vec![
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        (
            "rustc",
            command_line("rustc", &["-V"])
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("load_avg_start", load_average().into()),
    ])
}
