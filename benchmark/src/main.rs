//! `benchmark` — the repo's benchmark command.
//!
//! ```text
//! benchmark run [--workload <name>] [--seed <u64>] [--seconds <n>]
//!               [--trace 0|1] [--out-dir <dir>]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` without `--workload` runs all four workloads, each in a process of
//! its own (so `peak_rss_mib` is per workload).  The last line of standard
//! output is always one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.  Anything the parser does not know is an error: usage on
//! standard error, exit code 2.

use benchmark::compare::compare_files;
use benchmark::json::{self, obj, Value};
use benchmark::metrics::{DEFAULT_SECONDS, DEFAULT_SEED};
use benchmark::run::{run_workload, Options};
use benchmark::workloads;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage:
  benchmark run [--workload <name>] [--seed <u64>] [--seconds <1..=60>]
                [--trace 0|1] [--out-dir <dir>]
  benchmark compare <a.json> <b.json>

workloads: hot_loops, cold_code, indirect_dispatch, sys_events
           (no --workload: all four, one process each)
--trace 0  end-to-end metrics from untraced samples (default)
--trace 1  per-layer metrics, spans to <out-dir>/trace-<workload>.json
";

fn usage_error(why: &str) -> ExitCode {
    eprintln!("error: {why}\n\n{USAGE}");
    ExitCode::from(2)
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::NAMES.contains(&w) {
                    return Err(format!("unknown workload '{w}'"));
                }
                out.workload = Some(w.to_string());
            }
            "--seed" => {
                let v = value()?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds: '{v}' is not a whole number in 1..=60"))?;
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: '{v}' is neither 0 nor 1")),
                };
            }
            "--out-dir" => out.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(out)
}

fn result_path(dir: &Path, workload: Option<&str>, trace: bool) -> PathBuf {
    let mode = if trace { "-traced" } else { "" };
    match workload {
        Some(w) => dir.join(format!("result-{w}{mode}.json")),
        None => dir.join(format!("result{mode}.json")),
    }
}

fn write_result(path: &Path, workloads: Vec<Value>) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = obj(vec![
        ("schema", Value::U64(1)),
        ("workloads", Value::Arr(workloads)),
    ]);
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process.
fn run_one(args: &RunArgs, workload: &str) -> Result<bool, String> {
    let outcome = run_workload(&Options {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: args.out_dir.clone(),
    })?;
    let path = result_path(&args.out_dir, Some(workload), args.trace);
    write_result(&path, vec![outcome.result])?;
    println!("  result -> {}", path.display());
    println!("{}", outcome.line.to_line());
    Ok(outcome.correct)
}

/// All four workloads, each in a child process, then one merged result
/// file and one merged final line (metrics prefixed with the workload).
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut merged, mut metrics) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for w in workloads::NAMES {
        let status = Command::new(&exe)
            .arg("run")
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .status()
            .map_err(|e| format!("spawning {w}: {e}"))?;
        correct &= status.success();
        let path = result_path(&args.out_dir, Some(w), args.trace);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for r in doc.get("workloads").and_then(Value::as_arr).unwrap_or(&[]) {
            attempted += r.get("ops_total").and_then(Value::as_u64).unwrap_or(0);
            failed += r.get("ops_failed").and_then(Value::as_u64).unwrap_or(0);
            for (k, m) in r.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
                metrics.push((
                    format!("{w}.{k}"),
                    obj(vec![
                        ("value", m.get("value").cloned().unwrap_or(Value::Null)),
                        ("unit", m.get("unit").cloned().unwrap_or(Value::Null)),
                    ]),
                ));
            }
            merged.push(r.clone());
        }
    }
    let path = result_path(&args.out_dir, None, args.trace);
    write_result(&path, merged)?;
    println!("merged result -> {}", path.display());
    let line = obj(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.to_line());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let parsed = match parse_run(&args[1..]) {
                Ok(p) => p,
                Err(why) => return usage_error(&why),
            };
            let done = match &parsed.workload {
                Some(w) => run_one(&parsed, w),
                None => run_all(&parsed),
            };
            match done {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(why) => {
                    eprintln!("error: {why}");
                    ExitCode::from(1)
                }
            }
        }
        Some("compare") => match &args[1..] {
            [a, b] => match compare_files(a, b) {
                Ok(v) if v.regressed() => ExitCode::from(1),
                Ok(_) => ExitCode::SUCCESS,
                Err(why) => {
                    eprintln!("error: {why}");
                    ExitCode::from(2)
                }
            },
            _ => usage_error("compare takes exactly two result files"),
        },
        Some(other) => usage_error(&format!("unknown subcommand '{other}'")),
        None => usage_error("no subcommand"),
    }
}
