//! Strict command line and the `compare` verdicts, driven through the real
//! binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn anything_unknown_is_a_usage_error_with_exit_code_2() {
    for args in [
        &[][..],
        &["figures"],
        &["run", "--workload", "hot-loops"],
        &["run", "--bogus"],
        &["run", "--seed"],
        &["run", "--seed", "minus-one"],
        &["run", "--seconds", "0"],
        &["run", "--seconds", "61"],
        &["run", "--trace", "2"],
        &["run", "extra"],
        &["compare", "only-one.json"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// A minimal untraced result file with one workload.
fn result_file(name: &str, mips: (f64, f64, f64), cycles: u64, failed: u64) -> PathBuf {
    let (q1, median, q3) = mips;
    let text = format!(
        r#"{{"schema":1,"workloads":[{{"name":"hot_loops","seed":1,"mode":"untraced",
        "ops_total":60,"ops_failed":{failed},"metrics":{{
        "guest_mips":{{"value":{median},"unit":"Minsn/s","median":{median},"q1":{q1},"q3":{q3}}},
        "setup_s":{{"value":0.004,"unit":"s","median":0.004,"q1":0.0039,"q3":0.0041}},
        "sim_cycles":{{"value":{cycles},"unit":"cycles"}},
        "sim_speedup":{{"value":8.0,"unit":"ratio"}},
        "peak_rss_mib":{{"value":40.0,"unit":"MiB"}}}}}}]}}"#
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("temp result file");
    path
}

fn compare(a: &Path, b: &Path) -> (Option<i32>, String) {
    let out = bench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn compare_reports_same_better_worse_and_unresolved() {
    let base = result_file("base.json", (39.5, 40.0, 40.5), 291_880_820, 0);

    let (code, text) = compare(&base, &base);
    assert_eq!(code, Some(0), "{text}");
    assert!(
        text.contains("same 5 better 0 worse 0 unresolved 0"),
        "{text}"
    );

    // 30 % slower with tight quartiles: beyond the 25 % bound.
    let slow = result_file("slow.json", (27.8, 28.0, 28.2), 291_880_820, 0);
    let (code, text) = compare(&base, &slow);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("worse 1"), "{text}");

    // Much faster: better, and not a failure.
    let (code, text) = compare(&slow, &base);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("better 1"), "{text}");

    // Medians apart, but quartiles wider than the bound and overlapping:
    // the data cannot tell.
    let noisy = result_file("noisy.json", (24.0, 34.0, 44.0), 291_880_820, 0);
    let (code, text) = compare(&base, &noisy);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("unresolved 1"), "{text}");

    // An exact metric compares with `==`: one cycle more is worse.
    let drift = result_file("drift.json", (39.5, 40.0, 40.5), 291_880_821, 0);
    let (code, text) = compare(&base, &drift);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("worse 1"), "{text}");

    // A higher failure share fails the comparison even with equal metrics.
    let failing = result_file("failing.json", (39.5, 40.0, 40.5), 291_880_820, 1);
    let (code, text) = compare(&base, &failing);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("MORE FAILURES"), "{text}");
}

#[test]
fn compare_refuses_files_that_are_not_results() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("not-a-result.json");
    std::fs::write(&path, "{\"hello\": 1}").unwrap();
    let out = bench(&["compare", path.to_str().unwrap(), path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}
