//! `compare <a.json> <b.json>`: do two result files agree?
//!
//! `a` is the base (the parent commit, or the first of two runs of one
//! commit); every relative delta is stated against it.  Per workload and
//! end-to-end metric the verdict is one of
//!
//! * `same` — within the metric's bound,
//! * `better` / `worse` — beyond the bound in that direction,
//! * `unresolved` — the run-to-run spread is wider than the bound and the
//!   two interquartile ranges overlap, so the data cannot tell.
//!
//! Exact metrics compare with `==` when both files used the same seed.
//! Exits non-zero on any `worse` or a higher failure share.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, EXACT_PER_LAYER, PER_LAYER};

/// Outcome of a comparison, for the exit code.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Verdicts {
    pub same: u32,
    pub better: u32,
    pub worse: u32,
    pub unresolved: u32,
    /// `b` failed a larger share of its ops than `a`.
    pub more_failures: bool,
}

impl Verdicts {
    pub fn regressed(&self) -> bool {
        self.worse > 0 || self.more_failures
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workloads(v: &Value) -> Result<&[Value], String> {
    v.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "not a result file: no \"workloads\" array".to_string())
}

fn num(metric: &Value, key: &str) -> Option<f64> {
    metric.get(key).and_then(Value::as_f64)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

fn verdict(worse: f64, bound: f64) -> &'static str {
    if worse > bound {
        "worse"
    } else if worse < -bound {
        "better"
    } else {
        "same"
    }
}

pub fn compare_files(path_a: &str, path_b: &str) -> Result<Verdicts, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut out = Verdicts::default();
    println!("base a = {path_a}\n     b = {path_b}");
    for wa in workloads(&a)? {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let mode = wa.get("mode").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)?.iter().find(|w| {
            w.get("name").and_then(Value::as_str) == Some(name)
                && w.get("mode").and_then(Value::as_str) == Some(mode)
        }) else {
            println!("{name} ({mode}): only in a — skipped");
            continue;
        };
        let seed = |w: &Value| w.get("seed").and_then(Value::as_u64);
        let same_seed = seed(wa) == seed(wb);
        println!(
            "{name} ({mode})  seed a={:?} b={:?}{}",
            seed(wa),
            seed(wb),
            if same_seed {
                ""
            } else {
                "  (seeds differ: exact metrics compared within their bound)"
            }
        );
        let (ma, mb) = (
            wa.get("metrics").ok_or("a: workload without metrics")?,
            wb.get("metrics").ok_or("b: workload without metrics")?,
        );
        if mode == "untraced" {
            for m in END_TO_END {
                let (Some(ea), Some(eb)) = (ma.get(m.name), mb.get(m.name)) else {
                    println!("  {:<14} missing in one file", m.name);
                    continue;
                };
                let (va, vb) = (
                    num(ea, "value").ok_or("metric without value")?,
                    num(eb, "value").ok_or("metric without value")?,
                );
                let worse = worse_by(va, vb, m.better);
                let v = if m.exact && same_seed {
                    if ea.get("value") == eb.get("value") {
                        "same"
                    } else {
                        verdict(worse, 0.0)
                    }
                } else {
                    // Spread and interquartile overlap, where the file
                    // recorded per-sample quartiles.
                    let iqr = |e: &Value| Some((num(e, "q1")?, num(e, "q3")?, num(e, "median")?));
                    let unresolved = match (iqr(ea), iqr(eb)) {
                        (Some((a1, a3, am)), Some((b1, b3, bm))) => {
                            let spread = ((a3 - a1) / am.abs()).max((b3 - b1) / bm.abs());
                            spread > m.bound && a1 <= b3 && b1 <= a3
                        }
                        _ => false,
                    };
                    if unresolved {
                        "unresolved"
                    } else {
                        verdict(worse, m.bound)
                    }
                };
                let quartiles = |e: &Value| match (num(e, "q1"), num(e, "q3")) {
                    (Some(q1), Some(q3)) => format!(" [{q1:.6} .. {q3:.6}]"),
                    _ => String::new(),
                };
                println!(
                    "  {:<14} a {:>16.6}{}  b {:>16.6}{}  {:+.4} of a ({} is better, bound {}{})  {}",
                    m.name,
                    va,
                    quartiles(ea),
                    vb,
                    quartiles(eb),
                    (vb - va) / if va == 0.0 { 1.0 } else { va.abs() },
                    m.better.as_str(),
                    m.bound,
                    if m.exact { ", exact" } else { "" },
                    v
                );
                match v {
                    "same" => out.same += 1,
                    "better" => out.better += 1,
                    "worse" => out.worse += 1,
                    _ => out.unresolved += 1,
                }
            }
        } else {
            // Traced files: exact layer metrics must repeat bit-for-bit
            // (same seed); the timed ones are listed with their delta only.
            for (lname, unit, _) in PER_LAYER {
                let (Some(va), Some(vb)) = (
                    ma.get(lname).and_then(|e| num(e, "value")),
                    mb.get(lname).and_then(|e| num(e, "value")),
                ) else {
                    continue;
                };
                let exact = EXACT_PER_LAYER.contains(&lname);
                let tag = if !exact {
                    "timed"
                } else if va == vb || !same_seed {
                    "exact"
                } else {
                    out.worse += 1;
                    "EXACT METRIC DIFFERS"
                };
                println!(
                    "  {lname:<36} a {va:>16.6}  b {vb:>16.6} {unit:<8} {:+.4} of a  {tag}",
                    (vb - va) / if va == 0.0 { 1.0 } else { va.abs() }
                );
            }
        }
        let share = |w: &Value| -> Option<(u64, u64)> {
            Some((
                w.get("ops_failed")?.as_u64()?,
                w.get("ops_total")?.as_u64()?.max(1),
            ))
        };
        if let (Some((fa, ta)), Some((fb, tb))) = (share(wa), share(wb)) {
            println!("  ops_failed/ops_total  a {fa}/{ta}  b {fb}/{tb}");
            // fb/tb > fa/ta, in integers.
            if (fb as u128) * (ta as u128) > (fa as u128) * (tb as u128) {
                out.more_failures = true;
                println!("  b fails a larger share of its ops");
            }
        }
    }
    println!(
        "verdicts: same {} better {} worse {} unresolved {}{}",
        out.same,
        out.better,
        out.worse,
        out.unresolved,
        if out.more_failures {
            "  MORE FAILURES"
        } else {
            ""
        }
    );
    Ok(out)
}
