//! What a workload hands back, the manifest (`BENCHMARK.json`) that names
//! every metric, and the printing and comparing built on the two.
//!
//! `BENCHMARK.json` is the only place a metric's unit, direction and bound
//! are written down; the harness reads them from there and refuses to
//! report a set of metrics that differs from the declared one.

use std::fmt::Write as _;

use crate::json::{self, Json};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Timed samples behind the value (1 for counts and derived ratios).
    pub samples: usize,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed, never parsed: sizes, the numbers that are measured but not
    /// gated, and the reason of every failed operation.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric { name, value, samples });
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Counts one failed operation and keeps the reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// `None` for per-layer metrics: they explain, they do not gate.
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    /// Reads `BENCHMARK.json` from the working directory, which the
    /// contract fixes to the root of the checkout.
    ///
    /// # Errors
    /// A message when the file is missing or not shaped as expected.
    pub fn load() -> Result<Manifest, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
        let doc = json::parse(&text)?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            let items = doc.get(key).map(Json::as_arr).unwrap_or_default();
            if items.is_empty() {
                return Err(format!("BENCHMARK.json: no `{key}` metrics"));
            }
            items
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: `{key}` entry lacks `{k}`"))
                    };
                    Ok(MetricDef {
                        name: field("name")?,
                        unit: field("unit")?,
                        lower_is_better: field("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Ok(Manifest { workloads, end_to_end: defs("end_to_end")?, per_layer: defs("per_layer")? })
    }

    pub fn defs(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The reported metric names must be exactly the declared ones.
    ///
    /// # Errors
    /// Names the metrics that are missing, extra or not a finite number.
    pub fn check(&self, traced: bool, outcome: &Outcome) -> Result<(), String> {
        let defs = self.defs(traced);
        let mut problems = Vec::new();
        for d in defs {
            match outcome.get(&d.name) {
                None => problems.push(format!("`{}` declared but not measured", d.name)),
                Some(v) if !v.is_finite() => problems.push(format!("`{}` is {v}", d.name)),
                Some(_) => {}
            }
        }
        for m in &outcome.metrics {
            if !defs.iter().any(|d| d.name == m.name) {
                problems.push(format!("`{}` measured but not declared", m.name));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

/// The human-readable block: notes, then every metric by name with unit,
/// direction, sample count and bound.
pub fn print(manifest: &Manifest, workload: &str, traced: bool, outcome: &Outcome) {
    println!("\n== {workload} ({}) ==", if traced { "traced: per-layer" } else { "end to end" });
    for n in &outcome.notes {
        println!("  {n}");
    }
    println!(
        "  {:<32} {:>16} {:<7} {:<7} {:>8} {:>6}",
        "metric", "value", "unit", "better", "samples", "bound"
    );
    for d in manifest.defs(traced) {
        let Some(m) = outcome.metrics.iter().find(|m| m.name == d.name) else { continue };
        println!(
            "  {:<32} {:>16.9} {:<7} {:<7} {:>8} {:>6}",
            d.name,
            m.value,
            d.unit,
            if d.lower_is_better { "lower" } else { "higher" },
            m.samples,
            d.bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    println!("  operations: attempted {} failed {}", outcome.attempted, outcome.failed);
}

/// The contract's result object, on one line.
pub fn result_json(manifest: &Manifest, traced: bool, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    let mut first = true;
    for d in manifest.defs(traced) {
        let Some(v) = outcome.get(&d.name) else { continue };
        let _ = write!(
            out,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if first { "" } else { ", " },
            json::escape(&d.name),
            json::num(v),
            json::escape(&d.unit)
        );
        first = false;
    }
    out.push_str("}}");
    out
}

/// `--compare A.json B.json`: B against A, every end-to-end metric of
/// every workload, by the manifest's bounds. Returns the number of
/// metrics that got worse by more than their bound.
///
/// # Errors
/// Unreadable or malformed result files.
pub fn compare(manifest: &Manifest, a_path: &str, b_path: &str) -> Result<usize, String> {
    let load = |p: &str| -> Result<Json, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let value =
        |doc: &Json, w: &str, m: &str| doc.get(w)?.get("metrics")?.get(m)?.get("value")?.as_f64();
    let mut worse = 0;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (w, _) in a.as_obj() {
        for d in &manifest.end_to_end {
            let verdict;
            let (va, vb) = (value(&a, w, &d.name), value(&b, w, &d.name));
            let change = match (va, vb) {
                (Some(va), Some(vb)) if va != 0.0 => {
                    // Positive = worse, whichever way the metric points.
                    let c = if d.lower_is_better { vb / va - 1.0 } else { 1.0 - vb / va };
                    verdict = if c > d.bound.unwrap_or(0.0) { "WORSE" } else { "ok" };
                    c
                }
                _ => {
                    verdict = "MISSING";
                    f64::NAN
                }
            };
            if verdict != "ok" {
                worse += 1;
            }
            println!(
                "{:<12} {:<16} {:>14.6} {:>14.6} {:>+7.2}% {:>5.0}%  {verdict}",
                w,
                d.name,
                va.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN),
                change * 100.0,
                d.bound.unwrap_or(0.0) * 100.0
            );
        }
    }
    Ok(worse)
}
