//! Samples, spans and the per-run report every workload fills in.

use crate::json::{escape, number};
use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p`-quantile of `values` by linear interpolation between the
/// closest ranks (0 for none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method) — the driver's own spread rule. Needs two values; fewer
/// give the single value (or 0) for both.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One traced interval: `{name, start_ns, end_ns, parent, pass}`.
/// Times are nanoseconds since the tracer was created; `parent` is an
/// index into the same span list.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The pass the span belongs to (spans of one pass share it).
    pub pass: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans in memory; they are written out when the run ends.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, pass: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            pass,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn span<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> T {
        self.span_timed(name, parent, f).0
    }

    /// [`Tracer::span`], also returning the span's seconds.
    pub fn span_timed<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let pass = self.spans[parent].pass;
        let id = self.open(name, Some(parent), pass);
        let out = f();
        (out, self.close(id))
    }

    /// Records a span measured elsewhere (an engine ledger row): it is
    /// laid at `start_ns` with the ledger's duration.
    pub fn record(&mut self, name: &str, parent: usize, start_ns: u64, seconds: f64) -> u64 {
        let end_ns = start_ns + (seconds * 1e9) as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(parent),
            pass: self.spans[parent].pass,
        });
        end_ns
    }

    /// Seconds the direct children of `parent` cover.
    pub fn children_seconds(&self, parent: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::seconds)
            .sum()
    }

    /// Total seconds of the spans named `name`.
    pub fn named_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }
}

/// A span list as a JSON array of `{name, start_ns, end_ns, parent, pass}`.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "  {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"pass\": {}}}",
                escape(&s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.pass
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// What one run of one workload found.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed; each has a line in `failures`.
    pub failed: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name; names not set read 0.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Spans of the traced pass (empty with `--trace 0`).
    pub spans: Vec<Span>,
}

impl Report {
    /// Counts one attempted operation; a `false` outcome is a failure
    /// described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts one attempted operation and unwraps its result; an `Err`
    /// is a failure.
    pub fn attempt<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.insert(name, value);
    }
}

/// The driver's result line: `{"correct", "attempted", "failed",
/// "metrics"}` with exactly the metrics of the chosen table.
pub fn result_line(report: &Report, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        crate::spec::PER_LAYER
            .iter()
            .map(|m| {
                let v = report.per_layer.get(m.name).copied().unwrap_or(0.0);
                metric_json(m.name, v, m.unit)
            })
            .collect()
    } else {
        crate::spec::END_TO_END
            .iter()
            .map(|m| {
                let v = report.end_to_end.get(m.name).copied().unwrap_or(0.0);
                metric_json(m.name, v, m.unit)
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        escape(name),
        number(value),
        escape(unit)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spans_nest_and_sum() {
        let mut t = Tracer::new();
        let root = t.open("root", None, 1);
        t.span("a", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let at = t.now_ns();
        t.record("b", root, at, 0.5);
        t.close(root);
        assert!(t.named_seconds("a") >= 0.002);
        assert!((t.children_seconds(root) - t.named_seconds("a") - 0.5).abs() < 1e-6);
        assert!(crate::json::parse(&spans_json(&t.spans)).is_ok());
    }
}
