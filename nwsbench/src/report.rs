//! The result line: named metrics with units, plus the correctness
//! verdict and operation counts, printed as one JSON object.

/// Metrics in the order they were recorded.
#[derive(Default, Debug, Clone)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records (or overwrites) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(row) => {
                row.1 = value;
                row.2 = unit;
            }
            None => self.rows.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.rows.iter()
    }
}

/// Everything one workload run reports.
#[derive(Default, Debug)]
pub struct Outcome {
    /// End-to-end metrics (measured with tracing off in the untraced
    /// pass; with tracing on in the traced pass, for the overhead).
    pub e2e: Metrics,
    /// Per-layer metrics (traced pass only).
    pub layers: Metrics,
    /// Operations attempted and failed (requests, ticks, slots, checks).
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons the run is not correct; empty when it is.
    pub errors: Vec<String>,
    /// Set when the run cannot be reported at all (the generator could
    /// not keep its schedule).
    pub invalid: Option<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}
