//! Order statistics and the result printer.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range over the median: the spread figure reported next
/// to ratios such as the observability tax.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `a / b`, or 0 when `b` is 0 (a ratio with an empty base).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (trials, calls or passes).
    pub samples: usize,
    /// Whether the metric goes into the last-line JSON (declared in
    /// `BENCHMARK.json`) or only into the printed table.
    pub in_json: bool,
}

pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new() -> Report {
        Report { metrics: Vec::new() }
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples, in_json: true });
    }

    /// Adds a metric that is printed in the table but not in the JSON.
    pub fn note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples, in_json: false });
    }

    /// Prints a human table, then the machine-readable last line.
    /// `absent` names metrics that have too few samples to report.
    pub fn print(&self, attempted: usize, failed: usize, correct: bool, absent: &[(&str, &str)]) {
        for m in &self.metrics {
            println!("{:<44} {:>18} {:<9} n={}", m.name, fmt(m.value), m.unit, m.samples);
        }
        for (name, why) in absent {
            println!("{name:<44} {:>18} {:<9} {why}", "absent", "");
        }
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().filter(|m| m.in_json).enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt(m.value),
                m.unit
            ));
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Shortest round-trip rendering of a finite value; non-finite values
/// (which no metric should produce) render as JSON `null`.
fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
