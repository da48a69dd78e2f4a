//! What a run prints: the host snapshot, every metric by name with its
//! unit, and the one-line result the driver reads. The JSON is written
//! by hand so the output never depends on a serialization crate.

use std::fmt::Write as _;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one pass plus the operation counts behind `failed`.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: simulated tasks offered, or requests sent.
    pub attempted: u64,
    /// Operations refused, errored, lost, or failing an output check.
    pub failed: u64,
    /// Human-readable reasons behind `failed`, printed to stderr.
    pub failures: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} pushed twice");
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records a failed output check; every one counts as a failed
    /// operation so a broken run can never print `failed: 0`.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, restricted to the names in `wanted`
    /// (a metric this workload does not exercise reads 0).
    pub fn result_line(&self, wanted: &[(&'static str, &'static str)]) -> String {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        line.push_str("}}");
        line
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity, so
/// those (always a harness bug) are written as -1 and flagged upstream.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

/// Escapes a string for a JSON document.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Mean of a sample; 0 for an empty one.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a sample (mean of the middle two for even sizes); 0 for an
/// empty one, which callers treat as "not measured".
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The steadier statistic for a rate taken over equal-work pieces of a
/// run on a shared host: the 90th percentile over the pieces. Neighbours
/// slow such a host in bursts that last seconds and never speed it up, so
/// the median over a run's pieces moves with how many bursts the run
/// caught; the fastest decile moves far less (README.md, "Spread").
pub fn quiet_rate(piece_rates: &[f64]) -> f64 {
    percentile(piece_rates, 0.90)
}

/// Linear-interpolated percentile, `q` in `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
