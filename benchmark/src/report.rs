//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

/// Named, unit-tagged metric values in insertion order.
#[derive(Default, Debug)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Record `name = value unit`, replacing an earlier value of `name`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(e) => *e = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|e| e.1)
    }

    /// Names whose value is NaN or infinite (a measurement bug).
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.entries
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| *n)
            .collect()
    }
}

/// Quote `s` as a JSON string.
pub fn json_string(s: &str) -> String {
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

/// `value` as a JSON number, or `null` when it is NaN or infinite.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// The final line of a run. Non-finite values are written as `null` (the
/// run is then marked incorrect by the caller).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .entries
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set("setup_s", 0.5, "s");
        m.set("latency_ms", 1.5, "ms");
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(m.get("setup_s"), Some(0.5));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn non_finite_values_are_flagged() {
        let mut m = Metrics::default();
        m.set("x", f64::NAN, "s");
        assert_eq!(m.non_finite(), vec!["x"]);
        assert!(result_line(false, 1, 1, &m).contains("null"));
    }
}
