//! Metric records, failure accounting and the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// drawn from letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters drawn from letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Operations attempted and failed over one run. A failure is an
/// unanswered sample, a refused or failed connect, an oracle divergence,
/// a cap violation or a shape violation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `attempted` attempts of which `failed` failed.
    pub fn record_many(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    pub fn merge(&mut self, other: Tally) {
        self.record_many(other.attempted, other.failed);
    }

    /// Failed share of attempts; an empty run counts as wholly failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The run is correct when something was attempted and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Renders the result line: `{"correct", "attempted", "failed", "metrics"}`.
///
/// # Errors
///
/// Names the first metric whose name, unit or value cannot be reported.
pub fn render(correct: bool, tally: Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest digits that round-trip, always with
        // a decimal point or exponent, which JSON accepts.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of `values` (reordered in place); 0 when empty.
pub fn quantile_u32(values: &mut [u32], q: f64) -> u32 {
    if values.is_empty() {
        return 0;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable(rank - 1).1
}

/// FNV-1a over `bytes`, continuing from `digest`.
pub fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "engine.ns_per_decision.interleaved",
            "repro.artifact_ms.fig10",
            "9lives",
            "a-b_c.d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/no",
            long.as_str(),
            "é",
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "ratio", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    /// `(name, unit)` of every entry in `section` of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let start = text
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find("\n  ]").expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_owned()
        };
        body.split("{\"name\"")
            .skip(1)
            .map(|e| {
                let e = format!("{{\"name\"{e}");
                (field(&e, "name"), field(&e, "unit"))
            })
            .collect()
    }

    #[test]
    fn the_program_reports_exactly_the_declared_metrics() {
        let e2e: Vec<(String, String)> = crate::END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
        assert_eq!(layers, crate::layers::per_layer_names());
        for (name, unit) in declared("end_to_end")
            .into_iter()
            .chain(declared("per_layer"))
        {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(&unit), "{unit}");
        }
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert!(!t.correct(), "nothing attempted is not a pass");
        assert_eq!(t.failed_frac(), 1.0);
        t.record(true);
        t.record(true);
        t.record(false);
        t.record_many(7, 0);
        assert_eq!((t.attempted, t.failed), (10, 1));
        assert!((t.failed_frac() - 0.1).abs() < 1e-12);
        assert!(!t.correct());
        // Failures can never exceed attempts.
        let mut u = Tally::default();
        u.record_many(2, 5);
        assert_eq!((u.attempted, u.failed), (2, 2));
        t.merge(u);
        assert_eq!((t.attempted, t.failed), (12, 3));
        let mut clean = Tally::default();
        clean.record_many(3, 0);
        assert!(clean.correct());
    }

    #[test]
    fn render_prints_the_contract_line() {
        let mut t = Tally::default();
        t.record_many(1000, 0);
        let line = render(
            true,
            t,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(render(true, t, &[Metric::new("x", f64::NAN, "s")]).is_err());
        assert!(render(true, t, &[Metric::new("bad name", 1.0, "s")]).is_err());
        let dup = [Metric::new("x", 1.0, "s"), Metric::new("x", 2.0, "s")];
        assert!(render(true, t, &dup).is_err());
    }

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile_u32(&mut v, 0.5), 50);
        assert_eq!(quantile_u32(&mut v, 0.99), 99);
        assert_eq!(quantile_u32(&mut v, 1.0), 100);
        assert_eq!(quantile_u32(&mut [], 0.5), 0);
    }
}
