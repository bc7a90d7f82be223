//! Sample statistics, failure accounting and the metric table.
//!
//! Everything here is pure and small so the rules the benchmark
//! reports by can be unit-tested on their own:
//!
//! * a percentile is reported only when at least ten samples lie
//!   beyond it ([`tail_percentile`]);
//! * a session is attempted once and either succeeds or fails, and
//!   every failure has exactly one kind ([`Tally`]);
//! * metric names use only `[A-Za-z0-9_.-]` ([`valid_metric_name`]).

use pisa_obs::json::Value;

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, or `None`
/// unless at least [`TAIL_SAMPLES`] samples rank above it. A p90 thus
/// needs at least 100 samples.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    // Nearest rank, 1-based: the smallest rank whose share reaches p.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Why one attempted session did not count as correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// No reply before the (generous) deadline.
    Expired,
    /// A reply arrived, but its decision differs from the reference.
    Wrong,
    /// The reply did not belong to the session (foreign SU, digest or
    /// message kind).
    Rejected,
    /// The session ended without a decision.
    Undecided,
}

/// Attempted and failed sessions of one run, by failure kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Sessions started.
    pub attempted: u64,
    /// Deadline expiries.
    pub expired: u64,
    /// Wrong decisions.
    pub wrong: u64,
    /// Replies that did not belong to the session.
    pub rejected: u64,
    /// Sessions that ended undecided.
    pub undecided: u64,
}

impl Tally {
    /// Records one attempted session and how it ended.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {}
            Err(Failure::Expired) => self.expired += 1,
            Err(Failure::Wrong) => self.wrong += 1,
            Err(Failure::Rejected) => self.rejected += 1,
            Err(Failure::Undecided) => self.undecided += 1,
        }
    }

    /// Sessions that failed, of any kind.
    pub fn failed(&self) -> u64 {
        self.expired + self.wrong + self.rejected + self.undecided
    }

    /// Sessions that reached the reference decision.
    pub fn correct(&self) -> u64 {
        self.attempted - self.failed()
    }

    /// Adds another run's counts (one tally per client thread).
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.expired += other.expired;
        self.wrong += other.wrong;
        self.rejected += other.rejected;
        self.undecided += other.undecided;
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Metric `(name, unit)` pairs, in report order.
pub type Catalogue = Vec<(String, String)>;

/// The `(name, unit)` pairs of the metric list `key` (`end_to_end` or
/// `per_layer`) of a parsed `BENCHMARK.json`, checked: every name legal
/// and used once, every unit legal.
pub fn catalogue(doc: &Value, key: &str) -> Result<Catalogue, String> {
    let items = doc
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no list {key}"))?;
    let mut out: Vec<(String, String)> = Vec::with_capacity(items.len());
    for item in items {
        let field = |f: &str| {
            item.get(f)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("a {key} entry has no {f}"))
        };
        let (name, unit) = (field("name")?, field("unit")?);
        if !valid_metric_name(&name) || !valid_unit(&unit) {
            return Err(format!("illegal metric {name:?} in {unit:?}"));
        }
        if out.iter().any(|(n, _)| *n == name) {
            return Err(format!("metric {name} is listed twice"));
        }
        out.push((name, unit));
    }
    Ok(out)
}

/// A fixed catalogue of named metrics with units, and their values.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, String)>,
}

impl Metrics {
    /// Every metric of `catalogue` (`(name, unit)` pairs, as
    /// [`catalogue`] returns them), at 0 until [`put`](Self::put): a
    /// layer a workload bypasses reads 0.
    pub fn zeroed(catalogue: Catalogue) -> Self {
        Metrics {
            entries: catalogue.into_iter().map(|(n, u)| (n, 0.0, u)).collect(),
        }
    }

    /// Sets `name`; a non-finite value reads 0.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue (a bug in the caller).
    pub fn put(&mut self, name: &str, value: f64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        entry.1 = if value.is_finite() { value } else { 0.0 };
    }

    /// Names whose value is still 0.
    pub fn zeros(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, v, _)| *v == 0.0)
            .map(|(n, _, _)| n.as_str())
            .collect()
    }

    /// One `name value unit` line per metric, for people.
    pub fn render(&self) -> String {
        self.entries
            .iter()
            .map(|(n, v, u)| format!("{n:<40} {v:>16.6} {u}\n"))
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_value(&self) -> Value {
        Value::object(
            self.entries
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.as_str(),
                        Value::object(vec![
                            ("value", Value::from_f64(*v)),
                            ("unit", Value::Str(u.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples above it.
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        // The median needs only twenty samples.
        assert_eq!(tail_percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&hundred[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut shuffled = hundred.clone();
        shuffled.reverse();
        assert_eq!(tail_percentile(&shuffled, 0.9), Some(90.0));
        // Every reported percentile keeps the promise.
        for n in 0..300 {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            for p in [0.5, 0.9, 0.99] {
                if let Some(v) = tail_percentile(&xs, p) {
                    assert!(xs.iter().filter(|&&x| x > v).count() >= TAIL_SAMPLES);
                }
            }
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tally_counts_attempted_and_failed() {
        let mut a = Tally::default();
        a.record(Ok(()));
        a.record(Ok(()));
        a.record(Err(Failure::Expired));
        a.record(Err(Failure::Wrong));
        assert_eq!((a.attempted, a.failed(), a.correct()), (4, 2, 2));

        let mut b = Tally::default();
        b.record(Err(Failure::Rejected));
        b.record(Err(Failure::Undecided));
        b.record(Ok(()));
        a.merge(&b);
        assert_eq!((a.attempted, a.failed(), a.correct()), (7, 4, 3));
        assert_eq!(
            (a.expired, a.wrong, a.rejected, a.undecided),
            (1, 1, 1, 1),
            "each failure is counted once, under its own kind"
        );
        assert_eq!(Tally::default().failed(), 0);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "net.read_ms",
            "sdc.sign_test.residual_ms",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "a b",
            "a/b",
            "p50%",
            "naïve",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_reads_checked_names_and_units() {
        let doc = |items: &str| Value::parse(&format!(r#"{{"end_to_end": [{items}]}}"#)).unwrap();
        let good = doc(r#"{"name": "setup_s", "unit": "s"}, {"name": "rate", "unit": "1/s"}"#);
        assert_eq!(
            catalogue(&good, "end_to_end").unwrap(),
            vec![
                ("setup_s".into(), "s".into()),
                ("rate".into(), "1/s".into())
            ]
        );
        assert!(catalogue(&good, "per_layer").is_err());
        for bad in [
            r#"{"name": "a", "unit": "s"}, {"name": "a", "unit": "ms"}"#,
            r#"{"name": "a b", "unit": "s"}"#,
            r#"{"name": "a", "unit": "m s"}"#,
            r#"{"name": "a", "unit": "seventeen_letters"}"#,
            r#"{"name": "a"}"#,
        ] {
            assert!(catalogue(&doc(bad), "end_to_end").is_err(), "{bad}");
        }
    }

    #[test]
    fn metrics_keep_catalogue_order_and_units() {
        let cat = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        let mut m = Metrics::zeroed(cat(&[("b", "s"), ("a", "ms"), ("c", "count")]));
        m.put("a", 2.5);
        m.put("b", 1.0);
        m.put("b", 3.0);
        m.put("c", f64::NAN);
        assert_eq!(m.zeros(), vec!["c"]);
        assert_eq!(
            m.to_value().to_json(),
            r#"{"b":{"value":3,"unit":"s"},"a":{"value":2.5,"unit":"ms"},"c":{"value":0,"unit":"count"}}"#
        );
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn metrics_refuse_unknown_names() {
        Metrics::zeroed(vec![("a".into(), "s".into())]).put("b", 1.0);
    }
}
