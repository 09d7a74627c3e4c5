//! Metric values, order statistics, the process high-water RSS, and the
//! JSON the benchmark prints.

use std::fmt::Write as _;

/// Which clock or counter a metric comes from. Modeled seconds (the α–β
/// clock) and measured seconds (wall clock, Native kernels) are kept in
/// separate record fields and never added together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock time or a rate derived from it.
    Measured,
    /// α–β model output: modeled seconds, modeled bytes and messages.
    Modeled,
    /// An exact count or ratio of counts.
    Count,
}

impl Kind {
    fn field(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modeled => "modeled",
            Kind::Count => "counts",
        }
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    pub value: f64,
}

/// Collects metrics in the order a workload produces them.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn measured(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name.into(), unit, Kind::Measured, value);
    }

    pub fn modeled(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name.into(), unit, Kind::Modeled, value);
    }

    pub fn count(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name.into(), unit, Kind::Count, value);
    }

    fn push(&mut self, name: String, unit: &'static str, kind: Kind, value: f64) {
        assert!(
            !self.0.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.0.push(Metric {
            name,
            unit,
            kind,
            value,
        });
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of a non-empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's high-water resident set (VmHWM) in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the host from `/proc/stat`:
/// the share of time a virtual machine's CPUs were taken by other guests,
/// which inflates every wall-clock figure measured meanwhile.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal (metric names and labels are plain ASCII).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// `{"name": {"value": v, "unit": u}, ...}` over `metrics`.
pub fn metrics_object<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .into_iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The record's metric groups: one object per [`Kind`], so modeled and
/// measured values never share a field.
pub fn grouped_metrics(metrics: &[Metric]) -> String {
    let groups: Vec<String> = [Kind::Measured, Kind::Modeled, Kind::Count]
        .iter()
        .map(|&k| {
            format!(
                "{}: {}",
                string(k.field()),
                metrics_object(metrics.iter().filter(|m| m.kind == k))
            )
        })
        .collect();
    groups.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 198.0);
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(2.0), "2.0");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
    }
}
