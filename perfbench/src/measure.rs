//! Measurement primitives: exact percentiles over raw samples, process
//! CPU and memory from `/proc/self`, span timing for the traced replay,
//! and the metric record every workload reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One reported metric: a name, a value as measured and its unit, plus
/// the number of samples behind it when it summarizes a distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`, `share`.
    pub unit: &'static str,
    /// Samples behind a percentile or mean, when it has any.
    pub samples: Option<usize>,
    /// The quantile actually read for a percentile metric.
    pub quantile: Option<f64>,
}

impl Metric {
    /// A plain metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
            quantile: None,
        }
    }

    /// A metric summarizing `samples` values.
    pub fn over(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            samples: Some(samples),
            ..Metric::new(name, value, unit)
        }
    }
}

/// The quantile reported as a distribution's tail: the highest of
/// `0.99` and below that still has at least ten samples beyond it.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.99;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Linear-interpolated quantile `q` of `sorted` (ascending); 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The p50 and tail metrics of a latency series (milliseconds), named
/// `<prefix>_p50` and `<prefix>_p99`: exact order statistics over the
/// whole series. The tail reads [`tail_quantile`], so it never claims a
/// p99 the series cannot support; the quantile read is recorded on the
/// metric.
pub fn latency_metrics(prefix: &str, series_ms: &[f64]) -> [Metric; 2] {
    let mut sorted = series_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let q = tail_quantile(n);
    let mut mid = Metric::over(format!("{prefix}_p50"), quantile(&sorted, 0.5), "ms", n);
    mid.quantile = Some(0.5);
    let mut tail = Metric::over(format!("{prefix}_p99"), quantile(&sorted, q), "ms", n);
    tail.quantile = Some(q);
    [mid, tail]
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`.
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after `)`.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // USER_HZ is 100 on every Linux ABI.
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Accumulated wall time and work counts per named span, recorded by
/// the traced replay around calls into each layer.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    time: BTreeMap<&'static str, Duration>,
    count: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Time `f` under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        *self.time.entry(name).or_default() += t.elapsed();
        out
    }

    /// Add `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.count.entry(name).or_default() += n;
    }

    /// Total time under `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.time.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// The count `name`.
    pub fn get(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Render metrics as the result object's `metrics` member.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot carry, as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5000), 0.99);
        assert!((tail_quantile(500) - 0.98).abs() < 1e-12);
        assert_eq!(tail_quantile(5), 0.5);
    }

    #[test]
    fn latency_percentiles_cover_the_whole_series() {
        // A burst of slow samples in one stretch of the run stays in the
        // tail: 30 of 2000 samples are slow, so the p99 reads one.
        let mut series = vec![1.0; 1000];
        series.extend(vec![50.0; 30]);
        series.extend(vec![2.0; 970]);
        let [p50, p99] = latency_metrics("x", &series);
        assert_eq!(p50.value, 1.5);
        assert_eq!(p99.value, 50.0);
        assert_eq!(p99.samples, Some(2000));
        assert_eq!(p99.quantile, Some(0.99));
        let [_, short] = latency_metrics("x", &series[..500]);
        assert!((short.quantile.unwrap() - 0.98).abs() < 1e-12);
    }

    #[test]
    fn proc_readings_are_live() {
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu() > Duration::ZERO);
    }
}
