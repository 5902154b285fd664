//! Sample statistics and process measurements.

use std::time::{Duration, Instant};

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times a closure, returning its result and elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 for
/// no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The percentile of an operation's repeats that the latency metrics
/// report. The cores this runs on change speed by up to 1.7x as other
/// tenants load the host, for seconds and sometimes for a whole run; a
/// median or a mean over a run's repeats moves with the share of the
/// run the host was slow, while a low percentile reports the
/// operation's cost when the host is fast, as long as one repeat in
/// twenty saw that.
pub const FAST: f64 = 5.0;

/// The `FAST` percentile of unsorted samples; 0 for no samples.
pub fn fast(samples: &[f64]) -> f64 {
    percentile(samples, FAST)
}

/// Mean of the slowest quarter (at least one) of the samples; 0 for no
/// samples.
pub fn top_quarter_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| b.total_cmp(a));
    let top = &s[..s.len().div_ceil(4)];
    top.iter().sum::<f64>() / top.len() as f64
}

/// Per script point, the [`fast`] percentile of the samples taken at it.
/// A workload whose script repeats (a rotation of inputs, a session of
/// batches) samples each point several times; `samples` are
/// `(point, value)`, and points with no sample are left out.
pub fn point_fast(samples: &[(usize, f64)], points: usize) -> Vec<f64> {
    let mut by_point = vec![Vec::new(); points];
    for &(k, v) in samples {
        by_point[k].push(v);
    }
    by_point
        .iter()
        .filter(|xs| !xs.is_empty())
        .map(|xs| fast(xs))
        .collect()
}

/// Ops per second of one pass through a repeating script of `points`
/// positions in which every op takes the [`fast`] interval of its
/// position. `begin_s` are `(position, start)` of every op in the order
/// they ran, on one clock; an op's interval runs from its start to the
/// next op's, or to `end_s` for the last.
pub fn script_rate(begin_s: &[(usize, f64)], end_s: f64, points: usize) -> f64 {
    let intervals: Vec<(usize, f64)> = begin_s
        .iter()
        .enumerate()
        .map(|(i, &(k, begin))| {
            let next = begin_s.get(i + 1).map_or(end_s, |b| b.1);
            (k, next - begin)
        })
        .collect();
    points as f64 / point_fast(&intervals, points).iter().sum::<f64>()
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn point_summaries() {
        let mut xs: Vec<(usize, f64)> = (1..=20).map(|i| (0, f64::from(i))).collect();
        xs.extend([(1, 4.0), (1, 6.0)]);
        assert_eq!(point_fast(&xs, 3), vec![1.0, 4.0]);
        assert_eq!(mean(&[1.0, 4.0]), 2.5);
        // Two positions taking 0.1 s and 0.4 s at best: 2 ops in 0.5 s.
        let begins = [(0, 0.0), (1, 0.2), (0, 0.6), (1, 0.7)];
        assert!((script_rate(&begins, 1.1, 2) - 4.0).abs() < 1e-9);
        assert_eq!(
            top_quarter_mean(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
            7.5
        );
        assert_eq!(top_quarter_mean(&[2.0, 1.0]), 2.0);
    }
}
