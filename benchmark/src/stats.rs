//! Order statistics over rep timings, and the process's peak resident set.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of an ascending slice: the
/// smallest sample with at least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The timing a run reports for a set of repetitions: the fastest one.
/// Interference on a shared host is one-sided and comes in stretches -- a
/// co-tenant slows every rep by 1.3-1.6x for 15-60 s at a time -- so the
/// median, and any quantile, of a run sits on whichever level most of the
/// run happened to see. The minimum stays on the uncontended cost as long as
/// one rep ran uncontended, which spreading the reps over the whole run
/// makes likely. The work of a rep is fixed, so nothing makes a rep faster
/// than the program allows, and a slower program shifts every rep and so
/// shifts the minimum as much as it would the median.
pub fn min(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "minimum of no samples");
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method), so a spread printed here is the one the
/// acceptance protocol computes. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median; 0 for fewer than two
/// samples or a zero median.
pub fn iqr_frac(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / m.abs()
}

/// `VmHWM` (peak resident set, kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// Peak resident set of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[5.0], 0.99), 5.0);
        // 12 000 samples leave 120 beyond p99.
        let big: Vec<f64> = (0..12_000).map(f64::from).collect();
        let p99 = percentile_sorted(&big, 0.99);
        assert_eq!(big.iter().filter(|&&x| x > p99).count(), 120);
    }

    #[test]
    fn min_ignores_slow_stretches() {
        // 3 quiet reps at ~1.0, 9 contended ones at ~1.45: the median sits
        // on the contended level, the minimum on the quiet one.
        let reps = [
            1.45, 1.01, 1.45, 1.46, 1.44, 1.47, 1.02, 1.45, 1.46, 1.0, 1.44, 1.45,
        ];
        assert!(median(&reps) > 1.4);
        assert_eq!(min(&reps), 1.0);
        assert_eq!(min(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([2, 9], n=4) == [0.25, 5.5, 10.75]
        let (q1, q3) = quartiles(&[9.0, 2.0]);
        assert!((q1 - 0.25).abs() < 1e-12 && (q3 - 10.75).abs() < 1e-12);
        assert_eq!(iqr_frac(&[4.0]), 0.0);
        assert_eq!(iqr_frac(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn vm_hwm_parses_and_rejects() {
        let status = "Name:\tdnnd-bench\nVmPeak:\t  999 kB\nVmHWM:\t   52340 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(52_340));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t many kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().expect("linux procfs") > 0.0);
    }
}
