//! Small statistics and output helpers: order statistics, the process
//! high-water mark, and the JSON result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile by linear interpolation between closest ranks
/// (Python's `statistics.quantiles(method="inclusive")`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
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

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Resets this process's `VmHWM` to its current resident set size
/// (`5` written to `/proc/self/clear_refs`).
pub fn reset_vm_hwm() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set size: {e}"))
}

/// Minor page faults this process has taken so far (`minflt` of
/// `/proc/self/stat`).
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; `minflt` is field 10.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A finite number in JSON form, with every digit Rust's shortest
/// round-trip formatting keeps.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line the benchmark prints last.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// FNV-1a, for folding per-op simulation counts into one digest.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    if hash == 0 {
        hash = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&(1..=10).map(f64::from).collect::<Vec<_>>(), 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[metric("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn process_counters_are_read() {
        assert!(vm_hwm_bytes() > 0);
        let peak = std::hint::black_box(vec![1u8; 1 << 25]);
        drop(peak);
        let high = vm_hwm_bytes();
        reset_vm_hwm().expect("clear_refs is writable");
        assert!(vm_hwm_bytes() < high, "the reset kept the 32 MB peak");
        let before = minor_faults();
        let touched = std::hint::black_box(vec![1u8; 1 << 22]);
        assert!(
            minor_faults() > before,
            "touching {} bytes faulted no page",
            touched.len()
        );
    }
}
