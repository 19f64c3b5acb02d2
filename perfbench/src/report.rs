//! Metric records, order statistics, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list; names are unique by construction of the callers.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }
}

/// What one benchmark run reports.
pub struct Outcome {
    /// Attempts: (program, lane) tasks for the batch workload, requests for
    /// the served stream.
    pub attempted: u64,
    /// Attempts that failed (see `README.md` for what counts).
    pub failed: u64,
    /// Human-readable reasons behind `failed` and any determinism drift.
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The machine-readable result: one JSON object on one line.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between closest
/// ranks; `0` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or `0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a over `text`, as 16 hex digits.
pub fn fnv_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// MiB, from the kernel's high-water mark.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Deterministic records of one run of a workload's work, by (input, lane).
pub type Records = BTreeMap<(usize, usize), String>;

/// Compares runs of the same work: prints the digest of the first, and
/// every (input, lane) whose record differs in a later run.  Returns the
/// number of drifting records.
pub fn report_drift(label: &str, runs: &[Records], name: impl Fn(usize) -> String) -> usize {
    let Some(first) = runs.first() else {
        return 0;
    };
    println!("determinism digest ({label}): {}", fnv_hex(&format!("{first:?}")));
    let drifting: Vec<&(usize, usize)> = first
        .iter()
        .filter(|(k, v)| runs.iter().any(|r| r.get(k) != Some(v)))
        .map(|(k, _)| k)
        .collect();
    for (input, lane) in &drifting {
        println!("determinism drift ({label}): {} {}", name(*input), crate::batch::LANES[*lane]);
    }
    drifting.len()
}
