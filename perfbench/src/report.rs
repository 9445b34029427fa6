//! The result line and small statistics helpers.

use crate::checks::Failure;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn new(attempted: u64, failed: u64, failures: &[Failure], metrics: Vec<Metric>) -> Self {
        for f in failures {
            println!("CHECK FAILED {}: {}", f.check, f.detail);
        }
        RunResult {
            correct: failures.is_empty(),
            attempted: attempted.max(1),
            failed,
            metrics,
        }
    }

    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One aligned line per metric, for people.
    pub fn print_table(&self, title: &str) {
        println!("{title}");
        for m in &self.metrics {
            println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Steal time of the whole machine so far, in ticks of 10 ms: CPU time
/// the hypervisor gave to other guests while this one had work to run
/// (the `steal` column of `/proc/stat`). 0 where that is not readable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse().ok())
        })
        .unwrap_or(0)
}

/// The values of the samples during which the host took the least CPU
/// time from this machine: every sample with no steal time or, when
/// fewer than a quarter had none, the quarter with the least. Each
/// sample is a value and the steal ticks over its span.
pub fn least_stolen(samples: &[(f64, u64)]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by_key(|&(_, steal)| steal);
    let clean = sorted.iter().filter(|&&(_, steal)| steal == 0).count();
    let keep = clean.max(samples.len().div_ceil(4));
    sorted[..keep].iter().map(|&(value, _)| value).collect()
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Where the run writes its trace and snapshot files.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("perfbench").join("out");
    std::fs::create_dir_all(&dir).expect("output directory creates");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn least_stolen_keeps_clean_samples_or_the_least_stolen_quarter() {
        let clean = [(1.0, 0), (2.0, 3), (3.0, 0), (4.0, 1), (5.0, 0)];
        assert_eq!(least_stolen(&clean), vec![1.0, 3.0, 5.0]);
        let busy: Vec<(f64, u64)> = (1..=8).map(|i| (i as f64, 9 - i as u64)).collect();
        assert_eq!(least_stolen(&busy), vec![8.0, 7.0]);
        assert!(least_stolen(&[]).is_empty());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let r = RunResult::new(10, 0, &[], vec![metric("x_ms", 1.5, "ms")]);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
