//! Output checks, run after the timed phases. Each returns `Some`
//! failure naming itself; the run counts failures toward `ok_frac` and
//! exits non-zero when any fires.

use autokernel_core::IngressReport;
use autokernel_gemm::{model, reference, GemmShape, KernelConfig};
use autokernel_sycl_sim::{validate_launch, DeviceSpec};

/// A failed output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    pub check: &'static str,
    pub detail: String,
}

fn fail(check: &'static str, detail: String) -> Option<Failure> {
    Some(Failure { check, detail })
}

/// `submitted == served + shed`, and so zero silent drops.
pub fn accounting(report: &IngressReport) -> Option<Failure> {
    if report.accounted() {
        return None;
    }
    fail(
        "accounting",
        format!(
            "submitted {} != served {} + shed {}",
            report.submitted,
            report.served,
            report.shed_total()
        ),
    )
}

/// A bounded decision cache never holds more than its capacity.
pub fn footprint(shard: &str, footprint: usize, capacity: Option<usize>) -> Option<Failure> {
    match capacity {
        Some(cap) if footprint > cap => fail(
            "cache_footprint",
            format!("{shard}: {footprint} entries > capacity {cap}"),
        ),
        _ => None,
    }
}

/// The configuration a shard returns for `shape` launches on its device.
pub fn launchable(device: &DeviceSpec, shape: &GemmShape, config: usize) -> Option<Failure> {
    let detail = || format!("config {config} for {shape} on {}", device.name);
    let Some(cfg) = KernelConfig::from_index(config) else {
        return fail("validate_launch", format!("{}: not a config", detail()));
    };
    let range = match model::launch_range(&cfg, shape) {
        Ok(range) => range,
        Err(e) => return fail("validate_launch", format!("{}: {e}", detail())),
    };
    let profile = model::profile(&cfg, shape, device);
    match validate_launch(device, &profile, &range) {
        Ok(()) => None,
        Err(e) => fail("validate_launch", format!("{}: {e}", detail())),
    }
}

/// A shard's post-run pick equals the offline classifier's.
pub fn same_pick(shard: &str, shape: &GemmShape, served: usize, offline: usize) -> Option<Failure> {
    if served == offline {
        return None;
    }
    fail(
        "pick_matches_pipeline",
        format!("{shard}: {shape} served config {served}, pipeline selects {offline}"),
    )
}

/// The reference `A · B`.
pub fn reference(shape: GemmShape, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut expect = vec![0.0f32; shape.m * shape.n];
    reference::reference_gemm(shape, a, b, &mut expect);
    expect
}

/// Largest absolute difference; a non-finite element counts as an
/// infinite error.
pub fn max_error(expect: &[f32], c: &[f32]) -> f32 {
    c.iter()
        .zip(expect)
        .map(|(x, y)| {
            let d = (x - y).abs();
            if d.is_finite() {
                d
            } else {
                f32::INFINITY
            }
        })
        .fold(0.0, f32::max)
}

/// Tolerance for a `k`-deep f32 dot product of values in [-1, 1].
pub fn gemm_tolerance(shape: &GemmShape) -> f32 {
    1e-5 * shape.k as f32
}

/// The served output `c` matches the reference output within tolerance.
pub fn gemm_output(shape: GemmShape, expect: &[f32], c: &[f32]) -> Option<Failure> {
    let err = max_error(expect, c);
    if err <= gemm_tolerance(&shape) {
        return None;
    }
    fail(
        "gemm_output",
        format!("{shape}: max abs error {err:e} over tolerance"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokernel_gemm::reference::test_matrices;

    fn report(submitted: u64, served: u64, shed_queue_full: u64) -> IngressReport {
        IngressReport {
            submitted,
            enqueued: served,
            served,
            shed_tenant_quota: 0,
            shed_queue_full,
            shed_deadline: 0,
            shed_shutdown: 0,
            snapshots_written: 0,
            snapshot_errors: 0,
            classes: Vec::new(),
            waves: 0,
            fleet_degraded: false,
        }
    }

    #[test]
    fn accounting_fires_on_a_silent_drop() {
        assert_eq!(accounting(&report(10, 7, 3)), None);
        let f = accounting(&report(10, 7, 2)).expect("one request vanished");
        assert_eq!(f.check, "accounting");
    }

    #[test]
    fn footprint_fires_over_capacity() {
        assert_eq!(footprint("s", 512, Some(512)), None);
        assert_eq!(footprint("s", 9999, None), None);
        assert_eq!(
            footprint("s", 513, Some(512)).map(|f| f.check),
            Some("cache_footprint")
        );
    }

    #[test]
    fn launchable_fires_on_a_config_the_device_rejects() {
        let device = DeviceSpec::embedded_accelerator();
        let shape = GemmShape::new(512, 512, 512);
        let verdicts: Vec<Option<Failure>> = (0..KernelConfig::count())
            .map(|c| launchable(&device, &shape, c))
            .collect();
        assert!(verdicts.iter().any(Option::is_none), "some config launches");
        let rejected = verdicts
            .iter()
            .flatten()
            .next()
            .expect("some config is rejected");
        assert_eq!(rejected.check, "validate_launch");
        assert!(launchable(&device, &shape, KernelConfig::count()).is_some());
    }

    #[test]
    fn same_pick_fires_on_a_different_config() {
        let shape = GemmShape::new(8, 8, 8);
        assert_eq!(same_pick("s", &shape, 3, 3), None);
        assert_eq!(
            same_pick("s", &shape, 3, 4).map(|f| f.check),
            Some("pick_matches_pipeline")
        );
    }

    #[test]
    fn gemm_output_fires_on_a_wrong_or_unwritten_result() {
        let shape = GemmShape::new(24, 40, 16);
        let (a, b) = test_matrices(shape, 5);
        let expect = reference(shape, &a, &b);
        let c = expect.clone();
        assert_eq!(gemm_output(shape, &expect, &c), None);
        let mut wrong = c.clone();
        wrong[17] += 0.5;
        assert_eq!(
            gemm_output(shape, &expect, &wrong).map(|f| f.check),
            Some("gemm_output")
        );
        let unwritten = vec![f32::NAN; c.len()];
        assert!(gemm_output(shape, &expect, &unwritten).is_some());
    }
}
