//! Building the serving stack: dataset, pipeline, fleet, ingress. The
//! settings match the repository's `micro_ingress` bench; the scheduler's
//! execution mode is whatever `SchedConfig::default()` selects.

use crate::report::steal_ticks;
use crate::workload::Workload;
use autokernel_core::resilient::ResilientPolicy;
use autokernel_core::{
    BoundedCacheConfig, DeviceShard, Ingress, IngressConfig, OnlineConfig, PerformanceDataset,
    PipelineConfig, RoutingPolicy, SchedConfig, ShardedScheduler, SnapshotterConfig, TenantQuota,
    TuningPipeline,
};
use autokernel_sycl_sim::{DeviceSpec, FaultPlan, Queue, SimClock};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The fleet: one R9 Nano plus two desktop GPUs.
pub fn devices() -> Vec<(&'static str, DeviceSpec)> {
    vec![
        ("nano-0", DeviceSpec::amd_r9_nano()),
        ("desktop-0", DeviceSpec::desktop_gpu()),
        ("desktop-1", DeviceSpec::desktop_gpu()),
    ]
}

/// Index of the shard that gets injected faults on `adaptive_faults`.
pub const FAULTY_SHARD: usize = 2;

/// Per-shard decision-cache bound.
pub const CACHE_CAPACITY: usize = 512;

pub fn cache_config() -> BoundedCacheConfig {
    BoundedCacheConfig {
        capacity: CACHE_CAPACITY,
        admit_threshold: 1,
        ..BoundedCacheConfig::default()
    }
}

pub fn sched_config() -> SchedConfig {
    SchedConfig {
        policy: RoutingPolicy::LeastLoaded,
        queue_capacity: 64,
        batch_window: 32,
        seed: 11,
        ..SchedConfig::default()
    }
}

pub fn ingress_config() -> IngressConfig {
    IngressConfig {
        queue_capacity: 8192,
        dispatch_chunk: 2048,
        tenant_quota: TenantQuota {
            max_queued: 1 << 20,
        },
        ..IngressConfig::default()
    }
}

/// Snapshot cadence of the background snapshotter, in served chunks of
/// one ingress session (up to 2048 requests each). A session also writes
/// a final snapshot when it drains. Flood segments reach the cadence;
/// the short paced sessions only write their final snapshot, between
/// segments.
pub const SNAPSHOT_EVERY_CHUNKS: u64 = 512;

pub fn snapshotter(path: &Path) -> SnapshotterConfig {
    SnapshotterConfig::new(path, DeviceSpec::amd_r9_nano()).with_cadence(SNAPSHOT_EVERY_CHUNKS)
}

/// Fault rates of the faulty shard, per submission. Assumptions for a
/// flaky device that still serves: high enough that retries, next-best
/// fallbacks and breaker trips all occur, low enough that the device
/// is not mostly down. The repository's fault tests use 30 % transient
/// and 10 % timeouts, a stress level; see `README.md` for why those
/// are not used here.
pub const TRANSIENT_RATE: f64 = 0.05;
pub const TIMEOUT_RATE: f64 = 0.01;

/// The queue a shard launches on.
pub fn shard_queue(workload: Workload, device: &DeviceSpec, index: usize, seed: u64) -> Queue {
    let queue = Queue::timing_only(Arc::new(device.clone()));
    if workload.adaptive() && index == FAULTY_SHARD {
        let plan = FaultPlan::new(seed ^ 0xfa17)
            .with_transient_rate(TRANSIENT_RATE)
            .with_timeout_rate(TIMEOUT_RATE);
        queue.with_fault_plan(Arc::new(plan))
    } else {
        queue
    }
}

/// One shard's serving stack, as the workload deploys it.
pub fn shard(
    workload: Workload,
    pipeline: &TuningPipeline,
    label: &str,
    device: &DeviceSpec,
    index: usize,
    seed: u64,
) -> DeviceShard {
    let queue = shard_queue(workload, device, index, seed);
    let executor = if workload.adaptive() {
        let (executor, online) = pipeline
            .device_adaptive_executor(queue, ResilientPolicy::default(), OnlineConfig::default())
            .expect("adaptive shard builds");
        // Serve in the adaptive stage from the first launch, as an
        // operator rolling out new hardware would.
        online.force_drift();
        executor
    } else {
        pipeline
            .device_bounded_executor(queue, ResilientPolicy::default(), cache_config())
            .expect("bounded shard builds")
    };
    DeviceShard::new(label, executor)
}

pub fn fleet(workload: Workload, pipeline: &TuningPipeline, seed: u64) -> Vec<DeviceShard> {
    devices()
        .iter()
        .enumerate()
        .map(|(i, (label, device))| shard(workload, pipeline, label, device, i, seed))
        .collect()
}

pub fn scheduler(workload: Workload, pipeline: &TuningPipeline, seed: u64) -> ShardedScheduler {
    ShardedScheduler::new(fleet(workload, pipeline, seed), sched_config()).expect("fleet builds")
}

pub fn clocks(scheduler: &ShardedScheduler) -> Vec<SimClock> {
    (0..devices().len())
        .map(|i| scheduler.shard(i).expect("three shards").clock())
        .collect()
}

/// When each set-up step ended.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub start: Instant,
    pub collected: Instant,
    pub trained: Instant,
    pub built: Instant,
    /// Ingress running (after the snapshot restore, for warm restarts).
    pub done: Instant,
    /// Steal ticks over the set-up (see `report::steal_ticks`).
    pub steal: u64,
}

impl SetupTimes {
    pub fn collect_s(&self) -> f64 {
        (self.collected - self.start).as_secs_f64()
    }
    pub fn train_s(&self) -> f64 {
        (self.trained - self.collected).as_secs_f64()
    }
    pub fn fleet_build_s(&self) -> f64 {
        (self.built - self.trained).as_secs_f64()
    }
    /// Snapshot load + restore + ingress start.
    pub fn start_s(&self) -> f64 {
        (self.done - self.built).as_secs_f64()
    }
    pub fn total_s(&self) -> f64 {
        (self.done - self.start).as_secs_f64()
    }
}

/// A running stack, ready for its first request.
pub struct Stack {
    pub pipeline: TuningPipeline,
    pub ingress: Ingress,
    pub clocks: Vec<SimClock>,
}

/// How the ingress starts.
#[derive(Clone, Copy)]
pub enum Start<'a> {
    Plain,
    /// With the background snapshotter writing to the path.
    Snapshots(&'a Path),
    /// Warm restart from the snapshot at the path, snapshotter on.
    Restored(&'a Path),
}

/// Build the stack from nothing: collect the paper dataset, train the
/// pipeline with `PipelineConfig::default()`, build the fleet and start
/// the ingress.
pub fn build(workload: Workload, seed: u64, start_as: Start) -> (Stack, SetupTimes) {
    let steal = steal_ticks();
    let start = Instant::now();
    let dataset = PerformanceDataset::collect_paper_dataset(&DeviceSpec::amd_r9_nano())
        .expect("paper dataset collects");
    let collected = Instant::now();
    let pipeline =
        TuningPipeline::from_dataset(dataset, PipelineConfig::default()).expect("pipeline trains");
    let trained = Instant::now();
    let scheduler = scheduler(workload, &pipeline, seed);
    let clocks = clocks(&scheduler);
    let built = Instant::now();
    let ingress = match start_as {
        Start::Plain => Ingress::start(scheduler, ingress_config()),
        Start::Snapshots(path) => {
            Ingress::start_with_snapshots(scheduler, ingress_config(), snapshotter(path))
        }
        Start::Restored(path) => {
            let (ingress, outcome) =
                Ingress::start_restored(scheduler, ingress_config(), snapshotter(path));
            assert!(outcome.is_warm(), "warm restart restores: {outcome:?}");
            ingress
        }
    };
    let times = SetupTimes {
        start,
        collected,
        trained,
        built,
        done: Instant::now(),
        steal: steal_ticks().saturating_sub(steal),
    };
    (
        Stack {
            pipeline,
            ingress,
            clocks,
        },
        times,
    )
}
