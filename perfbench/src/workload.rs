//! The three workloads: their request mixes and fixed settings. Why each
//! exists, and which layer it is meant to move, is in `README.md`.

use crate::gen::{small_shapes, Mix};
use autokernel_gemm::GemmShape;
use autokernel_workloads::dataset::paper_shapes;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotMix,
    TailChurn,
    AdaptiveFaults,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotMix,
        Workload::TailChurn,
        Workload::AdaptiveFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotMix => "hot_mix",
            Workload::TailChurn => "tail_churn",
            Workload::AdaptiveFaults => "adaptive_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The template pool and its popularity. Independent of the seed.
    pub fn mix(self) -> Mix {
        match self {
            Workload::HotMix => {
                // The `micro_ingress` bench's popularity: eight hot
                // shapes (the first eight paper shapes) carry 90 % of
                // the traffic. Here the other 162 paper shapes form the
                // tail, so every shape still fits every cache.
                let mut tail = paper_shapes();
                let head: Vec<GemmShape> = tail.drain(..HOT_SHAPES).collect();
                Mix::blend(&Mix::uniform(head), &Mix::uniform(tail), 0.9)
            }
            Workload::TailChurn => {
                // 17^3 = 4913 distinct small shapes: over 8x one
                // shard's 512-entry decision cache.
                let dims: Vec<usize> = (1..=17).map(|i| 4 * i).collect();
                Mix::blend(
                    &Mix::uniform(small_shapes(&dims)),
                    &Mix::uniform(paper_shapes()),
                    0.9,
                )
            }
            Workload::AdaptiveFaults => Mix::uniform(paper_shapes()),
        }
    }

    /// Whether every shard serves through the online layer in its
    /// adaptive stage, with faults, snapshots and a warm restart.
    pub fn adaptive(self) -> bool {
        self == Workload::AdaptiveFaults
    }

    /// Whether post-run picks must equal the offline classifier's.
    pub fn picks_are_static(self) -> bool {
        matches!(self, Workload::HotMix | Workload::TailChurn)
    }

    /// Whether the traced run also executes the chosen kernels for real
    /// on the stream's small shapes (the `gemm` layer).
    pub fn executes_small_shapes(self) -> bool {
        self == Workload::TailChurn
    }

    /// Open-loop rate of the paced phase: about a quarter of the flood
    /// throughput this workload reached on a quiet 2-core x86-64 host
    /// when the benchmark was written, fixed so every later tree is
    /// offered the same load. The headroom is for busy hosts: at a third,
    /// `hot_mix` shed paced requests while the host ran at half speed.
    pub fn paced_rps(self) -> f64 {
        match self {
            Workload::HotMix => 120_000.0,
            Workload::TailChurn => 70_000.0,
            Workload::AdaptiveFaults => 100_000.0,
        }
    }

    /// Stack set-ups before the timed phases, the last of which serves,
    /// and set-ups spread over the timed phases, each thrown away.
    /// `setup_s` is the median of all of them. A warm restart parses a
    /// snapshot of about 340 KB, which takes seconds, so
    /// `adaptive_faults` takes five samples instead of eleven to keep
    /// its runs within a minute.
    pub fn setups(self) -> (usize, usize) {
        if self.adaptive() {
            (1, 4)
        } else {
            (3, 8)
        }
    }
}

/// Whether a shape is small enough to run for real in the traced run.
pub fn is_small(shape: &GemmShape) -> bool {
    shape.m.max(shape.k).max(shape.n) <= 128
}

/// Length of one paced segment: ten bursts, over 9,000 requests, so the
/// 99th percentile has over ninety beyond it. A burst is a tenth of a
/// segment's requests, so a segment's 99th percentile is its slowest
/// burst's tail; short segments keep one host stall from setting it.
pub const PACED_SEGMENT: Duration = Duration::from_millis(100);

/// Requests served before anything is timed.
pub const WARMUP_REQUESTS: u64 = 100_000;

/// Seed of the warm-up stream (and of the warmed stack's fault plan),
/// the same for every run seed.
pub const WARMUP_SEED: u64 = 0x77a7;

/// Requests each traced replay feeds through the layers.
pub const REPLAY_REQUESTS: usize = 65_536;

/// Hot shapes of `hot_mix`, as in the `micro_ingress` bench.
const HOT_SHAPES: usize = 8;

/// Length of the pre-generated request ring the generator cycles over.
pub const STREAM_LEN: usize = 1 << 21;

/// Tenants the generator spreads requests over.
pub const TENANTS: u32 = 16;
