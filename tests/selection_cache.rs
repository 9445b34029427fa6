//! Integration tests of the concurrent serving layer: the sharded
//! decision cache must behave as a pure memoisation of the selector
//! under multi-threaded traffic, its telemetry must reconcile exactly,
//! and decisions must flow into the simulator's launch traces. Every
//! served pick goes through the lock-free L1 in front of the shards, so
//! the L1 must stay coherent with the shards and the model under
//! invalidation, out-of-band overwrites and snapshot restores.

use autokernel::core::cache::CachedSelector;
use autokernel::core::decide::DEFAULT_SLOTS;
use autokernel::core::resilient::{ResilientExecutor, ResilientPolicy};
use autokernel::core::{PerformanceDataset, PruneMethod, Selector, SelectorKind};
use autokernel::gemm::{GemmShape, TiledGemmKernel};
use autokernel::sim::trace::{LaunchDecision, TraceRecorder};
use autokernel::sim::{Buffer, DeviceSpec, DeviceType, Platform, Queue};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::sync::{Arc, OnceLock};

const THREADS: usize = 8;
const SELECTIONS_PER_THREAD: usize = 25;

fn trained() -> Arc<Selector> {
    static SEL: OnceLock<Arc<Selector>> = OnceLock::new();
    Arc::clone(SEL.get_or_init(|| {
        let shapes: Vec<(GemmShape, String)> = [
            (64, 64, 64),
            (512, 512, 512),
            (1, 4096, 1000),
            (12544, 27, 64),
            (196, 2304, 256),
            (3136, 144, 24),
            (49, 960, 160),
            (784, 1152, 128),
            (32, 4096, 4096),
            (2, 2048, 1000),
            (6272, 576, 128),
            (1024, 1024, 1024),
        ]
        .iter()
        .map(|&(m, k, n)| (GemmShape::new(m, k, n), "T".to_string()))
        .collect();
        let ds = PerformanceDataset::collect(&DeviceSpec::amd_r9_nano(), &shapes).unwrap();
        let train: Vec<usize> = (0..ds.n_shapes()).collect();
        let configs = PruneMethod::TopN.select(&ds, &train, 6, 0).unwrap();
        Arc::new(Selector::train(SelectorKind::DecisionTree, &ds, &train, &configs, 0).unwrap())
    }))
}

/// Shapes a serving thread would see: a small working set that recurs.
fn traffic() -> Vec<GemmShape> {
    (0..10)
        .map(|i| GemmShape::new(32 + i * 61, 64 + i * 13, 48 + i * 29))
        .collect()
}

#[test]
fn concurrent_selection_is_coherent_and_reconciles() {
    let selector = trained();
    let cached = CachedSelector::new(Arc::clone(&selector));
    let shapes = traffic();

    // Uncached reference decisions, computed single-threaded.
    let expected: Vec<usize> = shapes
        .iter()
        .map(|s| selector.select_shape(s).unwrap())
        .collect();

    crossbeam::thread::scope(|scope| {
        for t in 0..THREADS {
            let cached = &cached;
            let shapes = &shapes;
            let expected = &expected;
            scope.spawn(move |_| {
                for i in 0..SELECTIONS_PER_THREAD {
                    let j = (t + i) % shapes.len();
                    let got = cached.select(&shapes[j]).unwrap();
                    assert_eq!(
                        got, expected[j],
                        "thread {t} selection {i} diverged from the uncached selector"
                    );
                }
            });
        }
    })
    .unwrap();

    let t = cached.telemetry();
    let total = (THREADS * SELECTIONS_PER_THREAD) as u64;
    assert_eq!(t.total(), total, "every selection must be counted");
    assert_eq!(t.hits() + t.misses(), total, "counters must reconcile");
    // Each distinct shape misses at least once; concurrent first
    // touches may miss more than once (benign race), but never more
    // often than total threads per shape.
    assert!(t.misses() >= shapes.len() as u64);
    assert!(t.misses() <= (shapes.len() * THREADS) as u64);
    assert!(t.hits() > 0, "warm traffic must produce hits");
    assert_eq!(cached.cached_shapes(), shapes.len());
    let picked: u64 = t.picks().iter().map(|&(_, n)| n).sum();
    assert_eq!(picked, total, "every selection picks a shipped config");
}

#[test]
fn warm_then_serve_is_all_hits() {
    let cached = CachedSelector::new(trained());
    let shapes = traffic();
    let warmed: Vec<usize> = shapes.iter().map(|s| cached.select(s).unwrap()).collect();
    let warm_misses = cached.telemetry().misses();
    assert_eq!(warm_misses, shapes.len() as u64);

    let decisions: Vec<usize> = shapes.iter().map(|s| cached.select(s).unwrap()).collect();
    assert_eq!(decisions, warmed);
    assert_eq!(cached.telemetry().misses(), warm_misses, "no new misses");
    assert_eq!(cached.telemetry().hits(), shapes.len() as u64);
}

#[test]
fn selection_decisions_annotate_launch_traces() {
    let selector = trained();
    let cached = CachedSelector::new(Arc::clone(&selector));
    let shape = GemmShape::new(256, 256, 256);

    let platform = Platform::standard();
    let queue = Queue::new(platform.device_by_type(DeviceType::Gpu).unwrap());
    let mut trace = TraceRecorder::new();

    // Serve the same shape twice: one model inference, one cache hit.
    for _ in 0..2 {
        let outcome = cached.select_outcome(&shape).unwrap();
        let config = autokernel::gemm::config::KernelConfig::from_index(outcome.config_index)
            .expect("selector returns valid indices");
        let a = Buffer::from_vec(vec![1.0f32; shape.m * shape.k]);
        let b = Buffer::from_vec(vec![1.0f32; shape.k * shape.n]);
        let c = Buffer::from_vec(vec![0.0f32; shape.m * shape.n]);
        let kernel = TiledGemmKernel::new(config, shape, a, b, c).unwrap();
        let event = queue
            .submit(&kernel, kernel.preferred_range().unwrap())
            .unwrap();
        trace.record_with_decision("serving", event, LaunchDecision::from(outcome));
    }

    assert_eq!(trace.decided_launches(), 2);
    assert_eq!(trace.cache_hit_launches(), 1);
    let parsed: serde_json::Value = serde_json::from_str(&trace.to_chrome_trace()).unwrap();
    let events = parsed["traceEvents"].as_array().unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0]["args"]["cache_hit"], false);
    assert_eq!(events[1]["args"]["cache_hit"], true);
    assert_eq!(
        events[0]["args"]["config_index"],
        events[1]["args"]["config_index"]
    );
}

/// `count` pairwise-distinct shapes (mixed radix over the three
/// dimensions), shifted by `offset` so different streams cover
/// different shapes.
fn distinct_shapes(count: usize, offset: usize) -> Vec<GemmShape> {
    (offset..offset + count)
        .map(|i| GemmShape::new(1 + i % 53, 1 + (i / 53) % 59, 1 + i / (53 * 59)))
        .collect()
}

/// A shipped configuration other than `config`.
fn other_shipped(selector: &Selector, config: usize) -> usize {
    *selector
        .configs()
        .iter()
        .find(|&&c| c != config)
        .expect("the shipped set has more than one configuration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A seeded stream over more distinct shapes than the L1 has slots,
    /// each new shape followed by a revisit of an earlier one (the L1
    /// hit path), with full clears and generation bumps at seeded
    /// points: every pick equals the uncached model's.
    #[test]
    fn l1_picks_match_the_model_across_invalidations(seed in 0u64..u64::MAX) {
        let selector = trained();
        let cached = CachedSelector::new(Arc::clone(&selector));
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = distinct_shapes(DEFAULT_SLOTS + 512, (seed % 10_000) as usize);
        let expected: Vec<usize> = pool
            .iter()
            .map(|s| selector.select_shape(s).unwrap())
            .collect();
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.shuffle(&mut rng);
        let mut picks = 0u64;
        for step in 0..order.len() {
            let revisit = order[rng.random_range(0..step + 1)];
            for i in [order[step], revisit] {
                prop_assert_eq!(
                    cached.select(&pool[i]).unwrap(),
                    expected[i],
                    "step {} shape {}",
                    step,
                    pool[i]
                );
                picks += 1;
            }
            match rng.random_range(0u32..300) {
                0 => cached.invalidate(),
                1 => {
                    cached.invalidate_generation();
                }
                _ => {}
            }
        }
        let t = cached.telemetry();
        prop_assert_eq!(t.hits() + t.misses(), picks);
    }
}

#[test]
fn shard_overwrite_replaces_the_l1_pick() {
    let selector = trained();
    let cached = CachedSelector::new(Arc::clone(&selector));
    let shape = GemmShape::new(256, 128, 64);
    let first = cached.select(&shape).unwrap();
    assert_eq!(cached.select(&shape).unwrap(), first, "warm L1 pick");

    let replacement = other_shipped(&selector, first);
    assert_eq!(cached.cache().insert(shape, replacement), Some(first));
    assert_eq!(cached.select(&shape).unwrap(), replacement);
    assert_eq!(cached.decide(&shape).unwrap() as usize, replacement);
}

#[test]
fn cache_restore_replaces_the_l1_pick() {
    let selector = trained();
    let cached = CachedSelector::new(Arc::clone(&selector));
    let shape = GemmShape::new(192, 320, 96);
    let first = cached.select(&shape).unwrap();
    assert_eq!(cached.select(&shape).unwrap(), first, "warm L1 pick");

    let restored = other_shipped(&selector, first);
    let mut state = cached.cache().export_state();
    let entry = state
        .shards
        .iter_mut()
        .flat_map(|shard| shard.entries.iter_mut())
        .find(|e| e.shape == shape)
        .expect("the picked shape is exported");
    entry.config_index = restored;
    let stats = cached
        .cache()
        .restore_state(&state, selector.configs())
        .unwrap();
    assert_eq!(stats.entries_restored, 1);
    assert_eq!(cached.select(&shape).unwrap(), restored);
    assert_eq!(cached.decide(&shape).unwrap() as usize, restored);
}

#[test]
fn resilient_launch_serves_through_the_l1() {
    let selector = trained();
    let cached = Arc::new(CachedSelector::new(Arc::clone(&selector)));
    let platform = Platform::standard();
    let queue = Queue::new(platform.device_by_type(DeviceType::Gpu).unwrap());
    let executor = ResilientExecutor::new(
        Arc::clone(&cached),
        queue,
        selector.configs().to_vec(),
        ResilientPolicy::default(),
    );
    let shape = GemmShape::new(64, 96, 80);
    let a = Buffer::from_vec(vec![1.0f32; shape.m * shape.k]);
    let b = Buffer::from_vec(vec![1.0f32; shape.k * shape.n]);
    let c = Buffer::from_vec(vec![0.0f32; shape.m * shape.n]);
    let table = cached.cache().fast_table();

    let first = executor.launch(shape, &a, &b, &c).unwrap();
    assert!(!first.decision.cache_hit);
    assert!(table.probe_length(shape.stable_hash()).is_some());
    assert_eq!(
        table
            .probe(shape.stable_hash(), cached.cache().generation())
            .map(|(config, _)| config as usize),
        Some(first.decision.config_index),
        "one launch publishes its pick into the L1"
    );

    let second = executor.launch(shape, &a, &b, &c).unwrap();
    assert!(second.decision.cache_hit);
    assert_eq!(second.decision.config_index, first.decision.config_index);
    let t = cached.telemetry();
    assert_eq!((t.hits(), t.misses()), (1, 1));
    assert_eq!(
        t.decision_latency().count(),
        1,
        "the L1 hit takes no latency sample; only the miss was timed"
    );
}
