//! The untraced run: set-up, warm-up, flood and paced phases, output
//! checks and the end-to-end metrics.

use crate::checks::{self, Failure};
use crate::gen::{Mix, Rng};
use crate::phases::{flood, paced, Generator, PacedSegment, Server};
use crate::report::{least_stolen, median, metric, out_dir, peak_rss_mb, quantile, RunResult};
use crate::stack::{self, SetupTimes, Stack, Start};
use crate::workload::{Workload, PACED_SEGMENT, STREAM_LEN, WARMUP_REQUESTS, WARMUP_SEED};
use crate::Args;
use autokernel_core::evaluate::selection_score;
use autokernel_core::{
    DeviceShard, GemmRequest, PerformanceDataset, ShardedScheduler, TuningPipeline,
};
use autokernel_gemm::GemmShape;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

/// Everything generated from the seed, built before any timing.
pub struct Inputs {
    pub mix: Mix,
    pub templates: Vec<GemmRequest>,
    pub stream: Vec<u32>,
}

/// Stream positions sampled for `oracle_frac` and the pick checks.
const ORACLE_SAMPLE: usize = 4096;

pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mix = workload.mix();
    let stream = mix.stream(seed, STREAM_LEN);
    let templates = mix.shapes.iter().map(|&s| GemmRequest::zeroed(s)).collect();
    Inputs {
        mix,
        templates,
        stream,
    }
}

/// The snapshot files of a warm-restart workload.
pub struct Snapshots {
    /// The warm-up's final snapshot, never written again.
    warm: PathBuf,
    /// Where the serving stack snapshots to.
    pub serve: PathBuf,
    /// Where a stack built only to time set-up restores from.
    spare: PathBuf,
}

impl Snapshots {
    fn new(workload: Workload) -> Self {
        let path = |tag: &str| {
            out_dir().join(format!(
                "{}-{}-{tag}.snap",
                workload.name(),
                std::process::id()
            ))
        };
        Snapshots {
            warm: path("warm"),
            serve: path("serve"),
            spare: path("spare"),
        }
    }

    pub fn remove(&self) {
        for path in [&self.warm, &self.serve, &self.spare] {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Build the stack once, for a set-up sample or to serve. A warm
/// restart restores from its own fresh copy of the warm-up's snapshot,
/// so every sample parses the same file.
pub fn setup_build(
    workload: Workload,
    seed: u64,
    snaps: Option<&Snapshots>,
    serving: bool,
) -> (Stack, SetupTimes) {
    let Some(snaps) = snaps else {
        return stack::build(workload, seed, Start::Plain);
    };
    let to = if serving { &snaps.serve } else { &snaps.spare };
    std::fs::copy(&snaps.warm, to).expect("snapshot copies");
    stack::build(workload, seed, Start::Restored(to))
}

/// Build the stack `workload.setups().0` times and keep the last; warm
/// it up.
/// `adaptive_faults` warms a cold stack with the snapshotter on, and
/// the kept stack is a warm restart from that stack's final snapshot.
/// Returns the warmed server, the kept stack's pipeline and clocks,
/// every repetition's set-up times and the snapshot files.
pub fn prepare(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
) -> (
    Server,
    TuningPipeline,
    Vec<autokernel_sycl_sim::SimClock>,
    Vec<SetupTimes>,
    Option<Snapshots>,
) {
    // The warm-up stream does not depend on the run seed, so every run
    // starts from the same warm state. On `adaptive_faults` that state
    // is the snapshot each warm restart parses, and its size sets the
    // parse time: when the warm-up followed the run seed, its snapshot
    // took 247 to 323 KB and 1.0 to 1.8 s to load (2-core x86-64 host).
    let warm_stream = inputs.mix.stream(WARMUP_SEED, WARMUP_REQUESTS as usize);
    let warm = |server: &mut Server| {
        let mut gen = Generator::new(&inputs.templates, &warm_stream);
        flood(
            server,
            &mut gen,
            Duration::ZERO,
            Some(WARMUP_REQUESTS),
            None,
        );
    };
    let snaps = workload.adaptive().then(|| Snapshots::new(workload));
    if let Some(s) = &snaps {
        let (cold, _) = stack::build(workload, WARMUP_SEED, Start::Snapshots(&s.warm));
        let mut server = Server::new(cold.ingress, Some(stack::snapshotter(&s.warm)));
        warm(&mut server);
        server.close();
    }
    let reps = workload.setups().0;
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<Stack> = None;
    for rep in 1..=reps {
        let (built, t) = setup_build(workload, seed, snaps.as_ref(), rep == reps);
        times.push(t);
        if let Some(old) = kept.replace(built) {
            let _ = old.ingress.finish();
        }
    }
    let Stack {
        pipeline,
        ingress,
        clocks,
        ..
    } = kept.expect("at least one set-up");
    let mut server = Server::new(
        ingress,
        snaps.as_ref().map(|s| stack::snapshotter(&s.serve)),
    );
    if snaps.is_none() {
        warm(&mut server);
    }
    server.tally = Default::default();
    (server, pipeline, clocks, times, snaps)
}

pub fn setup_median(setups: &[SetupTimes], step: fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(step).collect::<Vec<_>>())
}

/// A shard's current pick for `shape`.
fn shard_pick(shard: &DeviceShard, shape: &GemmShape) -> usize {
    let executor = shard.executor();
    match executor.online() {
        Some(online) => online.select(shape),
        None => executor.selector().select(shape),
    }
    .expect("shard selects")
}

/// Every configuration priced on every fleet device for a set of
/// shapes, with `PerformanceDataset::collect` (a configuration the
/// device cannot launch prices as infinity, and so scores 0).
pub struct Priced {
    pub datasets: Vec<PerformanceDataset>,
    rows: HashMap<GemmShape, usize>,
}

impl Priced {
    pub fn new(shapes: impl IntoIterator<Item = GemmShape>) -> Self {
        let mut rows = HashMap::new();
        let mut tagged = Vec::new();
        for shape in shapes {
            rows.entry(shape).or_insert_with(|| {
                tagged.push((shape, String::new()));
                tagged.len() - 1
            });
        }
        let datasets = stack::devices()
            .iter()
            .map(|(_, device)| PerformanceDataset::collect(device, &tagged).expect("prices"))
            .collect();
        Priced { datasets, rows }
    }

    pub fn row(&self, shape: &GemmShape) -> usize {
        self.rows[shape]
    }
}

/// Stream positions sampled for `oracle_frac` and the pick checks.
fn oracle_sample(seed: u64, inputs: &Inputs) -> Vec<GemmShape> {
    let mut rng = Rng::new(seed ^ 0x0AC1E);
    (0..ORACLE_SAMPLE)
        .map(|_| inputs.mix.shapes[inputs.stream[rng.below(inputs.stream.len())] as usize])
        .collect()
}

/// Each shard's current pick for each sampled shape.
fn picks(scheduler: &ShardedScheduler, sample: &[GemmShape]) -> Vec<Vec<usize>> {
    (0..stack::devices().len())
        .map(|i| {
            let shard = scheduler.shard(i).expect("three shards");
            sample.iter().map(|s| shard_pick(shard, s)).collect()
        })
        .collect()
}

/// The geomean over the shards of the Table I score of their picks.
/// Every shard scores the same number of picks, so this is also the
/// geomean over all picks.
fn oracle_score(priced: &Priced, rows: &[usize], picks: &[Vec<usize>]) -> f64 {
    let log_sum: f64 = picks
        .iter()
        .zip(&priced.datasets)
        .map(|(chosen, dataset)| selection_score(dataset, rows, chosen).ln())
        .sum();
    (log_sum / picks.len() as f64).exp()
}

/// The pick checks on the post-run picks.
fn check_picks(
    workload: Workload,
    pipeline: &TuningPipeline,
    sample: &[GemmShape],
    picks: &[Vec<usize>],
    failures: &mut Vec<Failure>,
) {
    for ((label, device), chosen) in stack::devices().iter().zip(picks) {
        for (shape, &pick) in sample.iter().zip(chosen) {
            failures.extend(checks::launchable(device, shape, pick));
            if workload.picks_are_static() {
                let offline = pipeline.selector().select_shape(shape).expect("selects");
                failures.extend(checks::same_pick(label, shape, pick, offline));
            }
        }
    }
}

pub fn run(args: &Args) -> RunResult {
    let workload = args.workload;
    let inputs = inputs(workload, args.seed);
    let (mut server, pipeline, clocks, mut setups, snaps) = prepare(workload, args.seed, &inputs);

    // Timed phases: 40 % flood in 64 segments, 60 % paced, interleaved
    // so both sample the whole run. Between flood segments more stacks
    // are set up and thrown away at even spacing, so the set-up samples
    // span the whole run too.
    let flood_segments = 64;
    let setup_every = flood_segments / workload.setups().1;
    let flood_each = Duration::from_secs_f64(args.seconds * 0.4 / flood_segments as f64);
    let paced_segments =
        ((args.seconds * 0.6 / PACED_SEGMENT.as_secs_f64()).round() as usize).max(1);
    let clock0: Vec<f64> = clocks.iter().map(|c| c.now_s()).collect();
    let mut gen = Generator::new(&inputs.templates, &inputs.stream);
    let sample = oracle_sample(args.seed, &inputs);
    // The shards' picks at each set-up sample, and after the run. On
    // `adaptive_faults` the bandit's picks keep moving, so `oracle_frac`
    // is the median over these checkpoints, not one moment's score.
    let mut checkpoints = Vec::new();
    let (mut floods, mut paceds) = (Vec::new(), Vec::new());
    for k in 1..=flood_segments {
        floods.push(flood(&mut server, &mut gen, flood_each, None, None));
        if k % setup_every == 0 {
            checkpoints.push(server.inspect(|s| picks(s, &sample)));
            let (spare, times) = setup_build(workload, args.seed, snaps.as_ref(), false);
            let _ = spare.ingress.finish();
            setups.push(times);
        }
        while paceds.len() < k * paced_segments / flood_segments {
            paceds.push(paced(
                &mut server,
                &mut gen,
                PACED_SEGMENT,
                workload.paced_rps(),
                None,
            ));
        }
    }
    println!(
        "set-up (median of {}): collect {:.1} ms, train {:.1} ms, fleet build {:.1} ms, restore + start {:.1} ms",
        setups.len(),
        setup_median(&setups, SetupTimes::collect_s) * 1e3,
        setup_median(&setups, SetupTimes::train_s) * 1e3,
        setup_median(&setups, SetupTimes::fleet_build_s) * 1e3,
        setup_median(&setups, SetupTimes::start_s) * 1e3,
    );
    println!(
        "set-up totals: {:?} ms",
        setups
            .iter()
            .map(|t| (t.total_s() * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    );
    let (tally, bad_sessions, scheduler) = server.close();
    // Before the output checks: pricing the oracle sample is the
    // benchmark's own memory, not the serving stack's.
    let peak_rss = peak_rss_mb();
    let advance: Vec<f64> = clocks
        .iter()
        .zip(&clock0)
        .map(|(c, t0)| c.now_s() - t0)
        .collect();

    // Output checks.
    let mut failures: Vec<Failure> = bad_sessions.iter().filter_map(checks::accounting).collect();
    for (i, (label, _)) in stack::devices().iter().enumerate() {
        let cache = scheduler
            .shard(i)
            .expect("three shards")
            .executor()
            .selector()
            .cache();
        failures.extend(checks::footprint(
            label,
            cache.footprint(),
            cache.capacity(),
        ));
    }
    let scoring = std::time::Instant::now();
    let post_run = picks(&scheduler, &sample);
    check_picks(workload, &pipeline, &sample, &post_run, &mut failures);
    checkpoints.push(post_run);
    let priced = Priced::new(sample.iter().copied());
    let rows: Vec<usize> = sample.iter().map(|s| priced.row(s)).collect();
    let oracle_scores: Vec<f64> = checkpoints
        .iter()
        .map(|p| oracle_score(&priced, &rows, p))
        .collect();
    println!(
        "pricing, oracle scores and pick checks: {:.2} s; scores {:?}",
        scoring.elapsed().as_secs_f64(),
        oracle_scores
            .iter()
            .map(|x| (x * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    if let Some(snaps) = snaps {
        snaps.remove();
    }

    let served = tally.served.max(1) as f64;
    let failed = tally.unserved() + failures.len() as u64;
    let throughputs: Vec<f64> = floods.iter().map(|f| f.throughput()).collect();
    let over_paced = |f: fn(&PacedSegment) -> f64| paceds.iter().map(f).collect::<Vec<_>>();
    let rounded = |v: Vec<f64>| v.iter().map(|x| x.round()).collect::<Vec<_>>();
    println!(
        "{} seed {}: flood segments {:?} req/s\npaced segments p50 {:?} us, p99 {:?} us\ningress histogram p50 {:?} us, p99 {:?} us; generator lag p99 {:.1} us",
        workload.name(),
        args.seed,
        rounded(throughputs.clone()),
        rounded(over_paced(|p| p.p50_us)),
        rounded(over_paced(|p| p.p99_us)),
        rounded(over_paced(|p| p.ingress_p50_us)),
        rounded(over_paced(|p| p.ingress_p99_us)),
        median(&over_paced(|p| p.lag_p99_us)),
    );
    println!(
        "accounting: submitted {} served {} shed {} (queue {}, deadline {}, tenant {}) submit errors {} silent drops {} failed checks {}",
        tally.submitted,
        tally.served,
        tally.shed(),
        tally.shed_queue_full,
        tally.shed_deadline,
        tally.shed_tenant,
        tally.submit_errors,
        tally.silent_drops,
        failures.len()
    );
    // The wall-clock metrics come from the samples during which the
    // hypervisor took no CPU time from this machine (`least_stolen`),
    // and of those the flood and paced ones take their best quartile:
    // the 75th percentile of throughput, the 25th of latency. A slower
    // program slows every segment; a busy shared host slows some. On a
    // 2-core x86-64 host, runs that lost 10-33 % of their CPU time to
    // other guests read up to 55 % below a quiet run's throughput and
    // up to 4x its p99 with medians over all segments. Over five
    // `tail_churn` runs, three of them such, the interquartile range of
    // p99 was 77 % of the median with medians and 31 % with the best
    // quartile. In a run with steal in 54 of 64 flood segments, keeping
    // the steal-free ones moved p99 from 5.0 to 3.9 ms and throughput
    // from 213k to 232k req/s (a quiet run: 3.7 ms, 250k req/s).
    let samples = |values: Vec<(f64, u64)>| least_stolen(&values);
    let kept_floods = samples(floods.iter().map(|f| (f.throughput(), f.steal)).collect());
    let kept_paced =
        |f: fn(&PacedSegment) -> f64| samples(paceds.iter().map(|p| (f(p), p.steal)).collect());
    let kept_setups = samples(setups.iter().map(|t| (t.total_s(), t.steal)).collect());
    println!(
        "steal-free samples kept: flood {} of {}, paced {} of {}, set-up {} of {}",
        kept_floods.len(),
        floods.len(),
        kept_paced(|p| p.p50_us).len(),
        paceds.len(),
        kept_setups.len(),
        setups.len()
    );
    let result = RunResult::new(
        tally.submitted,
        failed,
        &failures,
        vec![
            metric("setup_s", median(&kept_setups), "s"),
            metric("throughput_rps", quantile(&kept_floods, 0.75), "req/s"),
            metric(
                "latency_p50_us",
                quantile(&kept_paced(|p| p.p50_us), 0.25),
                "us",
            ),
            metric(
                "latency_p99_us",
                quantile(&kept_paced(|p| p.p99_us), 0.25),
                "us",
            ),
            metric(
                "ok_frac",
                1.0 - failed as f64 / tally.submitted.max(1) as f64,
                "ratio",
            ),
            metric(
                "sim_device_us_per_req",
                advance.iter().sum::<f64>() / served * 1e6,
                "us",
            ),
            metric(
                "sim_fleet_rps",
                served / advance.iter().fold(0.0f64, |a, &b| a.max(b)),
                "req/s",
            ),
            metric("oracle_frac", median(&oracle_scores), "ratio"),
            metric("peak_rss_mb", peak_rss, "MB"),
        ],
    );
    result.print_table(&format!("end-to-end metrics ({}):", workload.name()));
    result
}
