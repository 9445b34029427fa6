//! The traced run. It replays the workload's seeded stream with a span
//! around the calls into each layer's public functions, and prints the
//! per-layer metrics.
//!
//! Layers nest (`sched.serve` runs `resilient.launch`, which runs the
//! decision and `sim.submit`), and their inside is not visible from
//! here. So each layer is replayed on its own, on fresh state, with the
//! same requests in the same order the scheduler assigned them. A
//! layer's self time is its per-request time minus that of the layers
//! it calls.

use crate::checks::{self, Failure};
use crate::phases::{flood, paced, Generator};
use crate::report::{median, metric, out_dir, Metric, RunResult};
use crate::run::{self, setup_median, Priced};
use crate::spans::Tracer;
use crate::stack::{self, SetupTimes};
use crate::workload::{is_small, Workload, PACED_SEGMENT, REPLAY_REQUESTS};
use crate::Args;
use autokernel_core::{Assignment, GemmRequest, ShardedScheduler, Snapshot, TuningPipeline};
use autokernel_gemm::reference::test_matrices;
use autokernel_gemm::{model, GemmShape, KernelConfig, TiledGemmKernel};
use autokernel_sycl_sim::{Buffer, DeviceSpec, FallbackLevel, Queue};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls per replay that also get a span of their own.
const CALL_SPANS: usize = 4_096;

fn ns_per(total: Duration, count: usize) -> f64 {
    total.as_nanos() as f64 / count.max(1) as f64
}

/// The cost of one `Instant::now()` pair, subtracted from per-call
/// timings of calls that take only tens of nanoseconds.
fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2_000)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            (t1 - t0).as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// One request of the replayed stream, in the order its shard ran it.
struct Launch {
    request: u64,
    template: usize,
}

/// The scheduler replay: the stream fed in `dispatch_chunk` slices to
/// `ShardedScheduler::serve` on a fresh fleet.
struct SchedReplay {
    serve_ns_per_req: f64,
    per_device: Vec<Vec<Launch>>,
    waves: u64,
    stolen: u64,
    rebalanced: u64,
    requests_per_batch: f64,
}

fn sched_replay(
    workload: Workload,
    pipeline: &TuningPipeline,
    seed: u64,
    inputs: &run::Inputs,
    tracer: &mut Tracer,
) -> SchedReplay {
    let n = REPLAY_REQUESTS;
    let ids: Vec<u32> = inputs.stream[..n].to_vec();
    let requests: Vec<GemmRequest> = ids
        .iter()
        .map(|&t| inputs.templates[t as usize].clone())
        .collect();
    let mut scheduler: ShardedScheduler = stack::scheduler(workload, pipeline, seed);
    let parent = tracer.open("sched.replay", None);
    let mut assignments: Vec<(usize, Assignment)> = Vec::new();
    let mut total = Duration::ZERO;
    let chunk = stack::ingress_config().dispatch_chunk;
    for (c, slice) in requests.chunks(chunk).enumerate() {
        let t0 = Instant::now();
        let report = scheduler.serve(slice).expect("scheduler serves");
        let t1 = Instant::now();
        total += t1 - t0;
        tracer.record("sched.serve", t0, t1, parent, None);
        assignments.extend(report.assignments.into_iter().map(|a| (c * chunk, a)));
    }
    tracer.close(parent);
    let telemetry = scheduler.telemetry();

    // Rebuild each shard's launch order. Within a chunk, a batch's
    // requests are that chunk's requests of its shape and class, in
    // arrival order; batches of one shape take them in planning order.
    let mut per_device: Vec<Vec<Launch>> = stack::devices().iter().map(|_| Vec::new()).collect();
    let mut queues: HashMap<(usize, GemmShape), std::collections::VecDeque<u64>> = HashMap::new();
    for (i, &t) in ids.iter().enumerate() {
        let base = i / chunk * chunk;
        queues
            .entry((base, inputs.templates[t as usize].shape))
            .or_default()
            .push_back(i as u64);
    }
    let template_of: HashMap<GemmShape, usize> = inputs
        .templates
        .iter()
        .enumerate()
        .map(|(i, r)| (r.shape, i))
        .collect();
    for (base, a) in &assignments {
        // A batch re-routed after a meltdown is assigned twice; its
        // requests launch once, where they are taken first.
        let queue = queues
            .get_mut(&(*base, a.shape))
            .expect("assigned shape was sent");
        for _ in 0..a.requests {
            let Some(request) = queue.pop_front() else {
                break;
            };
            per_device[a.device].push(Launch {
                request,
                template: template_of[&a.shape],
            });
        }
    }
    SchedReplay {
        serve_ns_per_req: ns_per(total, n),
        per_device,
        waves: telemetry.waves,
        stolen: telemetry.stolen,
        rebalanced: telemetry.rebalanced,
        requests_per_batch: n as f64 / telemetry.routed.max(1) as f64,
    }
}

/// Launches the `gemm` replay runs for real.
const GEMM_LAUNCHES: usize = 1_024;

#[derive(Default)]
struct GemmStats {
    launches: usize,
    /// Real submit time minus timing-only submit time, per launch.
    submit_us: f64,
    gflops: f64,
    /// A, B and C bytes per launch.
    bytes: f64,
    max_err: f64,
}

/// The `gemm` layer: the first small-shape launches of the replay, with
/// seeded nonzero operands, submitted on an executing queue and on a
/// timing-only one; every output is checked against the reference GEMM.
fn gemm_replay(
    seed: u64,
    inputs: &run::Inputs,
    sched: &SchedReplay,
    picks: &[Vec<Option<KernelConfig>>],
    overhead: f64,
    tracer: &mut Tracer,
    failures: &mut Vec<Failure>,
) -> GemmStats {
    let mut operands: HashMap<usize, (GemmRequest, Vec<f32>)> = HashMap::new();
    let (mut real_sum, mut timing_sum, mut flops, mut bytes) = (0.0, 0.0, 0.0, 0.0);
    let mut stats = GemmStats::default();
    for (d, (_, device)) in stack::devices().into_iter().enumerate() {
        let device = Arc::new(device);
        let timing = Queue::timing_only(Arc::clone(&device));
        let real = Queue::new(device);
        for (l, pick) in sched.per_device[d].iter().zip(&picks[d]) {
            let shape = inputs.templates[l.template].shape;
            let Some(cfg) = pick.filter(|_| is_small(&shape)) else {
                continue;
            };
            if stats.launches == GEMM_LAUNCHES {
                break;
            }
            let (r, expect) = operands.entry(l.template).or_insert_with(|| {
                let (a, b) = test_matrices(shape, seed ^ ((l.template as u64) << 20));
                let expect = checks::reference(shape, &a, &b);
                let c = Buffer::new_filled(shape.m * shape.n, f32::NAN);
                let r = GemmRequest::new(shape, Buffer::from_vec(a), Buffer::from_vec(b), c);
                (r, expect)
            });
            let kernel = TiledGemmKernel::new(cfg, shape, r.a.clone(), r.b.clone(), r.c.clone())
                .expect("operands match the shape");
            let range = model::launch_range(&cfg, &shape).expect("launch range");
            let t0 = Instant::now();
            timing
                .submit(&kernel, range)
                .expect("launchable pick submits");
            let t1 = Instant::now();
            real.submit(&kernel, range)
                .expect("launchable pick submits");
            let t2 = Instant::now();
            tracer.record("gemm.submit", t1, t2, None, Some(l.request));
            timing_sum += (t1 - t0).as_nanos() as f64 - overhead;
            real_sum += (t2 - t1).as_nanos() as f64 - overhead;
            flops += shape.flops();
            bytes += 4.0 * (shape.m * shape.k + shape.k * shape.n + shape.m * shape.n) as f64;
            let c = r.c.read();
            stats.max_err = stats.max_err.max(checks::max_error(expect, &c) as f64);
            failures.extend(checks::gemm_output(shape, expect, &c));
            // Unwritten again, so the next launch must write it.
            drop(c);
            r.c.write().fill(f32::NAN);
            stats.launches += 1;
        }
    }
    let n = stats.launches.max(1) as f64;
    let gemm_ns = (real_sum - timing_sum).max(1.0);
    stats.submit_us = gemm_ns / n / 1e3;
    stats.gflops = flops / gemm_ns;
    stats.bytes = bytes / n;
    stats
}

pub fn run(args: &Args) -> RunResult {
    let workload = args.workload;
    let seed = args.seed;
    let inputs = run::inputs(workload, seed);
    let mut tracer = Tracer::new();
    let mut failures: Vec<Failure> = Vec::new();
    let overhead = timer_overhead_ns();

    // --- setup ---
    let (mut server, pipeline, _clocks, setups, snap) = run::prepare(workload, seed, &inputs);
    for t in &setups {
        let p = tracer.record("setup", t.start, t.done, None, None);
        tracer.record("setup.collect", t.start, t.collected, p, None);
        tracer.record("setup.train", t.collected, t.trained, p, None);
        tracer.record("setup.fleet_build", t.trained, t.built, p, None);
        let start_name = if snap.is_some() {
            "persist.restore"
        } else {
            "ingress.start"
        };
        tracer.record(start_name, t.built, t.done, p, None);
    }

    // --- ingress: untraced and traced flood segments, alternating ---
    let segment = Duration::from_secs_f64(args.seconds * 0.1);
    let mut gen = Generator::new(&inputs.templates, &inputs.stream);
    let mut submits: Vec<u32> = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut drains = Vec::new();
    let (mut served, mut waves) = (0u64, 0u64);
    for i in 0..4 {
        let seg = if i % 2 == 0 {
            flood(&mut server, &mut gen, segment, None, None)
        } else {
            flood(
                &mut server,
                &mut gen,
                segment,
                None,
                Some((&mut tracer, &mut submits)),
            )
        };
        let per_req = seg.wall_s * 1e9 / seg.served.max(1) as f64;
        if i % 2 == 0 {
            untraced.push(per_req);
        } else {
            traced.push((per_req, seg.wall_s));
        }
        drains.push(seg.drain_s * 1e3);
        served += seg.served;
        waves += seg.waves;
    }
    let untraced_ns = median(&untraced);
    let traced_ns = median(&traced.iter().map(|t| t.0).collect::<Vec<_>>());
    let submit_ns: Vec<f64> = submits.iter().map(|&d| d as f64).collect();
    let submit_median = median(&submit_ns);
    let traced_wall: f64 = traced.iter().map(|t| t.1).sum();
    // An estimate: the ingress does not say when a submit waited for a
    // queue slot, so each submit's excess over the median submit counts
    // as blocked. Preemption and timer noise count too, and waits
    // shorter than the median are missed.
    let blocked_s: f64 = submit_ns
        .iter()
        .map(|d| (d - submit_median).max(0.0))
        .sum::<f64>()
        / 1e9;

    // --- ingress: paced segments, for sheds and generator lag ---
    let mut lags = Vec::new();
    for _ in 0..2 {
        let seg = paced(
            &mut server,
            &mut gen,
            PACED_SEGMENT,
            workload.paced_rps(),
            Some(&mut tracer),
        );
        lags.push(seg.lag_p99_us);
    }
    let (tally, bad_sessions, served_fleet) = server.close();
    failures.extend(bad_sessions.iter().filter_map(checks::accounting));

    // --- persist: the snapshotter's work, on the fleet that served ---
    let (mut capture_ms, mut save_ms, mut snapshot_bytes) = (0.0, 0.0, 0.0);
    if let Some(snaps) = &snap {
        let path = &snaps.serve;
        let (mut captures, mut saves) = (Vec::new(), Vec::new());
        for seq in 0..3 {
            let t0 = Instant::now();
            let snapshot = Snapshot::new(&DeviceSpec::amd_r9_nano())
                .with_seq(1000 + seq)
                .capture_fleet(&served_fleet);
            let t1 = Instant::now();
            snapshot.save(path).expect("snapshot saves");
            let t2 = Instant::now();
            tracer.record("persist.capture", t0, t1, None, None);
            tracer.record("persist.save", t1, t2, None, None);
            captures.push((t1 - t0).as_secs_f64() * 1e3);
            saves.push((t2 - t1).as_secs_f64() * 1e3);
        }
        capture_ms = median(&captures);
        save_ms = median(&saves);
        snapshot_bytes = std::fs::metadata(path)
            .map(|m| m.len() as f64)
            .unwrap_or(0.0);
        snaps.remove();
    }
    drop(served_fleet);

    // --- sched ---
    let sched = sched_replay(workload, &pipeline, seed, &inputs, &mut tracer);
    let launches: usize = sched.per_device.iter().map(Vec::len).sum();

    // --- decide: the cache + decide layer on each device's shapes ---
    let shapes_of = |d: usize| -> Vec<GemmShape> {
        sched.per_device[d]
            .iter()
            .map(|l| inputs.templates[l.template].shape)
            .collect()
    };
    let (mut outcome_time, mut decide_time) = (Duration::ZERO, Duration::ZERO);
    let (mut hits, mut misses, mut evictions, mut rejects, mut footprint) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    {
        let shards = stack::fleet(workload, &pipeline, seed);
        let fast = stack::fleet(workload, &pipeline, seed);
        for (d, (shard, fast)) in shards.iter().zip(&fast).enumerate() {
            let shapes = shapes_of(d);
            let selector = shard.executor().selector();
            let t0 = Instant::now();
            for s in &shapes {
                black_box(selector.select_outcome(black_box(s)).expect("selects"));
            }
            let t1 = Instant::now();
            let fast_selector = fast.executor().selector();
            for s in &shapes {
                black_box(fast_selector.decide(black_box(s)).expect("decides"));
            }
            let t2 = Instant::now();
            tracer.record("decide.select_outcome", t0, t1, None, None);
            tracer.record("decide.decide", t1, t2, None, None);
            outcome_time += t1 - t0;
            decide_time += t2 - t1;
            let telemetry = selector.telemetry();
            hits += telemetry.hits();
            misses += telemetry.misses();
            let cache = selector.cache();
            evictions += cache.evictions();
            rejects += cache.admission_rejects();
            footprint += cache.footprint() as u64;
        }
    }
    let select_outcome_ns = ns_per(outcome_time, launches);
    let decide_ns = ns_per(decide_time, launches);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    // --- select: the uncached classifier ---
    let predict_shapes: Vec<GemmShape> = (0..launches.min(16_384))
        .map(|i| inputs.mix.shapes[inputs.stream[i] as usize])
        .collect();
    let t0 = Instant::now();
    for s in &predict_shapes {
        black_box(pipeline.select(black_box(s)).expect("selects"));
    }
    let t1 = Instant::now();
    tracer.record("select.predict", t0, t1, None, None);
    let predict_ns = ns_per(t1 - t0, predict_shapes.len());

    // --- online: bandit decide and reward record (adaptive stage only) ---
    let (mut online_decide_ns, mut online_record_ns) = (0.0, 0.0);
    if workload.adaptive() {
        let shards = stack::fleet(workload, &pipeline, seed);
        let priced = Priced::new(
            sched
                .per_device
                .iter()
                .flatten()
                .map(|l| inputs.templates[l.template].shape),
        );
        let (mut decide_sum, mut record_sum) = (0.0, 0.0);
        let parent = tracer.open("online.replay", None);
        for (d, shard) in shards.iter().enumerate() {
            let online = shard
                .executor()
                .online()
                .expect("adaptive shards are online");
            for (i, l) in sched.per_device[d].iter().enumerate() {
                let shape = inputs.templates[l.template].shape;
                let t0 = Instant::now();
                let pick = online.decide(&shape).expect("decides") as usize;
                let t1 = Instant::now();
                let duration = priced.datasets[d].raw_seconds(priced.row(&shape), pick);
                let duration = if duration.is_finite() { duration } else { 1e-3 };
                let generation = online.generation();
                let t2 = Instant::now();
                online.record_success(&shape, pick, duration, generation);
                let t3 = Instant::now();
                decide_sum += (t1 - t0).as_nanos() as f64 - overhead;
                record_sum += (t3 - t2).as_nanos() as f64 - overhead;
                if i < CALL_SPANS {
                    tracer.record("online.decide", t0, t1, parent, Some(l.request));
                    tracer.record("online.record", t2, t3, parent, Some(l.request));
                }
            }
        }
        tracer.close(parent);
        online_decide_ns = decide_sum / launches.max(1) as f64;
        online_record_ns = record_sum / launches.max(1) as f64;
    }

    // --- resilient: launch on fresh executors, in assignment order ---
    let shards = stack::fleet(workload, &pipeline, seed);
    let mut launch_sum = 0.0;
    let (mut primary, mut attempts) = (0u64, 0u64);
    let mut picks: Vec<Vec<Option<KernelConfig>>> = Vec::new();
    let parent = tracer.open("resilient.replay", None);
    for (d, shard) in shards.iter().enumerate() {
        let executor = shard.executor();
        let mut device_picks = Vec::with_capacity(sched.per_device[d].len());
        for (i, l) in sched.per_device[d].iter().enumerate() {
            let r = &inputs.templates[l.template];
            let t0 = Instant::now();
            let report = executor
                .launch(r.shape, &r.a, &r.b, &r.c)
                .expect("launch completes");
            let t1 = Instant::now();
            launch_sum += (t1 - t0).as_nanos() as f64 - overhead;
            if i < CALL_SPANS {
                tracer.record("resilient.launch", t0, t1, parent, Some(l.request));
            }
            if matches!(report.decision.fallback, FallbackLevel::Primary) {
                primary += 1;
            }
            attempts += report.failures.len() as u64 + 1;
            device_picks.push(report.config);
        }
        picks.push(device_picks);
    }
    tracer.close(parent);
    let launch_ns = launch_sum / launches.max(1) as f64;
    let sum_telemetry = |f: fn(&autokernel_core::SelectionTelemetry) -> u64| -> f64 {
        shards
            .iter()
            .map(|s| f(s.executor().selector().telemetry()))
            .sum::<u64>() as f64
    };

    // --- sim: the chosen kernels submitted on their own ---
    let (mut sim_sum, mut sim_count) = (0.0, 0usize);
    for (d, (_, device)) in stack::devices().into_iter().enumerate() {
        let timing = Queue::timing_only(Arc::new(device));
        for (i, (l, pick)) in sched.per_device[d].iter().zip(&picks[d]).enumerate() {
            let Some(cfg) = pick else { continue };
            let r = &inputs.templates[l.template];
            let kernel = TiledGemmKernel::new(*cfg, r.shape, r.a.clone(), r.b.clone(), r.c.clone())
                .expect("operands match the shape");
            let range = model::launch_range(cfg, &r.shape).expect("launch range");
            let t0 = Instant::now();
            timing
                .submit(&kernel, range)
                .expect("launchable pick submits");
            let t1 = Instant::now();
            sim_sum += (t1 - t0).as_nanos() as f64 - overhead;
            sim_count += 1;
            if i < CALL_SPANS {
                tracer.record("sim.submit", t0, t1, None, Some(l.request));
            }
        }
    }
    let sim_submit_ns = sim_sum / sim_count.max(1) as f64;
    let submits_per_request = attempts as f64 / launches.max(1) as f64;
    let gemm = if workload.executes_small_shapes() {
        gemm_replay(
            seed,
            &inputs,
            &sched,
            &picks,
            overhead,
            &mut tracer,
            &mut failures,
        )
    } else {
        GemmStats::default()
    };

    // --- self-time split, ns per request ---
    let miss_rate = 1.0 - hit_rate;
    let decision_ns = if workload.adaptive() {
        online_decide_ns + online_record_ns
    } else {
        select_outcome_ns
    };
    let sim_ns = sim_submit_ns * submits_per_request;
    let persist_ns =
        (capture_ms + save_ms) * 1e6 * tally.snapshots_written as f64 / tally.served.max(1) as f64;
    let sched_self = sched.serve_ns_per_req - launch_ns;
    let resilient_self = launch_ns - decision_ns - sim_ns;
    let (decide_self, select_self, online_self) = if workload.adaptive() {
        (0.0, 0.0, decision_ns)
    } else {
        let select = miss_rate * predict_ns;
        ((select_outcome_ns - select).max(0.0), select, 0.0)
    };
    let split: Vec<(&'static str, f64)> = vec![
        ("sched", sched_self.max(0.0)),
        ("resilient", resilient_self.max(0.0)),
        ("decide", decide_self),
        ("select", select_self),
        ("online", online_self),
        ("sim", sim_ns),
        ("persist", persist_ns),
    ];
    let layer_sum: f64 = split.iter().map(|s| s.1).sum();
    let gap = (untraced_ns - layer_sum) / untraced_ns;
    let overhead_frac = traced_ns / untraced_ns - 1.0;
    let share = |name: &str| {
        split
            .iter()
            .find(|s| s.0 == name)
            .map(|s| s.1)
            .unwrap_or(0.0)
            / layer_sum
    };

    println!(
        "{} seed {}: untraced {:.1} ns/request, traced {:.1} ns/request, layer sum {:.1} ns/request (gap {:+.1} %)",
        workload.name(),
        seed,
        untraced_ns,
        traced_ns,
        layer_sum,
        gap * 100.0
    );
    println!("self time per request, by layer (the layer sum's parts):");
    for (name, ns) in &split {
        println!(
            "  {name:<10} {ns:>12.1} ns  {:>5.1} %",
            ns / layer_sum * 100.0
        );
    }
    if workload.executes_small_shapes() {
        println!(
            "gemm: {} small-shape launches run for real off the serving path; gemm.gflops and gemm.computed_bytes are computed from the shapes (2mnk flops; A, B and C once), not measured on a device",
            gemm.launches
        );
    }
    println!(
        "span self time (ms), {} spans kept, {} dropped:",
        tracer.spans().len(),
        tracer.dropped()
    );
    for (name, ns) in tracer.self_ns_by_name() {
        println!("  {name:<24} {:>12.3}", ns as f64 / 1e6);
    }
    let trace_path = out_dir().join(format!("{}-seed{}.trace.json", workload.name(), seed));
    match std::fs::write(&trace_path, tracer.to_chrome_trace()) {
        Ok(()) => println!("chrome trace: {}", trace_path.display()),
        Err(e) => println!("chrome trace not written: {e}"),
    }

    let metrics: Vec<Metric> = vec![
        metric(
            "setup.collect_s",
            setup_median(&setups, SetupTimes::collect_s),
            "s",
        ),
        metric(
            "setup.train_s",
            setup_median(&setups, SetupTimes::train_s),
            "s",
        ),
        metric(
            "setup.fleet_build_s",
            setup_median(&setups, SetupTimes::fleet_build_s),
            "s",
        ),
        metric("ingress.submit_ns", submit_median, "ns"),
        metric("ingress.blocked_frac", blocked_s / traced_wall, "ratio"),
        metric("ingress.drain_ms", median(&drains), "ms"),
        metric(
            "ingress.requests_per_wave",
            served as f64 / waves.max(1) as f64,
            "req/wave",
        ),
        metric(
            "ingress.shed_queue_full",
            tally.shed_queue_full as f64,
            "count",
        ),
        metric("ingress.shed_deadline", tally.shed_deadline as f64, "count"),
        metric("ingress.shed_tenant", tally.shed_tenant as f64, "count"),
        metric("sched.serve_ns_per_req", sched.serve_ns_per_req, "ns"),
        metric("sched.self_ns_per_req", sched_self, "ns"),
        metric(
            "sched.requests_per_batch",
            sched.requests_per_batch,
            "req/batch",
        ),
        metric("sched.waves", sched.waves as f64, "count"),
        metric("sched.stolen", sched.stolen as f64, "count"),
        metric("sched.rebalanced", sched.rebalanced as f64, "count"),
        metric("decide.select_outcome_ns", select_outcome_ns, "ns"),
        metric("decide.decide_ns", decide_ns, "ns"),
        metric("decide.hit_rate", hit_rate, "ratio"),
        metric("decide.evictions", evictions as f64, "count"),
        metric("decide.admission_rejects", rejects as f64, "count"),
        metric("decide.footprint", footprint as f64, "count"),
        metric("select.predict_ns", predict_ns, "ns"),
        metric("online.decide_ns", online_decide_ns, "ns"),
        metric("online.record_ns", online_record_ns, "ns"),
        metric(
            "online.reward_updates",
            sum_telemetry(|t| t.reward_updates()),
            "count",
        ),
        metric(
            "online.drift_events",
            sum_telemetry(|t| t.drift_events()),
            "count",
        ),
        metric(
            "online.adaptive_picks",
            sum_telemetry(|t| t.adaptive_picks()),
            "count",
        ),
        metric(
            "online.stale_rewards_dropped",
            sum_telemetry(|t| t.stale_rewards_dropped()),
            "count",
        ),
        metric("resilient.launch_ns", launch_ns, "ns"),
        metric("resilient.self_ns", resilient_self, "ns"),
        metric(
            "resilient.primary_frac",
            primary as f64 / attempts.max(1) as f64,
            "ratio",
        ),
        metric("resilient.retries", sum_telemetry(|t| t.retries()), "count"),
        metric(
            "resilient.fallback_next_best",
            sum_telemetry(|t| t.fallback_next_best()),
            "count",
        ),
        metric(
            "resilient.fallback_reference",
            sum_telemetry(|t| t.fallback_reference()),
            "count",
        ),
        metric(
            "resilient.breaker_trips",
            sum_telemetry(|t| t.breaker_trips()),
            "count",
        ),
        metric(
            "resilient.launch_failures",
            sum_telemetry(|t| t.launch_failures()),
            "count",
        ),
        metric("sim.submit_ns", sim_submit_ns, "ns"),
        metric(
            "sim.submits_per_request",
            submits_per_request,
            "submits/req",
        ),
        metric("gemm.submit_us", gemm.submit_us, "us"),
        metric("gemm.gflops", gemm.gflops, "GFLOP/s"),
        metric("gemm.computed_bytes", gemm.bytes, "bytes"),
        metric("gemm.max_abs_err", gemm.max_err, "abs"),
        metric("persist.capture_ms", capture_ms, "ms"),
        metric("persist.save_ms", save_ms, "ms"),
        metric("persist.snapshot_bytes", snapshot_bytes, "bytes"),
        metric(
            "persist.restore_ms",
            if snap.is_some() {
                setup_median(&setups, SetupTimes::start_s) * 1e3
            } else {
                0.0
            },
            "ms",
        ),
        metric("sched.self_share", share("sched"), "ratio"),
        metric("resilient.self_share", share("resilient"), "ratio"),
        metric("decide.self_share", share("decide"), "ratio"),
        metric("select.self_share", share("select"), "ratio"),
        metric("online.self_share", share("online"), "ratio"),
        metric("sim.self_share", share("sim"), "ratio"),
        metric("persist.self_share", share("persist"), "ratio"),
        metric("bench.untraced_ns_per_req", untraced_ns, "ns"),
        metric("bench.layer_sum_ns_per_req", layer_sum, "ns"),
        metric("bench.generator_lag_p99_us", median(&lags), "us"),
        metric("bench.trace_overhead_frac", overhead_frac, "ratio"),
        metric("bench.layer_sum_gap_frac", gap, "ratio"),
    ];
    let attempted = tally.submitted + launches as u64;
    let failed = tally.unserved() + failures.len() as u64;
    let result = RunResult::new(attempted, failed, &failures, metrics);
    result.print_table(&format!("per-layer metrics ({}):", workload.name()));
    result
}
