//! The generator thread's phases. Each timed phase is cut into short
//! segments, each its own ingress session over the same scheduler, and
//! the run reports the median segment: one descheduled moment of a
//! shared host then spoils one segment, not the run.

use crate::report::{quantile, steal_ticks};
use crate::spans::Tracer;
use crate::stack::ingress_config;
use crate::workload::TENANTS;
use autokernel_core::{
    GemmRequest, Ingress, IngressReport, IngressRequest, Priority, ShardedScheduler,
    SnapshotterConfig,
};
use std::time::{Duration, Instant};

/// Walks the pre-generated stream, handing out template clones (three
/// reference-count bumps; nothing is allocated per request).
pub struct Generator<'a> {
    templates: &'a [GemmRequest],
    stream: &'a [u32],
    pos: u64,
}

impl<'a> Generator<'a> {
    pub fn new(templates: &'a [GemmRequest], stream: &'a [u32]) -> Self {
        Generator {
            templates,
            stream,
            pos: 0,
        }
    }

    /// The next request's id and operands.
    pub fn next(&mut self) -> (u64, &'a GemmRequest) {
        let id = self.pos;
        self.pos += 1;
        let template = self.stream[(id % self.stream.len() as u64) as usize];
        (id, &self.templates[template as usize])
    }
}

fn request(template: &GemmRequest, id: u64, priority: Priority) -> IngressRequest {
    IngressRequest::new(template.clone())
        .with_tenant((id % TENANTS as u64) as u32)
        .with_priority(priority)
}

/// Accounting summed over every ingress session of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub submitted: u64,
    pub served: u64,
    pub shed_tenant: u64,
    pub shed_queue_full: u64,
    pub shed_deadline: u64,
    pub shed_shutdown: u64,
    pub submit_errors: u64,
    pub silent_drops: u64,
    pub snapshots_written: u64,
}

impl Tally {
    pub fn add(&mut self, r: &IngressReport) {
        self.submitted += r.submitted;
        self.served += r.served;
        self.shed_tenant += r.shed_tenant_quota;
        self.shed_queue_full += r.shed_queue_full;
        self.shed_deadline += r.shed_deadline;
        self.shed_shutdown += r.shed_shutdown;
        self.silent_drops += r.submitted.saturating_sub(r.served + r.shed_total());
        self.snapshots_written += r.snapshots_written;
    }

    pub fn shed(&self) -> u64 {
        self.shed_tenant + self.shed_queue_full + self.shed_deadline + self.shed_shutdown
    }

    /// Requests that did not come back served: sheds, refused submits
    /// and silent drops.
    pub fn unserved(&self) -> u64 {
        self.shed() + self.submit_errors + self.silent_drops
    }
}

/// The ingress in front of the fleet, restarted between segments.
pub struct Server {
    ingress: Option<Ingress>,
    snapshots: Option<SnapshotterConfig>,
    pub tally: Tally,
    /// Reports of sessions whose accounting did not add up.
    pub accounting: Vec<IngressReport>,
}

impl Server {
    pub fn new(ingress: Ingress, snapshots: Option<SnapshotterConfig>) -> Self {
        Server {
            ingress: Some(ingress),
            snapshots,
            tally: Tally::default(),
            accounting: Vec::new(),
        }
    }

    /// Submit; returns whether the request entered the queue.
    fn submit(&mut self, request: IngressRequest) -> bool {
        let ingress = self.ingress.as_ref().expect("a session is open");
        match ingress.submit(request) {
            Ok(outcome) => outcome.is_enqueued(),
            Err(_) => {
                self.tally.submit_errors += 1;
                false
            }
        }
    }

    /// Queued requests the dispatcher has finished with so far: served,
    /// or shed when dequeued. The dispatcher takes the queue in order
    /// and publishes a chunk's count once the whole chunk is served, so
    /// the first `n` enqueued requests are exactly the finished ones.
    fn finished(&self) -> u64 {
        let r = self.ingress.as_ref().expect("a session is open").report();
        r.served + r.shed_deadline + r.shed_shutdown
    }

    /// Close the session and drain it; returns its report and when
    /// `finish` returned, plus the scheduler.
    fn finish(&mut self) -> (IngressReport, Instant, ShardedScheduler) {
        let ingress = self.ingress.take().expect("a session is open");
        let (report, scheduler) = ingress.finish().expect("dispatcher drains");
        let finished = Instant::now();
        self.tally.add(&report);
        if !report.accounted() {
            self.accounting.push(report.clone());
        }
        (report, finished, scheduler)
    }

    fn start(&mut self, scheduler: ShardedScheduler) {
        self.ingress = Some(match &self.snapshots {
            Some(s) => Ingress::start_with_snapshots(scheduler, ingress_config(), s.clone()),
            None => Ingress::start(scheduler, ingress_config()),
        });
    }

    /// Finish the session and start the next one over the same fleet.
    fn cycle(&mut self) -> (IngressReport, Instant) {
        let (report, finished, scheduler) = self.finish();
        self.start(scheduler);
        (report, finished)
    }

    /// Between two sessions, hand the idle fleet to `f`.
    pub fn inspect<R>(&mut self, f: impl FnOnce(&ShardedScheduler) -> R) -> R {
        let (_, _, scheduler) = self.finish();
        let out = f(&scheduler);
        self.start(scheduler);
        out
    }

    /// Finish for good and hand back the fleet.
    pub fn close(mut self) -> (Tally, Vec<IngressReport>, ShardedScheduler) {
        let (_, _, scheduler) = self.finish();
        (self.tally, self.accounting, scheduler)
    }
}

/// Submits whose spans are kept per traced segment (all are timed).
const SUBMIT_SPANS: u64 = 4_096;

pub struct FloodSegment {
    pub served: u64,
    /// First submit until `finish` returned.
    pub wall_s: f64,
    /// Last submit until `finish` returned.
    pub drain_s: f64,
    pub waves: u64,
    /// Steal ticks over the segment.
    pub steal: u64,
}

impl FloodSegment {
    pub fn throughput(&self) -> f64 {
        self.served as f64 / self.wall_s
    }
}

/// Closed loop: `Interactive` requests, blocking on backpressure, for
/// `duration` (or `count` requests); then drain. With `trace`, every
/// submit's duration in ns is pushed to the vector.
pub fn flood(
    server: &mut Server,
    gen: &mut Generator,
    duration: Duration,
    count: Option<u64>,
    mut trace: Option<(&mut Tracer, &mut Vec<u32>)>,
) -> FloodSegment {
    let steal = steal_ticks();
    let start = Instant::now();
    let mut sent = 0u64;
    let parent = trace
        .as_mut()
        .and_then(|(t, _)| t.open("ingress.flood", None));
    loop {
        for _ in 0..256 {
            let (id, template) = gen.next();
            let req = request(template, id, Priority::Interactive);
            match trace.as_mut() {
                Some((tracer, submits)) => {
                    let t0 = Instant::now();
                    server.submit(req);
                    let t1 = Instant::now();
                    submits.push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
                    if sent < SUBMIT_SPANS {
                        tracer.record("ingress.submit", t0, t1, parent, Some(id));
                    }
                }
                None => {
                    server.submit(req);
                }
            }
            sent += 1;
        }
        let done = match count {
            Some(n) => sent >= n,
            None => start.elapsed() >= duration,
        };
        if done {
            break;
        }
    }
    let last_submit = Instant::now();
    let (report, finished) = server.cycle();
    if let Some((tracer, _)) = trace {
        tracer.close(parent);
    }
    FloodSegment {
        served: report.served,
        wall_s: (finished - start).as_secs_f64(),
        drain_s: (finished - last_submit).as_secs_f64(),
        waves: report.waves,
        steal: steal_ticks().saturating_sub(steal),
    }
}

pub struct PacedSegment {
    /// Due-to-completion latency percentiles of the segment, µs.
    pub p50_us: f64,
    pub p99_us: f64,
    /// The same percentiles as the ingress's own log2-bucket histogram
    /// reports them (submit to completion).
    pub ingress_p50_us: f64,
    pub ingress_p99_us: f64,
    /// 99th percentile of how late requests went out after their tick.
    pub lag_p99_us: f64,
    /// Steal ticks over the segment.
    pub steal: u64,
}

/// Paced requests arrive in one burst per tick.
const TICK: Duration = Duration::from_millis(10);

/// How often the generator polls for completions between bursts.
const POLL: Duration = Duration::from_micros(50);

/// Open loop at `rate` requests/s for `duration`. Requests go out as
/// `Interactive`, which waits on a full queue instead of shedding: a
/// host stall then shows as latency, never as failed requests that
/// one set of runs has and another has not. Arrivals come in one burst
/// per 10 ms tick, so each burst is a fixed amount of work and the
/// latency percentiles measure how long the stack takes to clear it;
/// with finer ticks they followed how the generator's wake-ups
/// happened to line up with the dispatcher's chunks.
///
/// Latency runs from a request's due time (its tick) to the first poll
/// that sees it finished, so it includes generator lag and is late by
/// at most one poll. The ingress histogram is too coarse for this: its
/// log2 buckets put the 99th percentile of any burst that clears in
/// 5 to 8 ms at about 8.2 ms.
pub fn paced(
    server: &mut Server,
    gen: &mut Generator,
    duration: Duration,
    rate: f64,
    tracer: Option<&mut Tracer>,
) -> PacedSegment {
    let steal = steal_ticks();
    let span = tracer.as_ref().map(|_| Instant::now());
    let expected = (rate * duration.as_secs_f64() * 1.1) as usize;
    let mut lag_us: Vec<f64> = Vec::with_capacity(expected);
    let mut due: Vec<Duration> = Vec::with_capacity(expected);
    let mut latency_us: Vec<f64> = Vec::with_capacity(expected);
    let start = Instant::now();
    let mut sent = 0u64;
    let mut tick = 0u32;
    let poll = |server: &Server, due: &[Duration], latency_us: &mut Vec<f64>| {
        let finished = (server.finished() as usize).min(due.len());
        let now = start.elapsed();
        for d in &due[latency_us.len()..finished] {
            latency_us.push((now - *d).as_secs_f64() * 1e6);
        }
    };
    while TICK * tick < duration {
        let due_at = TICK * tick;
        while start.elapsed() < due_at {
            poll(server, &due, &mut latency_us);
            std::thread::sleep(POLL.min(due_at.saturating_sub(start.elapsed())));
        }
        tick += 1;
        let burst_end = (rate * (TICK * tick).as_secs_f64()) as u64;
        while sent < burst_end {
            let (id, template) = gen.next();
            if server.submit(request(template, id, Priority::Interactive)) {
                due.push(due_at);
            }
            lag_us.push(start.elapsed().saturating_sub(due_at).as_secs_f64() * 1e6);
            sent += 1;
        }
    }
    let settle = Instant::now();
    while latency_us.len() < due.len() && settle.elapsed() < Duration::from_secs(5) {
        poll(server, &due, &mut latency_us);
        std::thread::sleep(POLL);
    }
    let (report, _) = server.cycle();
    if let (Some(tracer), Some(t0)) = (tracer, span) {
        tracer.record("ingress.paced", t0, Instant::now(), None, None);
    }
    let class = &report.classes[Priority::Interactive.class() as usize];
    PacedSegment {
        p50_us: quantile(&latency_us, 0.5),
        p99_us: quantile(&latency_us, 0.99),
        ingress_p50_us: class.p50_ns / 1e3,
        ingress_p99_us: class.p99_ns / 1e3,
        lag_p99_us: quantile(&lag_us, 0.99),
        steal: steal_ticks().saturating_sub(steal),
    }
}
