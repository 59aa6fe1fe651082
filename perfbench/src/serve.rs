//! `serve-open`: an open loop of independent tenants into `PlanService`
//! (2 workers, one shared cache warmed in set-up). Requests follow the
//! service's own `request_mix`; about one in twenty names a small or medium
//! synthetic workflow with an unseen seed, so it misses the cache. The PDC
//! is mostly bypassed here and queue wait shows here and nowhere else.
//!
//! In the open loop, each request's latency runs from its scheduled send
//! time to the moment its reply is available in submission order — what a
//! `mashup serve` stdout reader sees. A refused or rejected request misses
//! the limit. The untraced run reports the open loop's capacity
//! (`ops_per_s`) and the latency of a closed loop at a fixed number of
//! requests in flight; the open-loop latencies are per-layer metrics.

use crate::ladder::{climb, Rung};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{band_percentile, mean, median, percentile, slope};
use crate::Ctx;
use mashup_core::{preflight, try_execute, MashupConfig, Pdc, PlanCache};
use mashup_serve::{
    request_mix, PlanRequest, PlanService, Rejection, ReplyStatus, RequestKind, ServeReply,
    ServiceConfig, Ticket, WorkflowName, MIX_PERIOD,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Deep enough that admission never refuses: overload shows as a growing
/// backlog, not as rejections.
const QUEUE_DEPTH: usize = 1 << 20;
/// One request in this many names a synthetic workflow with an unseen seed.
const COLD_ONE_IN: usize = 20;
/// Seed of the first cold request of a run: far above the mix's fixed
/// seed, so no cold request is ever a cache hit.
const COLD_SEED_BASE: u64 = 1_000_000;
/// A rung whose generator ran later than this at p90 did not offer its
/// load and is invalid.
const GEN_LAG_LIMIT_MS: f64 = 5.0;
/// A backlog grows when its least-squares trend exceeds this share of the
/// offered rate.
const BACKLOG_SLOPE_SHARE: f64 = 0.05;

/// One scheduled request.
struct Scheduled {
    /// Offset from the rung's start.
    at: Duration,
    req: PlanRequest,
}

/// Reply shape: a reply is compared with the expected one for its shape,
/// with the ticket id and tenant filled in.
type Shape = (String, bool, usize, u64);

fn shape(r: &PlanRequest) -> Shape {
    (
        format!("{:?}", r.workflow),
        r.kind == RequestKind::Run,
        r.nodes,
        r.seed,
    )
}

/// Draws a rung's schedule: `n = rate × secs` arrivals, placed as the
/// order statistics of uniform draws (a Poisson process conditioned on its
/// count, so every seed offers exactly the same load). The mix is
/// stratified: each run of `MIX_PERIOD` requests holds every mix shape
/// once, in seeded order, and each run of `COLD_ONE_IN` requests holds one
/// cold request at a seeded position. Cold requests alternate between the
/// small and the medium synthetic workflow and take their seeds from one
/// sequence that does not depend on the run's seed: a cold medium plan
/// costs from 5 to 60 ms depending on the workflow drawn, so cold
/// workflows drawn per seed would make each seed offer different work.
fn schedule(rng: &mut Rng, cold_seed: &mut u64, rate: f64, secs: f64) -> Vec<Scheduled> {
    let n = (rate * secs).round().max(1.0) as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.unit() * secs).collect();
    at.sort_by(f64::total_cmp);
    let mut shapes: Vec<usize> = Vec::new();
    let mut cold_at = 0;
    at.into_iter()
        .enumerate()
        .map(|(i, t)| {
            if shapes.is_empty() {
                // A block of the mix: a seeded offset picks the tenants.
                let base = MIX_PERIOD * rng.below(1 << 20);
                shapes = (base..base + MIX_PERIOD).collect();
                rng.shuffle(&mut shapes);
            }
            if i % COLD_ONE_IN == 0 {
                cold_at = i + rng.below(COLD_ONE_IN);
            }
            let mut req = request_mix(shapes.pop().expect("block is refilled"));
            if i == cold_at {
                req.workflow = if *cold_seed % 2 == 0 {
                    WorkflowName::SyntheticSmall
                } else {
                    WorkflowName::SyntheticMedium
                };
                // Unseen: the mix's fixed seed is 11, cold seeds start far
                // above it and never repeat within a run.
                *cold_seed += 1;
                req.seed = *cold_seed;
            }
            Scheduled {
                at: Duration::from_secs_f64(t),
                req,
            }
        })
        .collect()
}

/// Serial inline replies for `reqs` through a service of its own.
fn serial_replies(cache: Arc<PlanCache>, reqs: &[PlanRequest]) -> Vec<ServeReply> {
    let service = PlanService::with_cache(
        ServiceConfig {
            queue_depth: QUEUE_DEPTH,
        },
        cache,
    );
    let tickets: Vec<Ticket> = reqs
        .iter()
        .map(|r| service.submit(r.clone()).expect("set-up admission"))
        .collect();
    service.drain(1);
    tickets.into_iter().map(Ticket::wait).collect()
}

struct Setup {
    cache: Arc<PlanCache>,
    expected: BTreeMap<Shape, ServeReply>,
    schedules: Vec<Vec<Scheduled>>,
}

/// Set-up: draw every rung's schedule from stream `stream` of `seed`, and
/// warm the shared cache with one of each distinct mix shape, keeping
/// those serial inline replies as the expected ones.
fn setup(seed: u64, stream: u64, plan: &[(f64, f64)]) -> Setup {
    let mut rng = Rng::new(seed, stream);
    let mut cold_seed = COLD_SEED_BASE;
    let schedules: Vec<Vec<Scheduled>> = plan
        .iter()
        .map(|&(rate, secs)| schedule(&mut rng, &mut cold_seed, rate, secs))
        .collect();
    let warm: Vec<PlanRequest> = (0..MIX_PERIOD).map(request_mix).collect();
    let cache = Arc::new(PlanCache::new());
    let expected = warm
        .iter()
        .map(shape)
        .zip(serial_replies(cache.clone(), &warm))
        .collect();
    Setup {
        cache,
        expected,
        schedules,
    }
}

/// Adds the serial inline reply of every cold request that was sent, each
/// computed on a cache of its own so nothing the service cached leaks in.
/// Done after the measured window: how many cold requests a run sends
/// depends on how far the ladder climbs.
fn expect_cold(setup: &mut Setup, sent: &[usize]) {
    let cold: Vec<PlanRequest> = sent
        .iter()
        .flat_map(|&i| &setup.schedules[i])
        .filter(|s| !setup.expected.contains_key(&shape(&s.req)))
        .map(|s| s.req.clone())
        .collect();
    let replies = serial_replies(Arc::new(PlanCache::new()), &cold);
    setup.expected.extend(cold.iter().map(shape).zip(replies));
}

/// Timestamps of one request's trip through the service.
struct Trip {
    due: Instant,
    sent: Instant,
    admitted: Instant,
    wait_from: Instant,
    available: Instant,
    /// `None` when admission refused the request.
    reply: Option<ServeReply>,
}

struct RungRun {
    rung: Rung,
    latencies_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    trips: Vec<Trip>,
    max_backlog: usize,
    rejected: usize,
}

/// Sleeps until `due` (never spins: the host's cores belong to the
/// workers).
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Offers one schedule to the service: a sender thread submits on
/// schedule, this thread collects replies in submission order.
fn offer(service: &Arc<PlanService>, sched: &[Scheduled], rate: f64) -> RungRun {
    let t0 = Instant::now() + Duration::from_millis(5);
    let collected = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(Instant, Instant, Result<Ticket, Rejection>)>();
    let mut trips = Vec::with_capacity(sched.len());
    let samples = std::thread::scope(|scope| {
        let collected = &collected;
        let sender = scope.spawn(move || {
            let mut backlog = Vec::with_capacity(sched.len());
            for (i, s) in sched.iter().enumerate() {
                sleep_until(t0 + s.at);
                let sent = Instant::now();
                let ticket = service.submit(s.req.clone());
                let admitted = Instant::now();
                let outstanding = i - collected.load(Ordering::SeqCst);
                backlog.push(((sent - t0).as_secs_f64(), outstanding as f64));
                tx.send((sent, admitted, ticket))
                    .expect("collector is alive");
            }
            backlog
        });
        for (s, (sent, admitted, ticket)) in sched.iter().zip(rx) {
            let wait_from = Instant::now();
            let reply = ticket.ok().map(Ticket::wait);
            let available = Instant::now();
            collected.fetch_add(1, Ordering::SeqCst);
            trips.push(Trip {
                due: t0 + s.at,
                sent,
                admitted,
                wait_from,
                available,
                reply,
            });
        }
        sender.join().expect("sender thread")
    });
    let latencies_ms: Vec<f64> = trips.iter().map(latency_ms).collect();
    let lag_ms: Vec<f64> = trips
        .iter()
        .map(|t| t.sent.saturating_duration_since(t.due).as_secs_f64() * 1e3)
        .collect();
    let rejected = trips.iter().filter(|t| t.reply.is_none()).count();
    let max_backlog = samples.iter().map(|s| s.1 as usize).max().unwrap_or(0);
    let rung = Rung {
        rate,
        p90_ms: percentile(&latencies_ms, 90.0),
        backlog_slope: slope(&samples),
        generator_valid: percentile(&lag_ms, 90.0) <= GEN_LAG_LIMIT_MS,
    };
    RungRun {
        rung,
        latencies_ms,
        lag_ms,
        trips,
        max_backlog,
        rejected,
    }
}

/// A request's latency, ms: from its scheduled send time to its reply in
/// submission order. A request rejected at admission or refused by the
/// service never met the limit, so its latency is infinite.
fn latency_ms(t: &Trip) -> f64 {
    match &t.reply {
        Some(r) if r.status == ReplyStatus::Done => (t.available - t.due).as_secs_f64() * 1e3,
        _ => f64::INFINITY,
    }
}

/// One request's check: it was admitted, the service did the work, and
/// the reply (minus ticket id and tenant) equals the serial inline one.
fn check_reply(
    req: &PlanRequest,
    reply: Option<&ServeReply>,
    expected: &BTreeMap<Shape, ServeReply>,
) -> Result<(), String> {
    let Some(reply) = reply else {
        return Err(format!("request for {:?} was rejected", req.workflow));
    };
    if reply.status != ReplyStatus::Done {
        return Err(format!(
            "request for {:?} was refused: {}",
            req.workflow, reply.detail
        ));
    }
    let mut want = expected[&shape(req)].clone();
    want.id = reply.id;
    want.tenant = req.tenant.clone();
    if *reply == want {
        Ok(())
    } else {
        Err(format!("reply {reply:?} differs from the inline {want:?}"))
    }
}

/// Counts every request of a rung and checks its reply.
fn check_replies(
    out: &mut Outcome,
    sched: &[Scheduled],
    run: &RungRun,
    expected: &BTreeMap<Shape, ServeReply>,
) {
    for (s, trip) in sched.iter().zip(&run.trips) {
        out.check(check_reply(&s.req, trip.reply.as_ref(), expected));
    }
}

fn start(cache: &Arc<PlanCache>) -> (Arc<PlanService>, Vec<std::thread::JoinHandle<()>>) {
    let service = PlanService::with_cache(
        ServiceConfig {
            queue_depth: QUEUE_DEPTH,
        },
        cache.clone(),
    );
    let workers = service.spawn_workers(WORKERS);
    (service, workers)
}

fn stop(service: &PlanService, workers: Vec<std::thread::JoinHandle<()>>) {
    service.shutdown();
    for w in workers {
        w.join().expect("service worker");
    }
}

/// Share of a traced run spent warming the service up at the high rate
/// before anything is measured (its replies are still checked).
const WARMUP_SHARE: f64 = 0.075;
/// Share of an untraced run given to the closed loop, split evenly between
/// `PARTS` processes.
const LOOP_SHARE: f64 = 0.36;
/// Requests the closed loop keeps in flight. One mix request in 12 is a
/// 40 ms `Run` of the large synthetic workflow, and a reply waits for every
/// older one; with 16 in flight three requests in four wait behind such a
/// `Run`, so the median sits inside that group and moves with service
/// time. With 4 in flight most requests do not, and the median sat on the
/// edge between a 0.1 ms `Plan` and a 3 ms `Run` (spread 0.15 over five
/// seeds).
const DEPTH: usize = 16;
/// The untraced run measures the closed loop in this many child processes,
/// one after the other, each with a set-up and a warm-up of its own. The
/// latencies of one process sit higher or lower together: two open-loop
/// runs of the same seed, each one process, read 27 and 33 ms at the high
/// rate. Worker threads are
/// placed and memory laid out anew in every process, so the figure is the
/// mean over processes.
const PARTS: usize = 3;
/// Share of an untraced run each part spends warming its service up.
const PART_WARMUP_SHARE: f64 = 0.025;
/// A rate's latency percentiles are the medians of the percentiles of
/// this many consecutive windows of its schedule, so one stall of the
/// 2-core host moves one window, not the figure.
const WINDOWS: usize = 7;
/// Share of an untraced run given to each rung of the ladder, from the
/// high rate up. The climb usually stops within four rungs of it, so a run
/// lasts about `--seconds`; a longer climb runs longer.
const RUNG_SHARE: f64 = 0.12;

/// A closed loop over `sched`, whose send times it ignores, for `secs`:
/// `DEPTH` requests in flight, the next one sent as soon as the oldest
/// reply is available. Returns each sent request's reply (`None` when
/// admission refused it) and its latency, ms: from its send to its reply in
/// submission order, infinite unless the service did the work.
fn closed_loop(
    service: &PlanService,
    sched: &[Scheduled],
    secs: f64,
) -> Vec<(Option<ServeReply>, f64)> {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut pending = sched.iter();
    let mut in_flight = VecDeque::with_capacity(DEPTH);
    let mut done = Vec::new();
    loop {
        while in_flight.len() < DEPTH && Instant::now() < deadline {
            let Some(s) = pending.next() else { break };
            in_flight.push_back((Instant::now(), service.submit(s.req.clone())));
        }
        let Some((sent, ticket)) = in_flight.pop_front() else {
            break;
        };
        let reply = ticket.ok().map(Ticket::wait);
        let ms = match &reply {
            Some(r) if r.status == ReplyStatus::Done => sent.elapsed().as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        };
        done.push((reply, ms));
    }
    done
}

/// What one part measured, passed from the child process to the run as
/// one JSON line.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Part {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    p50_ms: f64,
    p90_ms: f64,
    samples: usize,
}

/// `perfbench --part k ...`: part `k` of the untraced run's closed loop, in
/// a process of its own: a warm-up, then the measured loop. Draws its
/// requests from stream `3 + k`, so every part sends the same mix in a
/// different order.
pub fn part(ctx: &Ctx, k: usize) -> Part {
    // More requests than the loop can send in time: eight times the high
    // rate, whose send times the loop ignores.
    let count_rate = 8.0 * ctx.serve_rates[1];
    let plan = [
        (count_rate, ctx.seconds * PART_WARMUP_SHARE),
        (count_rate, ctx.seconds * LOOP_SHARE / PARTS as f64),
    ];
    let mut setup = setup(ctx.seed, 3 + k as u64, &plan);
    let (service, workers) = start(&setup.cache);
    let runs: Vec<Vec<(Option<ServeReply>, f64)>> = plan
        .iter()
        .zip(&setup.schedules)
        .map(|(&(_, secs), sched)| closed_loop(&service, sched, secs))
        .collect();
    stop(&service, workers);
    for (sched, run) in setup.schedules.iter_mut().zip(&runs) {
        sched.truncate(run.len());
    }
    expect_cold(&mut setup, &[0, 1]);
    let mut out = Outcome::default();
    for (sched, run) in setup.schedules.iter().zip(&runs) {
        for (s, (reply, _)) in sched.iter().zip(run) {
            out.check(check_reply(&s.req, reply.as_ref(), &setup.expected));
        }
    }
    let latencies_ms: Vec<f64> = runs[1].iter().map(|r| r.1).collect();
    Part {
        attempted: out.attempted,
        failed: out.failed,
        problems: out.problems,
        p50_ms: band_percentile(&latencies_ms, 50.0),
        p90_ms: band_percentile(&latencies_ms, 90.0),
        samples: latencies_ms.len(),
    }
}

/// Runs part `k` in a child process with this run's arguments.
fn part_child(k: usize) -> Part {
    let me = std::env::current_exe()
        .unwrap_or_else(|e| crate::die(&format!("cannot find perfbench: {e}")));
    let done = std::process::Command::new(me)
        .args(std::env::args().skip(1))
        .args(["--part", &k.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .unwrap_or_else(|e| crate::die(&format!("cannot run serve part {k}: {e}")));
    let text = String::from_utf8_lossy(&done.stdout);
    match (done.status.success(), text.lines().last()) {
        (true, Some(line)) => serde_json::from_str(line)
            .unwrap_or_else(|e| crate::die(&format!("serve part {k} printed '{line}': {e}"))),
        _ => crate::die(&format!("serve part {k} failed ({})", done.status)),
    }
}

/// The untraced run: the closed loop's latencies in `PARTS` child
/// processes, then the open-loop ladder from the high rate up in this one.
/// The open loop's latencies come from the traced run.
pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        return run_traced(ctx);
    }
    let ladder_rates = &ctx.serve_rates[1..];
    let plan: Vec<(f64, f64)> = ladder_rates
        .iter()
        .map(|&r| (r, ctx.seconds * RUNG_SHARE))
        .collect();
    let mut out = Outcome::default();
    let (mut setup, setup_s) = timed_setups(ctx.seed, 2, &plan);
    out.metric("setup_s", setup_s.0, "s", setup_s.1);

    let parts: Vec<Part> = (0..PARTS).map(part_child).collect();
    for (k, p) in parts.iter().enumerate() {
        eprintln!(
            "perfbench: part {k}, {DEPTH} in flight: {} requests, p50 {:.2} ms, p90 {:.2} ms",
            p.samples, p.p50_ms, p.p90_ms
        );
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.problems.extend(p.problems.iter().cloned());
    }
    out.problems.truncate(5);
    let n = parts.iter().map(|p| p.samples).sum();
    let p50: Vec<f64> = parts.iter().map(|p| p.p50_ms).collect();
    let p90: Vec<f64> = parts.iter().map(|p| p.p90_ms).collect();
    out.metric("latency_ms_p50", mean(&p50), "ms", n);
    out.metric("latency_ms_p90", mean(&p90), "ms", n);

    let (service, workers) = start(&setup.cache);
    let mut runs = Vec::new();
    let (slo, share) = (ctx.serve_slo_p90_ms, BACKLOG_SLOPE_SHARE);
    let ladder = climb(ladder_rates, slo, share, |i, rate| {
        let run = offer(&service, &setup.schedules[i], rate);
        let rung = run.rung;
        eprintln!(
            "perfbench: rung {rate} req/s: p90 {:.2} ms, backlog slope {:.1}/s, \
             lag p90 {:.3} ms, max backlog {}, pressure {:.3}",
            rung.p90_ms,
            rung.backlog_slope,
            percentile(&run.lag_ms, 90.0),
            run.max_backlog,
            rung.pressure(slo, share)
        );
        runs.push(run);
        rung
    });
    stop(&service, workers);
    expect_cold(&mut setup, &(0..runs.len()).collect::<Vec<_>>());
    for (i, run) in runs.iter().enumerate() {
        check_replies(&mut out, &setup.schedules[i], run, &setup.expected);
    }
    match ladder.max_rate {
        Some(rate) => {
            let n = runs.iter().map(|r| r.trips.len()).sum();
            out.metric("ops_per_s", rate, "ops/s", n);
        }
        None => out.invalid = Some("the high rate misses the latency limit".into()),
    }
    out
}

/// The `q`th percentile of a rate's latencies: the median over `WINDOWS`
/// equal windows of scheduled send time of each window's band-mean
/// percentile.
fn windowed(run: &RungRun, q: f64) -> f64 {
    let (Some(first), Some(last)) = (run.trips.first(), run.trips.last()) else {
        return f64::NAN;
    };
    let span = (last.due - first.due).as_secs_f64().max(f64::MIN_POSITIVE);
    let mut windows = vec![Vec::new(); WINDOWS];
    for (t, l) in run.trips.iter().zip(&run.latencies_ms) {
        let k = ((t.due - first.due).as_secs_f64() / span * WINDOWS as f64) as usize;
        windows[k.min(WINDOWS - 1)].push(*l);
    }
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| band_percentile(w, q))
        .collect();
    median(&per_window)
}

/// Sets up `SETUPS` times; reports the median time and keeps the last
/// result.
fn timed_setups(seed: u64, stream: u64, plan: &[(f64, f64)]) -> (Setup, (f64, usize)) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..crate::SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(seed, stream, plan));
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("set up at least once"),
        (median(&times), times.len()),
    )
}

/// Inline service time of one request on the warm cache (a fresh cache
/// for cold requests), split into the layers the service calls.
fn inline(req: &PlanRequest, warm: &Arc<PlanCache>, cold: bool, s: &mut Spans) -> f64 {
    let t = Instant::now();
    let cache = if cold {
        Arc::new(PlanCache::new())
    } else {
        warm.clone()
    };
    let cfg = MashupConfig::aws(req.nodes.max(1));
    s.time("op", |s| {
        let w = s.time("dag", |_| req.workflow.build(req.seed));
        s.time("analyze", |_| preflight(&cfg, &w, None))
            .expect("mix workflows are clean");
        let pdc = s.time("pdc", |_| {
            Pdc::new(cfg.clone()).with_cache(cache).decide(&w)
        });
        if req.kind == RequestKind::Run {
            let tuned = cfg.clone().with_subclusters(pdc.subclusters);
            s.time("exec", |_| try_execute(&tuned, &w, &pdc.plan, "mashup"))
                .expect("mix workflows execute");
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// The traced run: the high rate untraced (the overhead baseline), then
/// the low and high rates with spans, then inline service times.
fn run_traced(ctx: &Ctx) -> Outcome {
    let (low, high) = (ctx.serve_rates[0], ctx.serve_rates[1]);
    let secs = ctx.seconds * (1.0 - WARMUP_SHARE) / 3.0;
    let plan = [
        (high, ctx.seconds * WARMUP_SHARE),
        (high, secs),
        (low, secs),
        (high, secs),
    ];
    let mut out = Outcome::default();
    let (mut setup, _) = timed_setups(ctx.seed, 2, &plan);

    let (service, workers) = start(&setup.cache);
    let warmup = offer(&service, &setup.schedules[0], high);
    let baseline = offer(&service, &setup.schedules[1], high);
    let before = setup.cache.stats();
    let mut spans = Spans::new(true, ctx.epoch);
    let mut runs = Vec::new();
    for (i, rate) in [(2, low), (3, high)] {
        let run = offer(&service, &setup.schedules[i], rate);
        for (k, trip) in run.trips.iter().enumerate() {
            let op = (i * 1_000_000 + k) as u64;
            let root = spans.record("request", op, None, trip.due, trip.available);
            spans.record("serve.submit", op, root, trip.sent, trip.admitted);
            let from = trip.wait_from.max(trip.admitted);
            spans.record("serve.wait", op, root, from, trip.available);
        }
        runs.push(run);
    }
    let after = setup.cache.stats();
    stop(&service, workers);
    expect_cold(&mut setup, &[0, 1, 2, 3]);
    check_replies(&mut out, &setup.schedules[0], &warmup, &setup.expected);
    check_replies(&mut out, &setup.schedules[1], &baseline, &setup.expected);
    for (i, run) in runs.iter().enumerate() {
        check_replies(&mut out, &setup.schedules[i + 2], run, &setup.expected);
    }

    // Inline service time per distinct request shape of the traced high
    // rung: median of three calls on the warm cache, one call when cold.
    let mut inline_spans = Spans::new(true, ctx.epoch);
    let mut service_ms: BTreeMap<Shape, f64> = BTreeMap::new();
    let sched_high = &setup.schedules[3];
    for s in sched_high {
        let key = shape(&s.req);
        if service_ms.contains_key(&key) {
            continue;
        }
        let cold = s.req.seed != request_mix(0).seed;
        let reps = if cold { 1 } else { 3 };
        let v: Vec<f64> = (0..reps)
            .map(|_| inline(&s.req, &setup.cache, cold, &mut inline_spans))
            .collect();
        service_ms.insert(key, median(&v));
    }
    let (low_run, high_run) = (&runs[0], &runs[1]);
    let by_kind = |kind: RequestKind| -> Vec<f64> {
        sched_high
            .iter()
            .filter(|s| s.req.kind == kind)
            .map(|s| service_ms[&shape(&s.req)])
            .collect()
    };
    let (plan_ms, run_ms) = (by_kind(RequestKind::Plan), by_kind(RequestKind::Run));
    out.metric(
        "serve.service_ms_p50.plan",
        median(&plan_ms),
        "ms",
        plan_ms.len(),
    );
    out.metric(
        "serve.service_ms_p50.run",
        median(&run_ms),
        "ms",
        run_ms.len(),
    );
    let waits: Vec<f64> = sched_high
        .iter()
        .zip(&high_run.latencies_ms)
        .map(|(s, l)| l - service_ms[&shape(&s.req)])
        .collect();
    out.metric(
        "serve.queue_wait_ms_p50.high",
        median(&waits),
        "ms",
        waits.len(),
    );
    let submit_us: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.trips)
        .map(|t| (t.admitted - t.sent).as_secs_f64() * 1e6)
        .collect();
    out.metric(
        "serve.submit_us_p50",
        median(&submit_us),
        "us",
        submit_us.len(),
    );
    let rejected = runs.iter().map(|r| r.rejected).sum::<usize>();
    out.metric("serve.rejected", rejected as f64, "count", submit_us.len());
    let max_backlog = runs.iter().map(|r| r.max_backlog).max().unwrap_or(0);
    out.metric(
        "serve.max_backlog",
        max_backlog as f64,
        "count",
        submit_us.len(),
    );
    let lag = &high_run.lag_ms;
    out.metric(
        "serve.gen_lag_ms_p90",
        percentile(lag, 90.0),
        "ms",
        lag.len(),
    );
    for (run, rate) in [(low_run, "low"), (high_run, "high")] {
        let n = run.latencies_ms.len();
        for q in [50u32, 90] {
            let name = format!("serve.latency_ms_p{q}.{rate}");
            out.metric(&name, windowed(run, f64::from(q)), "ms", n);
        }
    }
    for (metric, span) in [
        ("dag.build_ms", "dag"),
        ("analyze.preflight_ms", "analyze"),
        ("pdc.decide_ms", "pdc"),
        ("exec.simulate_ms", "exec"),
    ] {
        let v = inline_spans.durations_ms(span);
        out.metric(metric, median(&v), "ms", v.len());
    }
    let (hits, misses) = (
        after.hits() - before.hits(),
        after.misses() - before.misses(),
    );
    let lookups = (hits + misses).max(1);
    out.metric(
        "cache.hit_pct",
        100.0 * hits as f64 / lookups as f64,
        "%",
        lookups as usize,
    );
    out.metric("cache.misses", misses as f64, "count", lookups as usize);
    out.metric("cache.entries", after.entries() as f64, "count", 1);
    let (p, q) = (windowed(&baseline, 50.0), windowed(high_run, 50.0));
    let n = baseline.trips.len() + high_run.trips.len();
    out.metric("tracing.overhead_ms", q - p, "ms", n);
    out.metric("tracing.overhead_pct", 100.0 * (q - p) / p, "%", n);
    for (i, name) in [(0, "low"), (1, "high")] {
        let lag = percentile(&runs[i].lag_ms, 90.0);
        if lag > GEN_LAG_LIMIT_MS {
            out.invalid = Some(format!(
                "the generator fell behind at the {name} rate ({lag:.2} ms)"
            ));
        }
    }
    out.spans = Some(spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(req: &PlanRequest, status: ReplyStatus) -> ServeReply {
        ServeReply {
            id: 0,
            tenant: req.tenant.clone(),
            workflow: format!("{:?}", req.workflow),
            status,
            makespan_secs: 1.0,
            expense_dollars: 2.0,
            profiling_expense_dollars: 0.5,
            serverless_tasks: 3,
            vm_tasks: 4,
            subclusters: 1,
            detail: String::new(),
        }
    }

    #[test]
    fn a_refused_reply_fails_the_op_and_misses_the_limit() {
        let req = request_mix(0);
        let done = reply(&req, ReplyStatus::Done);
        let expected: BTreeMap<Shape, ServeReply> = [(shape(&req), done.clone())].into();
        let mut renumbered = done.clone();
        renumbered.id = 7;
        assert_eq!(check_reply(&req, Some(&renumbered), &expected), Ok(()));
        // Refused alike by the service and by the inline reference: the
        // op still fails.
        let refused = reply(&req, ReplyStatus::Refused);
        let expected_refused: BTreeMap<Shape, ServeReply> = [(shape(&req), refused.clone())].into();
        let mut o = Outcome::default();
        o.check(check_reply(&req, Some(&refused), &expected_refused));
        assert_eq!((o.attempted, o.failed), (1, 1));
        assert!(check_reply(&req, None, &expected).is_err());

        let now = Instant::now();
        let trip = |reply| Trip {
            due: now,
            sent: now,
            admitted: now,
            wait_from: now,
            available: now + Duration::from_millis(3),
            reply,
        };
        assert!((latency_ms(&trip(Some(done))) - 3.0).abs() < 1e-9);
        assert_eq!(latency_ms(&trip(Some(refused))), f64::INFINITY);
        assert_eq!(latency_ms(&trip(None)), f64::INFINITY);
    }

    #[test]
    fn a_part_round_trips_through_its_json_line() {
        let p = Part {
            attempted: 9,
            failed: 1,
            problems: vec!["reply differs".into()],
            p50_ms: 31.25,
            p90_ms: 47.5,
            samples: 1234,
        };
        let line = serde_json::to_string(&p).expect("part serializes");
        assert!(!line.contains('\n'));
        assert_eq!(serde_json::from_str::<Part>(&line).expect("part parses"), p);
    }

    #[test]
    fn windowed_percentiles_shrug_off_one_burst() {
        let now = Instant::now();
        let trips: Vec<Trip> = (0..70)
            .map(|i| {
                let due = now + Duration::from_millis(i * 10);
                Trip {
                    due,
                    sent: due,
                    admitted: due,
                    wait_from: due,
                    available: due,
                    reply: None,
                }
            })
            .collect();
        // Ten requests per window; the third window is a burst.
        let latencies_ms: Vec<f64> = (0..70)
            .map(|i| {
                if (20..30).contains(&i) {
                    500.0
                } else {
                    (i % 10) as f64
                }
            })
            .collect();
        let run = RungRun {
            rung: Rung {
                rate: 100.0,
                p90_ms: 0.0,
                backlog_slope: 0.0,
                generator_valid: true,
            },
            lag_ms: Vec::new(),
            trips,
            latencies_ms,
            max_backlog: 0,
            rejected: 0,
        };
        // Band means of 0..=9: ranks 5..=6 and 9..=10.
        assert_eq!(windowed(&run, 50.0), 4.5);
        assert_eq!(windowed(&run, 90.0), 8.5);
    }
}
