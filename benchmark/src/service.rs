//! The two `dvi-service` workloads, driven over loopback HTTP as closed
//! loops: each of at most [`CLIENTS`] clients sends its next job only
//! after the previous one's results arrived, with no think time
//! (`service-fresh` runs two clients, `service-repeat` one; see
//! [`Mix::clients`]).
//!
//! * `service-fresh`: set-up starts the server and runs one cold-start
//!   job; every measured job uploads a never-seen trace (`POST /traces`),
//!   submits a 2-configuration grid and polls for its results. Nothing is
//!   shared between jobs.
//! * `service-repeat`: set-up uploads the seven re-seeded presets and
//!   warms the result memo with a pool of small grids; each measured job
//!   submits a (trace, pool grid) pair drawn from the seed, and one job in
//!   four appends a never-seen configuration.
//!
//! Results are polled with `GET /jobs/{id}/results` on one fixed
//! schedule: [`POLL_FIRST`], growing by a quarter per poll up to
//! [`POLL_CAP`].

use crate::inputs::{fresh_grid, pool_grids, repeat_grid, repeat_job, upload_spec, upload_trace};
use crate::metrics::Report;
use crate::spans::Tracer;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::{host, layers, Args};
use dvi_program::CapturedTrace;
use dvi_service::http::{http_request, HttpServer};
use dvi_service::json::Json;
use dvi_service::{wire, MetricsSnapshot, ServiceConfig, SweepService, TraceSource};
use dvi_sim::checkpoint::config_fingerprint;
use dvi_sim::{MemberOutcome, SimConfig, SimStats, Simulator};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Concurrent clients (and so open connections) of the closed loop.
pub const CLIENTS: usize = 2;
/// First poll delay after a `202` answer.
pub const POLL_FIRST: Duration = Duration::from_micros(100);
/// Longest poll delay; the delay grows by a quarter per poll from
/// [`POLL_FIRST`] up to this. Doubling would make a job that finishes just
/// after a poll wait as long again, and the hit path's p50 would jump
/// between poll steps.
pub const POLL_CAP: Duration = Duration::from_millis(2);
/// Records per `service-fresh` upload.
const FRESH_RECORDS: u64 = 60_000;
/// Records per `service-repeat` trace.
const REPEAT_RECORDS: u64 = 100_000;
/// `service-fresh` inputs generated per round, outside the timed phase.
const FRESH_BATCH: usize = 48;
/// `service-repeat` jobs per measured round (about two seconds) and per
/// latency window.
const REPEAT_ROUND: usize = 192;
/// `service-fresh` jobs one server instance serves before the run moves
/// on to a fresh one, and per latency window.
const FRESH_JOBS_PER_SERVER: usize = 4 * FRESH_BATCH;
/// Server set-ups per run (their median is `setup_s`).
const SETUPS: usize = 3;
/// XORed into the seed of the `service-fresh` cold-start upload, so no
/// measured job's upload equals it.
const COLD_START_SALT: u64 = 1 << 63;
/// Jobs of one traced pass.
const TRACED_JOBS: usize = 120;
/// Every `SAMPLE_EVERY`-th job is re-checked against a serial replay.
const SAMPLE_EVERY: usize = 16;
/// At most this many jobs per run are re-checked against serial replays.
const MAX_SAMPLES: usize = 24;

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Zero sharing: every job uploads a never-seen trace.
    Fresh,
    /// High sharing: jobs over pre-uploaded traces and a warmed memo.
    Repeat,
}

impl Mix {
    /// Clients of the measured closed loop. `service-repeat` runs one: with
    /// two, a memo-hit job overlapped the other client's miss nine tenths
    /// of the time, so its p50 timed CPU contention with that simulation
    /// rather than the service's own path, and it swung with the host's
    /// load far beyond its bound.
    fn clients(self) -> usize {
        match self {
            Mix::Fresh => CLIENTS,
            Mix::Repeat => 1,
        }
    }
}

/// A running service with its HTTP front end on a loopback port.
struct Server {
    dir: PathBuf,
    service: SweepService,
    http: HttpServer,
    addr: String,
}

impl Server {
    fn start(dir: PathBuf) -> Server {
        std::fs::remove_dir_all(&dir).ok();
        let service = SweepService::start(ServiceConfig::new(&dir)).expect("the service starts");
        let http = HttpServer::serve(service.clone(), "127.0.0.1:0").expect("loopback binds");
        let addr = http.local_addr().to_string();
        Server { dir, service, http, addr }
    }

    fn stop(mut self) {
        self.http.stop();
        self.service.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// One job as a client sends it.
#[derive(Clone)]
struct Job {
    /// Trace artifact to upload first (`service-fresh`).
    upload: Option<Arc<Vec<u8>>>,
    /// Fingerprint of the job's trace (known up front).
    fingerprint: u64,
    /// The grid as sent.
    grid: Json,
    /// The grid as the service parses it.
    configs: Vec<SimConfig>,
}

impl Job {
    fn new(upload: Option<Arc<Vec<u8>>>, fingerprint: u64, grid: Json) -> Job {
        let configs = wire::grid_from_json(&grid).expect("benchmark grids parse");
        Job { upload, fingerprint, grid, configs }
    }
}

/// One job as the client saw it.
struct Done {
    /// Position in the run's job list.
    index: usize,
    /// From the first request to receipt of the `200` results body.
    latency_s: f64,
    /// Decoded outcomes, or why the job failed.
    outcomes: Result<Vec<MemberOutcome>, String>,
}

fn upload(addr: &str, bytes: &[u8]) -> Result<u64, String> {
    let (status, body) = http_request(addr, "POST", "/traces", bytes, "application/octet-stream")
        .map_err(|e| e.to_string())?;
    let json = parse(status, &body)?;
    let text = json.get("fingerprint").and_then(Json::as_str).ok_or("no fingerprint")?;
    wire::parse_fingerprint(text).map_err(|e| e.to_string())
}

fn parse(status: u16, body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_owned())?;
    let json = Json::parse(text).map_err(|e| format!("response is not JSON: {e}"))?;
    if status == 200 {
        Ok(json)
    } else {
        Err(format!("HTTP {status}: {text}"))
    }
}

/// Runs one job: upload (if any), submit, then poll until the results
/// arrive. Every request is a span of job `job_id` under one root span.
fn run_job(
    addr: &str,
    job: &Job,
    tracer: &Tracer,
    job_id: u64,
) -> (f64, Result<Vec<MemberOutcome>, String>) {
    let start = Instant::now();
    let outcome = tracer.span("service.job", 0, job_id, |root| -> Result<_, String> {
        let fingerprint = match &job.upload {
            Some(bytes) => tracer.span("service.upload", root, job_id, |_| upload(addr, bytes))?,
            None => job.fingerprint,
        };
        if fingerprint != job.fingerprint {
            return Err("the service fingerprinted the upload differently".into());
        }
        let body = wire::submit_to_json(&TraceSource::Fingerprint(fingerprint), &job.grid).encode();
        let id = tracer.span("service.submit", root, job_id, |_| {
            let (status, reply) =
                http_request(addr, "POST", "/jobs", body.as_bytes(), "application/json")
                    .map_err(|e| e.to_string())?;
            parse(status, &reply)?.get("job").and_then(Json::as_u64).ok_or("no job id".to_owned())
        })?;
        let path = format!("/jobs/{id}/results");
        let mut delay = POLL_FIRST;
        loop {
            let (status, reply) = tracer
                .span("service.poll", root, job_id, |_| {
                    http_request(addr, "GET", &path, &[], "application/json")
                })
                .map_err(|e| e.to_string())?;
            if status == 202 {
                std::thread::sleep(delay);
                delay = (delay * 5 / 4).min(POLL_CAP);
                continue;
            }
            let results =
                wire::results_from_json(&parse(status, &reply)?).map_err(|e| e.to_string())?;
            return Ok(results.outcomes);
        }
    });
    (start.elapsed().as_secs_f64(), outcome)
}

/// Most jobs ever in flight at once, over every closed loop of the
/// process.
static PEAK_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// Drives the closed loop: `clients` threads take job indices
/// `range.0..range.1` off one shared counter and run `make(index)`.
fn closed_loop(
    addr: &str,
    clients: usize,
    make: &(dyn Fn(usize) -> Job + Sync),
    range: (usize, usize),
    tracer: &Tracer,
) -> Vec<Done> {
    assert!((1..=CLIENTS).contains(&clients), "the closed loop runs 1 to {CLIENTS} clients");
    let next = AtomicUsize::new(range.0);
    let in_flight = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= range.1 {
                    return;
                }
                let job = make(index);
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK_IN_FLIGHT.fetch_max(now, Ordering::SeqCst);
                let (latency_s, outcomes) = run_job(addr, &job, tracer, index as u64 + 1);
                in_flight.fetch_sub(1, Ordering::SeqCst);
                done.lock().expect("no client panics holding the lock").push(Done {
                    index,
                    latency_s,
                    outcomes,
                });
            });
        }
    });
    let mut done = done.into_inner().expect("clients joined");
    done.sort_by_key(|d| d.index);
    done
}

/// Client-side correctness state: the first outcome returned for every
/// (trace, configuration), which every later return must equal.
#[derive(Default)]
struct Checker {
    first: HashMap<(u64, u64), MemberOutcome>,
    mismatches: u64,
}

impl Checker {
    /// Checks one finished job. Returns whether it succeeded.
    fn job(&mut self, job: &Job, done: &Done) -> bool {
        let outcomes = match &done.outcomes {
            Ok(outcomes) => outcomes,
            Err(e) => {
                eprintln!("benchmark: job {} failed: {e}", done.index);
                return false;
            }
        };
        if outcomes.len() != job.configs.len() {
            eprintln!(
                "benchmark: job {} returned {} outcomes for {} configurations",
                done.index,
                outcomes.len(),
                job.configs.len()
            );
            return false;
        }
        let mut ok = true;
        for (config, outcome) in job.configs.iter().zip(outcomes) {
            if !matches!(outcome, MemberOutcome::Ok(_)) {
                eprintln!("benchmark: job {} has a member that is not ok", done.index);
                ok = false;
            }
            let key = (job.fingerprint, config_fingerprint(config));
            match self.first.get(&key) {
                Some(first) if first != outcome => {
                    eprintln!(
                        "benchmark: mismatch: a repeated member differs from its first return"
                    );
                    self.mismatches += 1;
                    ok = false;
                }
                Some(_) => {}
                None => {
                    self.first.insert(key, outcome.clone());
                }
            }
        }
        ok
    }

    /// Checks every member of `configs` on `trace` against a serial
    /// replay; the outcome must already have been returned.
    fn serial(&mut self, trace: &CapturedTrace, configs: &[SimConfig]) {
        for config in configs {
            let expected = MemberOutcome::Ok(Simulator::new(config.clone()).run(trace.replay()));
            match self.first.get(&(trace.fingerprint(), config_fingerprint(config))) {
                Some(returned) if *returned == expected => {}
                _ => {
                    eprintln!(
                        "benchmark: mismatch: a returned member differs from its serial replay"
                    );
                    self.mismatches += 1;
                }
            }
        }
    }
}

/// The generated inputs of a service run.
struct Inputs {
    seed: u64,
    mix: Mix,
    /// `service-repeat`: the seven traces set-up uploads.
    /// `service-fresh`: the cold-start job's trace.
    traces: Vec<CapturedTrace>,
    /// `service-repeat`: the artifacts of `traces`.
    artifacts: Vec<Arc<Vec<u8>>>,
    /// The jobs every set-up runs. `service-repeat`: every (trace, pool
    /// grid) pair, which warms the memo. `service-fresh`: one cold-start
    /// job, whose upload no measured job repeats.
    warmup: Vec<Job>,
    /// Seconds spent generating inputs.
    generate_s: f64,
}

/// Generates `service-fresh` uploads `range` on two threads.
fn fresh_uploads(seed: u64, range: std::ops::Range<usize>) -> Vec<CapturedTrace> {
    let indices: Vec<usize> = range.collect();
    let half = indices.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = indices
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&i| {
                            upload_trace(&upload_spec(seed, i as u64, FRESH_RECORDS), FRESH_RECORDS)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|p| p.join().expect("input generation does not panic")).collect()
    })
}

fn fresh_job(trace: &CapturedTrace) -> Job {
    Job::new(Some(Arc::new(trace.to_bytes())), trace.fingerprint(), fresh_grid())
}

impl Inputs {
    fn new(seed: u64, mix: Mix) -> Inputs {
        let start = Instant::now();
        let (traces, artifacts, warmup) = match mix {
            Mix::Fresh => {
                let spec = upload_spec(seed ^ COLD_START_SALT, 0, FRESH_RECORDS);
                let trace = upload_trace(&spec, FRESH_RECORDS);
                let job = fresh_job(&trace);
                (vec![trace], Vec::new(), vec![job])
            }
            Mix::Repeat => {
                let traces: Vec<CapturedTrace> = (0..7)
                    .map(|i| upload_trace(&upload_spec(seed, i, REPEAT_RECORDS), REPEAT_RECORDS))
                    .collect();
                let artifacts = traces.iter().map(|t| Arc::new(t.to_bytes())).collect();
                let warmup = traces
                    .iter()
                    .flat_map(|trace| {
                        pool_grids()
                            .into_iter()
                            .map(|grid| Job::new(None, trace.fingerprint(), grid))
                    })
                    .collect();
                (traces, artifacts, warmup)
            }
        };
        let generate_s = start.elapsed().as_secs_f64();
        Inputs { seed, mix, traces, artifacts, warmup, generate_s }
    }

    fn repeat_job(&self, k: usize, pool: &[Json]) -> Job {
        let job = repeat_job(self.seed, k as u64, pool.len());
        Job::new(None, self.traces[job.trace].fingerprint(), repeat_grid(&job, pool))
    }
}

/// Starts a server; for `service-repeat` uploads the seven traces; then
/// runs the warm-up jobs (see [`Inputs::warmup`]). Returns the server and
/// the set-up seconds: on `service-fresh`, a cold start from nothing to
/// the first job's results.
fn set_up(
    inputs: &Inputs,
    work: &Path,
    checker: &mut Checker,
    report: &mut Report,
) -> (Server, f64) {
    let start = Instant::now();
    let server = Server::start(work.join("service"));
    if inputs.mix == Mix::Repeat {
        for (trace, bytes) in inputs.traces.iter().zip(&inputs.artifacts) {
            report.attempted += 1;
            if upload(&server.addr, bytes) != Ok(trace.fingerprint()) {
                eprintln!("benchmark: uploading a service-repeat trace failed");
                report.failed += 1;
            }
        }
    }
    let warm = &inputs.warmup;
    let make = |i: usize| warm[i].clone();
    let quiet = Tracer::new(false);
    for done in closed_loop(&server.addr, CLIENTS, &make, (0, warm.len()), &quiet) {
        report.attempted += 1;
        if !checker.job(&warm[done.index], &done) {
            report.failed += 1;
        }
    }
    (server, start.elapsed().as_secs_f64())
}

fn snapshot_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, report: &mut Report) {
    let jobs = (after.jobs_completed - before.jobs_completed).max(1) as f64;
    report.set(
        "service.queue_wait_ms",
        (after.queue_wait_seconds - before.queue_wait_seconds) * 1e3 / jobs,
    );
    report.set("service.run_ms", (after.run_seconds - before.run_seconds) * 1e3 / jobs);
    let capacity = (after.uptime_seconds - before.uptime_seconds) * after.workers.max(1) as f64;
    report.set("service.worker_utilization", (after.busy_seconds - before.busy_seconds) / capacity);
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, report: &mut Report) {
    for (name, b, a) in [
        ("service.cache_hits", before.cache_hits, after.cache_hits),
        ("service.cache_misses", before.cache_misses, after.cache_misses),
        ("service.cache_damaged", before.cache_damaged, after.cache_damaged),
        ("service.members_simulated", before.members_simulated, after.members_simulated),
        ("service.matrix_turns", before.matrix_turns, after.matrix_turns),
        ("service.shared_builds", before.matrix_shared_builds, after.matrix_shared_builds),
        ("service.jobs_failed", before.jobs_failed, after.jobs_failed),
        ("service.worker_deaths", before.worker_deaths, after.worker_deaths),
    ] {
        report.set(name, (a - b) as f64);
    }
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, mix: Mix, report: &mut Report, work: &Path) {
    let inputs = Inputs::new(args.seed, mix);
    let mut checker = Checker::default();
    if args.trace {
        traced(&inputs, report, work, &mut checker);
    } else {
        let mut setups = Vec::new();
        let mut server = None;
        for _ in 0..SETUPS {
            if let Some(previous) = server.take() {
                Server::stop(previous);
            }
            let (started, secs) = set_up(&inputs, work, &mut checker, report);
            setups.push(secs);
            server = Some(started);
        }
        let server = server.expect("at least one set-up");
        measured(args, &inputs, server, report, &mut checker);
        report.set("setup_s", median(&setups));
    }
    sample_serial(&inputs, &mut checker);
    report.mismatches += checker.mismatches;
    report.set("peak_rss_mb", host::peak_rss_mb());
}

/// Re-checks sampled members against serial replays computed here,
/// outside every timed phase.
fn sample_serial(inputs: &Inputs, checker: &mut Checker) {
    match inputs.mix {
        Mix::Fresh => {
            checker.serial(&inputs.traces[0], &inputs.warmup[0].configs);
            let sampled: Vec<usize> = (0..MAX_SAMPLES).map(|s| s * SAMPLE_EVERY).collect();
            let grid = wire::grid_from_json(&fresh_grid()).expect("grid parses");
            for i in sampled {
                let spec = upload_spec(inputs.seed, i as u64, FRESH_RECORDS);
                let trace = upload_trace(&spec, FRESH_RECORDS);
                if checker.first.contains_key(&(trace.fingerprint(), config_fingerprint(&grid[0])))
                {
                    checker.serial(&trace, &grid);
                }
            }
        }
        Mix::Repeat => {
            let pool = pool_grids();
            for trace in &inputs.traces {
                for grid in &pool {
                    checker.serial(trace, &wire::grid_from_json(grid).expect("grid parses"));
                }
            }
            for k in (3..).step_by(4 * SAMPLE_EVERY).take(MAX_SAMPLES) {
                let job = inputs.repeat_job(k, &pool);
                let novel = &job.configs[job.configs.len() - 1..];
                let trace = inputs.traces.iter().find(|t| t.fingerprint() == job.fingerprint);
                if let Some(trace) = trace {
                    if checker.first.contains_key(&(job.fingerprint, config_fingerprint(&novel[0])))
                    {
                        checker.serial(trace, novel);
                    }
                }
            }
        }
    }
}

/// Tallies finished jobs into the report and returns their latencies.
fn tally(
    jobs: &[Done],
    job_of: &dyn Fn(usize) -> Job,
    checker: &mut Checker,
    report: &mut Report,
) -> Vec<f64> {
    let mut latencies = Vec::new();
    for done in jobs {
        report.attempted += 1;
        if checker.job(&job_of(done.index), done) {
            latencies.push(done.latency_s * 1e3);
        } else {
            report.failed += 1;
        }
    }
    latencies
}

/// The untraced end-to-end run: rounds of the closed loop until
/// `--seconds` of them and at least one latency window are measured.
/// Throughput and CPU per job are medians over rounds, and the latency
/// percentiles medians over windows of consecutive jobs, so a burst of
/// outside load skews one round or window, not the run. `service-fresh`
/// generates each round's never-seen uploads outside the timed phase, and
/// starts a fresh server when one has served its share of jobs.
fn measured(
    args: &Args,
    inputs: &Inputs,
    mut server: Server,
    report: &mut Report,
    checker: &mut Checker,
) {
    let quiet = Tracer::new(false);
    let pool = pool_grids();
    let (round, window) = match inputs.mix {
        Mix::Fresh => (FRESH_BATCH, FRESH_JOBS_PER_SERVER),
        Mix::Repeat => (REPEAT_ROUND, REPEAT_ROUND),
    };
    let (mut rates, mut cpu_per_job) = (Vec::new(), Vec::new());
    let (mut pending, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut timed_s, mut jobs) = (0.0, 0usize);
    // A run whose jobs keep failing fills no window; it still ends.
    while (p50s.is_empty() && jobs < 8 * window) || timed_s < args.seconds {
        let base = jobs;
        if inputs.mix == Mix::Fresh && jobs > 0 && jobs % FRESH_JOBS_PER_SERVER == 0 {
            // Uploaded traces are never evicted: bound the process's
            // memory by starting over on a fresh server.
            let dir = server.dir.clone();
            Server::stop(server);
            server = Server::start(dir);
        }
        let batch: Vec<Job> = match inputs.mix {
            Mix::Fresh => {
                fresh_uploads(inputs.seed, base..base + round).iter().map(fresh_job).collect()
            }
            Mix::Repeat => (base..base + round).map(|k| inputs.repeat_job(k, &pool)).collect(),
        };
        let job_of = |i: usize| batch[i - base].clone();
        let (cpu0, start) = (host::cpu_seconds(), Instant::now());
        let done =
            closed_loop(&server.addr, inputs.mix.clients(), &job_of, (base, base + round), &quiet);
        let secs = start.elapsed().as_secs_f64();
        timed_s += secs;
        rates.push(done.len() as f64 / secs);
        cpu_per_job.push((host::cpu_seconds() - cpu0) / done.len().max(1) as f64);
        jobs += done.len();
        pending.extend(tally(&done, &job_of, checker, report));
        if pending.len() >= window {
            pending.sort_by(f64::total_cmp);
            p50s.push(percentile(&pending, 50.0));
            p90s.push(percentile(&pending, 90.0));
            pending.clear();
        }
    }
    Server::stop(server);
    if p50s.is_empty() {
        eprintln!("benchmark: mismatch: no window of {window} successful jobs");
        report.mismatches += 1;
    }
    eprintln!(
        "benchmark: {jobs} jobs in {} rounds, {timed_s:.2} s; {} windows of {window} jobs, each \
         with p{} as the highest percentile with ten samples beyond it",
        rates.len(),
        p50s.len(),
        highest_supported_percentile(window, 10).unwrap_or(0.0)
    );
    let per_s = median(&rates);
    report.set("jobs_per_s", per_s);
    report.set("wall_s", 100.0 / per_s);
    report.set("cpu_s", 100.0 * median(&cpu_per_job));
    report.set("job_p50_ms", median(&p50s));
    report.set("job_p90_ms", median(&p90s));
}

/// The traced run. The same fixed job list runs three times, each on a
/// freshly set-up server: untraced and traced with the measured run's
/// clients (their wall-time ratio is the tracing overhead; the traced pass
/// gives the request spans and the scheduler's timing deltas), then with
/// one client, whose scheduler counters and decoded statistics do not
/// depend on how two clients' jobs interleave. The lower layers are then timed
/// on the same inputs.
fn traced(inputs: &Inputs, report: &mut Report, work: &Path, checker: &mut Checker) {
    let pool = pool_grids();
    let gen_start = Instant::now();
    let fresh: Vec<CapturedTrace> = match inputs.mix {
        Mix::Fresh => fresh_uploads(inputs.seed, 0..TRACED_JOBS),
        Mix::Repeat => Vec::new(),
    };
    let jobs: Vec<Job> = match inputs.mix {
        Mix::Fresh => fresh.iter().map(fresh_job).collect(),
        Mix::Repeat => (0..TRACED_JOBS).map(|k| inputs.repeat_job(k, &pool)).collect(),
    };
    report.set("bench.generate_s", inputs.generate_s + gen_start.elapsed().as_secs_f64());
    let job_of = |i: usize| jobs[i].clone();
    let pass = |clients: usize, tracer: &Tracer, checker: &mut Checker, report: &mut Report| {
        let (server, _) = set_up(inputs, work, checker, report);
        let before = server.service.metrics();
        let start = Instant::now();
        let done = closed_loop(&server.addr, clients, &job_of, (0, jobs.len()), tracer);
        let wall = start.elapsed().as_secs_f64();
        let after = server.service.metrics();
        Server::stop(server);
        tally(&done, &job_of, checker, report);
        (wall, done, before, after)
    };
    let (untraced_wall, ..) = pass(inputs.mix.clients(), &Tracer::new(false), checker, report);
    let tracer = Tracer::new(true);
    let (traced_wall, _, before, after) = pass(inputs.mix.clients(), &tracer, checker, report);
    report.set("bench.trace_overhead", traced_wall / untraced_wall);
    snapshot_delta(&before, &after, report);
    let spans = tracer.spans();
    let mean_ms = |name: &str| {
        let d: Vec<f64> = spans.iter().filter(|s| s.name == name).map(|s| s.ms()).collect();
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    report.set("service.http.upload_ms", mean_ms("service.upload"));
    report.set("service.http.submit_ms", mean_ms("service.submit"));
    // The last poll of each job is the one that returned the results.
    let mut last_poll: HashMap<u64, &crate::spans::Span> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "service.poll") {
        let slot = last_poll.entry(s.job).or_insert(s);
        if s.end_ns > slot.end_ns {
            *slot = s;
        }
    }
    let results: Vec<f64> = last_poll.values().map(|s| s.ms()).collect();
    report
        .set("service.http.results_ms", results.iter().sum::<f64>() / results.len().max(1) as f64);
    let polls = spans.iter().filter(|s| s.name == "service.poll").count();
    report.set("service.http.polls_per_job", polls as f64 / jobs.len().max(1) as f64);
    if let Err(e) = tracer.write(&work.join(format!(
        "spans-{}.jsonl",
        match inputs.mix {
            Mix::Fresh => "service-fresh",
            Mix::Repeat => "service-repeat",
        }
    ))) {
        eprintln!("benchmark: could not write spans: {e}");
    }

    let (_, done, before, after) = pass(1, &Tracer::new(false), checker, report);
    counter_delta(&before, &after, report);
    let returned: Vec<&SimStats> = done
        .iter()
        .filter_map(|d| d.outcomes.as_ref().ok())
        .flatten()
        .filter_map(MemberOutcome::stats)
        .collect();
    layers::sim_counts(report, returned);

    // Lower layers on the same inputs.
    let traces: &[CapturedTrace] = match inputs.mix {
        Mix::Fresh => &fresh,
        Mix::Repeat => &inputs.traces,
    };
    let specs: Vec<_> = (0..7)
        .map(|i| {
            upload_spec(
                inputs.seed,
                i,
                match inputs.mix {
                    Mix::Fresh => FRESH_RECORDS,
                    Mix::Repeat => REPEAT_RECORDS,
                },
            )
        })
        .collect();
    layers::compiler(report, &specs);
    let layouts: Vec<_> = specs.iter().map(crate::inputs::edvi_layout).collect();
    let records = match inputs.mix {
        Mix::Fresh => FRESH_RECORDS,
        Mix::Repeat => REPEAT_RECORDS,
    };
    let _ = layers::capture(report, &layouts.iter().collect::<Vec<_>>(), records);
    layers::products(report, &traces[..traces.len().min(7)]);
    let mut with_graphs: Vec<CapturedTrace> = traces.to_vec();
    for t in &mut with_graphs {
        t.build_depgraph();
    }
    let by_fp: HashMap<u64, &CapturedTrace> =
        with_graphs.iter().map(|t| (t.fingerprint(), t)).collect();
    let cells: Vec<(&CapturedTrace, Vec<SimConfig>)> =
        jobs.iter().map(|j| (by_fp[&j.fingerprint], j.configs.clone())).collect();
    let outcome = layers::matrix(report, cells);
    let sample: Vec<_> = jobs
        .iter()
        .zip(&outcome.cells)
        .step_by(SAMPLE_EVERY)
        .map(|(job, cell)| {
            let expected = cell.last().cloned().flatten().and_then(|o| o.stats().cloned());
            (by_fp[&job.fingerprint], job.configs[job.configs.len() - 1].clone(), expected)
        })
        .collect();
    report.mismatches += layers::core(report, &sample);
    layers::parallel_efficiency(report, &outcome);
    for (job, cell) in jobs.iter().zip(&outcome.cells) {
        for (config, member) in job.configs.iter().zip(cell) {
            let returned = checker.first.get(&(job.fingerprint, config_fingerprint(config)));
            if member.as_ref() != returned {
                eprintln!("benchmark: mismatch: the matrix and the service disagree on a member");
                report.mismatches += 1;
            }
        }
    }
    let memo_members: Vec<_> = sample
        .iter()
        .filter_map(|(trace, config, stats)| Some((*trace, config.clone(), (*stats)?)))
        .collect();
    report.mismatches += layers::memo(report, &work.join("memo-scratch"), &memo_members);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_closed_loop_never_exceeds_two_clients() {
        let dir = PathBuf::from(".bench_work").join(format!("test-loop-{}", std::process::id()));
        let server = Server::start(dir.clone());
        let trace = upload_trace(&upload_spec(1, 0, 2_000), 2_000);
        assert_eq!(upload(&server.addr, &trace.to_bytes()), Ok(trace.fingerprint()));
        let job = Job::new(None, trace.fingerprint(), fresh_grid());
        let make = |_| job.clone();
        let quiet = Tracer::new(false);
        let done = closed_loop(&server.addr, CLIENTS, &make, (0, 12), &quiet);
        Server::stop(server);
        std::fs::remove_dir(".bench_work").ok();
        assert_eq!(done.len(), 12);
        assert!(done.iter().all(|d| d.outcomes.is_ok()));
        let peak = PEAK_IN_FLIGHT.load(Ordering::SeqCst);
        assert!((1..=CLIENTS).contains(&peak), "{peak} jobs were in flight at once");
    }

    #[test]
    #[should_panic(expected = "clients")]
    fn more_clients_are_refused() {
        let make = |_: usize| -> Job { unreachable!("no job may start") };
        let quiet = Tracer::new(false);
        closed_loop("127.0.0.1:9", CLIENTS + 1, &make, (0, 1), &quiet);
    }
}
