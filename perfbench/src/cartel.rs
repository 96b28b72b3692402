//! The `cartel_web` and `cartel_web_nodifc` workloads: the Figure-3 CarTel
//! request mix through a networked application server, as an open loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ifdb::Database;
use ifdb_cartel::{ingest, schema, scripts, CartelPolicy, SensorIngest, TraceGenerator};
use ifdb_client::protocol::MetricsSnapshot;
use ifdb_platform::{AppServer, Authenticator, Request, ServerConfig as WebConfig};
use ifdb_server::{ServerConfig, ServerHandle};

use crate::host::{self, CpuTicks};
use crate::stats::{median, mix, quantile, windowed_quantile};
use crate::trace::SpanLog;
use crate::{Layer, Outcome, Params, DATA_SEED, PLATFORM_SECRET, SENDERS};

/// Registered users.
pub const USERS: usize = 40;
/// Cars per user.
pub const CARS_PER_USER: usize = 2;
/// GPS points preloaded per car through the ingest path.
pub const POINTS_PER_CAR: usize = 40;
/// Offered rate of the latency phase (requests/s), below the capacity of
/// both cartel workloads on a 2-core host.
pub const REFERENCE_RATE: f64 = 400.0;
/// The p99 limit (ms) of the open-loop capacity search.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// Rate steps of the capacity search.
const SEARCH_STEPS: usize = 3;
/// Open-loop requests at the reference rate, per measured second.
const REF_PER_S: f64 = 160.0;
/// Closed-loop burst requests, per measured second.
const BURST_PER_S: f64 = 400.0;
/// Requests of each capacity-search step, per measured second.
const STEP_PER_S: f64 = 50.0;
/// Cycles of reference slice plus closed-loop burst.
const CYCLES: usize = 10;
/// Closed-loop warm-up rounds of 200 requests.
const WARM_ROUNDS: usize = 3;

/// One CarTel deployment: data, policy, an in-process application server,
/// and (when serving) an `ifdb-server` plus a networked application server.
pub struct Deployment {
    policy: Arc<CartelPolicy>,
    /// Runs scripts over in-process sessions: the replay oracle and the
    /// engine-only timing.
    local: Arc<AppServer>,
    served: Option<(ServerHandle, Arc<AppServer>)>,
}

impl Deployment {
    /// Builds the database with the fixed data seed, loads users, cars and
    /// GPS history through the ingest path, and registers the scripts.
    /// With `serve`, also starts the reactor server on loopback.
    pub fn build(difc: bool, serve: bool) -> Deployment {
        let db = Database::builder()
            .in_memory()
            .difc(difc)
            .seed(DATA_SEED)
            .build()
            .expect("in-memory database");
        schema::create_schema(&db).expect("CarTel schema");
        let policy = Arc::new(CartelPolicy::bootstrap(&db, USERS, DATA_SEED));
        ingest::register_triggers(&db, policy.clone()).expect("CarTel triggers");
        let loader = SensorIngest::new(db.clone(), policy.clone());
        let mut gps = TraceGenerator::new(DATA_SEED);
        for user in policy.users() {
            for c in 0..CARS_PER_USER {
                let carid = user.userid * 100 + c as i64;
                loader
                    .register_car(user, carid, &format!("{}-car-{c}", user.username))
                    .expect("car registration");
                loader
                    .ingest(&gps.trace(carid, user.userid, POINTS_PER_CAR))
                    .expect("GPS ingest");
            }
        }
        // Reclaim the versions the drive-update triggers superseded, so reads
        // see a steady-state heap rather than the load's history.
        db.vacuum().expect("vacuum after load");
        let auth = Arc::new(Authenticator::new());
        for user in policy.users() {
            auth.register(&user.username, &user.password, user.principal);
        }
        let web = WebConfig {
            base_request_cost: Duration::ZERO,
            ifc_request_cost: Duration::ZERO,
            ifc_enabled: difc,
        };
        let local = Arc::new(AppServer::new(db.clone(), auth.clone(), web.clone()));
        scripts::register_scripts(&local, policy.clone());
        let served = serve.then(|| {
            let config = ServerConfig::builder()
                .addr("127.0.0.1:0")
                .workers(crate::nproc())
                .platform_secret(PLATFORM_SECRET)
                .build()
                .expect("server config");
            let handle = ifdb_server::start(db.clone(), auth.clone(), config).expect("server");
            let net = Arc::new(AppServer::networked(
                db.clone(),
                auth.clone(),
                web,
                &handle.addr().to_string(),
                PLATFORM_SECRET,
            ));
            scripts::register_scripts(&net, policy.clone());
            (handle, net)
        });
        Deployment {
            policy,
            local,
            served,
        }
    }

    fn net(&self) -> &Arc<AppServer> {
        &self.served.as_ref().expect("serving deployment").1
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.served
            .as_ref()
            .expect("serving deployment")
            .0
            .metrics()
    }

    /// Stops the server, joining its threads.
    pub fn shutdown(mut self) {
        if let Some((handle, _)) = self.served.take() {
            handle.shutdown();
        }
    }
}

/// Requests per deck: every consecutive block of this many requests holds
/// the Figure-3 mix exactly, so phases of different seeds carry the same
/// work and differ only in order, users and arrival times.
const DECK: usize = 100;
/// Write conflicts after which a request is given up.
const MAX_CONFLICTS: u32 = 20;

/// The request stream of one run, generated from the seed before timing:
/// which script, which user, and the unit-rate exponential gap before it.
pub struct Stream {
    script: Vec<u8>,
    user: Vec<u32>,
    gap: Vec<f64>,
    scripts: Vec<String>,
    next: usize,
}

impl Stream {
    /// `len` requests drawn from `seed`: decks of the Figure-3 mix (99%
    /// reads; `friends.php` lists, it does not add), each shuffled.
    pub fn generate(seed: u64, len: usize) -> Stream {
        let table = scripts::figure3_mix();
        let deck: Vec<u8> = table
            .iter()
            .enumerate()
            .flat_map(|(k, (w, _))| {
                std::iter::repeat_n(k as u8, (w * DECK as f64).round() as usize)
            })
            .collect();
        let mut state = mix(seed ^ 0xCA27E1);
        let mut next_u64 = || {
            state = mix(state);
            state
        };
        let (mut script, mut user, mut gap) = (Vec::new(), Vec::new(), Vec::new());
        while script.len() < len {
            let mut block = deck.clone();
            for i in (1..block.len()).rev() {
                block.swap(i, (next_u64() % (i as u64 + 1)) as usize);
            }
            script.extend(block);
        }
        script.truncate(len);
        for _ in 0..len {
            user.push((next_u64() % USERS as u64) as u32);
            let uniform = (next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            gap.push(-(1.0 - uniform).ln());
        }
        Stream {
            script,
            user,
            gap,
            scripts: table.into_iter().map(|(_, s)| s).collect(),
            next: 0,
        }
    }

    /// Takes the next `n` requests with their due offsets (ns) at `rate`
    /// requests/s, wrapping around at the end of the stream.
    fn take(&mut self, n: usize, rate: f64, policy: &CartelPolicy) -> (Vec<Request>, Vec<u64>) {
        let mut reqs = Vec::with_capacity(n);
        let mut due = Vec::with_capacity(n);
        let mut t = 0.0;
        for _ in 0..n {
            let i = self.next % self.script.len();
            self.next += 1;
            t += self.gap[i] / rate;
            let user = &policy.users()[self.user[i] as usize];
            reqs.push(Request::new(&self.scripts[self.script[i] as usize]).as_user(&user.username));
            due.push((t * 1e9) as u64);
        }
        (reqs, due)
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Position in the phase's request list.
    index: usize,
    /// Due time → response, µs.
    latency_us: f64,
    ok: bool,
}

/// What one load phase produced.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    elapsed_s: f64,
    sender_cpu_ns: u64,
    /// Requests whose body revealed another user's car.
    leaks: Vec<String>,
    /// The error of each failed request.
    errors: Vec<String>,
    /// Write conflicts retried.
    conflicts: u64,
    /// `(request, wire body)` kept for the post-run replay.
    kept: Vec<(Request, Vec<String>)>,
    spans: Option<SpanLog>,
}

impl Phase {
    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Appends `other`'s requests after this phase's.
    fn absorb(&mut self, other: Phase) {
        let base = self.samples.len();
        self.samples
            .extend(other.samples.into_iter().map(|s| Sample {
                index: s.index + base,
                ..s
            }));
        self.elapsed_s += other.elapsed_s;
        self.sender_cpu_ns += other.sender_cpu_ns;
        self.leaks.extend(other.leaks);
        self.errors.extend(other.errors);
        self.conflicts += other.conflicts;
        self.kept.extend(other.kept);
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_us / 1e3).collect()
    }
}

/// Checks that a `cars.php`/`get_cars.php` body names only the requester's
/// cars; returns the offending line otherwise.
fn foreign_car(policy: &CartelPolicy, req: &Request, body: &[String]) -> Option<String> {
    if req.script != "cars.php" && req.script != "get_cars.php" {
        return None;
    }
    let owner = req
        .user
        .as_deref()
        .and_then(|u| policy.user_by_name(u))?
        .userid;
    body.iter()
        .find(|line| {
            let carid = line
                .strip_prefix("car ")
                .and_then(|r| r.split_whitespace().next())
                .and_then(|c| c.parse::<i64>().ok());
            carid.is_none_or(|c| policy.owner_of_car(c) != Some(owner))
        })
        .cloned()
}

/// Sends `reqs` from [`SENDERS`] named threads sharing one queue. With
/// `due`, each request waits for its due time (open loop); without, the
/// senders go back to back (closed loop). `keep` selects the requests
/// whose bodies are kept for replay.
fn drive(
    app: &AppServer,
    policy: &CartelPolicy,
    reqs: &[Request],
    due: Option<&[u64]>,
    keep: &(dyn Fn(usize) -> bool + Sync),
    trace: bool,
) -> Phase {
    let next = AtomicUsize::new(0);
    // A short lead lets both senders start before the first due time.
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<Phase> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..SENDERS)
            .map(|k| {
                let next = &next;
                std::thread::Builder::new()
                    .name(format!("pb-send-{k}"))
                    .spawn_scoped(scope, move || {
                        let cpu0 = host::this_thread_cpu_ns();
                        let mut out = Phase {
                            spans: trace.then(|| SpanLog::new(start)),
                            ..Phase::default()
                        };
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= reqs.len() {
                                break;
                            }
                            let due_at = match due {
                                Some(d) => start + Duration::from_nanos(d[i]),
                                None => Instant::now(),
                            };
                            let now = Instant::now();
                            if due_at > now {
                                std::thread::sleep(due_at - now);
                            }
                            let sent = Instant::now();
                            let mut resp = app.handle(&reqs[i]);
                            // Two concurrent `edit_account.php` requests of
                            // one user conflict under snapshot isolation;
                            // the loser is retried, as a web server retries
                            // a serialization failure.
                            let mut conflicts = 0;
                            while conflicts < MAX_CONFLICTS
                                && resp
                                    .error
                                    .as_deref()
                                    .is_some_and(|e| e.contains("write conflict"))
                            {
                                conflicts += 1;
                                resp = app.handle(&reqs[i]);
                            }
                            out.conflicts += u64::from(conflicts);
                            let done = Instant::now();
                            out.samples.push(Sample {
                                index: i,
                                latency_us: (done - due_at).as_secs_f64() * 1e6,
                                ok: resp.is_ok(),
                            });
                            if let Some(log) = out.spans.as_mut() {
                                let op = i as u64;
                                let root = log.record(
                                    "platform.request",
                                    op,
                                    None,
                                    log.at(due_at),
                                    log.at(done),
                                );
                                log.record(
                                    "platform.queue_wait",
                                    op,
                                    Some(root),
                                    log.at(due_at),
                                    log.at(sent),
                                );
                                log.record(
                                    "platform.handle",
                                    op,
                                    Some(root),
                                    log.at(sent),
                                    log.at(done),
                                );
                            }
                            if let Some(e) = &resp.error {
                                out.errors.push(format!("{}: {e}", reqs[i].script));
                            }
                            if let Some(line) = foreign_car(policy, &reqs[i], &resp.body) {
                                out.leaks.push(format!("{:?}: {line}", reqs[i].user));
                            }
                            if keep(i) {
                                out.kept.push((reqs[i].clone(), resp.body));
                            }
                        }
                        out.sender_cpu_ns = host::this_thread_cpu_ns() - cpu0;
                        out
                    })
                    .expect("spawn sender")
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("sender thread"))
            .collect()
    });
    let mut phase = Phase {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for r in results {
        phase.samples.extend(r.samples);
        phase.sender_cpu_ns += r.sender_cpu_ns;
        phase.leaks.extend(r.leaks);
        phase.errors.extend(r.errors);
        phase.conflicts += r.conflicts;
        phase.kept.extend(r.kept);
        if let Some(log) = r.spans {
            match phase.spans.as_mut() {
                Some(all) => all.absorb(log),
                None => phase.spans = Some(log),
            }
        }
    }
    phase.samples.sort_by_key(|s| s.index);
    phase
}

/// Runs `reqs` one after another on the calling thread through `app`, an
/// in-process application server: a closed loop with nothing between the
/// requests. Latency is timed per request.
fn run_inproc(app: &AppServer, policy: &CartelPolicy, reqs: &[Request]) -> Phase {
    let mut out = Phase::default();
    let start = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        let t = Instant::now();
        let resp = app.handle(req);
        out.samples.push(Sample {
            index: i,
            latency_us: t.elapsed().as_secs_f64() * 1e6,
            ok: resp.is_ok(),
        });
        if let Some(e) = &resp.error {
            out.errors.push(format!("{} (in-process): {e}", req.script));
        }
        if let Some(line) = foreign_car(policy, req, &resp.body) {
            out.leaks.push(format!("{:?}: {line}", req.user));
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Runs every script for every user, then a fixed number of closed-loop
/// rounds over the stream, so the statement cache, label memo and
/// connection pool are full. The count is fixed because the program's
/// per-request cost depends on how many requests it has served. Returns
/// the errors of failed requests and whether the last round still added a
/// statement template to the server cache.
fn warm_up(dep: &Deployment, stream: &mut Stream) -> (Vec<String>, bool) {
    let net = dep.net();
    let mut errors = Vec::new();
    for script in &stream.scripts {
        for user in dep.policy.users() {
            if let Some(e) = net
                .handle(&Request::new(script).as_user(&user.username))
                .error
            {
                errors.push(format!("{script}: {e}"));
            }
        }
    }
    let misses = |m: MetricsSnapshot| m.get("server", "stmt_cache_misses").unwrap_or(0);
    let mut grew = false;
    for _ in 0..WARM_ROUNDS {
        let before = misses(dep.metrics());
        let (reqs, _) = stream.take(200, 1.0, &dep.policy);
        errors.extend(drive(net, &dep.policy, &reqs, None, &|_| false, false).errors);
        grew = misses(dep.metrics()) != before;
    }
    stream.next = 0;
    (errors, grew)
}

/// Counter readings taken around a phase.
struct Around {
    metrics: MetricsSnapshot,
    threads: Vec<(String, u64)>,
    cpu_s: f64,
}

impl Around {
    fn now(dep: &Deployment) -> Around {
        Around {
            metrics: dep.metrics(),
            threads: host::threads_cpu_ns(),
            cpu_s: host::process_cpu_s(),
        }
    }
}

/// Per-layer counter metrics of a phase with `ops` completed requests.
fn counter_layers(before: &Around, after: &Around, phase: &Phase, layers: &mut Layer) {
    let ops = phase.samples.len().max(1) as f64;
    let d = |group: &str, name: &str| {
        after.metrics.get(group, name).unwrap_or(0) as f64
            - before.metrics.get(group, name).unwrap_or(0) as f64
    };
    let cpu = |prefix: &str| {
        host::group_cpu_ns(&after.threads, prefix) as f64
            - host::group_cpu_ns(&before.threads, prefix) as f64
    };
    layers.set(
        "client.cpu_us_per_op",
        phase.sender_cpu_ns as f64 / 1e3 / ops,
    );
    layers.set(
        "server.reactor_cpu_us_per_op",
        cpu("ifdb-reactor") / 1e3 / ops,
    );
    layers.set("server.exec_cpu_us_per_op", cpu("ifdb-exec-") / 1e3 / ops);
    layers.set("server.requests_per_op", d("server", "requests") / ops);
    layers.set("server.statements_per_op", d("server", "statements") / ops);
    layers.set(
        "server.response_bytes_per_op",
        d("server", "response_bytes") / ops,
    );
    let (hits, misses) = (
        d("server", "stmt_cache_hits"),
        d("server", "stmt_cache_misses"),
    );
    layers.set(
        "server.stmt_cache_hit_rate",
        hits / (hits + misses).max(1.0),
    );
    layers.set(
        "server.backpressure_pauses",
        d("server", "backpressure_pauses"),
    );
    layers.set(
        "difc.declassifications_per_op",
        d("audit", "declassifications") / ops,
    );
    layers.set("difc.audit_events_per_op", d("audit", "events") / ops);
    layers.set(
        "difc.chained_records_per_op",
        d("audit", "chained_records") / ops,
    );
    crate::storage_layers(|n| d("engine", n), ops, ops, 0.0, layers);
    layers.set("storage.conflicts_per_commit", phase.conflicts as f64 / ops);
}

/// Runs one cartel workload. `difc` selects IFDB (true) or the baseline.
pub fn run(p: &Params, difc: bool) -> Outcome {
    let mut out = Outcome::default();
    let (dep, setup_s) = crate::timed_setup(
        p.setups,
        || Deployment::build(difc, true),
        Deployment::shutdown,
    );
    out.e2e("setup_s", setup_s);
    let secs = p.seconds;
    let ref_n = (REF_PER_S * secs) as usize;
    let mut stream = Stream::generate(p.seed, 1 << 16);
    let (warm_errors, still_warming) = warm_up(&dep, &mut stream);
    out.check(
        warm_errors.is_empty(),
        format!("{} warm-up requests failed", warm_errors.len()),
    );
    if still_warming {
        println!("note: the statement cache was still filling in the last warm-up round");
    }
    let keep_seed = mix(p.seed ^ 0x5E1EC7);
    let keep = move |i: usize| mix(keep_seed ^ i as u64).is_multiple_of(16);
    let net = dep.net().clone();
    let ticks0 = CpuTicks::now();

    // Cycles of a slice at the reference rate (open loop: latency) and,
    // untraced, a closed-loop burst (capacity). Per-request cost grows
    // with the requests served, so both figures pool every cycle: each
    // covers the same span of history, and no single cycle sets it.
    let ref_slice = ref_n / CYCLES;
    let burst_n = (secs * BURST_PER_S) as usize / CYCLES;
    let mut all = Phase::default();
    let mut ref_ms = Vec::new();
    let mut bursts = Vec::new();
    let mut burst_total = (0.0, 0.0);
    let before = Around::now(&dep);
    for _ in 0..CYCLES {
        let (reqs, due) = stream.take(ref_slice, REFERENCE_RATE, &dep.policy);
        let slice = drive(&net, &dep.policy, &reqs, Some(&due), &keep, false);
        ref_ms.extend(slice.latencies_ms());
        all.absorb(slice);
        if !p.trace {
            let (reqs, _) = stream.take(burst_n, 1.0, &dep.policy);
            let burst = drive(&net, &dep.policy, &reqs, None, &|_| false, false);
            bursts.push(burst.samples.len() as f64 / burst.elapsed_s);
            burst_total.0 += burst.samples.len() as f64;
            burst_total.1 += burst.elapsed_s;
            all.absorb(burst);
        }
    }
    let after = Around::now(&dep);
    out.e2e("p50_ms", quantile(&mut ref_ms.clone(), 0.5));
    println!(
        "tail at {REFERENCE_RATE}/s: p90 {:.3} ms, p99 {:.3} ms",
        windowed_quantile(&ref_ms, 0.9),
        windowed_quantile(&ref_ms, 0.99)
    );
    let ops = all.samples.len().max(1) as f64;
    out.e2e("cpu_ms_per_op", (after.cpu_s - before.cpu_s) * 1e3 / ops);
    counter_layers(&before, &after, &all, &mut out.layers);
    out.count_ops(all.samples.len() as u64, all.failed());
    let mut kept = std::mem::take(&mut all.kept);
    let mut leaks = std::mem::take(&mut all.leaks);
    let mut errors = warm_errors;
    errors.append(&mut all.errors);
    let mut conflicts = all.conflicts;

    if p.trace {
        errors.extend(trace_phases(p, &dep, &mut stream, &ref_ms, &mut out));
    } else {
        let burst_iqr = (quantile(&mut bursts, 0.25), quantile(&mut bursts, 0.75));
        let closed = burst_total.0 / burst_total.1.max(1e-9);
        out.e2e("throughput", closed);
        // The open-loop search bisects for the highest offered rate whose
        // p99 meets the limit, between 20% and 100% of the closed-loop
        // rate. Printed, not gated: one host stall fails a step.
        let (mut lo, mut hi) = (0.2 * closed, closed);
        let step_n = (secs * STEP_PER_S) as usize;
        let mut steps = Vec::new();
        for _ in 0..SEARCH_STEPS {
            let rate = (lo + hi) / 2.0;
            let (reqs, due) = stream.take(step_n, rate, &dep.policy);
            let step = drive(&net, &dep.policy, &reqs, Some(&due), &keep, false);
            let p99 = quantile(&mut step.latencies_ms(), 0.99);
            let pass = p99 <= LATENCY_LIMIT_MS && step.failed() == 0;
            steps.push(format!(
                "{rate:.0}/s p99={p99:.1}ms {}",
                if pass { "pass" } else { "fail" }
            ));
            if pass {
                lo = rate;
            } else {
                hi = rate;
            }
            out.count_ops(step.samples.len() as u64, step.failed());
            kept.extend(step.kept);
            leaks.extend(step.leaks);
            errors.extend(step.errors);
            conflicts += step.conflicts;
        }
        println!(
            "closed-loop WIPS {closed:.0}/s (bursts IQR {:.0}..{:.0}); open-loop WIPS at p99 <= {LATENCY_LIMIT_MS} ms: {lo:.0}/s ({})",
            burst_iqr.0,
            burst_iqr.1,
            steps.join(", ")
        );
    }
    out.e2e("peak_rss_mb", host::peak_rss_mb());
    let steal = ticks0.steal_frac_until(&CpuTicks::now());
    out.layers.set("host.steal_frac", steal);

    let mut distinct = std::collections::BTreeMap::<&str, usize>::new();
    for e in &errors {
        *distinct.entry(e).or_default() += 1;
    }
    for (e, n) in distinct {
        println!("FAILED REQUESTS: {n} x {e}");
    }

    // Correctness: every response succeeded, every cars body names only
    // the requester's cars, and a seeded sample of wire bodies replays
    // in-process to the same body.
    out.check(
        out.failed == 0,
        format!("{} of {} requests failed", out.failed, out.attempted),
    );
    out.check(
        leaks.is_empty(),
        format!(
            "{} bodies revealed another user's car: {:?}",
            leaks.len(),
            leaks.first()
        ),
    );
    let mut mismatched = 0;
    for (req, body) in &kept {
        if dep.local.handle(req).body != *body {
            mismatched += 1;
        }
    }
    out.check(
        mismatched == 0,
        format!(
            "{mismatched} of {} replayed wire bodies differ from the in-process body",
            kept.len()
        ),
    );
    println!(
        "replayed {} wire responses in-process; {} isolation violations; {conflicts} write conflicts retried",
        kept.len(),
        leaks.len()
    );
    dep.shutdown();
    out
}

/// The traced half of a `--trace 1` run: the same reference rate with
/// spans on, then an in-process replay of the stream for the core layer,
/// and the same replay on two fresh deployments, DIFC on and off, for the
/// label cost. Returns the errors of failed requests.
fn trace_phases(
    p: &Params,
    dep: &Deployment,
    stream: &mut Stream,
    untraced_ms: &[f64],
    out: &mut Outcome,
) -> Vec<String> {
    let n = untraced_ms.len();
    let (reqs, due) = stream.take(n, REFERENCE_RATE, &dep.policy);
    let traced = drive(dep.net(), &dep.policy, &reqs, Some(&due), &|_| false, true);
    out.count_ops(traced.samples.len() as u64, traced.failed());
    let log = traced.spans.as_ref().expect("traced phase records spans");
    let mut handle = log.durations_us("platform.handle");
    let mut wait = log.durations_us("platform.queue_wait");
    let handle_p50 = quantile(&mut handle, 0.5);
    out.layers.set("platform.handle_us.p50", handle_p50);
    out.layers
        .set("platform.handle_us.p99", quantile(&mut handle, 0.99));
    out.layers
        .set("platform.queue_wait_us.p99", quantile(&mut wait, 0.99));
    let mut a = untraced_ms.to_vec();
    let mut b = traced.latencies_ms();
    out.layers.set(
        "trace.overhead_p50",
        quantile(&mut b, 0.5) / quantile(&mut a, 0.5) - 1.0,
    );
    out.layers.set("trace.spans", log.spans.len() as f64);
    crate::self_time_layers(log, "platform.request", out);

    // Engine-only timing: the same requests through in-process sessions.
    let replay = p.replay_ops.min(reqs.len());
    let mut errors = traced.errors.clone();
    let mut inproc = |app: &AppServer| -> f64 {
        let mut phase = run_inproc(app, &dep.policy, &reqs[..replay]);
        errors.append(&mut phase.errors);
        median(&mut phase.latencies_ms()) * 1e3
    };
    let op_p50 = inproc(&dep.local);
    out.layers.set("core.op_us.p50", op_p50);
    out.layers
        .set("core.wire_share", 1.0 - op_p50 / handle_p50.max(1e-9));
    // The label cost compares two fresh in-process deployments built in
    // this run, DIFC on and off, over the same requests: the program's
    // per-request cost depends on how many requests it has served, so the
    // loaded deployment is not a fair partner for a fresh one.
    let fresh: Vec<f64> = [true, false]
        .into_iter()
        .map(|on| {
            let d = Deployment::build(on, false);
            let us = inproc(&d.local);
            d.shutdown();
            us
        })
        .collect();
    out.layers.set("difc.label_cost_us", fresh[0] - fresh[1]);
    let path = p
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", p.workload, p.seed));
    log.write_jsonl(&path).expect("write spans");
    println!("wrote {} spans to {}", log.spans.len(), path.display());
    errors
}
