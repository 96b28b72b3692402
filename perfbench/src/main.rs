//! `perfbench`: the end-to-end and per-layer benchmark of the IFDB
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cartel_web --seed 1 --seconds 10 --trace 0
//! cargo test --release --manifest-path perfbench/Cargo.toml   # smoke runs
//! ```
//!
//! One run builds one workload's deployment in-process — an `ifdb-server`
//! on the reactor backend with `workers = nproc`, listening on loopback —
//! and loads it from one process with 2 named sender threads (`pb-send-*`)
//! over 2 connections. The process keeps to one CPU
//! ([`host::pin_to_one_cpu`] says why), where `nproc` is 1: one executor,
//! and the senders and the server share that CPU. Request and transaction
//! streams are generated from `--seed` before timing starts; the loaded
//! data is fixed. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and the metrics. The process exits
//! non-zero when a correctness check fails. `--smoke` caps the run at 2 s
//! with one set-up, for tests.
//!
//! The program's per-request cost grows with the number of transactions it
//! has served (every snapshot walks the status of every transaction so
//! far), so every phase sends a fixed number of requests, in a fixed order:
//! the history behind each figure is the same in every run.
//!
//! # Workloads
//!
//! * `cartel_web` — the paper's web traffic (Fig. 4/5): the Figure-3 CarTel
//!   mix through `AppServer::networked` with DIFC on. 99% of requests read;
//!   every one raises and declassifies labels, and 8% run the
//!   `traffic_stats` authority closure over every user's drives.
//!   In-memory storage (40 users, 2 cars each, 40 GPS points per car,
//!   vacuumed after the load): the label memo, statement cache and heap
//!   all fit, so the write-ahead log is nearly idle. Every block of 100
//!   requests holds the mix exactly, shuffled by the seed. The run
//!   alternates 10 cycles of an open-loop slice with Poisson arrivals at
//!   [`cartel::REFERENCE_RATE`] and a closed-loop burst, then bisects for
//!   the open-loop capacity.
//! * `cartel_web_nodifc` — the same data and request stream with
//!   `difc_enabled = false` and platform IFC off: the paper's
//!   PostgreSQL+PHP baseline. It bypasses the difc layer, so a change to
//!   that layer alone must leave it unchanged, and the pair gives the IFDB
//!   overhead as a same-host ratio.
//! * `tpcc_disk` — the DBT-2/TPC-C 45/43/4/4/4 mix (Fig. 6) through
//!   `run_transaction_on` over 2 connections as a closed loop with no think
//!   time, every tuple labelled with the same 2 tags; each phase runs a
//!   fixed number of transactions. On-disk storage with `GROUP_COMMIT`, a
//!   checkpoint every 500 and a vacuum every 1000 commits, and a 160-page
//!   buffer pool, about a quarter of the pages the load writes (2
//!   warehouses, 300 customers per district, 10 000 items; the run prints
//!   the ratio). Writes beside `cartel_web`'s reads, and data
//!   larger than the program's cache beside data that fits.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! The result line carries what one operation costs the system, in units
//! the host cannot stretch, with memory and set-up time. "Per op" is per
//! completed request (`cartel_*`) or per committed transaction
//! (`tpcc_disk`, retries included), over the measured phase.
//!
//! * `round_trips_per_op` (count) — wire requests the server served per
//!   op: the networked `AppServer` sends a script's statements, label
//!   operations and commit one by one, so this is what a faster or slower
//!   network multiplies.
//! * `statements_per_op` (count) — statements the server executed per op.
//! * `response_bytes_per_op` (B) — bytes the server sent back per op.
//! * `peak_rss_mb` — peak resident memory of the process.
//! * `setup_s` — the median of 3 builds of the deployment (load plus
//!   server start).
//!
//! Every run also prints and logs the timings, which are not in the
//! result line: on the 2-vCPU VM the benchmark was built on, the host's
//! speed drifted by up to 1.6x over minutes with no steal to show for it
//! (CPU time per CarTel request 0.33 to 0.48 ms within four minutes, per
//! TPC-C transaction 1.6 to 2.9 ms within thirteen), so ten runs of the
//! same code spread their timings by 0.05 to 0.4 of the median
//! (interquartile range; 0.15 to 0.3 was typical), more than the 0.25 a
//! result-line bound may be.
//! The timings serve paired comparisons of two commits run alternately,
//! where neighbouring runs share the host's state:
//!
//! * `throughput` (1/s) — for `cartel_*`, closed-loop WIPS: requests per
//!   second of the 2 senders with no think time, over the 10 bursts
//!   together (per-request cost grows with the requests served, so no
//!   single burst stands for the run). The open-loop WIPS of Fig. 4 — the
//!   highest offered rate whose p99 meets [`cartel::LATENCY_LIMIT_MS`],
//!   timed from the due time so a growing backlog fails it — is printed
//!   too. For `tpcc_disk`, committed transactions per second over the
//!   measured phase, and NOTPM.
//! * `p50_ms` — for `cartel_*`, request latency from the due time at the
//!   reference rate; for `tpcc_disk`, per committed transaction from its
//!   first attempt, retries included. The tails, p90 and p99 (each the
//!   median of the quantiles of consecutive windows that put at least ten
//!   samples beyond it), are printed too.
//! * `cpu_ms_per_op` — process user+sys CPU per op.
//!
//! The error rate, failed or refused ops over attempted ops, is printed
//! with both counts; the JSON carries the counts. A write conflict is
//! retried with the same inputs, not counted as failed: in `cartel_*` two
//! concurrent `edit_account.php` requests of one user conflict under
//! snapshot isolation (up to 20 retries), and in `tpcc_disk` transactions
//! conflict as in DBT-2 (up to 50). In `tpcc_disk` a transaction that
//! fails with any other error counts as a failed op, is retried with the
//! same inputs up to 3 times, and each distinct error is printed.
//!
//! # Correctness checks
//!
//! * `cartel_*`: every response succeeds; no `cars.php`/`get_cars.php`
//!   body names a car of another user; a seeded sixteenth of the wire
//!   responses, replayed in-process for the same user, gives the same body.
//! * `tpcc_disk`: `orders` grows by exactly the acked new-orders and
//!   `history` by exactly the acked payments, and both still hold after the
//!   database is reopened with `recover()`: acked implies durable.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run measures the workload's latency phase with tracing off,
//! then again with spans recorded at every boundary the benchmark calls
//! ([`trace`]), then replays the stream in-process. Counters and per-thread
//! CPU are read around the untraced phase; spans come from the traced one.
//! Every metric is printed for every workload; one whose layer is not on a
//! workload's path reads 0. "Per op" is per completed request
//! (`cartel_*`) or per committed transaction (`tpcc_disk`). The arrow names
//! the end-to-end metric and workload each one should move.
//!
//! * `platform.handle_us.{p50,p99}` — span around `AppServer::handle`
//!   → `p50_ms` @ cartel_*; `platform.queue_wait_us.p99` — due time to
//!   send → the printed tail @ cartel_*.
//! * `client.call_us.{p50,p99}`, `client.commit_us.{p50,p99}` — spans of a
//!   forwarding `SessionApi` wrapper around each benchmark-owned
//!   `Connection` → `p50_ms`/`throughput` @ tpcc_disk;
//!   `client.{round_trips,statements,pipelined}_per_op` — deltas of
//!   `Connection::stats()` → `p50_ms` @ tpcc_disk; `client.cpu_us_per_op` —
//!   CPU of the sender threads → `cpu_ms_per_op` @ all.
//! * `server.reactor_cpu_us_per_op` (thread `ifdb-reactor`) and
//!   `server.exec_cpu_us_per_op` (threads `ifdb-exec-*`) →
//!   `cpu_ms_per_op`/`throughput` @ all; `server.{requests,statements,
//!   response_bytes}_per_op` are the result line's `round_trips_per_op`,
//!   `statements_per_op` and `response_bytes_per_op` @ all, and move
//!   `p50_ms`/`cpu_ms_per_op` @ cartel_*;
//!   `server.stmt_cache_hit_rate` → `p50_ms` @ all;
//!   `server.backpressure_pauses` → the printed tail @ all. Deltas of
//!   `ServerHandle::metrics()`.
//! * `core.op_us.p50` — an op replayed in-process (the in-process
//!   `AppServer`, or `run_transaction_on` over a wrapped `ifdb::Session`) →
//!   `p50_ms` @ all; `core.call_us.p50` — one wrapped session call
//!   (tpcc_disk) → `p50_ms`; `core.wire_share` — 1 − in-process median /
//!   wire median, the share of an op spent outside the engine, which says
//!   whether a wire or an engine change can move `p50_ms`;
//!   `core.rows_scanned_per_row_returned` — engine tuples scanned by full
//!   scans per row the wrapper saw returned → `p50_ms` @ tpcc_disk.
//! * `difc.{declassifications,audit_events,chained_records}_per_op` — the
//!   `audit` metrics group → `cpu_ms_per_op`/`p50_ms` @ cartel_web;
//!   `difc.label_cost_us` — in-process op median with DIFC on minus off,
//!   both deployments built fresh in the same run (cartel_*); derived,
//!   never gated.
//! * `storage.{tuples_scanned,full_scans,index_lookups}_per_op` → `p50_ms`
//!   @ cartel_*; `storage.buffer_hit_rate`, `storage.{evictions,
//!   store_reads,writebacks}_per_op` → `throughput` @ tpcc_disk (near 1 and
//!   0 @ cartel_*); `storage.{wal_bytes,fsyncs,conflicts}_per_commit`
//!   (per commit is per op; in `cartel_*`, conflicts per request) →
//!   `throughput` @ tpcc_disk (write-ahead log bytes per commit moved by
//!   0.15 of the median between `tpcc_disk` runs, with the checkpoints'
//!   share, so they are not in the result line); `storage.checkpoints`, `storage.vacuums`
//!   (per phase) → the tail @ tpcc_disk. The `engine` metrics group and
//!   engine statistics.
//! * `host.fsync_us.p50` — 512-byte write+fsync on the data directory;
//!   `host.steal_frac` — the `/proc/stat` steal share during the run.
//!   Context, never gated; a steal share above 5% is flagged, since a
//!   hypervisor that takes the CPUs moves every wall-clock figure.
//! * `trace.self_us.*` — self time per op of each span kind (its duration
//!   minus its children's); `trace.accounted_share` — those summed over the
//!   mean root-span latency; `trace.overhead_p50` — traced p50 over
//!   untraced p50, minus 1; `trace.spans` — spans written, to
//!   `perfbench/out/spans-<workload>-seed<n>.jsonl`.
//!
//! Every run appends its metrics to `perfbench/out/results.tsv`; the cartel
//! workloads then print the Fig. 4/5 IFDB overhead over all logged seeds
//! with its spread, and the per-layer metrics that differ between the two.

mod cartel;
mod host;
mod stats;
mod tpcc;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::stats::{median, quantile};
use crate::trace::SpanLog;

/// Seed of the loaded data and the authority state: fixed, so every run
/// measures the same database and only the streams follow `--seed`.
pub const DATA_SEED: u64 = 0x1FDB_BE7C;
/// The platform secret shared by the application server and `ifdb-server`.
pub const PLATFORM_SECRET: &str = "perfbench-platform";
/// Load threads and connections.
pub const SENDERS: usize = 2;

const WORKLOADS: [&str; 3] = ["cartel_web", "cartel_web_nodifc", "tpcc_disk"];

/// End-to-end metrics of the result line and units, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("round_trips_per_op", "count"),
    ("statements_per_op", "count"),
    ("response_bytes_per_op", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// End-to-end timings and units: printed and logged, not in the result
/// line (the module docs say why).
const TIMINGS: [(&str, &str); 3] = [
    ("throughput", "1/s"),
    ("p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
];

/// End-to-end counts and the per-layer counters they are read from.
const COUNTS: [(&str, &str); 3] = [
    ("round_trips_per_op", "server.requests_per_op"),
    ("statements_per_op", "server.statements_per_op"),
    ("response_bytes_per_op", "server.response_bytes_per_op"),
];

/// Per-layer metrics and units, in output order.
const PER_LAYER: [(&str, &str); 48] = [
    ("platform.handle_us.p50", "us"),
    ("platform.handle_us.p99", "us"),
    ("platform.queue_wait_us.p99", "us"),
    ("client.call_us.p50", "us"),
    ("client.call_us.p99", "us"),
    ("client.commit_us.p50", "us"),
    ("client.commit_us.p99", "us"),
    ("client.round_trips_per_op", "count"),
    ("client.statements_per_op", "count"),
    ("client.pipelined_per_op", "count"),
    ("client.cpu_us_per_op", "us"),
    ("server.reactor_cpu_us_per_op", "us"),
    ("server.exec_cpu_us_per_op", "us"),
    ("server.requests_per_op", "count"),
    ("server.statements_per_op", "count"),
    ("server.response_bytes_per_op", "B"),
    ("server.stmt_cache_hit_rate", "ratio"),
    ("server.backpressure_pauses", "count"),
    ("core.op_us.p50", "us"),
    ("core.call_us.p50", "us"),
    ("core.wire_share", "ratio"),
    ("core.rows_scanned_per_row_returned", "ratio"),
    ("difc.declassifications_per_op", "count"),
    ("difc.audit_events_per_op", "count"),
    ("difc.chained_records_per_op", "count"),
    ("difc.label_cost_us", "us"),
    ("storage.tuples_scanned_per_op", "count"),
    ("storage.full_scans_per_op", "count"),
    ("storage.index_lookups_per_op", "count"),
    ("storage.buffer_hit_rate", "ratio"),
    ("storage.evictions_per_op", "count"),
    ("storage.store_reads_per_op", "count"),
    ("storage.writebacks_per_op", "count"),
    ("storage.wal_bytes_per_commit", "B"),
    ("storage.fsyncs_per_commit", "count"),
    ("storage.conflicts_per_commit", "count"),
    ("storage.checkpoints", "count"),
    ("storage.vacuums", "count"),
    ("host.fsync_us.p50", "us"),
    ("host.steal_frac", "ratio"),
    ("trace.self_us.request", "us"),
    ("trace.self_us.queue_wait", "us"),
    ("trace.self_us.handle", "us"),
    ("trace.self_us.call", "us"),
    ("trace.self_us.commit", "us"),
    ("trace.accounted_share", "ratio"),
    ("trace.overhead_p50", "ratio"),
    ("trace.spans", "count"),
];

/// Logical CPUs: the server's executor count.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload name.
    pub workload: String,
    /// Stream seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Deployments built to time set-up (the last one is measured).
    pub setups: usize,
    /// Requests replayed in-process for the core layer (`cartel_*`).
    pub replay_ops: usize,
    /// Where spans, data directories and the results log go.
    pub out_dir: PathBuf,
}

/// Per-layer metric values by name.
#[derive(Debug, Default)]
pub struct Layer(BTreeMap<&'static str, f64>);

impl Layer {
    /// Sets `name`, which must be listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }
}

/// What a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    correct: bool,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics.
    pub layers: Layer,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layers: Layer::default(),
        }
    }
}

impl Outcome {
    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&TIMINGS).any(|(n, _)| *n == name),
            "{name}"
        );
        self.e2e.insert(name, value);
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.correct = false;
            self.failures.push(what);
        }
    }

    /// Counts a phase's attempted and failed ops.
    pub fn count_ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Builds a deployment `n` times, tearing down all but the last, and
/// returns it with the median build time in seconds.
pub fn timed_setup<T>(n: usize, mut build: impl FnMut() -> T, teardown: impl Fn(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        if let Some(old) = last.take() {
            teardown(old);
        }
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), median(&mut times))
}

/// Storage-layer metrics from engine counter deltas `d`.
pub fn storage_layers(
    d: impl Fn(&str) -> f64,
    ops: f64,
    commits: f64,
    store_reads: f64,
    l: &mut Layer,
) {
    l.set("storage.tuples_scanned_per_op", d("tuples_scanned") / ops);
    l.set("storage.full_scans_per_op", d("full_table_scans") / ops);
    l.set(
        "storage.index_lookups_per_op",
        (d("index_point_lookups") + d("index_range_scans")) / ops,
    );
    let (hits, misses) = (d("buffer_hits"), d("buffer_misses"));
    // A phase that touched no page (in-memory storage) missed nothing.
    let rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        1.0
    };
    l.set("storage.buffer_hit_rate", rate);
    l.set("storage.evictions_per_op", d("evictions") / ops);
    l.set("storage.store_reads_per_op", store_reads / ops);
    l.set("storage.writebacks_per_op", d("writebacks") / ops);
    l.set("storage.wal_bytes_per_commit", d("wal_bytes") / commits);
    l.set("storage.fsyncs_per_commit", d("wal_fsyncs") / commits);
    l.set("storage.checkpoints", d("checkpoints"));
    l.set("storage.vacuums", d("vacuums"));
}

/// Self time per op of each span kind under root spans named `root`, and
/// the share of the mean root latency they account for.
pub fn self_time_layers(log: &SpanLog, root: &str, out: &mut Outcome) {
    let roots = log.durations_us(root);
    let ops = roots.len().max(1) as f64;
    let mut accounted = 0.0;
    for (name, (us, _)) in log.self_time_us() {
        let metric = match name {
            n if n == root => "trace.self_us.request",
            "platform.queue_wait" => "trace.self_us.queue_wait",
            "platform.handle" => "trace.self_us.handle",
            "client.call" => "trace.self_us.call",
            "client.commit" => "trace.self_us.commit",
            _ => continue,
        };
        out.layers.set(metric, us / ops);
        accounted += us / ops;
    }
    out.layers.set(
        "trace.accounted_share",
        accounted / stats::mean(&roots).max(1e-9),
    );
}

fn parse_args() -> Result<(Params, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, 1u64, 10.0f64, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let params = Params {
        workload,
        seed,
        seconds: if smoke { seconds.min(2.0) } else { seconds },
        trace,
        setups: if smoke { 1 } else { 3 },
        replay_ops: if smoke { 50 } else { 600 },
        out_dir,
    };
    Ok((params, smoke))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Appends this run's metrics to the results log and, for the cartel
/// pair, prints the paper-figure summary over every logged run.
fn log_and_summarize(p: &Params, metrics: &[(&str, f64, &str)]) -> std::io::Result<()> {
    let path = p.out_dir.join("results.tsv");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    for (name, value, _) in metrics {
        writeln!(
            f,
            "{}\t{}\t{}\t{name}\t{value}",
            p.workload,
            p.seed,
            u8::from(p.trace)
        )?;
    }
    if !p.workload.starts_with("cartel") {
        return Ok(());
    }
    // (workload, seed, trace, metric) → value, the latest run winning.
    let text = std::fs::read_to_string(&path)?;
    let mut runs: BTreeMap<(String, u64, bool, String), f64> = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        if let [w, s, t, m, v] = f[..] {
            if let (Ok(s), Ok(v)) = (s.parse(), v.parse()) {
                runs.insert((w.into(), s, t == "1", m.into()), v);
            }
        }
    }
    let get = |w: &str, s: u64, t: bool, m: &str| {
        runs.get(&(w.to_string(), s, t, m.to_string())).copied()
    };
    let seeds: std::collections::BTreeSet<u64> = runs.keys().map(|k| k.1).collect();
    let spread = |mut v: Vec<f64>| -> String {
        if v.is_empty() {
            return "no paired runs yet".into();
        }
        let n = v.len();
        let (q1, q2, q3) = (
            quantile(&mut v, 0.25),
            quantile(&mut v, 0.5),
            quantile(&mut v, 0.75),
        );
        format!(
            "median {:+.1}% (IQR {:+.1}%..{:+.1}%, {n} seeds)",
            q2 * 100.0,
            q1 * 100.0,
            q3 * 100.0
        )
    };
    let paired = |m: &str, f: fn(f64, f64) -> f64| -> Vec<f64> {
        seeds
            .iter()
            .filter_map(|&s| {
                Some(f(
                    get("cartel_web", s, false, m)?,
                    get("cartel_web_nodifc", s, false, m)?,
                ))
            })
            .collect()
    };
    println!("--- paper figures (from {}, not gated) ---", path.display());
    println!(
        "Fig. 4 IFDB throughput overhead (1 - WIPS ifdb/baseline): {}",
        spread(paired("throughput", |a, b| 1.0 - a / b))
    );
    println!(
        "Fig. 5 IFDB p50 latency overhead (ifdb/baseline - 1):     {}",
        spread(paired("p50_ms", |a, b| a / b - 1.0))
    );
    // Attribute the overhead: per-layer medians that differ by > 10%.
    for (name, _) in PER_LAYER {
        let med = |w: &str| {
            let mut v: Vec<f64> = seeds
                .iter()
                .filter_map(|&s| get(w, s, true, name))
                .collect();
            (!v.is_empty()).then(|| median(&mut v))
        };
        if let (Some(a), Some(b)) = (med("cartel_web"), med("cartel_web_nodifc")) {
            if (a - b).abs() > 0.1 * a.abs().max(b.abs()) && (a - b).abs() > 1e-9 {
                println!("  layer {name}: ifdb {a:.3} vs baseline {b:.3}");
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let (p, smoke) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The stamp records the machine's CPUs; the run then keeps to one.
    let stamp = host::HostStamp::collect();
    let cpu = host::pin_to_one_cpu();
    if let Err(e) = std::fs::create_dir_all(&p.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", p.out_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={} smoke={smoke} | nproc={} pinned to cpu {} kernel={} cpu=\"{}\" commit={}",
        p.workload,
        p.seed,
        p.seconds,
        u8::from(p.trace),
        stamp.nproc,
        cpu.map_or("none".to_string(), |c| c.to_string()),
        stamp.kernel,
        stamp.cpu_model,
        stamp.commit
    );
    let mut out = match p.workload.as_str() {
        "cartel_web" => cartel::run(&p, true),
        "cartel_web_nodifc" => cartel::run(&p, false),
        _ => tpcc::run(&p),
    };
    for (name, layer) in COUNTS {
        if let Some(v) = out.layers.0.get(layer).copied() {
            out.e2e(name, v);
        }
    }
    if !out.layers.0.contains_key("host.fsync_us.p50") {
        out.layers
            .set("host.fsync_us.p50", host::fsync_p50_us(&p.out_dir, 40));
    }
    let steal = out.layers.0.get("host.steal_frac").copied().unwrap_or(0.0);
    println!(
        "host: fsync p50 {:.0} us, steal {:.1}%{}",
        out.layers.0["host.fsync_us.p50"],
        steal * 100.0,
        if steal > 0.05 {
            "  ** HIGH STEAL: figures from this run are suspect **"
        } else {
            ""
        }
    );
    println!(
        "ops: {} attempted, {} failed, error_rate {:.6}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (name, value) in &out.layers.0 {
        println!("  layer {name} = {value:.4}");
    }
    let table: Vec<(&str, f64, &str)> = if p.trace {
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, out.layers.0.get(n).copied().unwrap_or(0.0), *u))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (*n, out.e2e.get(n).copied().unwrap_or(0.0), *u))
            .collect()
    };
    let timings: Vec<(&str, f64, &str)> = TIMINGS
        .iter()
        .filter_map(|(n, u)| Some((*n, *out.e2e.get(n)?, *u)))
        .collect();
    for (name, value, unit) in END_TO_END
        .iter()
        .filter_map(|(n, u)| Some((*n, *out.e2e.get(n)?, *u)))
    {
        println!("{name} = {value:.4} {unit}");
    }
    for (name, value, unit) in &timings {
        println!("{name} = {value:.4} {unit} (not gated)");
    }
    if !smoke {
        let logged: Vec<_> = table.iter().chain(&timings).copied().collect();
        if let Err(e) = log_and_summarize(&p, &logged) {
            eprintln!("perfbench: results log: {e}");
        }
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    std::io::stdout().flush().ok();
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
