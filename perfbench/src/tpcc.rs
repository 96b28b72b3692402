//! The `tpcc_disk` workload: the DBT-2 / TPC-C mix with 2-tag labels on
//! every tuple, over two benchmark-owned connections as a closed loop, on
//! on-disk group-commit storage whose buffer pool holds a fraction of the
//! loaded pages.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ifdb::{Database, DurabilityConfig};
use ifdb_client::protocol::MetricsSnapshot;
use ifdb_client::{ClientConfig, ClientStats, Connection};
use ifdb_platform::Authenticator;
use ifdb_server::{ServerConfig, ServerHandle};
use ifdb_workloads::tpcc::{
    run_transaction_on, table_defs, TpccConfig, TpccDatabase, TpccDeck, TpccTransaction,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::{self, CpuTicks};
use crate::stats::{median, mix, quantile, windowed_quantile};
use crate::trace::{SpanLog, Traced};
use crate::{Outcome, Params, DATA_SEED, SENDERS};

/// The loaded database: 2 warehouses, 10 districts each, 100 customers per
/// district, 2000 items, 30 initial orders per district; every tuple
/// labelled with the same 2 tags.
pub fn tpcc_config() -> TpccConfig {
    TpccConfig {
        warehouses: 2,
        districts_per_warehouse: 10,
        customers_per_district: 300,
        items: 10_000,
        initial_orders_per_district: 30,
        tags_per_label: 2,
        seed: DATA_SEED,
    }
}

/// Buffer-pool frames, a fraction of the pages the load writes (printed
/// with every run).
pub const BUFFER_PAGES: usize = 160;
/// Periodic checkpoint policy, in commits.
pub const CHECKPOINT_EVERY: u64 = 500;
/// Periodic vacuum policy, in commits.
pub const VACUUM_EVERY: u64 = 1000;
/// Write conflicts after which a transaction is given up.
const MAX_CONFLICTS: u32 = 50;
/// Errors other than write conflicts after which a transaction is given up.
const MAX_ERRORS: u32 = 3;
/// Transactions per measured second: every phase runs a fixed count, so
/// the history behind each figure (the engine's per-transaction cost grows
/// with it) and the memory it leaves are the same in every run.
const TXNS_PER_S: f64 = 250.0;

const USER: &str = "tpcc";
const PASSWORD: &str = "tpcc-bench";

fn durability() -> DurabilityConfig {
    DurabilityConfig::GROUP_COMMIT
        .with_checkpoint_every(CHECKPOINT_EVERY)
        .with_vacuum_every(VACUUM_EVERY)
}

fn open_builder(dir: &Path) -> ifdb::DatabaseBuilder {
    Database::builder()
        .on_disk(dir.to_path_buf(), BUFFER_PAGES)
        .durability(durability())
        .seed(DATA_SEED)
        .difc(true)
}

/// A loaded on-disk TPC-C database behind a reactor server.
pub struct Deployment {
    dir: PathBuf,
    tpcc: TpccDatabase,
    handle: ServerHandle,
    /// Heap pages written by the load.
    loaded_pages: usize,
}

impl Deployment {
    /// Loads a fresh database into `dir` and starts the server.
    pub fn build(dir: PathBuf) -> Deployment {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create data directory");
        let db = open_builder(&dir).build().expect("on-disk database");
        let tpcc = TpccDatabase::load(db, tpcc_config()).expect("TPC-C load");
        let loaded_pages = table_defs()
            .iter()
            .filter_map(|t| tpcc.db.engine().table_by_name(&t.name).ok())
            .map(|t| t.heap().page_count())
            .sum();
        let auth = Arc::new(Authenticator::new());
        auth.register(USER, PASSWORD, tpcc.principal);
        let config = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .workers(crate::nproc())
            .build()
            .expect("server config");
        let handle = ifdb_server::start(tpcc.db.clone(), auth, config).expect("server");
        Deployment {
            dir,
            tpcc,
            handle,
            loaded_pages,
        }
    }

    fn connect(&self) -> Connection {
        let tags: Vec<_> = self.tpcc.label.iter().collect();
        let config = ClientConfig::anonymous(&self.handle.addr().to_string())
            .with_user(USER, PASSWORD)
            .with_label(&tags);
        Connection::connect(&config).expect("connect")
    }

    /// Stops the server and deletes the data.
    pub fn discard(self) {
        let dir = self.dir.clone();
        self.close();
        std::fs::remove_dir_all(dir).ok();
    }

    /// Stops the server and drops every database handle; returns the data
    /// directory.
    fn close(self) -> PathBuf {
        self.handle.shutdown();
        self.dir
    }
}

/// Visible rows of `table`, counted at the storage layer (labels are not
/// consulted there), outside any timed phase.
fn count_rows(db: &Database, table: &str) -> u64 {
    let engine = db.engine();
    let id = engine.table_by_name(table).expect("table").id();
    let txn = engine.begin().expect("begin");
    let snapshot = engine.snapshot(txn);
    let mut n = 0;
    engine
        .scan_visible(&snapshot, id, |_, _| {
            n += 1;
            true
        })
        .expect("scan");
    engine.abort(txn).expect("abort");
    n
}

/// The transaction stream, dealt from the exact-mix deck before timing:
/// each entry is a type and the seed of that transaction's own inputs, so
/// a retry after a conflict replays the same inputs.
fn stream(seed: u64, len: usize) -> Vec<(TpccTransaction, u64)> {
    let deck = TpccDeck::new(mix(seed ^ 0x7CC));
    (0..len)
        .map(|i| (deck.deal(), mix(seed ^ (i as u64).wrapping_mul(0x9E37))))
        .collect()
}

/// What the terminals of one phase produced.
#[derive(Default)]
struct Phase {
    /// Per committed transaction, first attempt → commit, µs.
    latency_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    conflicts: u64,
    new_orders: u64,
    payments: u64,
    elapsed_s: f64,
    sender_cpu_ns: u64,
    /// Errors other than write conflicts.
    errors: Vec<String>,
    /// Transactions given up.
    lost: Vec<String>,
    /// Commit times, seconds since the phase started.
    commit_at_s: Vec<f64>,
    spans: Option<SpanLog>,
    rows_returned: u64,
}

impl Phase {
    fn merge(&mut self, o: Phase) {
        self.latency_us.extend(o.latency_us);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.conflicts += o.conflicts;
        self.new_orders += o.new_orders;
        self.payments += o.payments;
        self.sender_cpu_ns += o.sender_cpu_ns;
        self.errors.extend(o.errors);
        self.lost.extend(o.lost);
        self.commit_at_s.extend(o.commit_at_s);
        self.rows_returned += o.rows_returned;
        if let Some(log) = o.spans {
            match self.spans.as_mut() {
                Some(all) => all.absorb(log),
                None => self.spans = Some(log),
            }
        }
    }

    fn committed(&self) -> u64 {
        self.latency_us.len() as u64
    }

    /// Latencies in ms, ordered by commit time across both terminals.
    fn latencies_ms_in_commit_order(&self) -> Vec<f64> {
        let mut order: Vec<usize> = (0..self.latency_us.len()).collect();
        order.sort_by(|&a, &b| self.commit_at_s[a].total_cmp(&self.commit_at_s[b]));
        order.iter().map(|&i| self.latency_us[i] / 1e3).collect()
    }
}

/// Runs transactions from `txns` on `session`, taking the next index from
/// the shared cursor `next` until it reaches `end`; with a span log, every
/// call is recorded under a per-transaction root span named `names.0`.
fn terminal<S: ifdb::SessionApi>(
    session: &mut S,
    txns: &[(TpccTransaction, u64)],
    next: &AtomicUsize,
    end: usize,
    start: Instant,
    mut log: Option<&mut SpanLog>,
    names: (&'static str, &'static str, &'static str),
) -> Phase {
    let config = tpcc_config();
    let mut out = Phase::default();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= end {
            break;
        }
        let (kind, seed) = txns[i % txns.len()];
        out.attempted += 1;
        let t0 = Instant::now();
        let root = log.as_deref_mut().map(|l| l.open(names.0, i as u64, None));
        let (mut conflicts, mut errors) = (0, 0);
        let committed = loop {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = match log.as_deref_mut() {
                Some(l) => {
                    let mut traced = Traced::new(session, l, names.1, names.2);
                    traced.op = i as u64;
                    traced.parent = root;
                    let r = run_transaction_on(&config, &mut traced, &mut rng, kind);
                    out.rows_returned += traced.rows_returned;
                    r
                }
                None => run_transaction_on(&config, session, &mut rng, kind),
            };
            // A conflict rolls back and is retried, as DBT-2 does. Any other
            // error also rolled the transaction back: the op counts as
            // failed and the error is reported, and the transaction is
            // retried with the same inputs; the acked counts stay exact.
            match r {
                Ok(true) => break true,
                Ok(false) => conflicts += 1,
                Err(e) => {
                    errors += 1;
                    out.errors.push(format!("{kind:?}: {e}"));
                }
            }
            if conflicts >= MAX_CONFLICTS || errors >= MAX_ERRORS {
                break false;
            }
        };
        out.conflicts += u64::from(conflicts);
        if let (Some(l), Some(root)) = (log.as_deref_mut(), root) {
            l.close(root);
        }
        out.failed += u64::from(errors > 0 || !committed);
        if committed {
            out.latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
            out.commit_at_s.push(start.elapsed().as_secs_f64());
            match kind {
                TpccTransaction::NewOrder => out.new_orders += 1,
                TpccTransaction::Payment => out.payments += 1,
                _ => {}
            }
        } else {
            out.lost.push(format!(
                "{kind:?} given up after {conflicts} conflicts and {errors} errors"
            ));
        }
    }
    out
}

/// Two named sender threads, one connection each, closed loop over the
/// next `count` transactions of the stream.
fn drive(
    conns: &mut [Connection],
    txns: &[(TpccTransaction, u64)],
    next: &AtomicUsize,
    count: usize,
    trace: bool,
) -> Phase {
    let start = Instant::now();
    let end = next.load(Ordering::Relaxed) + count;
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                std::thread::Builder::new()
                    .name(format!("pb-send-{k}"))
                    .spawn_scoped(scope, move || {
                        let cpu0 = host::this_thread_cpu_ns();
                        let mut log = trace.then(|| SpanLog::new(start));
                        let names = ("tpcc.txn", "client.call", "client.commit");
                        let mut out = terminal(conn, txns, next, end, start, log.as_mut(), names);
                        out.spans = log;
                        out.sender_cpu_ns = host::this_thread_cpu_ns() - cpu0;
                        out
                    })
                    .expect("spawn terminal")
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("terminal thread"))
            .collect()
    });
    let mut phase = Phase::default();
    for p in parts {
        phase.merge(p);
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

fn client_stats(conns: &[Connection]) -> ClientStats {
    conns.iter().fold(ClientStats::default(), |mut acc, c| {
        let s = c.stats();
        acc.round_trips += s.round_trips;
        acc.statements += s.statements;
        acc.pipelined += s.pipelined;
        acc
    })
}

struct Around {
    metrics: MetricsSnapshot,
    store_reads: u64,
    threads: Vec<(String, u64)>,
    cpu_s: f64,
    client: ClientStats,
}

impl Around {
    fn now(dep: &Deployment, conns: &[Connection]) -> Around {
        Around {
            metrics: dep.handle.metrics(),
            store_reads: dep.tpcc.db.engine().stats().store_reads,
            threads: host::threads_cpu_ns(),
            cpu_s: host::process_cpu_s(),
            client: client_stats(conns),
        }
    }
}

fn counter_layers(before: &Around, after: &Around, phase: &Phase, out: &mut Outcome) {
    let ops = phase.committed().max(1) as f64;
    let d = |group: &str, name: &str| {
        after.metrics.get(group, name).unwrap_or(0) as f64
            - before.metrics.get(group, name).unwrap_or(0) as f64
    };
    let cpu = |prefix: &str| {
        host::group_cpu_ns(&after.threads, prefix) as f64
            - host::group_cpu_ns(&before.threads, prefix) as f64
    };
    let l = &mut out.layers;
    l.set(
        "client.round_trips_per_op",
        (after.client.round_trips - before.client.round_trips) as f64 / ops,
    );
    l.set(
        "client.statements_per_op",
        (after.client.statements - before.client.statements) as f64 / ops,
    );
    l.set(
        "client.pipelined_per_op",
        (after.client.pipelined - before.client.pipelined) as f64 / ops,
    );
    l.set(
        "client.cpu_us_per_op",
        phase.sender_cpu_ns as f64 / 1e3 / ops,
    );
    l.set(
        "server.reactor_cpu_us_per_op",
        cpu("ifdb-reactor") / 1e3 / ops,
    );
    l.set("server.exec_cpu_us_per_op", cpu("ifdb-exec-") / 1e3 / ops);
    l.set("server.requests_per_op", d("server", "requests") / ops);
    l.set("server.statements_per_op", d("server", "statements") / ops);
    l.set(
        "server.response_bytes_per_op",
        d("server", "response_bytes") / ops,
    );
    let (hits, misses) = (
        d("server", "stmt_cache_hits"),
        d("server", "stmt_cache_misses"),
    );
    l.set(
        "server.stmt_cache_hit_rate",
        hits / (hits + misses).max(1.0),
    );
    l.set(
        "server.backpressure_pauses",
        d("server", "backpressure_pauses"),
    );
    l.set(
        "difc.declassifications_per_op",
        d("audit", "declassifications") / ops,
    );
    l.set("difc.audit_events_per_op", d("audit", "events") / ops);
    l.set(
        "difc.chained_records_per_op",
        d("audit", "chained_records") / ops,
    );
    let store_reads = (after.store_reads - before.store_reads) as f64;
    crate::storage_layers(|n| d("engine", n), ops, ops, store_reads, l);
    l.set("storage.conflicts_per_commit", phase.conflicts as f64 / ops);
}

/// Runs `tpcc_disk`.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut k = 0;
    let (dep, setup_s) = crate::timed_setup(
        p.setups,
        || {
            k += 1;
            Deployment::build(
                p.out_dir
                    .join(format!("tpcc-data-{}-{k}", std::process::id())),
            )
        },
        Deployment::discard,
    );
    out.e2e("setup_s", setup_s);
    println!(
        "tpcc_disk data: {} heap pages loaded, buffer pool {} pages ({:.0}%), GROUP_COMMIT, checkpoint every {} and vacuum every {} commits",
        dep.loaded_pages,
        BUFFER_PAGES,
        100.0 * BUFFER_PAGES as f64 / dep.loaded_pages.max(1) as f64,
        CHECKPOINT_EVERY,
        VACUUM_EVERY
    );
    out.layers
        .set("host.fsync_us.p50", host::fsync_p50_us(&dep.dir, 40));
    let txns = stream(p.seed, 1 << 16);
    let next = AtomicUsize::new(0);
    let mut conns: Vec<Connection> = (0..SENDERS).map(|_| dep.connect()).collect();
    let orders0 = count_rows(&dep.tpcc.db, "orders");
    let history0 = count_rows(&dep.tpcc.db, "history");

    // Warm-up: fills the statement cache and the buffer pool's working set.
    let count = |share: f64| (p.seconds * share * TXNS_PER_S) as usize;
    let warm = drive(&mut conns, &txns, &next, count(0.1), false);
    let ticks0 = CpuTicks::now();
    let before = Around::now(&dep, &conns);
    let main_n = count(if p.trace { 0.4 } else { 0.9 });
    let phase = drive(&mut conns, &txns, &next, main_n, false);
    let after = Around::now(&dep, &conns);
    counter_layers(&before, &after, &phase, &mut out);
    let committed = phase.committed().max(1) as f64;
    out.e2e("throughput", committed / phase.elapsed_s);
    let lat_ms = phase.latencies_ms_in_commit_order();
    out.e2e("p50_ms", median(&mut lat_ms.clone()));
    println!(
        "tail per transaction: p90 {:.3} ms, p99 {:.3} ms",
        windowed_quantile(&lat_ms, 0.9),
        windowed_quantile(&lat_ms, 0.99)
    );
    out.e2e(
        "cpu_ms_per_op",
        (after.cpu_s - before.cpu_s) * 1e3 / committed,
    );
    let notpm = phase.new_orders as f64 * 60.0 / phase.elapsed_s;
    println!(
        "tpcc_disk: {notpm:.0} NOTPM, {} committed, {} conflicts retried, {} failed",
        phase.committed(),
        phase.conflicts,
        phase.failed
    );

    let mut expected = (
        warm.new_orders + phase.new_orders,
        warm.payments + phase.payments,
    );
    let mut errors = warm.errors.clone();
    errors.extend(phase.errors.iter().cloned());
    let mut lost = warm.lost.clone();
    lost.extend(phase.lost.iter().cloned());
    out.count_ops(warm.attempted, warm.failed);
    if p.trace {
        let traced = trace_phases(p, &dep, &mut conns, &txns, &next, &phase, &mut out);
        expected.0 += traced.new_orders;
        expected.1 += traced.payments;
        errors.extend(traced.errors);
        lost.extend(traced.lost);
    }
    out.count_ops(phase.attempted, phase.failed);
    out.e2e("peak_rss_mb", host::peak_rss_mb());
    out.layers
        .set("host.steal_frac", ticks0.steal_frac_until(&CpuTicks::now()));
    // Failed ops are counted, not a correctness failure: what was acked is
    // checked below. Print each distinct error once, with its count.
    let mut distinct = std::collections::BTreeMap::<&str, usize>::new();
    for e in errors.iter().chain(&lost) {
        *distinct
            .entry(e.split(" (page").next().unwrap_or(e))
            .or_default() += 1;
    }
    for (e, n) in distinct {
        println!("FAILED OPS: {n} x {e}");
    }

    // Correctness: acked rows are there, and survive a restart.
    let grown = (
        count_rows(&dep.tpcc.db, "orders") - orders0,
        count_rows(&dep.tpcc.db, "history") - history0,
    );
    out.check(
        grown == expected,
        format!("orders/history grew by {grown:?}, acked new-orders/payments {expected:?}"),
    );
    for c in conns {
        c.close().ok();
    }
    let dir = dep.close();
    let reopened = open_builder(&dir)
        .recover()
        .first_boot_ddl(table_defs())
        .build()
        .expect("recover");
    let recovered = (
        count_rows(&reopened, "orders") - orders0,
        count_rows(&reopened, "history") - history0,
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    out.check(
        recovered == expected,
        format!("after recovery orders/history grew by {recovered:?}, acked {expected:?}"),
    );
    println!("acked new-orders/payments {expected:?}; recovered {recovered:?}");
    out
}

/// The traced half of a `--trace 1` run: the same closed loop with spans
/// on, then an in-process replay over a wrapped [`ifdb::Session`] for the
/// core layer. Returns what these phases committed, without spans.
fn trace_phases(
    p: &Params,
    dep: &Deployment,
    conns: &mut [Connection],
    txns: &[(TpccTransaction, u64)],
    next: &AtomicUsize,
    untraced: &Phase,
    out: &mut Outcome,
) -> Phase {
    let count = |share: f64| (p.seconds * share * TXNS_PER_S) as usize;
    let mut traced = drive(conns, txns, next, count(0.4), true);
    let log = traced.spans.as_ref().expect("traced phase records spans");
    let mut call = log.durations_us("client.call");
    let mut commit = log.durations_us("client.commit");
    out.layers
        .set("client.call_us.p50", quantile(&mut call, 0.5));
    out.layers
        .set("client.call_us.p99", quantile(&mut call, 0.99));
    out.layers
        .set("client.commit_us.p50", quantile(&mut commit, 0.5));
    out.layers
        .set("client.commit_us.p99", quantile(&mut commit, 0.99));
    crate::self_time_layers(log, "tpcc.txn", out);
    let mut a = untraced.latency_us.clone();
    let mut b = traced.latency_us.clone();
    out.layers
        .set("trace.overhead_p50", median(&mut b) / median(&mut a) - 1.0);
    out.layers.set("trace.spans", log.spans.len() as f64);
    let path = p
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", p.workload, p.seed));
    log.write_jsonl(&path).expect("write spans");
    println!("wrote {} spans to {}", log.spans.len(), path.display());
    let wire_p50 = median(&mut b);

    // Engine only: the next transactions of the stream in-process.
    let mut session = dep.tpcc.session().expect("in-process session");
    let mut core_log = SpanLog::new(Instant::now());
    let scanned0 = dep.tpcc.db.engine().stats().tuples_scanned;
    let core_start = next.load(Ordering::Relaxed);
    let core = terminal(
        &mut session,
        txns,
        &AtomicUsize::new(core_start),
        core_start + count(0.1),
        Instant::now(),
        Some(&mut core_log),
        ("core.op", "core.call", "core.commit"),
    );
    let scanned = dep.tpcc.db.engine().stats().tuples_scanned - scanned0;
    let mut op = core.latency_us.clone();
    let mut core_call = core_log.durations_us("core.call");
    let op_p50 = median(&mut op);
    out.layers.set("core.op_us.p50", op_p50);
    out.layers
        .set("core.call_us.p50", quantile(&mut core_call, 0.5));
    out.layers
        .set("core.wire_share", 1.0 - op_p50 / wire_p50.max(1e-9));
    out.layers.set(
        "core.rows_scanned_per_row_returned",
        scanned as f64 / core.rows_returned.max(1) as f64,
    );
    out.count_ops(traced.attempted, traced.failed);
    out.count_ops(core.attempted, core.failed);
    traced.spans = None;
    traced.merge(core);
    traced
}
