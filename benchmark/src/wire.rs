//! The four workloads driven over the wire: `serve_mixed` and `olap_mem`,
//! `olap_fit`, `olap_spill`. The benchmark process starts `mde-server`
//! in-process, connects its client threads over loopback TCP, and checks
//! every reply against an oracle computed through the library on the
//! in-memory twin of the served catalog.

use crate::harness::{self, Args, Limit, Outcome};
use crate::spec::*;
use crate::trace::{self, Recorder};
use crate::{host, stats};
use mde_core::sched::{CampaignSpec, SchedConfig, Scheduler};
use mde_mcdb::mc::MonteCarloQuery;
use mde_mcdb::prelude::*;
use mde_mcdb::query::PreparedQuery;
use mde_mcdb::sql::{parse_create_random_table, plan_from_sql, VgRegistry};
use mde_mcdb::storage::{BufferPool, PoolStats, DEFAULT_PAGE_SIZE};
use mde_mcdb::{McCampaign, RunOptions, RunPolicy};
use mde_numeric::obs::{FieldValue, MemorySink, SpanRecord, Tracer};
use mde_numeric::rng::splitmix64;
use mde_server::client::{decode_reply, Reply};
use mde_server::proto::{self, read_frame, write_frame, ReadFrame};
use mde_server::{DrainReport, PlanCache, Server, ServerConfig};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which wire workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Serve,
    OlapMem,
    OlapFit,
    OlapSpill,
}

impl Kind {
    /// Pool frames as a multiple of the paged files' pages, if paged.
    fn pool_x(self) -> Option<f64> {
        match self {
            Kind::Serve | Kind::OlapMem => None,
            Kind::OlapFit => Some(OLAP_FIT_POOL_X),
            Kind::OlapSpill => Some(OLAP_SPILL_POOL_X),
        }
    }

    /// Closed-loop client threads of the end-to-end run.
    fn clients(self) -> usize {
        match self {
            Kind::Serve => SERVE_CLIENTS,
            _ => CLIENTS,
        }
    }

    /// Passes each client runs in set-up to warm the caches; more where a
    /// pass is short, so that `setup_s` is long enough to time steadily.
    fn warmup_passes(self) -> u64 {
        match self {
            Kind::Serve => 16,
            _ => 1,
        }
    }
}

const SERVE_DDL: &str = "CREATE TABLE SALES(IID, AMT) AS FOR EACH ITEMS \
                         WITH Normal(SELECT MEAN, STD FROM PARAMS) \
                         SELECT IID, VALUE AS AMT";
const SERVE_MC_SQL: &str = "SELECT SUM(AMT) AS V FROM SALES";
const SERVE_SQL: [&str; 4] = [
    "SELECT COUNT(*) AS N FROM ITEMS",
    "SELECT SUM(IID) AS S FROM ITEMS",
    "SELECT COUNT(*) AS N FROM ITEMS WHERE IID > 3",
    "SELECT MEAN FROM PARAMS",
];
const OLAP_DDL: &str = "CREATE TABLE SHOCK(SK, S) AS FOR EACH DIM \
                        WITH Normal(W, 0.25) SELECT DK AS SK, VALUE AS S";

/// In the traced run every fourth op of a pass is replayed through the
/// library.
const REPLAY_EVERY: u64 = 4;

/// The policy the server applies to `MC` and `CAMPAIGN` frames that name none.
const WIRE_POLICY: RunPolicy = RunPolicy::Retry {
    max_attempts: 3,
    reseed: true,
};

// ---------------------------------------------------------------------------
// Inputs: catalogs and op lists, all from the seed
// ---------------------------------------------------------------------------

/// A counter-mode SplitMix64 stream for literals and seeds.
struct Draw(u64);

impl Draw {
    fn new(seed: u64, client: usize, salt: u64) -> Draw {
        Draw(splitmix64(
            seed ^ splitmix64(salt.wrapping_add((client as u64) << 32)),
        ))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn serve_catalog(seed: u64) -> Catalog {
    let mut db = Catalog::new();
    db.insert(
        Table::build("ITEMS", &[("IID", DataType::Int)])
            .rows((0..SERVE_ITEMS).map(|i| vec![Value::from(i)]))
            .finish()
            .expect("ITEMS table"),
    );
    db.insert(
        Table::build(
            "PARAMS",
            &[("MEAN", DataType::Float), ("STD", DataType::Float)],
        )
        .row(vec![
            Value::from(5.0 + (seed % 11) as f64),
            Value::from(2.0),
        ])
        .finish()
        .expect("PARAMS table"),
    );
    db
}

/// Star schema: `FACT(K, G, V, Q)` with `V` scrambled by the seed (all
/// values distinct) and `Q` monotone, and `DIM(DK, W, LABEL)`.
fn star_catalog(seed: u64) -> Catalog {
    const P: u64 = 100_003; // prime above OLAP_FACT_ROWS: i -> h is injective
    let mut db = Catalog::new();
    db.insert(
        Table::build(
            "FACT",
            &[
                ("K", DataType::Int),
                ("G", DataType::Int),
                ("V", DataType::Float),
                ("Q", DataType::Int),
            ],
        )
        .rows((0..OLAP_FACT_ROWS as u64).map(|i| {
            let h = (i.wrapping_mul(2_654_435_761).wrapping_add(seed)) % P;
            vec![
                Value::from((h % OLAP_DIM_ROWS as u64) as i64),
                Value::from((h % OLAP_GROUPS) as i64),
                Value::from(h as f64 / 100.0 - 450.0),
                Value::from(i as i64),
            ]
        }))
        .finish()
        .expect("FACT table"),
    );
    db.insert(
        Table::build(
            "DIM",
            &[
                ("DK", DataType::Int),
                ("W", DataType::Float),
                ("LABEL", DataType::Str),
            ],
        )
        .rows((0..OLAP_DIM_ROWS as u64).map(|j| {
            vec![
                Value::from(j as i64),
                Value::from(1.0 + (splitmix64(seed ^ j) % 1000) as f64 / 1000.0),
                Value::from(["red", "green", "blue"][(j % 3) as usize]),
            ]
        }))
        .finish()
        .expect("DIM table"),
    );
    db
}

/// What a frame is, for latency classes and replay.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Sql,
    Mc,
    Campaign,
}

/// One request frame and what its reply must be.
struct Frame {
    kind: FrameKind,
    /// The executor span this SQL frame's replay is reported under.
    class: &'static str,
    payload: String,
    /// `TABLE` replies must equal this byte for byte.
    expect_table: String,
    /// `OK` replies must carry these `key=value` pairs.
    expect_ok: Vec<(&'static str, String)>,
}

impl Frame {
    fn sql(class: &'static str, sql: String) -> Frame {
        Frame {
            kind: FrameKind::Sql,
            class,
            payload: format!("SQL\n{sql}"),
            expect_table: String::new(),
            expect_ok: Vec::new(),
        }
    }

    fn mc(kind: FrameKind, n: u64, seed: u64, sql: &str) -> Frame {
        let head = match kind {
            FrameKind::Campaign => format!("CAMPAIGN n={n} seed={seed} threads=1"),
            _ => format!("MC n={n} seed={seed}"),
        };
        Frame {
            kind,
            class: "mc",
            payload: format!("{head}\n{sql}"),
            expect_table: String::new(),
            expect_ok: Vec::new(),
        }
    }

    /// The body after the request line.
    fn body(&self) -> &str {
        self.payload.split_once('\n').map_or("", |(_, b)| b)
    }

    fn reply_is_right(&self, reply: &str) -> bool {
        match self.kind {
            FrameKind::Sql => reply == self.expect_table,
            _ => match decode_reply(reply) {
                Reply::Ok(map) => self
                    .expect_ok
                    .iter()
                    .all(|(k, v)| map.get(*k).is_some_and(|got| got == v)),
                _ => false,
            },
        }
    }
}

/// An op is the unit the end-to-end metrics count: one eight-frame cycle
/// on `serve_mixed`, one six-frame refresh on `olap_*`. Single frames are
/// too short to time steadily on a shared host; their latencies by kind
/// are per-layer numbers of the traced run.
type Op = Vec<Frame>;

/// One client's pass: the fixed op list it cycles through.
fn build_pass(kind: Kind, seed: u64, client: usize) -> Vec<Op> {
    match kind {
        Kind::Serve => {
            let mut draw = Draw::new(seed, client, 1);
            (0..SERVE_CYCLES_PER_PASS)
                .map(|cycle| {
                    let mut op: Op = (0..SERVE_SQL_PER_CYCLE)
                        .map(|j| {
                            let text = SERVE_SQL[(client + cycle * SERVE_SQL_PER_CYCLE + j) % 4];
                            Frame::sql("sql", text.to_string())
                        })
                        .collect();
                    // MC and CAMPAIGN share n, seed and SQL, so their latency
                    // difference is the hub + scheduler overhead.
                    let mc_seed = draw.next() >> 1;
                    for kind in [FrameKind::Mc, FrameKind::Campaign] {
                        op.push(Frame::mc(kind, SERVE_MC_N, mc_seed, SERVE_MC_SQL));
                    }
                    op
                })
                .collect()
        }
        _ => {
            let mut draw = Draw::new(seed, client, 2);
            let rows = OLAP_FACT_ROWS as u64;
            (0..OLAP_REFRESHES_PER_PASS)
                .map(|_| {
                    // Literals keep each query's selectivity within a few
                    // percent across refreshes and seeds, so op cost does not
                    // depend on the draw; the texts are all distinct.
                    let x = draw.below(10_000) as f64 / 100.0;
                    let a = draw.below(rows - rows / 100);
                    let y = draw.below(2_000) as f64 / 100.0;
                    let b = draw.below(rows / 50);
                    let z = 300.0 + draw.below(5_000) as f64 / 100.0;
                    let c = rows / 4 + draw.below(rows / 50);
                    vec![
                        Frame::sql(
                            "filter",
                            format!("SELECT COUNT(*) AS N, SUM(V) AS S FROM FACT WHERE V > {x:.2}"),
                        ),
                        Frame::sql(
                            "range",
                            format!(
                                "SELECT COUNT(*) AS N, SUM(V) AS S FROM FACT WHERE Q >= {a} AND Q < {}",
                                a + rows / 100
                            ),
                        ),
                        Frame::sql(
                            "join",
                            format!(
                                "SELECT LABEL, COUNT(*) AS N, SUM(V) AS T FROM FACT JOIN DIM ON K = DK \
                                 WHERE V + 450 > {y:.2} GROUP BY LABEL"
                            ),
                        ),
                        Frame::sql(
                            "groupby",
                            format!("SELECT G, COUNT(*) AS N, AVG(V) AS M FROM FACT WHERE Q >= {b} GROUP BY G"),
                        ),
                        Frame::sql(
                            "topk",
                            format!("SELECT Q, V FROM FACT WHERE V > {z:.2} ORDER BY V DESC LIMIT 10"),
                        ),
                        Frame::mc(
                            FrameKind::Mc,
                            OLAP_MC_N,
                            draw.next() >> 1,
                            &format!("SELECT SUM(V * S) AS X FROM FACT JOIN SHOCK ON K = SK WHERE Q < {c}"),
                        ),
                    ]
                })
                .collect()
        }
    }
}

fn ddl(kind: Kind) -> &'static str {
    match kind {
        Kind::Serve => SERVE_DDL,
        _ => OLAP_DDL,
    }
}

fn random_specs(kind: Kind) -> Vec<RandomTableSpec> {
    vec![
        parse_create_random_table(ddl(kind), &VgRegistry::standard())
            .expect("stochastic DDL parses"),
    ]
}

/// Parse an `MC`/`CAMPAIGN` request line's `n` and `seed`.
fn mc_args(frame: &Frame) -> (usize, u64) {
    match proto::parse_request(&frame.payload).expect("generated frame parses") {
        proto::Request::Mc { n, seed, .. } | proto::Request::Campaign { n, seed, .. } => {
            (n as usize, seed)
        }
        _ => unreachable!("mc_args on a non-MC frame"),
    }
}

/// Answer oracle: compute every frame's expected reply through the library
/// on the in-memory twin.
fn fill_oracle(kind: Kind, twin: &Catalog, pass: &mut [Op]) {
    let specs = random_specs(kind);
    for frame in pass.iter_mut().flatten() {
        match frame.kind {
            FrameKind::Sql => {
                let plan = plan_from_sql(frame.body()).expect("generated SQL parses");
                let table = twin.query(&plan).expect("oracle query runs");
                frame.expect_table = proto::encode_table(&table);
            }
            FrameKind::Mc | FrameKind::Campaign => {
                let (n, seed) = mc_args(frame);
                let plan = plan_from_sql(frame.body()).expect("generated SQL parses");
                let run = MonteCarloQuery::new(specs.clone(), plan)
                    .run_with_options(twin, n, seed, &RunOptions::policy(WIRE_POLICY))
                    .expect("oracle Monte Carlo runs");
                let mean = format!("{:?}", run.result.mean());
                frame.expect_ok = match frame.kind {
                    FrameKind::Mc => vec![("n", n.to_string()), ("mean", mean)],
                    _ => vec![("status", "completed".to_string()), ("value", mean)],
                };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------------

/// A raw-frame connection: replies are compared as the bytes the server sent.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr, tenant: &str, ddl: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("set reply timeout");
        let mut conn = Conn { stream };
        for request in [format!("HELLO tenant={tenant}"), format!("VG\n{ddl}")] {
            let reply = conn.call(&request);
            assert!(reply.starts_with("OK"), "session set-up refused: {reply}");
        }
        conn
    }

    /// Send one frame and return the reply payload; a transport failure
    /// comes back as text no expectation matches.
    fn call(&mut self, payload: &str) -> String {
        if let Err(e) = write_frame(&mut self.stream, payload) {
            return format!("transport error: {e}");
        }
        match read_frame(&mut self.stream) {
            Ok(ReadFrame::Frame(reply)) => reply,
            Ok(ReadFrame::Closed) => "transport error: server closed the connection".to_string(),
            Err(e) => format!("transport error: {e}"),
        }
    }
}

/// Paged-storage facts of one set-up.
#[derive(Clone, Default)]
struct PagedFacts {
    pool: Option<Arc<BufferPool>>,
    pages: usize,
    file_bytes: u64,
    write_s: f64,
}

/// One set-up system: the server, its clients, and a handle on the served
/// catalog for the traced replay.
struct World {
    /// `None` once shut down.
    server: Option<Server>,
    clients: Vec<Client>,
    served: Catalog,
    paged: PagedFacts,
}

impl World {
    /// Close the clients' connections and drain the server; returns the
    /// drain report and how long the drain took, in milliseconds.
    fn shut_down(&mut self) -> Option<(DrainReport, f64)> {
        self.clients.clear();
        let server = self.server.take()?;
        let t = Instant::now();
        let report = server.shutdown();
        Some((report, t.elapsed().as_secs_f64() * 1e3))
    }
}

impl Drop for World {
    /// A set-up that is dropped for the next one still stops its threads.
    fn drop(&mut self) {
        self.shut_down();
    }
}

struct Client {
    conn: Conn,
    pass: Arc<Vec<Op>>,
}

impl Client {
    /// Run op `i` of the endless cycle over the pass; true if every reply
    /// was right.
    fn run_op(&mut self, i: u64) -> bool {
        let op = &self.pass[(i % self.pass.len() as u64) as usize];
        let mut ok = true;
        for frame in op {
            ok &= frame.reply_is_right(&self.conn.call(&frame.payload));
        }
        ok
    }
}

/// Convert the twin to 16 KiB paged tables behind a pool of `pool_x` times
/// the files' pages. Written twice: the first write only counts the pages
/// the pool is sized from.
fn to_paged(twin: &Catalog, dir: &Path, pool_x: f64) -> (Catalog, PagedFacts) {
    let count_pages = |db: &Catalog| -> usize {
        db.table_names()
            .iter()
            .filter_map(|n| db.get(n).ok()?.paged_store().map(|s| s.n_pages()))
            .sum()
    };
    let sizing = twin
        .to_paged(dir, DEFAULT_PAGE_SIZE, BufferPool::new(1))
        .expect("write paged tables");
    let pages = count_pages(&sizing);
    drop(sizing);
    let pool = BufferPool::new(((pages as f64 * pool_x).ceil() as usize).max(2));
    let t = Instant::now();
    let paged = twin
        .to_paged(dir, DEFAULT_PAGE_SIZE, Arc::clone(&pool))
        .expect("write paged tables");
    let write_s = t.elapsed().as_secs_f64();
    let file_bytes = paged
        .table_names()
        .iter()
        .filter_map(|n| {
            paged
                .get(n)
                .ok()?
                .paged_store()
                .map(|s| s.path().to_path_buf())
        })
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let facts = PagedFacts {
        pool: Some(pool),
        pages,
        file_bytes,
        write_s,
    };
    (paged, facts)
}

/// Set-up: build the data, convert it if the workload is paged, start the
/// server with its shipped defaults, connect the clients, and warm every
/// cache by running each client's pass (checked like any other op).
/// Returns the world and the number of warm-up ops that failed.
fn set_up(kind: Kind, seed: u64, dir: &Path, passes: &[Arc<Vec<Op>>]) -> (World, u64) {
    let twin = match kind {
        Kind::Serve => serve_catalog(seed),
        _ => star_catalog(seed),
    };
    let (served, paged) = match kind.pool_x() {
        Some(x) => to_paged(&twin, dir, x),
        None => (twin, PagedFacts::default()),
    };
    let server = Server::start(
        served.clone(),
        ServerConfig {
            max_sessions: passes.len() + 4,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut clients: Vec<Client> = passes
        .iter()
        .enumerate()
        .map(|(w, pass)| Client {
            conn: Conn::open(server.addr(), &format!("bench{w}"), ddl(kind)),
            pass: Arc::clone(pass),
        })
        .collect();
    let pass_len = passes[0].len() as u64;
    let warm = harness::drive(
        &mut clients,
        Limit::Ops(kind.warmup_passes() * pass_len),
        Client::run_op,
    );
    let world = World {
        server: Some(server),
        clients,
        served,
        paged,
    };
    (world, warm.failed())
}

fn record_facts(out: &mut Outcome, kind: Kind, world: &World, clients: usize) {
    out.fact("clients", clients);
    out.fact("loop", "closed");
    out.fact("page_size", DEFAULT_PAGE_SIZE);
    out.fact(
        "pool_frames",
        world.paged.pool.as_ref().map_or(0, |p| p.budget()),
    );
    out.fact("storage_pages", world.paged.pages);
    out.fact("ops_per_pass", world.clients[0].pass.len());
    out.fact("frames_per_op", world.clients[0].pass[0].len());
    if kind != Kind::Serve {
        out.fact("fact_rows", OLAP_FACT_ROWS);
    }
}

/// Run one wire workload.
pub fn run(kind: Kind, args: &Args) -> Outcome {
    let scratch = args.scratch();
    let n_clients = if args.trace { 1 } else { kind.clients() };
    // Oracle first, on a twin of its own: it is the checker's work, not the
    // system's set-up, and is not part of `setup_s`.
    let twin = match kind {
        Kind::Serve => serve_catalog(args.seed),
        _ => star_catalog(args.seed),
    };
    let passes: Vec<Arc<Vec<Op>>> = (0..n_clients)
        .map(|w| {
            let mut pass = build_pass(kind, args.seed, w);
            fill_oracle(kind, &twin, &mut pass);
            Arc::new(pass)
        })
        .collect();
    drop(twin);

    let mut out = Outcome::default();
    let mut warm_failed = 0;
    let mut rep = 0;
    let (mut world, setup_s) = harness::timed_setup(args.setup_reps(), || {
        rep += 1;
        let (world, failed) = set_up(
            kind,
            args.seed,
            &scratch.0.join(format!("setup{rep}")),
            &passes,
        );
        warm_failed += failed;
        world
    });
    record_facts(&mut out, kind, &world, n_clients);
    let pass_len = passes[0].len() as u64;

    if args.trace {
        traced(kind, args, &mut world, &mut out);
    } else {
        let driven = harness::drive(&mut world.clients, args.limit(pass_len), Client::run_op);
        harness::end_to_end(&mut out, &driven, setup_s);
    }
    out.failed += warm_failed;
    out.attempted += args.setup_reps() as u64 * n_clients as u64 * kind.warmup_passes() * pass_len;

    let (report, drain_ms) = world.shut_down().expect("the last set-up is still running");
    if args.trace {
        out.set("server.drain_ms", drain_ms);
    }
    out.fact("server_panics", report.panics);
    out
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// Deterministic counters and storage time out of one traced execution's
/// span records (the repository's own tracer).
#[derive(Default)]
struct ExecLedger {
    morsels: u64,
    simd_lanes: u64,
    rows_scanned: u64,
    rows_out: u64,
    /// Nanoseconds inside scans of paged tables: page fetch + decode.
    storage_nanos: u64,
}

fn field_u64(rec: &SpanRecord, key: &str) -> u64 {
    rec.fields
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |(_, v)| match v {
            FieldValue::U64(n) => *n,
            _ => 0,
        })
}

fn exec_ledger(records: &[SpanRecord]) -> ExecLedger {
    let mut l = ExecLedger::default();
    for rec in records {
        match rec.name.as_str() {
            "query" => {
                l.morsels += field_u64(rec, "query.morsels");
                l.simd_lanes += field_u64(rec, "query.simd_lanes");
                l.rows_out += field_u64(rec, "rows_out");
            }
            "scan" => {
                l.rows_scanned += field_u64(rec, "rows");
                if rec.fields.iter().any(|(k, _)| *k == "storage.page_reads") {
                    l.storage_nanos += rec.duration_nanos;
                }
            }
            _ => {}
        }
    }
    l
}

/// Sums the traced phase collects next to its spans.
#[derive(Default)]
struct Tally {
    ledger: ExecLedger,
    exec_nanos: u64,
    mc_attempted: u64,
    mc_retries: u64,
    mc_replicate_us: Vec<f64>,
    /// Wire latency minus the library replay, per replayed frame, in us.
    residual_sql_us: Vec<f64>,
    residual_mc_us: Vec<f64>,
    plan_cache_hit_us: Vec<f64>,
    plan_cache_miss_us: Vec<f64>,
    /// Wire latencies in ms of every frame of the traced phase, by kind.
    sql_ms: Vec<f64>,
    mc_ms: Vec<f64>,
    campaign_ms: Vec<f64>,
    /// Wire nanoseconds of the replayed frames: the base of the shares.
    replayed_wire_nanos: u64,
    /// Replies that were a typed `PoolExhausted` error.
    pool_exhausted: u64,
}

/// Replay one frame through the public functions the server uses for it,
/// one span per call, as children of the frame's wire span.
fn replay(
    rec: &Recorder,
    frame: &Frame,
    served: &Catalog,
    plans: &PlanCache,
    specs: &[RandomTableSpec],
    tally: &mut Tally,
) -> u64 {
    let mut total = 0;
    let (request, d) = rec.span("server", "server.parse_request", || {
        proto::parse_request(black_box(&frame.payload)).expect("generated frame parses")
    });
    total += d.nanos;
    let reply = match request {
        proto::Request::Sql { sql, .. } => {
            let before = plans.stats();
            let (prepared, d) = rec.span("server", "server.plan_cache", || {
                plans.prepare(served, &sql).expect("replayed SQL prepares")
            });
            total += d.nanos;
            if plans.stats().hits > before.hits {
                tally.plan_cache_hit_us.push(d.nanos as f64 / 1e3);
            } else {
                tally.plan_cache_miss_us.push(d.nanos as f64 / 1e3);
                // What the miss paid for, called again on their own and
                // recorded as children of the plan-cache span, whose self
                // time is then the probe and the insert.
                rec.under(d.id, || {
                    let (plan, _) = rec.span("mcdb.sql", "sql.parse", || {
                        plan_from_sql(&sql).expect("replayed SQL parses")
                    });
                    rec.span("mcdb.sql", "sql.prepare", || {
                        PreparedQuery::prepare(&plan, served).expect("replayed SQL prepares")
                    });
                });
            }
            let sink = Arc::new(MemorySink::new());
            let (table, d) = rec.span("mcdb.query", frame.class, || {
                let table = prepared
                    .execute_traced(served, &Tracer::new(sink.clone()))
                    .expect("replayed SQL executes");
                let ledger = exec_ledger(&sink.records());
                rec.push_measured("mcdb.storage", "storage.scan", ledger.storage_nanos);
                tally.ledger.morsels += ledger.morsels;
                tally.ledger.simd_lanes += ledger.simd_lanes;
                tally.ledger.rows_scanned += ledger.rows_scanned;
                tally.ledger.rows_out += ledger.rows_out;
                tally.ledger.storage_nanos += ledger.storage_nanos;
                table
            });
            total += d.nanos;
            tally.exec_nanos += d.nanos;
            let (reply, d) = rec.span("server", "server.reply_encode", || {
                proto::encode_table(&table)
            });
            total += d.nanos;
            reply
        }
        proto::Request::Mc { n, seed, sql, .. } | proto::Request::Campaign { n, seed, sql, .. } => {
            let (query, d) = rec.span("mcdb.mc", "mc.prepare", || {
                let plan = plan_from_sql(&sql).expect("replayed SQL parses");
                MonteCarloQuery::new(specs.to_vec(), plan)
            });
            total += d.nanos;
            let (run, d) = rec.span("mcdb.mc", "mc.run", || {
                query
                    .run_with_options(served, n as usize, seed, &RunOptions::policy(WIRE_POLICY))
                    .expect("replayed Monte Carlo runs")
            });
            total += d.nanos;
            tally.mc_attempted += run.report.attempted as u64;
            tally.mc_retries += run.report.metrics.counter("attempts.retried");
            tally.mc_replicate_us.push(d.nanos as f64 / 1e3 / n as f64);
            proto::encode_ok(&[("mean", format!("{:?}", run.result.mean()))])
        }
        _ => unreachable!("passes hold only SQL, MC and CAMPAIGN frames"),
    };
    let (_, d) = rec.span("server", "server.frame_codec", || {
        let mut buf = Vec::with_capacity(reply.len() + 4);
        write_frame(&mut buf, &reply).expect("write to memory");
        black_box(read_frame(&mut buf.as_slice()).expect("read back from memory"));
    });
    total + d.nanos
}

fn page_reads(served: &Catalog) -> u64 {
    served
        .table_names()
        .iter()
        .filter_map(|n| served.get(n).ok()?.paged_store().map(|s| s.logical_reads()))
        .sum()
}

/// The server's own plan-cache `(hits, misses)`, read over the wire.
fn plan_cache_counts(conn: &mut Conn) -> (u64, u64) {
    match decode_reply(&conn.call("STATS")) {
        Reply::Ok(map) => {
            let get = |k: &str| map.get(k).and_then(|v| v.parse().ok()).unwrap_or(0);
            (get("cache_hits"), get("cache_misses"))
        }
        other => panic!("STATS refused: {other:?}"),
    }
}

fn server_counter(server: &Server, name: &str) -> u64 {
    server
        .metrics()
        .into_iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| v)
}

/// The traced run: one client. First an untraced stretch for the overhead
/// baseline, then whole passes with a span around every frame and every
/// fourth op replayed through the library, then the probes.
/// Counts are reported per pass, so they repeat exactly.
fn traced(kind: Kind, args: &Args, world: &mut World, out: &mut Outcome) {
    let World {
        server,
        clients,
        served,
        paged,
    } = world;
    let server = server.as_ref().expect("the server is running");
    let pool_stats = || {
        paged
            .pool
            .as_ref()
            .map_or_else(PoolStats::default, |p| p.stats())
    };
    let pass_len = clients[0].pass.len() as u64;
    let (baseline_limit, traced_passes_limit) = match args.passes {
        Some(p) => (Limit::Ops(p * pass_len), Some(p)),
        None => (Limit::Seconds(args.seconds * 0.4), None),
    };
    let baseline = harness::drive(clients, baseline_limit, Client::run_op);
    out.attempted += baseline.attempted();
    out.failed += baseline.failed();

    let rec = Recorder::new(true);
    // The replay sees one op in four, so its plan cache gets the
    // same share of the server's capacity and hits or misses as the
    // server's does.
    let plans = PlanCache::new(ServerConfig::default().cache_capacity / REPLAY_EVERY as usize);
    let specs = random_specs(kind);
    let mut tally = Tally::default();
    let client = &mut clients[0];
    let pass = Arc::clone(&client.pass);

    let reads0 = page_reads(served);
    let pool0 = pool_stats();
    let plan_cache0 = plan_cache_counts(&mut client.conn);
    let requests0 = server_counter(server, "requests");
    let phase = Instant::now();
    let mut passes_done = 0u64;
    let mut ops_done = 0u64;
    let mut replayed_requests = BTreeSet::new();
    loop {
        let over = match traced_passes_limit {
            Some(p) => passes_done >= p,
            None => passes_done >= 1 && phase.elapsed().as_secs_f64() >= args.seconds * 0.4,
        };
        if over {
            break;
        }
        for (i, op) in pass.iter().enumerate() {
            let op_index = passes_done * pass_len + i as u64;
            let replayed = (i as u64).is_multiple_of(REPLAY_EVERY);
            let mut ok = true;
            for (j, frame) in op.iter().enumerate() {
                let request = op_index * 8 + j as u64;
                rec.set_request(request);
                let (layer, name) = match frame.kind {
                    FrameKind::Sql => ("server", "wire.sql"),
                    FrameKind::Mc => ("server", "wire.mc"),
                    // A CAMPAIGN frame's time beyond its library replay is
                    // the hub + scheduler (and the session floor that
                    // `server.ping_rtt_us` bounds).
                    FrameKind::Campaign => ("core.sched", "wire.campaign"),
                };
                let (reply, wire) = rec.span(layer, name, || client.conn.call(&frame.payload));
                ok &= frame.reply_is_right(&reply);
                tally.pool_exhausted +=
                    u64::from(reply.starts_with("ERR") && reply.contains("exhausted"));
                let ms = wire.nanos as f64 / 1e6;
                match frame.kind {
                    FrameKind::Sql => tally.sql_ms.push(ms),
                    FrameKind::Mc => tally.mc_ms.push(ms),
                    FrameKind::Campaign => tally.campaign_ms.push(ms),
                }
                if replayed {
                    replayed_requests.insert(request);
                    let lib = rec.under(wire.id, || {
                        replay(&rec, frame, served, &plans, &specs, &mut tally)
                    });
                    tally.replayed_wire_nanos += wire.nanos;
                    let residual = (wire.nanos as f64 - lib as f64) / 1e3;
                    match frame.kind {
                        FrameKind::Sql => tally.residual_sql_us.push(residual),
                        FrameKind::Mc => tally.residual_mc_us.push(residual),
                        FrameKind::Campaign => {}
                    }
                }
            }
            out.attempted += 1;
            out.failed += u64::from(!ok);
            ops_done += 1;
        }
        passes_done += 1;
    }
    let traced_s = phase.elapsed().as_secs_f64();
    // Read every counter before the probes below add to it.
    let requests1 = server_counter(server, "requests");
    let plan_cache1 = plan_cache_counts(&mut client.conn);
    let reads1 = page_reads(served);
    let pool1 = pool_stats();
    let per_pass = |total: u64| total as f64 / passes_done as f64;
    let spans = rec.spans();
    let median_of = |name: &str, scale: f64| stats::median(&trace::durations(&spans, name)) / scale;

    // server
    out.set("server.requests", per_pass(requests1 - requests0));
    out.set("server.errors", server_counter(server, "errors") as f64);
    out.set(
        "server.overloaded",
        server_counter(server, "overloaded") as f64,
    );
    out.set(
        "server.frame_codec_ns",
        median_of("server.frame_codec", 1.0),
    );
    out.set(
        "server.parse_request_ns",
        median_of("server.parse_request", 1.0),
    );
    out.set(
        "server.reply_encode_us",
        median_of("server.reply_encode", 1e3),
    );
    let (hits, misses) = (
        (plan_cache1.0 - plan_cache0.0) as f64,
        (plan_cache1.1 - plan_cache0.1) as f64,
    );
    out.set(
        "server.plan_cache_hit_rate",
        hits / (hits + misses).max(1.0),
    );
    out.set(
        "server.plan_cache_hit_us",
        stats::median(&tally.plan_cache_hit_us),
    );
    out.set(
        "server.plan_cache_miss_us",
        stats::median(&tally.plan_cache_miss_us),
    );
    out.set(
        "server.residual_sql_us",
        stats::median(&tally.residual_sql_us),
    );
    out.set(
        "server.residual_mc_us",
        stats::median(&tally.residual_mc_us),
    );
    let sql = stats::sorted(std::mem::take(&mut tally.sql_ms));
    let mc = stats::sorted(std::mem::take(&mut tally.mc_ms));
    let campaign = stats::sorted(std::mem::take(&mut tally.campaign_ms));
    for (name, p) in [
        ("server.sql_p50_ms", 0.5),
        ("server.sql_p95_ms", 0.95),
        ("server.sql_p99_ms", 0.99),
        ("server.sql_p999_ms", 0.999),
    ] {
        out.set(name, stats::percentile(&sql, p));
    }
    for (name, p) in [
        ("server.mc_p50_ms", 0.5),
        ("server.mc_p95_ms", 0.95),
        ("server.mc_p99_ms", 0.99),
    ] {
        out.set(name, stats::percentile(&mc, p));
    }
    out.set("server.campaign_p50_ms", stats::percentile(&campaign, 0.5));
    let pings: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            black_box(client.conn.call("PING"));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.set("server.ping_rtt_us", stats::median(&pings));

    // core.sched
    if !campaign.is_empty() {
        out.set(
            "sched.campaign_overhead_us",
            (stats::percentile(&campaign, 0.5) - stats::percentile(&mc, 0.5)) * 1e3,
        );
        sched_probe(served, &specs, args.seed, out);
    }

    // mcdb.sql, mcdb.query
    out.set("sql.parse_us", median_of("sql.parse", 1e3));
    out.set("sql.prepare_us", median_of("sql.prepare", 1e3));
    for (name, class) in [
        ("query.filter_ms", "filter"),
        ("query.range_ms", "range"),
        ("query.join_ms", "join"),
        ("query.groupby_ms", "groupby"),
        ("query.topk_ms", "topk"),
    ] {
        out.set(name, median_of(class, 1e6));
    }
    out.set(
        "query.mrows_per_s",
        tally.ledger.rows_scanned as f64 / 1e6 / (tally.exec_nanos as f64 / 1e9).max(1e-9),
    );
    out.set(
        "query.rows_examined_per_row_returned",
        tally.ledger.rows_scanned as f64 / tally.ledger.rows_out.max(1) as f64,
    );
    out.set("query.morsels", per_pass(tally.ledger.morsels));
    out.set("query.simd_lanes", per_pass(tally.ledger.simd_lanes));

    // mcdb.mc
    out.set("mc.replicate_us", stats::median(&tally.mc_replicate_us));
    out.set("mc.prepare_us", median_of("mc.prepare", 1e3));
    out.set("mc.attempted", per_pass(tally.mc_attempted));
    out.set("mc.retries", per_pass(tally.mc_retries));
    if let Some(frame) = pass.iter().flatten().find(|f| f.kind == FrameKind::Mc) {
        let plan = plan_from_sql(frame.body()).expect("generated SQL parses");
        let query = MonteCarloQuery::new(specs.clone(), plan);
        let fixed: Vec<f64> = (0..9u64)
            .map(|k| {
                let t = Instant::now();
                black_box(
                    query
                        .run_with_options(
                            served,
                            1,
                            args.seed + k,
                            &RunOptions::policy(WIRE_POLICY),
                        )
                        .expect("n=1 Monte Carlo runs"),
                );
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        out.set("mc.fixed_us", stats::median(&fixed));
    }

    // mcdb.storage
    let lookups = (pool1.hits - pool0.hits) + (pool1.misses - pool0.misses);
    out.set("storage.page_reads", per_pass(reads1 - reads0));
    out.set(
        "storage.pool_hit_rate",
        (pool1.hits - pool0.hits) as f64 / lookups.max(1) as f64,
    );
    out.set(
        "storage.pool_evictions",
        per_pass(pool1.evictions - pool0.evictions),
    );
    out.set("storage.pool_resident", pool1.resident as f64);
    out.set("storage.pool_exhausted", per_pass(tally.pool_exhausted));
    out.set("storage.write_s", paged.write_s);
    out.set("storage.pages", paged.pages as f64);
    out.set("storage.file_bytes", paged.file_bytes as f64);
    if let Some(store) = served.get("FACT").ok().and_then(|t| t.paged_store()) {
        let user_bytes: usize = served
            .table_names()
            .iter()
            .filter_map(|n| served.get(n).ok())
            .map(|t| t.len() * t.schema().len() * 8)
            .sum();
        out.set(
            "storage.bytes_per_user_byte",
            paged.file_bytes as f64 / user_bytes as f64,
        );
        let reads: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(store.read_batch().expect("FACT decodes"));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let ms = stats::median(&reads);
        out.set("storage.read_batch_ms", ms);
        out.set(
            "storage.decode_mrows_s",
            store.n_rows() as f64 / 1e6 / (ms / 1e3),
        );
    }

    // Share of the replayed frames' wire time that is each layer's self
    // time, and the trace's own cost.
    let self_ns = trace::self_time_by_layer(
        spans
            .iter()
            .filter(|s| replayed_requests.contains(&s.request)),
    );
    let base = tally.replayed_wire_nanos.max(1) as f64;
    for (name, layer) in [
        ("share.server", "server"),
        ("share.sched", "core.sched"),
        ("share.sql", "mcdb.sql"),
        ("share.query", "mcdb.query"),
        ("share.mc", "mcdb.mc"),
        ("share.storage", "mcdb.storage"),
    ] {
        out.set(name, self_ns.get(layer).copied().unwrap_or(0) as f64 / base);
    }
    let untraced_rate = baseline.attempted() as f64 / (baseline.window_ns as f64 / 1e9);
    let traced_rate = ops_done as f64 / traced_s;
    out.set("trace.overhead_share", 1.0 - traced_rate / untraced_rate);
    out.fact("traced_passes", passes_done);
    out.fact("traced_spans", spans.len());

    let path = Path::new("target/benchmark").join(format!("trace-{}.jsonl", args.workload));
    rec.write_jsonl(&path).expect("write the span file");
    out.fact("trace_file", path.display());
}

/// `core.sched` probe: 96 Monte Carlo campaigns submitted straight to a
/// `Scheduler` and drained on two workers.
fn sched_probe(served: &Catalog, specs: &[RandomTableSpec], seed: u64, out: &mut Outcome) {
    const CAMPAIGNS: u64 = 96;
    let plan = plan_from_sql(SERVE_MC_SQL).expect("MC SQL parses");
    let mut sched = Scheduler::new(SchedConfig {
        queue_capacity: CAMPAIGNS as usize,
        ..SchedConfig::default()
    });
    for k in 0..CAMPAIGNS {
        let campaign = McCampaign::new(
            MonteCarloQuery::new(specs.to_vec(), plan.clone()),
            served.clone(),
            SERVE_MC_N as usize,
            seed + k,
            RunOptions::policy(WIRE_POLICY),
        );
        sched
            .submit(
                CampaignSpec::new("probe", format!("c{k}")),
                Box::new(campaign),
            )
            .expect("probe campaign admitted");
    }
    let t = Instant::now();
    let run = sched.run(host::cpus().min(2));
    let wall_us = t.elapsed().as_secs_f64() * 1e6;
    out.set("sched.dispatch_us_per_campaign", wall_us / CAMPAIGNS as f64);
    let wait = run.metrics.duration("sched.queue_wait");
    let q = |p: f64| wait.and_then(|h| h.quantile(p)).map_or(0.0, |s| s * 1e3);
    out.set("sched.queue_wait_p50_ms", q(0.5));
    out.set("sched.queue_wait_p99_ms", q(0.99));
    for (name, counter) in [
        ("sched.shed", "sched.shed"),
        ("sched.retries", "sched.retries"),
        ("sched.rejected", "sched.rejected"),
    ] {
        out.set(name, run.metrics.counter(counter) as f64);
    }
}
