//! Per-session supervision: one connection, one thread, one blast
//! radius.
//!
//! Each accepted connection gets one thread that reads a frame,
//! executes it, writes the reply, and reads the next:
//!
//! * **Framing.** The socket's read deadline bounds only the wait for,
//!   and the delivery of, the next frame, so a slow-loris client cannot
//!   hold a session open indefinitely, while a request may run as long
//!   as its own deadline allows. Frames a client pipelines wait in the
//!   socket and are answered in order.
//! * **Disconnect.** A request's token comes from
//!   [`CancelToken::child_while`] with the session's liveness probe. At
//!   the boundaries the work already polls, at most once per
//!   `LIVENESS_INTERVAL` (50 ms) counted from request start, the probe
//!   `peek`s one byte on the socket without blocking. End of stream or a
//!   hard error cancels the request with
//!   [`CancelReason::User`](mde_numeric::CancelReason::User): a client
//!   that disconnects mid-query stops paying for it at the next
//!   replicate boundary, and a checkpointing campaign persists its
//!   partial state on the way out. The probe touches the socket only
//!   while its request runs, and the session neither reads nor writes
//!   it then.
//! * **Supervision.** Requests execute inside [`catch_panic`]: a panic —
//!   organic or injected by a `FaultKind::SessionPanic` site — produces a typed
//!   `ERR PANIC` reply and terminates *that session only*. The accept
//!   loop, other sessions, and the campaign hub never observe it.
//!
//! Every request token is also a child of the server's master drain
//! token, so graceful drain reaches into in-flight work without the
//! session layer doing anything special.

use crate::cache::PlanCache;
use crate::campaigns::CampaignHub;
use crate::error::{overloaded_to_wire, RetryHints, WireCode, WireError};
use crate::proto::{
    self, encode_ok, encode_table, read_frame, write_frame, ReadFrame, Request, RequestOpts,
};
use mde_core::sched::CampaignStatus;
use mde_core::CampaignSpec;
use mde_mcdb::mc::MonteCarloQuery;
use mde_mcdb::prelude::{Catalog, DataType, Table};
use mde_mcdb::random_table::RandomTableSpec;
use mde_mcdb::sql::{parse_statement, plan_from_sql, Statement, VgRegistry};
use mde_mcdb::McCampaign;
use mde_numeric::resilience::{
    catch_panic, CheckpointSpec, FaultPlan, RunOptions, RunPolicy, StopCause,
};
use mde_numeric::{CampaignState, CancelToken, Deadline};
use std::io::ErrorKind;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// How often, at most, a running request asks whether its client is
/// still connected, counted from the request's start: a request shorter
/// than this makes no liveness syscall.
const LIVENESS_INTERVAL: Duration = Duration::from_millis(50);

/// Whole-server counters (monotonic, lock-free).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Sessions accepted.
    pub sessions_opened: AtomicU64,
    /// Sessions fully torn down.
    pub sessions_closed: AtomicU64,
    /// Requests executed (all commands).
    pub requests: AtomicU64,
    /// Typed error replies sent.
    pub errors: AtomicU64,
    /// Panics caught by session supervision.
    pub panics: AtomicU64,
    /// Typed overload rejections sent.
    pub overloaded: AtomicU64,
    /// Requests stopped by client disconnect or drain cancellation.
    pub cancelled: AtomicU64,
    /// Connections dropped for framing violations.
    pub bad_frames: AtomicU64,
}

impl ServerMetrics {
    /// Counter snapshot as `(name, value)` pairs.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            (
                "sessions_opened",
                self.sessions_opened.load(Ordering::Relaxed),
            ),
            (
                "sessions_closed",
                self.sessions_closed.load(Ordering::Relaxed),
            ),
            ("requests", self.requests.load(Ordering::Relaxed)),
            ("errors", self.errors.load(Ordering::Relaxed)),
            ("panics", self.panics.load(Ordering::Relaxed)),
            ("overloaded", self.overloaded.load(Ordering::Relaxed)),
            ("cancelled", self.cancelled.load(Ordering::Relaxed)),
            ("bad_frames", self.bad_frames.load(Ordering::Relaxed)),
        ]
    }
}

/// Shared execution state behind every session: the catalog snapshot
/// cell, the prepared-plan cache, the campaign hub, and the drain
/// machinery.
pub struct Engine {
    /// Current catalog snapshot; DDL clones, mutates, and swaps the
    /// `Arc`, so readers pin a consistent snapshot for a whole request
    /// without holding any lock across execution.
    pub(crate) catalog: RwLock<Arc<Catalog>>,
    /// Shared prepared-plan cache (schema-fingerprint keyed).
    pub(crate) cache: PlanCache,
    /// Shared campaign scheduler front.
    pub(crate) hub: CampaignHub,
    /// Master drain token: every request token is its child.
    pub(crate) drain: CancelToken,
    /// Set when drain begins; new sessions and requests are refused.
    pub(crate) draining: AtomicBool,
    /// Set when a client's `SHUTDOWN` began the drain.
    pub(crate) shutdown_requested: AtomicBool,
    /// VG registry for session-registered stochastic DDL.
    pub(crate) vg: VgRegistry,
    /// Directory for wire-named checkpoints; `None` disables them.
    pub(crate) checkpoint_dir: Option<PathBuf>,
    /// Server-side fault injection (tests only).
    pub(crate) faults: Option<FaultPlan>,
    /// Whole-server counters.
    pub(crate) metrics: ServerMetrics,
}

impl Engine {
    /// Pin the current catalog snapshot.
    pub(crate) fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog.read().expect("catalog lock"))
    }

    /// Clone-mutate-swap the catalog under the write lock.
    pub(crate) fn swap_catalog(
        &self,
        mutate: impl FnOnce(&mut Catalog) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        let mut slot = self.catalog.write().expect("catalog lock");
        let mut next = (**slot).clone();
        mutate(&mut next)?;
        *slot = Arc::new(next);
        Ok(())
    }

    fn checkpoint_path(&self, name: &str) -> Result<PathBuf, WireError> {
        match &self.checkpoint_dir {
            Some(dir) => Ok(dir.join(name)),
            None => Err(WireError::fatal(
                WireCode::BadRequest,
                "server has no checkpoint directory configured",
            )),
        }
    }
}

/// Outcome of one request, as the session loop sees it.
enum Outcome {
    Reply(String),
    /// Reply, then close the session (supervised panic, fatal protocol
    /// error).
    Fatal(String),
    /// Begin server drain, reply, and close the session (SHUTDOWN).
    Shutdown(String),
}

/// A session's connection, shared with the liveness probe of the request
/// it is running.
struct Connection {
    stream: TcpStream,
    /// When the running request may next peek; `None` between requests,
    /// while the session itself reads and writes the socket.
    next_peek: Mutex<Option<Instant>>,
}

impl Connection {
    /// Arm the probe for a request starting now, or disarm it once the
    /// request is over. Disarming waits out a peek in progress, so the
    /// socket is back in blocking mode before the session touches it.
    fn set_running(&self, running: bool) {
        *self.next_peek.lock().expect("liveness lock") =
            running.then(|| Instant::now() + LIVENESS_INTERVAL);
    }

    /// The probe: whether the client is still connected, as far as a
    /// peek that is due says.
    fn alive(&self) -> bool {
        let mut next = self.next_peek.lock().expect("liveness lock");
        let now = Instant::now();
        match *next {
            Some(due) if now >= due => *next = Some(now + LIVENESS_INTERVAL),
            _ => return true,
        }
        peer_connected(&self.stream)
    }
}

/// Peek one byte without blocking. A pending byte (a pipelined frame) or
/// nothing to read yet means the peer is there; end of stream or a hard
/// error means it is gone.
fn peer_connected(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let peeked = stream.peek(&mut [0u8; 1]);
    let restored = stream.set_nonblocking(false).is_ok();
    restored
        && match peeked {
            Ok(n) => n > 0,
            Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
        }
}

/// Run one session to completion. Returns when the client disconnects,
/// a fatal error closes the session, or drain cancels it.
pub(crate) fn run_session(
    engine: Arc<Engine>,
    stream: TcpStream,
    session_id: u64,
    idle_timeout: Duration,
) {
    engine
        .metrics
        .sessions_opened
        .fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_read_timeout(Some(idle_timeout));
    let _ = stream.set_nodelay(true);
    let conn = Arc::new(Connection {
        stream,
        next_peek: Mutex::new(None),
    });
    let probe_conn = Arc::clone(&conn);
    let mut session = Session {
        engine: Arc::clone(&engine),
        probe: Arc::new(move || probe_conn.alive()),
        id: session_id,
        tenant: "anon".to_string(),
        specs: Vec::new(),
        req_seq: 0,
        streak: 0,
        hints: RetryHints::new(Default::default(), session_id),
    };

    let mut wire = &conn.stream;
    loop {
        let payload = match read_frame(&mut wire) {
            Ok(ReadFrame::Frame(payload)) => payload,
            Ok(ReadFrame::Closed) => break,
            Err(e) => {
                engine.metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
                engine.metrics.errors.fetch_add(1, Ordering::Relaxed);
                // Best-effort typed reply; the connection may already be
                // gone.
                let _ = write_frame(&mut wire, &e.to_wire().encode());
                break;
            }
        };
        conn.set_running(true);
        let outcome = session.handle(&payload);
        conn.set_running(false);
        match outcome {
            Outcome::Reply(reply) => {
                if write_frame(&mut wire, &reply).is_err() {
                    break;
                }
            }
            Outcome::Fatal(reply) => {
                let _ = write_frame(&mut wire, &reply);
                break;
            }
            Outcome::Shutdown(reply) => {
                // Flags first: a client that has read `draining=1` must
                // find the request already recorded and the drain begun.
                engine.shutdown_requested.store(true, Ordering::SeqCst);
                engine.draining.store(true, Ordering::SeqCst);
                let _ = write_frame(&mut wire, &reply);
                break;
            }
        }
    }

    // The server keeps a clone of this socket for drain, so dropping ours
    // would not close the connection.
    let _ = conn.stream.shutdown(Shutdown::Both);
    engine
        .metrics
        .sessions_closed
        .fetch_add(1, Ordering::Relaxed);
}

struct Session {
    engine: Arc<Engine>,
    /// Whether the client is still connected; every request token asks it.
    probe: Arc<dyn Fn() -> bool + Send + Sync>,
    id: u64,
    tenant: String,
    specs: Vec<RandomTableSpec>,
    req_seq: u64,
    streak: u32,
    hints: RetryHints,
}

impl Session {
    fn handle(&mut self, payload: &str) -> Outcome {
        self.engine.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let seq = self.req_seq;
        self.req_seq += 1;

        let request = match proto::parse_request(payload) {
            Ok(r) => r,
            Err(e) => return self.error_outcome(e),
        };

        if self.engine.draining.load(Ordering::SeqCst) && !matches!(request, Request::Stats) {
            return self.error_outcome(
                WireError::retryable(WireCode::ShuttingDown, "server is draining")
                    .with_retry_after(1000),
            );
        }

        // Per-request cancellation: child of the master drain token, and
        // cancelled by a disconnect seen at the work's boundaries.
        let token = CancelToken::child_while(&self.engine.drain, Arc::clone(&self.probe));

        // The supervised region: panics — organic or injected — become a
        // typed reply that closes this session only.
        let engine = Arc::clone(&self.engine);
        let supervised = catch_panic(|| {
            if let Some(faults) = &engine.faults {
                if faults.panics_session(self.id, seq) {
                    panic!(
                        "injected session fault (session {}, request {seq})",
                        self.id
                    );
                }
            }
            self.execute(request, &token)
        });
        match supervised {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(e)) => self.error_outcome(e),
            Err(panic_msg) => {
                self.engine.metrics.panics.fetch_add(1, Ordering::Relaxed);
                self.engine.metrics.errors.fetch_add(1, Ordering::Relaxed);
                Outcome::Fatal(
                    WireError::fatal(
                        WireCode::Panic,
                        format!("request panicked; session terminated: {panic_msg}"),
                    )
                    .encode(),
                )
            }
        }
    }

    fn error_outcome(&mut self, e: WireError) -> Outcome {
        self.engine.metrics.errors.fetch_add(1, Ordering::Relaxed);
        if e.retryable {
            Outcome::Reply(e.encode())
        } else if matches!(
            e.code,
            WireCode::BadRequest
                | WireCode::BadDeadline
                | WireCode::BadBudget
                | WireCode::Parse
                | WireCode::Exec
        ) {
            // Malformed or failing *requests* are survivable: the frame
            // layer is intact, so the session continues.
            Outcome::Reply(e.encode())
        } else {
            Outcome::Fatal(e.encode())
        }
    }

    fn deadline(&self, opts: &RequestOpts) -> Option<Deadline> {
        opts.deadline_ms
            .map(|ms| Deadline::after(Duration::from_millis(ms)))
    }

    fn execute(&mut self, request: Request, token: &CancelToken) -> Result<Outcome, WireError> {
        match request {
            Request::Hello { tenant } => {
                self.tenant = tenant;
                Ok(Outcome::Reply(encode_ok(&[
                    ("session", self.id.to_string()),
                    ("tenant", self.tenant.clone()),
                ])))
            }
            Request::Ping => Ok(Outcome::Reply(encode_ok(&[("pong", "1".to_string())]))),
            Request::Stats => {
                let mut pairs: Vec<(&str, String)> = self
                    .engine
                    .metrics
                    .snapshot()
                    .into_iter()
                    .map(|(k, v)| (k, v.to_string()))
                    .collect();
                let cache = self.engine.cache.stats();
                pairs.push(("cache_hits", cache.hits.to_string()));
                pairs.push(("cache_misses", cache.misses.to_string()));
                pairs.push(("cache_evictions", cache.evictions.to_string()));
                pairs.push(("campaigns_queued", self.engine.hub.queued().to_string()));
                pairs.push((
                    "campaigns_inflight_cost",
                    self.engine.hub.inflight_cost().to_string(),
                ));
                Ok(Outcome::Reply(encode_ok(&pairs)))
            }
            Request::Shutdown => Ok(Outcome::Shutdown(encode_ok(&[(
                "draining",
                "1".to_string(),
            )]))),
            Request::Sql { sql, opts } => self.exec_sql(&sql, &opts, token),
            Request::Create { name, columns } => {
                let cols: Vec<(&str, DataType)> =
                    columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                let table = Table::build(&name, &cols)
                    .finish()
                    .map_err(|e| WireError::fatal(WireCode::Exec, e.to_string()))?;
                self.engine.swap_catalog(|db| {
                    db.insert(table);
                    Ok(())
                })?;
                Ok(Outcome::Reply(encode_ok(&[("table", name)])))
            }
            Request::Insert { name, rows } => self.exec_insert(&name, &rows),
            Request::Mc {
                n,
                seed,
                policy,
                sql,
                opts,
                checkpoint,
            } => self.exec_mc(n, seed, policy, &sql, &opts, checkpoint, token),
            Request::Campaign {
                n,
                seed,
                policy,
                priority,
                cost,
                sql,
                opts,
                checkpoint,
            } => self.exec_campaign(
                n, seed, policy, priority, cost, &sql, &opts, checkpoint, token,
            ),
        }
    }

    fn exec_sql(
        &mut self,
        sql: &str,
        opts: &RequestOpts,
        token: &CancelToken,
    ) -> Result<Outcome, WireError> {
        if let Some(deadline) = self.deadline(opts) {
            if deadline.expired() {
                return Err(WireError::retryable(
                    WireCode::DeadlineExpired,
                    "deadline expired before execution",
                ));
            }
        }
        if token.is_cancelled() {
            self.engine
                .metrics
                .cancelled
                .fetch_add(1, Ordering::Relaxed);
            return Err(WireError::fatal(WireCode::Cancelled, "request cancelled"));
        }
        let snapshot = self.engine.snapshot();
        let cache = &self.engine.cache;
        // A hit parses nothing; only a miss reads the statement.
        let prepared = match cache.probe(&snapshot, sql) {
            Some(hit) => hit,
            None => match parse_statement(sql, &self.engine.vg)
                .map_err(|e| WireError::fatal(WireCode::Parse, e.to_string()))?
            {
                Statement::Select(plan) => cache
                    .fill(&snapshot, sql, &plan)
                    .map_err(|e| WireError::fatal(WireCode::Parse, e.to_string()))?,
                // A declaration belongs to this session and is never cached.
                Statement::CreateRandomTable(spec) => {
                    self.specs.push(spec);
                    return Ok(Outcome::Reply(encode_ok(&[(
                        "specs",
                        self.specs.len().to_string(),
                    )])));
                }
            },
        };
        let table = prepared
            .execute(&snapshot)
            .map_err(|e| WireError::fatal(WireCode::Exec, e.to_string()))?;
        Ok(Outcome::Reply(encode_table(&table)))
    }

    fn exec_insert(&mut self, name: &str, rows: &str) -> Result<Outcome, WireError> {
        let snapshot = self.engine.snapshot();
        let existing = snapshot
            .get(name)
            .map_err(|e| WireError::fatal(WireCode::Exec, e.to_string()))?;
        let columns: Vec<(String, DataType)> = existing
            .schema()
            .columns()
            .iter()
            .map(|c| (c.name.clone(), c.dtype))
            .collect();
        let mut parsed = Vec::new();
        for line in rows.lines().filter(|l| !l.trim().is_empty()) {
            parsed.push(proto::parse_row(line, &columns)?);
        }
        let added = parsed.len();
        // A copy of the snapshot's table that shares its columns until the
        // first append. Every row is validated before the catalog changes,
        // so a bad row leaves it untouched; a session still holding the old
        // snapshot keeps seeing the old rows.
        let mut table = existing.clone();
        for row in parsed {
            table
                .push_row(row)
                .map_err(|e| WireError::fatal(WireCode::Exec, e.to_string()))?;
        }
        let total = table.len();
        self.engine.swap_catalog(|db| {
            db.insert(table);
            Ok(())
        })?;
        Ok(Outcome::Reply(encode_ok(&[
            ("rows", added.to_string()),
            ("total", total.to_string()),
        ])))
    }

    /// Wire a named checkpoint into `run_opts`: persist there every 16
    /// replicates, and — when a previous (interrupted) run left the file
    /// behind — resume from it. Returns whether a checkpoint was named.
    fn attach_checkpoint(
        &self,
        run_opts: &mut RunOptions,
        name: Option<&str>,
    ) -> Result<bool, WireError> {
        let Some(name) = name else { return Ok(false) };
        let path = self.engine.checkpoint_path(name)?;
        if path.exists() {
            let state = CampaignState::load(&path)
                .map_err(|e| WireError::fatal(WireCode::Exec, e.to_string()))?;
            run_opts.resume = Some(state);
        }
        run_opts.checkpoint = Some(CheckpointSpec::new(path).every(16));
        Ok(true)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_mc(
        &mut self,
        n: u64,
        seed: u64,
        policy: RunPolicy,
        sql: &str,
        opts: &RequestOpts,
        checkpoint: Option<String>,
        token: &CancelToken,
    ) -> Result<Outcome, WireError> {
        let plan =
            plan_from_sql(sql).map_err(|e| WireError::fatal(WireCode::Parse, e.to_string()))?;
        if self.specs.is_empty() {
            return Err(WireError::fatal(
                WireCode::BadRequest,
                "MC requires at least one VG-registered random table in this session",
            ));
        }
        let snapshot = self.engine.snapshot();
        let query = MonteCarloQuery::new(self.specs.clone(), plan);

        let mut run_opts = RunOptions::policy(policy).with_cancel(token.clone());
        if let Some(deadline) = self.deadline(opts) {
            run_opts.deadline = Some(deadline);
        }
        let checkpointed = self.attach_checkpoint(&mut run_opts, checkpoint.as_deref())?;

        let run = query
            .run_with_options(&snapshot, n as usize, seed, &run_opts)
            .map_err(|e| WireError::fatal(WireCode::Exec, e.to_string()))?;

        if matches!(run.stopped, Some(StopCause::Cancelled)) {
            self.engine
                .metrics
                .cancelled
                .fetch_add(1, Ordering::Relaxed);
        }
        let mut pairs: Vec<(&str, String)> = vec![
            ("n", run.result.n().to_string()),
            ("attempted", run.report.attempted.to_string()),
            ("succeeded", run.report.succeeded.to_string()),
            ("ci_widened", run.report.ci_widened.to_string()),
        ];
        if run.result.n() > 0 {
            pairs.push(("mean", format!("{:?}", run.result.mean())));
        }
        if let Some(cause) = &run.stopped {
            pairs.push(("stopped", stop_cause_token(cause).to_string()));
            if checkpointed {
                pairs.push(("checkpointed", "1".to_string()));
            }
        }
        Ok(Outcome::Reply(encode_ok(&pairs)))
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_campaign(
        &mut self,
        n: u64,
        seed: u64,
        policy: RunPolicy,
        priority: mde_numeric::Priority,
        cost: u64,
        sql: &str,
        opts: &RequestOpts,
        checkpoint: Option<String>,
        token: &CancelToken,
    ) -> Result<Outcome, WireError> {
        let plan =
            plan_from_sql(sql).map_err(|e| WireError::fatal(WireCode::Parse, e.to_string()))?;
        if self.specs.is_empty() {
            return Err(WireError::fatal(
                WireCode::BadRequest,
                "CAMPAIGN requires at least one VG-registered random table in this session",
            ));
        }
        let snapshot = self.engine.snapshot();
        let query = MonteCarloQuery::new(self.specs.clone(), plan);

        let mut run_opts = RunOptions::policy(policy).with_cancel(token.clone());
        let checkpointed = self.attach_checkpoint(&mut run_opts, checkpoint.as_deref())?;
        let campaign = McCampaign::new(query, (*snapshot).clone(), n as usize, seed, run_opts);

        let mut spec = CampaignSpec::new(&self.tenant, format!("s{}-r{}", self.id, self.req_seq))
            .with_priority(priority)
            .with_cost(cost);
        if let Some(deadline) = self.deadline(opts) {
            spec = spec.with_deadline(deadline);
        }

        let id = match self.engine.hub.submit(spec, Box::new(campaign)) {
            Ok(id) => id,
            Err(overload) => {
                self.streak += 1;
                self.engine
                    .metrics
                    .overloaded
                    .fetch_add(1, Ordering::Relaxed);
                return Err(overloaded_to_wire(&overload, &self.hints, self.streak));
            }
        };
        self.streak = 0;

        let report = self.engine.hub.wait(id);
        let mut pairs: Vec<(&str, String)> = vec![
            ("id", id.to_string()),
            ("priority", report.priority.to_string()),
            ("slices", report.slices.to_string()),
            ("attempts", report.attempts.to_string()),
        ];
        match report.status {
            CampaignStatus::Completed(out) => {
                pairs.push(("status", "completed".to_string()));
                pairs.push(("attempted", out.report.attempted.to_string()));
                pairs.push(("succeeded", out.report.succeeded.to_string()));
                pairs.push(("ci_widened", out.report.ci_widened.to_string()));
                if let Some(v) = out.value {
                    pairs.push(("value", format!("{v:?}")));
                }
                Ok(Outcome::Reply(encode_ok(&pairs)))
            }
            CampaignStatus::Preempted { resumable } => {
                self.engine
                    .metrics
                    .cancelled
                    .fetch_add(1, Ordering::Relaxed);
                pairs.push(("status", "preempted".to_string()));
                pairs.push(("resumable", resumable.to_string()));
                if checkpointed {
                    pairs.push(("checkpointed", "1".to_string()));
                }
                Ok(Outcome::Reply(encode_ok(&pairs)))
            }
            CampaignStatus::Rejected(overload) => {
                self.streak += 1;
                self.engine
                    .metrics
                    .overloaded
                    .fetch_add(1, Ordering::Relaxed);
                Err(overloaded_to_wire(&overload, &self.hints, self.streak))
            }
            CampaignStatus::Failed { message } => Err(WireError::fatal(WireCode::Exec, message)),
        }
    }
}

fn stop_cause_token(cause: &StopCause) -> &'static str {
    match cause {
        StopCause::Deadline => "deadline",
        StopCause::Cancelled => "cancelled",
        StopCause::Preempted => "preempted",
        StopCause::Shed => "shed",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_mcdb::prelude::Value;

    fn session_over(catalog: Catalog) -> Session {
        let cfg = crate::server::ServerConfig::default();
        let engine = Arc::new(Engine {
            catalog: RwLock::new(Arc::new(catalog)),
            cache: PlanCache::new(cfg.cache_capacity),
            hub: CampaignHub::new(cfg.sched),
            drain: CancelToken::new(),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            vg: VgRegistry::standard(),
            checkpoint_dir: None,
            faults: None,
            metrics: ServerMetrics::default(),
        });
        Session {
            engine,
            probe: Arc::new(|| true),
            id: 1,
            tenant: "anon".to_string(),
            specs: Vec::new(),
            req_seq: 0,
            streak: 0,
            hints: RetryHints::new(Default::default(), 1),
        }
    }

    #[test]
    fn insert_is_all_or_nothing_and_copy_on_write() {
        let mut catalog = Catalog::new();
        catalog.insert(
            Table::build("T", &[("S", DataType::Str), ("X", DataType::Float)])
                .row(vec![Value::from("a"), Value::from(1.0)])
                .row(vec![Value::from("b"), Value::Null])
                .finish()
                .unwrap(),
        );
        let mut session = session_over(catalog);
        let old = session.engine.snapshot();
        let old_rows = old.get("T").unwrap().rows().to_vec();

        // Escaped cells arrive as the values they stand for.
        match session.exec_insert("T", "c\\td\t2.5\n\\NULL\tNULL\n") {
            Ok(Outcome::Reply(reply)) => assert_eq!(reply, "OK rows=2 total=4"),
            _ => panic!("insert must succeed"),
        }
        let new = session.engine.snapshot();
        assert_eq!(
            new.get("T").unwrap().rows()[2..],
            [
                vec![Value::from("c\td"), Value::from(2.5)],
                vec![Value::from("NULL"), Value::Null],
            ]
        );
        // Snapshot isolation: the appends copied the shared columns, so a
        // session still holding the old catalog sees the old rows.
        assert_eq!(old.get("T").unwrap().rows(), old_rows);
        assert_eq!(old.get("T").unwrap().len(), 2);

        // A row the table rejects (after a good one) leaves the catalog
        // untouched and reports the engine's error text.
        let Err(err) = session.exec_insert("T", "e\t3.5\nf\tNaN") else {
            panic!("NaN must be rejected");
        };
        assert_eq!(err.code, WireCode::Exec);
        let expected = new
            .get("T")
            .unwrap()
            .clone()
            .push_row(vec![Value::from("f"), Value::from(f64::NAN)])
            .unwrap_err();
        assert_eq!(err.message, expected.to_string());
        assert!(Arc::ptr_eq(&new, &session.engine.snapshot()));
        // So does a row that does not parse.
        assert!(session.exec_insert("T", "g\t4.5\nh\tnot-a-float").is_err());
        assert!(Arc::ptr_eq(&new, &session.engine.snapshot()));
    }
}
