//! The service front-end: accept loop, session registry, graceful
//! drain.
//!
//! The server binds a loopback TCP listener and runs an accept loop on
//! its own thread, blocked in `accept` until a client connects. Each
//! accepted connection becomes a supervised session ([`crate::session`])
//! on a thread of its own; the accept loop itself never executes request
//! work, so no session failure — panic, torn frame, slow-loris stall —
//! can wedge it.
//!
//! # Graceful drain
//!
//! A client's `SHUTDOWN` begins the drain: from then on a new connection
//! reads a typed, retryable `ERR SHUTTING_DOWN` and is closed, and so is
//! every new request on a live session. [`Server::shutdown`] runs the
//! whole protocol:
//!
//! 1. Begin the drain if no `SHUTDOWN` has, and stop accepting: set the
//!    stop flag and wake the blocked `accept` with a loopback
//!    self-connect.
//! 2. Cancel the master drain token with
//!    [`CancelReason::Preempt`]: every in-flight request token is a
//!    child, so Monte Carlo runs and campaign slices stop at their next
//!    replicate boundary and persist their checkpoints.
//! 3. Shut down every session socket, waking sessions parked in a read;
//!    join all session threads.
//! 4. Flush the campaign hub so queued-but-orphaned campaigns settle
//!    as resumably preempted rather than vanishing.
//!
//! The returned [`DrainReport`] accounts for what happened — how many
//! sessions closed, how many campaigns were flushed, how much work was
//! cancelled cooperatively.

use crate::cache::PlanCache;
use crate::campaigns::CampaignHub;
use crate::error::{WireCode, WireError};
use crate::proto::write_frame;
use crate::session::{run_session, Engine, ServerMetrics};
use mde_core::SchedConfig;
use mde_mcdb::prelude::Catalog;
use mde_mcdb::sql::VgRegistry;
use mde_numeric::resilience::FaultPlan;
use mde_numeric::{CancelReason, CancelToken};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug)]
pub struct ServerConfig {
    /// Concurrent session bound; connections beyond it are refused with
    /// a typed, retryable `ERR SESSION_LIMIT`.
    pub max_sessions: usize,
    /// Socket read deadline while a session waits for its next frame:
    /// it bounds the wait for, and the delivery of, that frame (how long
    /// an idle session is kept, and how long a slow-loris client may
    /// dribble), not how long a request may run. A request is bounded by
    /// its own `deadline_ms`, if it carries one.
    pub idle_timeout: Duration,
    /// Campaign scheduler configuration. The master drain token is
    /// installed by the server; any `drain` set here is replaced.
    pub sched: SchedConfig,
    /// Prepared-plan cache capacity.
    pub cache_capacity: usize,
    /// Directory for wire-named checkpoints; `None` disables the
    /// `checkpoint=` request option.
    pub checkpoint_dir: Option<PathBuf>,
    /// Server-side fault injection (tests only; `None` in production):
    /// the plan's [`FaultKind::SessionPanic`](mde_numeric::resilience::FaultKind::SessionPanic)
    /// sites.
    pub faults: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 32,
            idle_timeout: Duration::from_secs(10),
            sched: SchedConfig::default(),
            cache_capacity: 64,
            checkpoint_dir: None,
            faults: None,
        }
    }
}

/// What graceful drain accomplished.
#[derive(Debug)]
pub struct DrainReport {
    /// Sessions that were torn down over the server's lifetime.
    pub sessions_closed: u64,
    /// Queued campaigns settled (as resumably preempted) by the final
    /// hub flush.
    pub campaigns_flushed: usize,
    /// Requests stopped cooperatively (client disconnects plus drain
    /// cancellations).
    pub cancelled: u64,
    /// Panics caught by session supervision over the lifetime.
    pub panics: u64,
    /// Typed error replies sent over the lifetime.
    pub errors: u64,
}

/// Live sessions: the session thread's join handle plus a cloned stream
/// handle so shutdown can wake a session parked in a read.
type SessionRegistry = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// A running service front-end.
pub struct Server {
    addr: SocketAddr,
    engine: Arc<Engine>,
    drain: CancelToken,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    sessions: SessionRegistry,
}

impl Server {
    /// Bind a loopback listener and start serving `catalog`.
    pub fn start(catalog: Catalog, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;

        let drain = CancelToken::new();
        let mut sched = cfg.sched;
        sched.drain = Some(drain.clone());

        let engine = Arc::new(Engine {
            catalog: RwLock::new(Arc::new(catalog)),
            cache: PlanCache::new(cfg.cache_capacity),
            hub: CampaignHub::new(sched),
            drain: drain.clone(),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            vg: VgRegistry::standard(),
            checkpoint_dir: cfg.checkpoint_dir,
            faults: cfg.faults,
            metrics: ServerMetrics::default(),
        });

        let stop = Arc::new(AtomicBool::new(false));
        let sessions: SessionRegistry = Arc::default();

        let accept_engine = Arc::clone(&engine);
        let accept_stop = Arc::clone(&stop);
        let accept_sessions = Arc::clone(&sessions);
        let max_sessions = cfg.max_sessions.max(1);
        let idle_timeout = cfg.idle_timeout;
        let accept_handle = std::thread::spawn(move || {
            let mut next_session = 0u64;
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(mut stream) = conn else {
                    // Out of descriptors or the like: back off rather
                    // than spin.
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                };
                let live = {
                    let mut guard = accept_sessions.lock().expect("session registry");
                    guard.retain(|(h, _)| !h.is_finished());
                    guard.len()
                };
                if accept_engine.draining.load(Ordering::SeqCst) {
                    let _ = write_frame(
                        &mut stream,
                        &WireError::retryable(WireCode::ShuttingDown, "server is draining")
                            .with_retry_after(1000)
                            .encode(),
                    );
                    continue;
                }
                if live >= max_sessions {
                    let _ = write_frame(
                        &mut stream,
                        &WireError::retryable(
                            WireCode::SessionLimit,
                            format!("session limit {max_sessions} reached"),
                        )
                        .with_retry_after(250)
                        .encode(),
                    );
                    continue;
                }
                let id = next_session;
                next_session += 1;
                let engine = Arc::clone(&accept_engine);
                let registered = match stream.try_clone() {
                    Ok(clone) => clone,
                    Err(_) => continue,
                };
                let handle = std::thread::spawn(move || {
                    run_session(engine, stream, id, idle_timeout);
                });
                accept_sessions
                    .lock()
                    .expect("session registry")
                    .push((handle, registered));
            }
        });

        Ok(Server {
            addr,
            engine,
            drain,
            stop,
            accept_handle: Some(accept_handle),
            sessions,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client requested shutdown via the `SHUTDOWN` command.
    pub fn shutdown_requested(&self) -> bool {
        self.engine.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Whole-server counter snapshot.
    pub fn metrics(&self) -> Vec<(&'static str, u64)> {
        self.engine.metrics.snapshot()
    }

    /// Run the graceful drain protocol and tear the server down.
    pub fn shutdown(mut self) -> DrainReport {
        // 1. Refuse new requests on live sessions, and stop accepting:
        // a self-connect wakes the blocked `accept`, whose loop then sees
        // `stop`. Should even a loopback connect fail, the accept thread
        // is left parked rather than joined forever.
        self.engine.draining.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            if TcpStream::connect(self.addr).is_ok() {
                let _ = h.join();
            }
        }

        // 2. Cancel in-flight work cooperatively: every request token is
        // a child of the drain token, so MC runs and campaign slices
        // stop at their next boundary (persisting checkpoints).
        self.drain.cancel_for(CancelReason::Preempt);

        // 3. Wake sessions parked in a read and join every session.
        let sessions = std::mem::take(&mut *self.sessions.lock().expect("session registry"));
        for (_, stream) in &sessions {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (handle, _) in sessions {
            let _ = handle.join();
        }

        // 4. Settle queued-but-orphaned campaigns.
        let campaigns_flushed = self.engine.hub.flush();

        let m = &self.engine.metrics;
        DrainReport {
            sessions_closed: m.sessions_closed.load(Ordering::Relaxed),
            campaigns_flushed,
            cancelled: m.cancelled.load(Ordering::Relaxed),
            panics: m.panics.load(Ordering::Relaxed),
            errors: m.errors.load(Ordering::Relaxed),
        }
    }
}
