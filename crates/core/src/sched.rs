//! Overload-resilient campaign scheduler: admission control over bounded
//! per-tenant queues, deadline-aware (EDF) dispatch, a deterministic
//! retry ladder with seeded-jitter backoff, per-resource circuit
//! breakers, and graceful load shedding.
//!
//! # Model
//!
//! Work arrives as [`Campaign`] boxes (a Monte Carlo query packaged as
//! `mde_mcdb::sched::McCampaign`, or any other implementor) tagged with
//! a [`CampaignSpec`] — tenant, resource, [`Priority`], cost, optional
//! [`Deadline`], and a fingerprint that seeds the campaign's backoff
//! jitter. [`Scheduler::submit`] is the admission controller: it either
//! accepts the campaign into its tenant's bounded queue or rejects it
//! with a typed [`Overloaded`] error. Under queue pressure it prefers
//! shedding already-queued lower-priority work over rejecting the
//! incoming submission; when no victim outranks the newcomer, the
//! newcomer is rejected.
//!
//! [`Scheduler::run`] drains the admitted queue over a worker pool.
//! Dispatch is earliest-deadline-first (deadlined campaigns before
//! undeadlined ones, then higher priority, then submission order). Every
//! slice runs under a fresh [`CampaignCtl`]; the scheduler triggers
//! [`CancelReason::Shed`] / [`CancelReason::Preempt`] through the control
//! block, so campaigns stop at their own replicate boundaries — never
//! mid-replicate.
//!
//! # Determinism
//!
//! The scheduler's ledger splits the same way every run report does:
//! admission decisions, shed/preempt/retry counts, retry backoff
//! schedules, and terminal statuses are pure functions of the submission
//! sequence and the fault plan — bit-identical at any worker count —
//! while queue-wait and latency measurements ride out-of-band in the
//! metrics ledger, excluded from deterministic equality.
//!
//! # Chaos faults
//!
//! A [`FaultPlan`] in [`SchedConfig::faults`] drives the overload chaos
//! harness: `stall_worker`/`slow_worker` delay the dispatching worker
//! (timing only), `queue_full_at` forces an admission rejection,
//! `shed_campaign_at`/`preempt_campaign_at` trigger mid-run control
//! signals before a keyed dispatch slice.

use mde_numeric::obs::RunMetrics;
use mde_numeric::resilience::{CancelReason, FaultPlan};
use mde_numeric::{
    Backoff, BackoffConfig, BreakerConfig, Campaign, CampaignCtl, CampaignOutput, CampaignStep,
    CancelToken, CircuitBreaker, Deadline, ErrorClass, Fingerprint, Overloaded, Priority,
};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A sampled external pressure signal for admission control — typically
/// the occupancy of a storage buffer pool (`resident / budget` in
/// `[0, 1]`). The probe is polled at each [`Scheduler::submit`]; when it
/// reads above [`SchedConfig::pressure_limit`], admission rejects with
/// [`Overloaded::PoolPressure`] so the campaign can be retried once the
/// pool drains rather than queued onto a memory-starved system.
#[derive(Clone)]
pub struct PressureProbe(Arc<dyn Fn() -> f64 + Send + Sync>);

impl PressureProbe {
    /// Wrap a sampling closure. The closure should be cheap and
    /// lock-light: it runs inline on every admission decision.
    pub fn new(f: impl Fn() -> f64 + Send + Sync + 'static) -> Self {
        PressureProbe(Arc::new(f))
    }

    /// Sample the current pressure. Non-finite readings are treated as
    /// zero (a broken probe must not wedge admission shut).
    pub(crate) fn sample(&self) -> f64 {
        let v = (self.0)();
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}

impl std::fmt::Debug for PressureProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PressureProbe").finish_non_exhaustive()
    }
}

/// Scheduler configuration: queue bounds, budgets, the retry ladder, and
/// breaker thresholds.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Bound on each tenant's waiting queue; admission beyond it sheds a
    /// lower-priority queued campaign or rejects with
    /// [`Overloaded::QueueFull`].
    pub queue_capacity: usize,
    /// Bound on the summed [`CampaignSpec::cost`] of admitted,
    /// not-yet-finished campaigns; admission beyond it rejects with
    /// [`Overloaded::CostBudget`].
    pub cost_budget: u64,
    /// When the total waiting depth exceeds this at dispatch time, the
    /// scheduler sheds lowest-priority waiting campaigns (typed
    /// [`Overloaded::Shed`]) until the depth is back under the line.
    pub pressure_depth: usize,
    /// Terminal attempt bound for the retry ladder: a campaign whose
    /// slice fails retryably is re-dispatched with backoff until it has
    /// consumed this many attempts.
    pub max_attempts: u32,
    /// Backoff ladder shape; jitter is seeded per-campaign from the spec
    /// fingerprint, so schedules are deterministic and de-synchronized.
    pub backoff: BackoffConfig,
    /// Per-resource circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// How long a [`FaultKind::StalledWorker`](mde_numeric::resilience::FaultKind)
    /// fault blocks the dispatching worker, in milliseconds.
    pub stall_ms: u64,
    /// Deterministic chaos injection (tests only; `None` in production).
    pub faults: Option<FaultPlan>,
    /// Optional external pressure signal (e.g. buffer pool occupancy)
    /// polled at admission; `None` disables the check.
    pub pressure_probe: Option<PressureProbe>,
    /// Admission ceiling for the probe reading, in `[0, 1]`. Readings
    /// strictly above it reject with [`Overloaded::PoolPressure`].
    pub pressure_limit: f64,
    /// Master drain signal for graceful shutdown. Every dispatched
    /// slice's control token is a [`CancelToken::child_of`] this token,
    /// so cancelling it (typically with
    /// [`CancelReason::Preempt`]) stops in-flight campaigns at their
    /// next boundary and terminally preempts everything still waiting —
    /// campaign boxes are retained so [`SchedRun::reclaim`] can recover
    /// checkpointed work for a later resume. `None` disables draining.
    pub drain: Option<CancelToken>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            queue_capacity: 8,
            cost_budget: u64::MAX,
            pressure_depth: usize::MAX,
            max_attempts: 3,
            backoff: BackoffConfig::default(),
            breaker: BreakerConfig::default(),
            stall_ms: 25,
            faults: None,
            pressure_probe: None,
            pressure_limit: 1.0,
            drain: None,
        }
    }
}

/// Identity and placement metadata for one submitted campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Owning tenant (its queue bound applies).
    pub tenant: String,
    /// Human-readable campaign name (appears in typed rejections).
    pub name: String,
    /// The resource the campaign executes against; one circuit breaker
    /// per distinct resource.
    pub resource: String,
    /// Dispatch priority class.
    pub priority: Priority,
    /// Admission cost against [`SchedConfig::cost_budget`].
    pub cost: u64,
    /// Wall-clock deadline: EDF-ordered at dispatch, expired campaigns
    /// are rejected with [`Overloaded::DeadlineExpired`] instead of run.
    pub deadline: Option<Deadline>,
    /// Seeds the campaign's backoff jitter; defaults to a digest of
    /// tenant and name.
    pub fingerprint: u64,
}

impl CampaignSpec {
    /// A batch-priority, cost-1 spec on the `"default"` resource.
    pub fn new(tenant: impl Into<String>, name: impl Into<String>) -> Self {
        let tenant = tenant.into();
        let name = name.into();
        let fingerprint = Fingerprint::new("sched.campaign")
            .push_str(&tenant)
            .push_str(&name)
            .finish();
        CampaignSpec {
            tenant,
            name,
            resource: "default".to_string(),
            priority: Priority::Batch,
            cost: 1,
            deadline: None,
            fingerprint,
        }
    }

    /// Set the resource (breaker key).
    pub fn on_resource(mut self, resource: impl Into<String>) -> Self {
        self.resource = resource.into();
        self
    }

    /// Set the priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the admission cost.
    pub fn with_cost(mut self, cost: u64) -> Self {
        self.cost = cost;
        self
    }

    /// Attach a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// How one admitted campaign terminated.
#[derive(Debug)]
pub enum CampaignStatus {
    /// Ran to completion (possibly degraded — the output's report says).
    Completed(CampaignOutput),
    /// Admitted but never completed: shed from the queue under pressure,
    /// or its deadline expired before dispatch.
    Rejected(Overloaded),
    /// Shed mid-run under a strict policy: the campaign stopped at a
    /// boundary and, when `resumable`, retains its checkpoint — reclaim
    /// the campaign box with [`SchedRun::reclaim`] and resubmit to
    /// continue from where it stopped.
    Preempted {
        /// Whether the campaign checkpointed and resumes at its cursor.
        resumable: bool,
    },
    /// The retry ladder was exhausted or the campaign failed fatally.
    Failed {
        /// Terminal failure message.
        message: String,
    },
}

/// Per-campaign accounting for one scheduler run.
#[derive(Debug)]
pub struct CampaignReport {
    /// Submission id (as returned by [`Scheduler::submit`]).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Campaign name.
    pub name: String,
    /// Priority class it was scheduled under.
    pub priority: Priority,
    /// Terminal status.
    pub status: CampaignStatus,
    /// Failed attempts consumed on the retry ladder.
    pub attempts: u32,
    /// Dispatch slices executed (re-dispatches after preemption and
    /// retries each count one).
    pub slices: u32,
    /// Times the campaign was preempted and re-queued.
    pub preemptions: u32,
    /// The deterministic backoff delays scheduled between retries, in
    /// ladder order.
    pub retry_schedule: Vec<Duration>,
}

/// The result of draining a scheduler queue: per-campaign reports (in
/// submission order) plus the scheduler's own metrics ledger.
pub struct SchedRun {
    /// One report per admitted campaign, ordered by submission id.
    pub reports: Vec<CampaignReport>,
    /// Scheduler ledger: deterministic counters (`sched.admitted`,
    /// `sched.shed`, `sched.preempted`, `sched.retries`,
    /// `sched.breaker_trips`, `sched.completed`, `sched.failed`, and
    /// per-tenant variants) plus out-of-band queue-wait and slice
    /// latency histograms.
    pub metrics: RunMetrics,
    resumable: HashMap<u64, Box<dyn Campaign>>,
}

impl SchedRun {
    /// The report for submission `id`.
    pub fn report(&self, id: u64) -> Option<&CampaignReport> {
        self.reports.iter().find(|r| r.id == id)
    }

    /// Take back the campaign box of a mid-run-shed campaign (status
    /// [`CampaignStatus::Preempted`] with `resumable: true`) so it can be
    /// resubmitted; it resumes from its retained checkpoint.
    pub fn reclaim(&mut self, id: u64) -> Option<Box<dyn Campaign>> {
        self.resumable.remove(&id)
    }
}

impl std::fmt::Debug for SchedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedRun")
            .field("reports", &self.reports)
            .field("metrics", &self.metrics)
            .field("resumable", &self.resumable.keys().collect::<Vec<_>>())
            .finish()
    }
}

enum EntryState {
    Waiting { not_before: Option<Instant> },
    Running,
    Terminal(CampaignStatus),
}

struct Entry {
    id: u64,
    spec: CampaignSpec,
    campaign: Option<Box<dyn Campaign>>,
    state: EntryState,
    attempts: u32,
    slices: u32,
    preemptions: u32,
    retry_schedule: Vec<Duration>,
    backoff: Backoff,
    ready_at: Instant,
}

impl Entry {
    fn is_waiting(&self) -> bool {
        matches!(self.state, EntryState::Waiting { .. })
    }
}

/// The admission-controlled, overload-resilient campaign scheduler.
///
/// Lifecycle: [`Scheduler::submit`] campaigns (admission control runs
/// synchronously, in submission order), then [`Scheduler::run`] to drain
/// the queue over a worker pool. Circuit breakers persist across runs, so
/// a resource that tripped during one run fast-rejects admissions in the
/// next until its cooldown elapses.
pub struct Scheduler {
    cfg: SchedConfig,
    entries: Vec<Entry>,
    submissions: u64,
    admitted_cost: u64,
    breakers: HashMap<String, CircuitBreaker>,
    metrics: RunMetrics,
}

impl Scheduler {
    /// A scheduler with the given configuration.
    pub fn new(cfg: SchedConfig) -> Self {
        Scheduler {
            cfg,
            entries: Vec::new(),
            submissions: 0,
            admitted_cost: 0,
            breakers: HashMap::new(),
            metrics: RunMetrics::new(),
        }
    }

    /// Campaigns currently admitted and waiting.
    pub fn queued(&self) -> usize {
        self.entries.iter().filter(|e| e.is_waiting()).count()
    }

    /// Summed [`CampaignSpec::cost`] of admitted, not-yet-finished
    /// campaigns (the in-flight figure admission charges against
    /// [`SchedConfig::cost_budget`]).
    pub fn admitted_cost(&self) -> u64 {
        self.admitted_cost
    }

    /// Split the admitted queue into a scheduler that can be drained on
    /// its own thread while this one keeps admitting new work.
    ///
    /// The detached scheduler takes the waiting entries, the breaker
    /// state, and the metrics accumulated so far; the submission counter
    /// is shared forward so ids stay unique across the pair. This
    /// scheduler keeps charging the detached batch's cost against its
    /// budget until [`Scheduler::reabsorb`] releases it — in-flight work
    /// still counts while it runs elsewhere.
    pub fn detach_for_drain(&mut self) -> Scheduler {
        Scheduler {
            cfg: self.cfg.clone(),
            entries: std::mem::take(&mut self.entries),
            submissions: self.submissions,
            admitted_cost: self.admitted_cost,
            breakers: std::mem::take(&mut self.breakers),
            metrics: std::mem::take(&mut self.metrics),
        }
    }

    /// Fold a drained detachment back in: restores breaker state (so
    /// trips observed during the drain gate future admissions here),
    /// merges any metrics left on the detachment, and releases
    /// `batch_cost` (the detachment's [`Scheduler::admitted_cost`] as
    /// captured at detach time) from the in-flight budget.
    pub fn reabsorb(&mut self, drained: Scheduler, batch_cost: u64) {
        for (resource, breaker) in drained.breakers {
            self.breakers.insert(resource, breaker);
        }
        self.metrics.merge(&drained.metrics);
        self.admitted_cost = self.admitted_cost.saturating_sub(batch_cost);
    }

    /// Admit a campaign or reject it with a typed [`Overloaded`] error.
    ///
    /// Admission checks run in order: injected queue-full faults, the
    /// tenant's queue bound (shedding a strictly lower-priority queued
    /// victim when one exists), the global cost budget, and the
    /// resource's circuit breaker. Decisions are deterministic in the
    /// submission sequence.
    pub fn submit(
        &mut self,
        spec: CampaignSpec,
        campaign: Box<dyn Campaign>,
    ) -> Result<u64, Overloaded> {
        let seq = self.submissions;
        self.submissions += 1;

        let injected_full = self.cfg.faults.as_ref().is_some_and(|f| f.queue_full(seq));
        let tenant_depth = self
            .entries
            .iter()
            .filter(|e| e.is_waiting() && e.spec.tenant == spec.tenant)
            .count();
        if injected_full || tenant_depth >= self.cfg.queue_capacity {
            // Prefer shedding queued work that the newcomer outranks over
            // bouncing the newcomer; an injected fault brooks no victim.
            let victim = if injected_full {
                None
            } else {
                self.entries
                    .iter_mut()
                    .filter(|e| {
                        e.is_waiting()
                            && e.spec.tenant == spec.tenant
                            && e.spec.priority < spec.priority
                    })
                    .min_by_key(|e| (e.spec.priority, std::cmp::Reverse(e.id)))
            };
            match victim {
                Some(v) => {
                    let cost = v.spec.cost;
                    let tenant = v.spec.tenant.clone();
                    v.state = EntryState::Terminal(CampaignStatus::Rejected(Overloaded::Shed {
                        tenant: v.spec.tenant.clone(),
                        campaign: v.spec.name.clone(),
                    }));
                    v.campaign = None;
                    self.admitted_cost = self.admitted_cost.saturating_sub(cost);
                    self.metrics.inc("sched.shed");
                    self.metrics.inc(&format!("sched.tenant.{tenant}.shed"));
                }
                None => {
                    self.metrics.inc("sched.rejected");
                    return Err(Overloaded::QueueFull {
                        tenant: spec.tenant,
                        depth: tenant_depth,
                        capacity: self.cfg.queue_capacity,
                    });
                }
            }
        }

        if self.admitted_cost.saturating_add(spec.cost) > self.cfg.cost_budget {
            self.metrics.inc("sched.rejected");
            return Err(Overloaded::CostBudget {
                cost: spec.cost,
                in_flight: self.admitted_cost,
                budget: self.cfg.cost_budget,
            });
        }

        if let Some(probe) = &self.cfg.pressure_probe {
            let pressure = probe.sample();
            if pressure > self.cfg.pressure_limit {
                self.metrics.inc("sched.rejected");
                self.metrics.inc("sched.pool_pressure_rejected");
                return Err(Overloaded::PoolPressure {
                    pressure_pct: (pressure * 100.0).round() as u32,
                    limit_pct: (self.cfg.pressure_limit * 100.0).round() as u32,
                });
            }
        }

        if let Some(b) = self.breakers.get(&spec.resource) {
            if b.state() == mde_numeric::BreakerState::Open {
                self.metrics.inc("sched.rejected");
                return Err(Overloaded::BreakerOpen {
                    resource: spec.resource,
                });
            }
        }

        let id = seq;
        self.admitted_cost += spec.cost;
        self.metrics.inc("sched.admitted");
        self.metrics
            .inc(&format!("sched.tenant.{}.admitted", spec.tenant));
        let backoff = Backoff::new(self.cfg.backoff, spec.fingerprint);
        self.entries.push(Entry {
            id,
            spec,
            campaign: Some(campaign),
            state: EntryState::Waiting { not_before: None },
            attempts: 0,
            slices: 0,
            preemptions: 0,
            retry_schedule: Vec::new(),
            backoff,
            ready_at: Instant::now(),
        });
        Ok(id)
    }

    /// Drain the admitted queue over at most `threads` workers — the
    /// calling thread is one of them, and no more are started than there
    /// are campaigns waiting — and return the per-campaign reports and the
    /// scheduler ledger. Never deadlocks:
    /// every worker wait is bounded, stalled/slow workers only delay their
    /// own slice, and every admitted campaign terminates in one of the
    /// [`CampaignStatus`] arms.
    pub fn run(&mut self, threads: usize) -> SchedRun {
        // Pressure shedding: the cheapest place to relieve overload is
        // before dispatch ever starts — drop lowest-priority (then
        // newest) waiting work until the backlog fits.
        while self.queued() > self.cfg.pressure_depth {
            let victim = self
                .entries
                .iter_mut()
                .filter(|e| e.is_waiting())
                .min_by_key(|e| (e.spec.priority, std::cmp::Reverse(e.id)));
            match victim {
                Some(v) => {
                    let tenant = v.spec.tenant.clone();
                    v.state = EntryState::Terminal(CampaignStatus::Rejected(Overloaded::Shed {
                        tenant: v.spec.tenant.clone(),
                        campaign: v.spec.name.clone(),
                    }));
                    v.campaign = None;
                    self.metrics.inc("sched.shed");
                    self.metrics.inc(&format!("sched.tenant.{tenant}.shed"));
                }
                None => break,
            }
        }

        // A worker beyond the number of waiting campaigns would only park
        // until its peers finish, and the caller would only park in the
        // join: the caller is the first worker, and a one-campaign batch
        // (every `CAMPAIGN` frame through the server's hub) spawns nothing.
        let workers = threads.clamp(1, self.queued().max(1));
        let pool = Pool {
            state: Mutex::new(PoolState {
                entries: std::mem::take(&mut self.entries),
                running: 0,
                breakers: std::mem::take(&mut self.breakers),
                metrics: std::mem::take(&mut self.metrics),
            }),
            cv: Condvar::new(),
            cfg: self.cfg.clone(),
        };

        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(|| pool.worker());
            }
            pool.worker();
        });

        let state = pool.state.into_inner().unwrap_or_else(|p| p.into_inner());
        self.breakers = state.breakers;
        self.admitted_cost = 0;
        let mut entries = state.entries;
        entries.sort_by_key(|e| e.id);
        let mut resumable = HashMap::new();
        let reports = entries
            .into_iter()
            .map(|mut e| {
                let status = match e.state {
                    EntryState::Terminal(s) => s,
                    // Unreachable for well-formed runs: workers only exit
                    // once nothing is waiting or running.
                    _ => CampaignStatus::Failed {
                        message: "campaign left unfinished by worker pool".to_string(),
                    },
                };
                if let (CampaignStatus::Preempted { resumable: true }, Some(c)) =
                    (&status, e.campaign.take())
                {
                    resumable.insert(e.id, c);
                }
                CampaignReport {
                    id: e.id,
                    tenant: e.spec.tenant,
                    name: e.spec.name,
                    priority: e.spec.priority,
                    status,
                    attempts: e.attempts,
                    slices: e.slices,
                    preemptions: e.preemptions,
                    retry_schedule: e.retry_schedule,
                }
            })
            .collect();
        SchedRun {
            reports,
            metrics: state.metrics,
            resumable,
        }
    }
}

struct PoolState {
    entries: Vec<Entry>,
    running: usize,
    breakers: HashMap<String, CircuitBreaker>,
    metrics: RunMetrics,
}

struct Pool {
    state: Mutex<PoolState>,
    cv: Condvar,
    cfg: SchedConfig,
}

/// What the dispatcher decided to do with the slice it picked.
struct Dispatch {
    idx: usize,
    campaign: Box<dyn Campaign>,
    ctl: CampaignCtl,
    shed_issued: bool,
    stall: Option<Duration>,
}

impl Pool {
    /// Worker loop: pick a slice under the lock, execute it outside the
    /// lock, settle the outcome under the lock again. All waits are
    /// bounded (`wait_timeout`), so a stalled peer can never wedge the
    /// pool.
    fn worker(&self) {
        let mut guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let now = Instant::now();
            match self.pick(&mut guard, now) {
                Pick::Dispatch(mut d) => {
                    guard.running += 1;
                    drop(guard);
                    let outcome = Self::execute(&mut d);
                    guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
                    self.settle(&mut guard, d, outcome);
                    guard.running -= 1;
                    self.cv.notify_all();
                }
                Pick::Wait(timeout) => {
                    let (g, _) = self
                        .cv
                        .wait_timeout(guard, timeout)
                        .unwrap_or_else(|p| p.into_inner());
                    guard = g;
                }
                Pick::Done => {
                    self.cv.notify_all();
                    return;
                }
            }
        }
    }

    /// EDF dispatch under the lock: deadlined entries first (earliest
    /// expiry), then priority (highest first), then submission order.
    /// Expired deadlines terminate the entry instead of dispatching it;
    /// an open breaker skips its entries (each skip serves cooldown).
    fn pick(&self, st: &mut PoolState, now: Instant) -> Pick {
        // A cancelled drain token stops dispatch entirely: everything
        // still waiting is terminally preempted with its campaign box
        // retained, so checkpointed work can be reclaimed and resumed
        // after the restart. In-flight slices observe the same signal
        // through their child control tokens and settle at their next
        // boundary.
        if self.cfg.drain.as_ref().is_some_and(|d| d.is_cancelled()) {
            let mut drained = 0u64;
            for e in st.entries.iter_mut() {
                if e.is_waiting() {
                    e.state = EntryState::Terminal(CampaignStatus::Preempted { resumable: true });
                    drained += 1;
                }
            }
            if drained > 0 {
                st.metrics.add("sched.drained", drained);
            }
        }

        // Terminate waiting entries whose deadline has already expired.
        for e in st.entries.iter_mut() {
            if e.is_waiting() && e.spec.deadline.is_some_and(|d| d.expired()) {
                e.state =
                    EntryState::Terminal(CampaignStatus::Rejected(Overloaded::DeadlineExpired {
                        campaign: e.spec.name.clone(),
                    }));
                e.campaign = None;
                st.metrics.inc("sched.deadline_expired");
            }
        }

        let mut order: Vec<usize> = (0..st.entries.len())
            .filter(|&i| st.entries[i].is_waiting())
            .collect();
        if order.is_empty() {
            return if st.running == 0 {
                Pick::Done
            } else {
                Pick::Wait(Duration::from_millis(5))
            };
        }
        order.sort_by(|&a, &b| {
            let (ea, eb) = (&st.entries[a], &st.entries[b]);
            let da = ea.spec.deadline.and_then(|d| d.expires_at());
            let db = eb.spec.deadline.and_then(|d| d.expires_at());
            match (da, db) {
                (Some(x), Some(y)) => x.cmp(&y),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            }
            .then(eb.spec.priority.cmp(&ea.spec.priority))
            .then(ea.id.cmp(&eb.id))
        });

        let mut earliest_retry: Option<Instant> = None;
        for idx in order {
            let ready = match st.entries[idx].state {
                EntryState::Waiting { not_before: None } => true,
                EntryState::Waiting {
                    not_before: Some(t),
                } => {
                    if t <= now {
                        true
                    } else {
                        earliest_retry = Some(earliest_retry.map_or(t, |e: Instant| e.min(t)));
                        false
                    }
                }
                _ => false,
            };
            if !ready {
                continue;
            }
            let resource = st.entries[idx].spec.resource.clone();
            let breaker = st
                .breakers
                .entry(resource)
                .or_insert_with(|| CircuitBreaker::new(self.cfg.breaker));
            if !breaker.try_acquire() {
                continue;
            }
            let e = &mut st.entries[idx];
            let campaign = match e.campaign.take() {
                Some(c) => c,
                None => {
                    // Defensive: a waiting entry always owns its box; if
                    // the invariant ever breaks, fail the campaign rather
                    // than poison the pool with a panic.
                    e.state = EntryState::Terminal(CampaignStatus::Failed {
                        message: "campaign box missing at dispatch".to_string(),
                    });
                    continue;
                }
            };
            let slice = e.slices;
            e.slices += 1;
            e.state = EntryState::Running;
            st.metrics.observe_duration(
                "sched.queue_wait",
                now.saturating_duration_since(e.ready_at),
            );
            let ctl = CampaignCtl {
                // Linked under the drain token (when configured) so a
                // graceful shutdown reaches every in-flight slice.
                cancel: match &self.cfg.drain {
                    Some(master) => CancelToken::child_of(master),
                    None => CancelToken::new(),
                },
                deadline: e.spec.deadline,
            };
            let mut shed_issued = false;
            let mut stall = None;
            if let Some(f) = &self.cfg.faults {
                if f.sheds_campaign(e.id, slice) {
                    ctl.cancel.cancel_for(CancelReason::Shed);
                    shed_issued = true;
                } else if f.preempts_campaign(e.id, slice) {
                    ctl.cancel.cancel_for(CancelReason::Preempt);
                }
                if f.stalls_worker(e.id) {
                    stall = Some(Duration::from_millis(self.cfg.stall_ms));
                } else if let Some(ms) = f.slow_worker_ms(e.id) {
                    stall = Some(Duration::from_millis(ms as u64));
                }
            }
            return Pick::Dispatch(Dispatch {
                idx,
                campaign,
                ctl,
                shed_issued,
                stall,
            });
        }
        // Nothing dispatchable right now: retries pending, breakers
        // cooling down, or peers still running. Bounded wait, re-scan.
        let timeout = earliest_retry
            .map(|t| {
                t.saturating_duration_since(now)
                    .max(Duration::from_millis(1))
            })
            .unwrap_or(Duration::from_millis(5))
            .min(Duration::from_millis(50));
        Pick::Wait(timeout)
    }

    /// Execute one slice outside the lock. Panics escaping the campaign
    /// (outside any supervised region it manages internally) are caught
    /// and fed to the retry ladder like any retryable failure.
    fn execute(d: &mut Dispatch) -> Result<CampaignStep, mde_numeric::CampaignError> {
        if let Some(pause) = d.stall {
            std::thread::sleep(pause);
        }
        let campaign = &mut d.campaign;
        let ctl = &d.ctl;
        match mde_numeric::resilience::catch_panic(move || campaign.run(ctl)) {
            Ok(step) => step,
            Err(msg) => Err(mde_numeric::CampaignError::retryable(format!(
                "campaign panicked outside its supervised region: {msg}"
            ))),
        }
    }

    /// Settle a finished slice back into the pool state.
    fn settle(
        &self,
        st: &mut PoolState,
        d: Dispatch,
        outcome: Result<CampaignStep, mde_numeric::CampaignError>,
    ) {
        let e = &mut st.entries[d.idx];
        let tenant = e.spec.tenant.clone();
        // The breaker was created at dispatch, but settle must not trust
        // that invariant with a panic: a missing breaker only skips its
        // own bookkeeping, never poisons the pool.
        let breaker = st.breakers.get_mut(&e.spec.resource);
        let draining = self.cfg.drain.as_ref().is_some_and(|t| t.is_cancelled());
        match outcome {
            Ok(CampaignStep::Done(out)) => {
                if let Some(b) = breaker {
                    b.on_success();
                }
                e.state = EntryState::Terminal(CampaignStatus::Completed(out));
                st.metrics.inc("sched.completed");
                st.metrics.inc(&format!("sched.tenant.{tenant}.completed"));
            }
            Ok(CampaignStep::Boundary { resumable }) => {
                if d.shed_issued {
                    e.campaign = Some(d.campaign);
                    e.state = EntryState::Terminal(CampaignStatus::Preempted { resumable });
                    st.metrics.inc("sched.shed");
                    st.metrics.inc(&format!("sched.tenant.{tenant}.shed"));
                } else if draining {
                    // Drain-induced boundary: terminal, box retained for
                    // reclaim/resume — requeueing would spin against the
                    // cancelled drain token forever.
                    e.campaign = Some(d.campaign);
                    e.state = EntryState::Terminal(CampaignStatus::Preempted { resumable });
                    st.metrics.inc("sched.drained");
                } else {
                    e.campaign = Some(d.campaign);
                    e.preemptions += 1;
                    e.ready_at = Instant::now();
                    e.state = EntryState::Waiting { not_before: None };
                    st.metrics.inc("sched.preempted");
                }
            }
            Err(err) => {
                if breaker.is_some_and(|b| b.on_failure()) {
                    st.metrics.inc("sched.breaker_trips");
                }
                e.attempts += 1;
                if err.is_retryable() && e.attempts < self.cfg.max_attempts {
                    let delay = e.backoff.delay(e.attempts);
                    e.retry_schedule.push(delay);
                    e.campaign = Some(d.campaign);
                    e.ready_at = Instant::now();
                    e.state = EntryState::Waiting {
                        not_before: Some(Instant::now() + delay),
                    };
                    st.metrics.inc("sched.retries");
                } else {
                    e.campaign = None;
                    drop(d.campaign);
                    e.state = EntryState::Terminal(CampaignStatus::Failed {
                        message: err.message,
                    });
                    st.metrics.inc("sched.failed");
                    st.metrics.inc(&format!("sched.tenant.{tenant}.failed"));
                }
            }
        }
    }
}

enum Pick {
    Dispatch(Dispatch),
    Wait(Duration),
    Done,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::{CampaignError, RunReport};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn fast_cfg() -> SchedConfig {
        SchedConfig {
            backoff: BackoffConfig {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                jitter: 0.0,
            },
            ..SchedConfig::default()
        }
    }

    fn done(value: f64) -> CampaignStep {
        CampaignStep::Done(CampaignOutput {
            value: Some(value),
            report: RunReport::new(),
        })
    }

    /// Completes immediately unless its control block is cancelled, in
    /// which case it stops at a resumable boundary.
    struct Pausable {
        value: f64,
        slices: Arc<AtomicU32>,
    }

    impl Pausable {
        fn new(value: f64) -> (Self, Arc<AtomicU32>) {
            let slices = Arc::new(AtomicU32::new(0));
            (
                Pausable {
                    value,
                    slices: slices.clone(),
                },
                slices,
            )
        }
    }

    impl Campaign for Pausable {
        fn run(&mut self, ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
            self.slices.fetch_add(1, Ordering::SeqCst);
            if ctl.cancel.is_cancelled() {
                return Ok(CampaignStep::Boundary { resumable: true });
            }
            Ok(done(self.value))
        }
    }

    /// Fails retryably `failures` times, then completes.
    struct Flaky {
        failures: u32,
    }

    impl Campaign for Flaky {
        fn run(&mut self, _ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
            if self.failures > 0 {
                self.failures -= 1;
                return Err(CampaignError::retryable("transient sim failure"));
            }
            Ok(done(1.0))
        }
    }

    struct Panicky {
        panics: u32,
    }

    impl Campaign for Panicky {
        fn run(&mut self, _ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
            if self.panics > 0 {
                self.panics -= 1;
                panic!("worker blew up");
            }
            Ok(done(2.0))
        }
    }

    #[test]
    fn admission_bounds_tenant_queue() {
        let mut s = Scheduler::new(SchedConfig {
            queue_capacity: 2,
            ..fast_cfg()
        });
        for i in 0..2 {
            let (c, _) = Pausable::new(i as f64);
            s.submit(CampaignSpec::new("acme", format!("c{i}")), Box::new(c))
                .expect("under capacity");
        }
        let (c, _) = Pausable::new(9.0);
        let err = s
            .submit(CampaignSpec::new("acme", "c2"), Box::new(c))
            .expect_err("over capacity");
        assert!(matches!(
            err,
            Overloaded::QueueFull {
                depth: 2,
                capacity: 2,
                ..
            }
        ));
        // A different tenant still has room.
        let (c, _) = Pausable::new(3.0);
        s.submit(CampaignSpec::new("globex", "g0"), Box::new(c))
            .expect("separate tenant queue");
    }

    #[test]
    fn admission_rejects_on_pool_pressure_and_recovers() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // A stand-in for `BufferPool::pressure()`: occupancy in [0, 1]
        // that the test drives up and back down.
        let occupancy = Arc::new(AtomicU64::new(90));
        let probe_view = Arc::clone(&occupancy);
        let mut s = Scheduler::new(SchedConfig {
            pressure_probe: Some(PressureProbe::new(move || {
                probe_view.load(Ordering::Relaxed) as f64 / 100.0
            })),
            pressure_limit: 0.75,
            ..fast_cfg()
        });
        let (c, _) = Pausable::new(1.0);
        let err = s
            .submit(CampaignSpec::new("acme", "hot"), Box::new(c))
            .expect_err("pool too full");
        assert!(matches!(
            err,
            Overloaded::PoolPressure {
                pressure_pct: 90,
                limit_pct: 75,
            }
        ));
        assert!(err.to_string().contains("90%"), "{err}");
        // Overload is a state of the system, not the request: once the
        // pool drains the same submission is admitted.
        occupancy.store(40, Ordering::Relaxed);
        let (c, _) = Pausable::new(1.0);
        s.submit(CampaignSpec::new("acme", "hot"), Box::new(c))
            .expect("admitted after pressure drained");
        let run = s.run(1);
        assert_eq!(run.metrics.counter("sched.pool_pressure_rejected"), 1);
        assert_eq!(run.metrics.counter("sched.admitted"), 1);
    }

    #[test]
    fn admission_sheds_lower_priority_victim() {
        let mut s = Scheduler::new(SchedConfig {
            queue_capacity: 1,
            ..fast_cfg()
        });
        let (c, _) = Pausable::new(0.0);
        let victim_id = s
            .submit(
                CampaignSpec::new("acme", "cheap").with_priority(Priority::BestEffort),
                Box::new(c),
            )
            .unwrap();
        let (c, _) = Pausable::new(1.0);
        let vip_id = s
            .submit(
                CampaignSpec::new("acme", "urgent").with_priority(Priority::Interactive),
                Box::new(c),
            )
            .expect("admitted by shedding the best-effort victim");
        let run = s.run(1);
        let victim = run.report(victim_id).unwrap();
        assert!(matches!(
            victim.status,
            CampaignStatus::Rejected(Overloaded::Shed { .. })
        ));
        let vip = run.report(vip_id).unwrap();
        assert!(matches!(vip.status, CampaignStatus::Completed(_)));
        assert_eq!(run.metrics.counter("sched.shed"), 1);
        assert_eq!(run.metrics.counter("sched.tenant.acme.shed"), 1);
    }

    #[test]
    fn admission_enforces_cost_budget() {
        let mut s = Scheduler::new(SchedConfig {
            cost_budget: 10,
            ..fast_cfg()
        });
        let (c, _) = Pausable::new(0.0);
        s.submit(CampaignSpec::new("t", "big").with_cost(8), Box::new(c))
            .unwrap();
        let (c, _) = Pausable::new(0.0);
        let err = s
            .submit(CampaignSpec::new("t", "too-big").with_cost(3), Box::new(c))
            .expect_err("budget breach");
        assert!(matches!(
            err,
            Overloaded::CostBudget {
                cost: 3,
                in_flight: 8,
                budget: 10
            }
        ));
    }

    #[test]
    fn injected_queue_full_rejects_regardless_of_depth() {
        let mut s = Scheduler::new(SchedConfig {
            faults: Some(FaultPlan::new().queue_full_at(0)),
            ..fast_cfg()
        });
        let (c, _) = Pausable::new(0.0);
        let err = s
            .submit(CampaignSpec::new("t", "c"), Box::new(c))
            .expect_err("fault-injected rejection");
        assert!(matches!(err, Overloaded::QueueFull { .. }));
        // The next submission (no fault) is admitted.
        let (c, _) = Pausable::new(0.0);
        s.submit(CampaignSpec::new("t", "c2"), Box::new(c)).unwrap();
    }

    #[test]
    fn retry_ladder_is_deterministic_and_bounded() {
        let mut s = Scheduler::new(SchedConfig {
            max_attempts: 4,
            ..fast_cfg()
        });
        let spec = CampaignSpec::new("t", "flaky");
        let fp = spec.fingerprint;
        let id = s.submit(spec, Box::new(Flaky { failures: 2 })).unwrap();
        let run = s.run(1);
        let r = run.report(id).unwrap();
        assert!(matches!(r.status, CampaignStatus::Completed(_)));
        assert_eq!(r.attempts, 2);
        let ladder = Backoff::new(
            BackoffConfig {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                jitter: 0.0,
            },
            fp,
        );
        assert_eq!(r.retry_schedule, vec![ladder.delay(1), ladder.delay(2)]);
        assert_eq!(run.metrics.counter("sched.retries"), 2);
    }

    #[test]
    fn retry_ladder_exhaustion_fails_campaign() {
        let mut s = Scheduler::new(SchedConfig {
            max_attempts: 2,
            ..fast_cfg()
        });
        let id = s
            .submit(
                CampaignSpec::new("t", "doomed"),
                Box::new(Flaky { failures: 10 }),
            )
            .unwrap();
        let run = s.run(1);
        let r = run.report(id).unwrap();
        assert!(matches!(r.status, CampaignStatus::Failed { .. }));
        assert_eq!(r.attempts, 2);
        assert_eq!(r.retry_schedule.len(), 1, "one retry before exhaustion");
        assert_eq!(run.metrics.counter("sched.failed"), 1);
    }

    #[test]
    fn fatal_error_skips_the_ladder() {
        struct Broken;
        impl Campaign for Broken {
            fn run(&mut self, _ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
                Err(CampaignError::fatal("bad configuration"))
            }
        }
        let mut s = Scheduler::new(fast_cfg());
        let id = s
            .submit(CampaignSpec::new("t", "broken"), Box::new(Broken))
            .unwrap();
        let run = s.run(1);
        let r = run.report(id).unwrap();
        assert!(matches!(r.status, CampaignStatus::Failed { .. }));
        assert_eq!(r.retry_schedule.len(), 0);
        assert_eq!(run.metrics.counter("sched.retries"), 0);
    }

    #[test]
    fn escaped_panic_climbs_the_ladder() {
        let mut s = Scheduler::new(fast_cfg());
        let id = s
            .submit(
                CampaignSpec::new("t", "panicky"),
                Box::new(Panicky { panics: 1 }),
            )
            .unwrap();
        let run = s.run(1);
        let r = run.report(id).unwrap();
        assert!(matches!(r.status, CampaignStatus::Completed(_)));
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn workers_are_the_caller_plus_at_most_one_per_waiting_campaign() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;

        /// Records the thread it ran on; slow enough that a second worker,
        /// if there is one, takes the next campaign.
        struct Whereabouts(Arc<Mutex<HashSet<ThreadId>>>);
        impl Campaign for Whereabouts {
            fn run(&mut self, _ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
                self.0.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(Duration::from_millis(20));
                Ok(done(0.0))
            }
        }
        let ran_on = |campaigns: usize, threads: usize| {
            let seen = Arc::new(Mutex::new(HashSet::new()));
            let mut s = Scheduler::new(fast_cfg());
            for k in 0..campaigns {
                s.submit(
                    CampaignSpec::new("t", format!("c{k}")),
                    Box::new(Whereabouts(Arc::clone(&seen))),
                )
                .unwrap();
            }
            let run = s.run(threads);
            assert_eq!(run.metrics.counter("sched.completed"), campaigns as u64);
            let seen = seen.lock().unwrap().clone();
            seen
        };
        let me = std::thread::current().id();
        // One campaign: it runs on the caller whatever `threads` says.
        assert_eq!(ran_on(1, 4), HashSet::from([me]));
        // Several: the caller and one spawned worker share them.
        let two = ran_on(4, 2);
        assert!(two.contains(&me));
        assert_eq!(two.len(), 2);
    }

    #[test]
    fn preempt_fault_requeues_and_completes() {
        let (c, slices) = Pausable::new(5.0);
        let mut s = Scheduler::new(SchedConfig {
            faults: Some(FaultPlan::new().preempt_campaign_at(0, 0)),
            ..fast_cfg()
        });
        let id = s.submit(CampaignSpec::new("t", "c"), Box::new(c)).unwrap();
        let run = s.run(1);
        let r = run.report(id).unwrap();
        assert!(matches!(r.status, CampaignStatus::Completed(_)));
        assert_eq!(r.preemptions, 1);
        assert_eq!(r.slices, 2);
        assert_eq!(slices.load(Ordering::SeqCst), 2);
        assert_eq!(run.metrics.counter("sched.preempted"), 1);
    }

    #[test]
    fn mid_run_shed_is_terminal_and_reclaimable() {
        let (c, _) = Pausable::new(5.0);
        let mut s = Scheduler::new(SchedConfig {
            faults: Some(FaultPlan::new().shed_campaign_at(0, 0)),
            ..fast_cfg()
        });
        let id = s.submit(CampaignSpec::new("t", "c"), Box::new(c)).unwrap();
        let mut run = s.run(1);
        let r = run.report(id).unwrap();
        assert!(matches!(
            r.status,
            CampaignStatus::Preempted { resumable: true }
        ));
        assert_eq!(run.metrics.counter("sched.shed"), 1);

        // The shed campaign is reclaimable and finishes on resubmission.
        let reclaimed = run.reclaim(id).expect("resumable campaign box");
        let mut s2 = Scheduler::new(fast_cfg());
        let id2 = s2.submit(CampaignSpec::new("t", "c"), reclaimed).unwrap();
        let run2 = s2.run(1);
        assert!(matches!(
            run2.report(id2).unwrap().status,
            CampaignStatus::Completed(_)
        ));
    }

    #[test]
    fn pressure_shedding_drops_lowest_priority_first() {
        let mut s = Scheduler::new(SchedConfig {
            pressure_depth: 2,
            ..fast_cfg()
        });
        let (c, _) = Pausable::new(0.0);
        let be = s
            .submit(
                CampaignSpec::new("t", "be").with_priority(Priority::BestEffort),
                Box::new(c),
            )
            .unwrap();
        let mut others = Vec::new();
        for i in 0..2 {
            let (c, _) = Pausable::new(0.0);
            others.push(
                s.submit(CampaignSpec::new("t", format!("b{i}")), Box::new(c))
                    .unwrap(),
            );
        }
        let run = s.run(2);
        assert!(matches!(
            run.report(be).unwrap().status,
            CampaignStatus::Rejected(Overloaded::Shed { .. })
        ));
        for id in others {
            assert!(matches!(
                run.report(id).unwrap().status,
                CampaignStatus::Completed(_)
            ));
        }
    }

    #[test]
    fn expired_deadline_rejects_before_dispatch() {
        let mut s = Scheduler::new(fast_cfg());
        let (c, slices) = Pausable::new(0.0);
        let id = s
            .submit(
                CampaignSpec::new("t", "late").with_deadline(Deadline::after(Duration::ZERO)),
                Box::new(c),
            )
            .unwrap();
        let run = s.run(1);
        assert!(matches!(
            run.report(id).unwrap().status,
            CampaignStatus::Rejected(Overloaded::DeadlineExpired { .. })
        ));
        assert_eq!(slices.load(Ordering::SeqCst), 0, "never dispatched");
    }

    #[test]
    fn edf_orders_deadlined_work_first() {
        let order = Arc::new(Mutex::new(Vec::new()));
        struct Tracker {
            label: u32,
            order: Arc<Mutex<Vec<u32>>>,
        }
        impl Campaign for Tracker {
            fn run(&mut self, _ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
                self.order.lock().unwrap().push(self.label);
                Ok(CampaignStep::Done(CampaignOutput {
                    value: None,
                    report: RunReport::new(),
                }))
            }
        }
        let mut s = Scheduler::new(fast_cfg());
        // Submitted first, no deadline, highest priority.
        s.submit(
            CampaignSpec::new("t", "nodeadline").with_priority(Priority::Interactive),
            Box::new(Tracker {
                label: 0,
                order: order.clone(),
            }),
        )
        .unwrap();
        // Later deadline.
        s.submit(
            CampaignSpec::new("t", "loose")
                .with_deadline(Deadline::after(Duration::from_secs(600))),
            Box::new(Tracker {
                label: 1,
                order: order.clone(),
            }),
        )
        .unwrap();
        // Earliest deadline: dispatched first despite being submitted last.
        s.submit(
            CampaignSpec::new("t", "tight").with_deadline(Deadline::after(Duration::from_secs(60))),
            Box::new(Tracker {
                label: 2,
                order: order.clone(),
            }),
        )
        .unwrap();
        s.run(1);
        assert_eq!(*order.lock().unwrap(), vec![2, 1, 0]);
    }

    #[test]
    fn breaker_trips_on_streak_and_gates_admission() {
        let mut s = Scheduler::new(SchedConfig {
            max_attempts: 1, // every failure is terminal: three failing campaigns = a streak of 3
            breaker: BreakerConfig {
                trip_after: 3,
                cooldown: 1_000_000, // effectively never half-opens during the test
            },
            ..fast_cfg()
        });
        for i in 0..3 {
            s.submit(
                CampaignSpec::new("t", format!("f{i}")).on_resource("sim"),
                Box::new(Flaky { failures: 10 }),
            )
            .unwrap();
        }
        let run = s.run(1);
        assert_eq!(run.metrics.counter("sched.breaker_trips"), 1);
        // The tripped breaker now fast-rejects admission to that resource…
        let (c, _) = Pausable::new(0.0);
        let err = s
            .submit(
                CampaignSpec::new("t", "next").on_resource("sim"),
                Box::new(c),
            )
            .expect_err("breaker open");
        assert!(matches!(err, Overloaded::BreakerOpen { .. }));
        // …while other resources are unaffected.
        let (c, _) = Pausable::new(0.0);
        s.submit(CampaignSpec::new("t", "ok").on_resource("gp"), Box::new(c))
            .unwrap();
    }

    #[test]
    fn deterministic_half_is_thread_count_invariant() {
        let run_once = |threads: usize| {
            let mut s = Scheduler::new(SchedConfig {
                max_attempts: 4,
                faults: Some(
                    FaultPlan::new()
                        .preempt_campaign_at(1, 0)
                        .shed_campaign_at(2, 0),
                ),
                ..fast_cfg()
            });
            let mut ids = Vec::new();
            for i in 0..6u32 {
                let spec = CampaignSpec::new(format!("t{}", i % 2), format!("c{i}"));
                let c: Box<dyn Campaign> = if i == 3 {
                    Box::new(Flaky { failures: 2 })
                } else {
                    Box::new(Pausable::new(i as f64).0)
                };
                ids.push(s.submit(spec, c).unwrap());
            }
            let run = s.run(threads);
            let counters = [
                "sched.admitted",
                "sched.completed",
                "sched.shed",
                "sched.preempted",
                "sched.retries",
                "sched.failed",
                "sched.breaker_trips",
            ]
            .iter()
            .map(|k| run.metrics.counter(k))
            .collect::<Vec<_>>();
            let shape = run
                .reports
                .iter()
                .map(|r| {
                    (
                        r.id,
                        r.attempts,
                        r.preemptions,
                        r.retry_schedule.clone(),
                        match &r.status {
                            CampaignStatus::Completed(_) => 0u8,
                            CampaignStatus::Rejected(_) => 1,
                            CampaignStatus::Preempted { .. } => 2,
                            CampaignStatus::Failed { .. } => 3,
                        },
                    )
                })
                .collect::<Vec<_>>();
            (counters, shape)
        };
        let single = run_once(1);
        assert_eq!(single, run_once(2));
        assert_eq!(single, run_once(8));
    }

    #[test]
    fn drain_token_preempts_waiting_work_resumably() {
        let drain = CancelToken::new();
        let mut s = Scheduler::new(SchedConfig {
            drain: Some(drain.clone()),
            ..fast_cfg()
        });
        let mut ids = Vec::new();
        for i in 0..3 {
            let (c, _) = Pausable::new(i as f64);
            ids.push(
                s.submit(CampaignSpec::new("acme", format!("c{i}")), Box::new(c))
                    .expect("admitted"),
            );
        }
        drain.cancel_for(CancelReason::Preempt);
        let mut run = s.run(2);
        assert_eq!(run.metrics.counter("sched.drained"), 3);
        for id in ids {
            assert!(
                matches!(
                    run.report(id).expect("report").status,
                    CampaignStatus::Preempted { resumable: true }
                ),
                "drained campaigns must be terminally preempted"
            );
            assert!(run.reclaim(id).is_some(), "box retained for resume");
        }
    }

    /// A campaign that needs several slices (boundary each time) before
    /// finishing, stopping resumably whenever its token is cancelled.
    struct Stepper {
        left: u32,
    }

    impl Campaign for Stepper {
        fn run(&mut self, ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
            if ctl.cancel.is_cancelled() {
                return Ok(CampaignStep::Boundary { resumable: true });
            }
            std::thread::sleep(Duration::from_millis(2));
            if self.left > 1 {
                self.left -= 1;
                return Ok(CampaignStep::Boundary { resumable: true });
            }
            Ok(done(42.0))
        }
    }

    #[test]
    fn drain_mid_run_stops_inflight_slices_at_boundaries() {
        let drain = CancelToken::new();
        let mut s = Scheduler::new(SchedConfig {
            drain: Some(drain.clone()),
            ..fast_cfg()
        });
        let id = s
            .submit(
                CampaignSpec::new("acme", "long"),
                Box::new(Stepper { left: 10_000 }),
            )
            .expect("admitted");
        let stopper = std::thread::spawn({
            let drain = drain.clone();
            move || {
                std::thread::sleep(Duration::from_millis(10));
                drain.cancel_for(CancelReason::Preempt);
            }
        });
        let mut run = s.run(2);
        stopper.join().expect("stopper thread");
        assert!(
            matches!(
                run.report(id).expect("report").status,
                CampaignStatus::Preempted { resumable: true }
            ),
            "in-flight campaign must stop at a boundary under drain: {:?}",
            run.report(id)
        );
        assert!(run.reclaim(id).is_some());
    }

    #[test]
    fn detach_for_drain_splits_admission_from_draining() {
        let mut s = Scheduler::new(SchedConfig {
            cost_budget: 10,
            ..fast_cfg()
        });
        let (c0, _) = Pausable::new(1.0);
        let (c1, _) = Pausable::new(2.0);
        let a = s
            .submit(CampaignSpec::new("acme", "a").with_cost(4), Box::new(c0))
            .expect("admitted");
        let b = s
            .submit(CampaignSpec::new("acme", "b").with_cost(4), Box::new(c1))
            .expect("admitted");

        let mut batch = s.detach_for_drain();
        let batch_cost = batch.admitted_cost();
        assert_eq!(batch_cost, 8);
        assert_eq!(s.queued(), 0, "waiting entries moved to the detachment");

        // The front keeps charging the detached batch against its
        // budget: a 4-cost submission must still bounce while the batch
        // is in flight.
        let (c2, _) = Pausable::new(3.0);
        let err = s
            .submit(CampaignSpec::new("acme", "c").with_cost(4), Box::new(c2))
            .expect_err("budget still holds the in-flight batch");
        assert!(matches!(err, Overloaded::CostBudget { .. }));

        let run = batch.run(2);
        assert!(matches!(
            run.report(a).expect("a").status,
            CampaignStatus::Completed(_)
        ));
        assert!(matches!(
            run.report(b).expect("b").status,
            CampaignStatus::Completed(_)
        ));

        s.reabsorb(batch, batch_cost);
        let (c3, _) = Pausable::new(4.0);
        let c = s
            .submit(CampaignSpec::new("acme", "c").with_cost(4), Box::new(c3))
            .expect("budget released after reabsorb");
        assert!(c > b, "submission ids stay unique across the pair");
    }
}
