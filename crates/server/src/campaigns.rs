//! Shared campaign scheduling across sessions.
//!
//! Every session submits durable campaigns into one
//! [`Scheduler`] so admission control — queue
//! bounds, cost budgets, priority shedding, circuit breakers — is
//! global: ten sessions cannot overload the box ten times over. The
//! scheduler itself is a synchronous batch drainer, so the hub wraps it
//! in a **rotating-drainer** protocol built from
//! [`Scheduler::detach_for_drain`] / [`Scheduler::reabsorb`]:
//!
//! 1. A session submits (cheap, synchronous, typed
//!    [`Overloaded`] rejection) and then waits for its report.
//! 2. The first waiter to find queued work and no active drainer
//!    detaches the waiting batch and runs it *outside* the hub lock,
//!    so submissions keep flowing while the batch executes.
//! 3. Finished reports are filed by submission id; the drainer wakes
//!    every waiter, each collects its own report, and the next waiter
//!    with pending work becomes the drainer. Waiters block on the
//!    condition variable until that wake-up; nobody polls.
//!
//! Admission stays honest across the split: the detached batch's cost
//! remains charged to the front scheduler until reabsorption, and
//! breaker trips observed during the drain gate future admissions.
//!
//! On graceful drain the server cancels the scheduler's master drain
//! token; in-flight slices stop at replicate boundaries (checkpoints
//! persisted by the campaign itself) and `CampaignHub::flush` runs
//! one final batch so queued-but-orphaned campaigns settle as
//! resumably-preempted instead of vanishing.

use mde_core::{CampaignReport, CampaignSpec, SchedConfig, Scheduler};
use mde_numeric::resilience::sched::{Campaign, Overloaded};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Worker threads a drain runs its batch on.
const DRAIN_THREADS: usize = 2;

struct HubInner {
    front: Scheduler,
    draining: bool,
    done: HashMap<u64, CampaignReport>,
}

/// Multiplexes session-submitted campaigns onto one shared scheduler.
pub(crate) struct CampaignHub {
    inner: Mutex<HubInner>,
    cv: Condvar,
}

impl CampaignHub {
    /// A hub over a scheduler with `cfg`.
    pub(crate) fn new(cfg: SchedConfig) -> Self {
        CampaignHub {
            inner: Mutex::new(HubInner {
                front: Scheduler::new(cfg),
                draining: false,
                done: HashMap::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Admit a campaign. Synchronous: a typed [`Overloaded`] rejection
    /// surfaces immediately, before the session ever blocks.
    pub(crate) fn submit(
        &self,
        spec: CampaignSpec,
        campaign: Box<dyn Campaign>,
    ) -> Result<u64, Overloaded> {
        self.inner
            .lock()
            .expect("hub lock")
            .front
            .submit(spec, campaign)
    }

    /// Block until submission `id` reaches a terminal status and take
    /// its report. The calling session becomes the drainer when work is
    /// queued and nobody else is draining — batches execute outside the
    /// hub lock so concurrent submissions are never blocked on a run.
    pub(crate) fn wait(&self, id: u64) -> CampaignReport {
        let mut inner = self.inner.lock().expect("hub lock");
        loop {
            if let Some(report) = inner.done.remove(&id) {
                return report;
            }
            if !inner.draining && inner.front.queued() > 0 {
                inner = self.drain(inner).0;
                continue;
            }
            // Another session is draining, and our campaign is in its
            // batch or queued behind it. A plain wait cannot miss the
            // wake-up: a waiter only sleeps while `draining` is set (with
            // it clear, an unfiled campaign is still in the front
            // scheduler, which then holds waiting work, so the branch
            // above drains), and the drainer clears it and `notify_all`s
            // under the lock after filing its batch. Every waiter then
            // rechecks, so work queued after the batch detached is picked
            // up by one of them.
            inner = self.cv.wait(inner).expect("hub lock");
        }
    }

    /// Run any still-queued campaigns to a terminal state. Called at
    /// shutdown *after* the master drain token is cancelled: the drain
    /// sweep settles every waiting campaign as resumably preempted and
    /// stops in-flight ones at their next boundary. Returns the number
    /// of campaigns settled by this final batch.
    pub(crate) fn flush(&self) -> usize {
        let mut inner = self.inner.lock().expect("hub lock");
        // Woken by the drainer's `notify_all` (see `wait`).
        while inner.draining {
            inner = self.cv.wait(inner).expect("hub lock");
        }
        if inner.front.queued() == 0 {
            return 0;
        }
        self.drain(inner).1
    }

    /// Detach the front scheduler's waiting batch and run it outside the
    /// lock, with `draining` set for exactly that run; then file its
    /// reports by id, clear `draining` and wake every waiter, all under
    /// the lock. Returns the lock and the number of reports filed.
    fn drain<'a>(
        &'a self,
        mut inner: MutexGuard<'a, HubInner>,
    ) -> (MutexGuard<'a, HubInner>, usize) {
        inner.draining = true;
        let mut batch = inner.front.detach_for_drain();
        let batch_cost = batch.admitted_cost();
        drop(inner);

        let run = batch.run(DRAIN_THREADS);

        let mut inner = self.inner.lock().expect("hub lock");
        inner.front.reabsorb(batch, batch_cost);
        let filed = run.reports.len();
        for report in run.reports {
            inner.done.insert(report.id, report);
        }
        inner.draining = false;
        self.cv.notify_all();
        (inner, filed)
    }

    /// Campaigns admitted and waiting (excludes a batch mid-drain).
    pub(crate) fn queued(&self) -> usize {
        self.inner.lock().expect("hub lock").front.queued()
    }

    /// Summed cost of admitted, not-yet-settled campaigns — including a
    /// detached batch mid-drain, whose cost stays charged until
    /// reabsorption.
    pub(crate) fn inflight_cost(&self) -> u64 {
        self.inner.lock().expect("hub lock").front.admitted_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_core::sched::CampaignStatus;
    use mde_numeric::{CampaignCtl, CampaignError, CampaignOutput, CampaignStep};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Quick(Arc<AtomicU64>, f64);
    impl Campaign for Quick {
        fn run(&mut self, _ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(CampaignStep::Done(CampaignOutput {
                value: Some(self.1),
                report: Default::default(),
            }))
        }
    }

    #[test]
    fn concurrent_sessions_all_get_their_reports() {
        let hub = Arc::new(CampaignHub::new(SchedConfig::default()));
        let runs = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..6 {
            let hub = Arc::clone(&hub);
            let runs = Arc::clone(&runs);
            handles.push(std::thread::spawn(move || {
                let id = hub
                    .submit(
                        CampaignSpec::new("t", format!("c{i}")),
                        Box::new(Quick(runs, i as f64)),
                    )
                    .expect("admitted");
                let report = hub.wait(id);
                assert_eq!(report.id, id);
                match report.status {
                    CampaignStatus::Completed(out) => assert_eq!(out.value, Some(i as f64)),
                    other => panic!("campaign {i}: {other:?}"),
                }
            }));
        }
        for h in handles {
            h.join().expect("session thread");
        }
        assert_eq!(runs.load(Ordering::SeqCst), 6, "every campaign ran once");
        assert_eq!(hub.queued(), 0);
    }

    #[test]
    fn rejections_are_synchronous_and_typed() {
        let hub = CampaignHub::new(SchedConfig {
            cost_budget: 2,
            ..SchedConfig::default()
        });
        let runs = Arc::new(AtomicU64::new(0));
        hub.submit(
            CampaignSpec::new("t", "big").with_cost(2),
            Box::new(Quick(Arc::clone(&runs), 0.0)),
        )
        .expect("fits");
        let err = hub
            .submit(
                CampaignSpec::new("t", "one-too-many"),
                Box::new(Quick(Arc::clone(&runs), 0.0)),
            )
            .expect_err("over budget");
        assert!(matches!(err, Overloaded::CostBudget { .. }));
        assert_eq!(runs.load(Ordering::SeqCst), 0, "rejection before any run");
    }

    #[test]
    fn flush_settles_orphaned_campaigns() {
        let drain = mde_numeric::CancelToken::new();
        let hub = CampaignHub::new(SchedConfig {
            drain: Some(drain.clone()),
            ..SchedConfig::default()
        });
        let runs = Arc::new(AtomicU64::new(0));
        hub.submit(CampaignSpec::new("t", "orphan"), Box::new(Quick(runs, 1.0)))
            .expect("admitted");
        // The session that submitted is gone; drain begins.
        drain.cancel_for(mde_numeric::CancelReason::Preempt);
        assert_eq!(hub.flush(), 1, "the orphan settles");
        assert_eq!(hub.queued(), 0);
        assert_eq!(hub.flush(), 0, "idempotent once settled");
    }
}
