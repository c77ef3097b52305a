//! Overload chaos harness for the campaign scheduler.
//!
//! Drives a mixed multi-tenant workload — real Monte Carlo query
//! campaigns from `mde-mcdb` alongside synthetic flaky/pausable work —
//! through `mde_core::Scheduler` under injected overload (stalled
//! workers, slowdowns, queue-full admissions, mid-run sheds and
//! preemptions) and asserts the robustness contract:
//!
//! * no deadlock and no panic: every run drains;
//! * every campaign terminates in exactly one taxonomy arm — completed,
//!   typed `Overloaded` rejection, or a resumable checkpoint;
//! * the deterministic half of the ledger (admission counters, retry
//!   schedules, attempt counts, terminal statuses) is bit-identical
//!   across 1, 2, and 8 worker threads;
//! * a shed-but-resumable campaign actually resumes and finishes.

use mde_core::sched::{CampaignSpec, CampaignStatus, SchedConfig, SchedRun, Scheduler};
use mde_mcdb::mc::MonteCarloQuery;
use mde_mcdb::prelude::*;
use mde_mcdb::sched::McCampaign;
use mde_numeric::resilience::sched::Campaign;
use mde_numeric::resilience::{FaultPlan, RunOptions, RunPolicy, RunReport};
use mde_numeric::rng::chaos_seed;
use mde_numeric::{BackoffConfig, BreakerConfig};
use mde_numeric::{CampaignCtl, CampaignError, CampaignOutput, CampaignStep, Overloaded, Priority};
use std::time::Duration;

/// A small Monte Carlo estimation campaign (sum of normals over 6 items).
fn mc_campaign(n: usize, seed: u64, policy: RunPolicy) -> McCampaign {
    let mut db = Catalog::new();
    db.insert(
        Table::build("ITEMS", &[("IID", DataType::Int)])
            .rows((0..6).map(|i| vec![Value::from(i)]))
            .finish()
            .unwrap(),
    );
    db.insert(
        Table::build(
            "PARAMS",
            &[("MEAN", DataType::Float), ("STD", DataType::Float)],
        )
        .row(vec![Value::from(10.0), Value::from(2.0)])
        .finish()
        .unwrap(),
    );
    let spec = RandomTableSpec::builder("SALES")
        .for_each(mde_mcdb::query::Plan::scan("ITEMS"))
        .with_vg(std::sync::Arc::new(mde_mcdb::vg::NormalVg))
        .vg_params_query(mde_mcdb::query::Plan::scan("PARAMS"))
        .select(&[("IID", Expr::col("IID")), ("AMT", Expr::col("VALUE"))])
        .build()
        .unwrap();
    let plan = mde_mcdb::query::Plan::scan("SALES").aggregate(
        &[],
        vec![mde_mcdb::query::AggSpec::new(
            "TOTAL",
            AggFunc::Sum,
            Expr::col("AMT"),
        )],
    );
    McCampaign::new(
        MonteCarloQuery::new(vec![spec], plan),
        db,
        n,
        seed,
        RunOptions::policy(policy),
    )
}

/// Synthetic campaign that fails retryably `failures` times then
/// completes; cancellation stops it at a resumable boundary.
struct Flaky {
    failures: u32,
}

impl Campaign for Flaky {
    fn run(&mut self, ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
        if ctl.cancel.is_cancelled() {
            return Ok(CampaignStep::Boundary { resumable: true });
        }
        if self.failures > 0 {
            self.failures -= 1;
            return Err(CampaignError::retryable("injected transient failure"));
        }
        Ok(CampaignStep::Done(CampaignOutput {
            value: Some(42.0),
            report: RunReport::new(),
        }))
    }
}

fn overload_cfg(seed: u64) -> SchedConfig {
    // Stall campaign 0, slow campaign 4, force a queue-full rejection on
    // the 9th submission, preempt campaign 2's first slice, and shed
    // campaign 5 mid-run. Fault placement is keyed off the chaos seed so
    // the CI matrix exercises different victims.
    let stalled = seed % 3;
    let slowed = 3 + (seed % 2);
    let faults = FaultPlan::new()
        .stall_worker(stalled)
        .slow_worker(slowed, 10)
        .queue_full_at(8)
        .preempt_campaign_at(2, 0)
        .shed_campaign_at(5, 0);
    SchedConfig {
        queue_capacity: 4,
        cost_budget: 1_000,
        max_attempts: 4,
        backoff: BackoffConfig {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
            jitter: 0.25,
        },
        breaker: BreakerConfig {
            trip_after: 8,
            cooldown: 2,
        },
        stall_ms: 30,
        faults: Some(faults),
        ..SchedConfig::default()
    }
}

/// Submit the mixed workload: 10 submissions across 3 tenants. Returns
/// (admitted ids, rejected submission count).
fn submit_workload(s: &mut Scheduler, seed: u64) -> (Vec<u64>, usize) {
    let tenants = ["acme", "globex", "initech"];
    let mut admitted = Vec::new();
    let mut rejected = 0;
    for i in 0..10u64 {
        let tenant = tenants[(i % 3) as usize];
        let spec = CampaignSpec::new(tenant, format!("c{i}"))
            .on_resource(if i % 2 == 0 { "mcdb" } else { "sim" })
            .with_priority(match i % 3 {
                0 => Priority::Interactive,
                1 => Priority::Batch,
                _ => Priority::BestEffort,
            })
            .with_cost(1 + i % 3);
        let campaign: Box<dyn Campaign> = match i % 3 {
            // Real Monte Carlo campaigns, best-effort ones absorb sheds.
            0 => Box::new(mc_campaign(12, seed ^ i, RunPolicy::FailFast)),
            1 => Box::new(mc_campaign(
                8,
                seed.rotate_left(1) ^ i,
                RunPolicy::BestEffort { min_fraction: 0.0 },
            )),
            // Synthetic flaky work exercising the retry ladder.
            _ => Box::new(Flaky {
                failures: (i % 4) as u32,
            }),
        };
        match s.submit(spec, campaign) {
            Ok(id) => admitted.push(id),
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        Overloaded::QueueFull { .. } | Overloaded::CostBudget { .. }
                    ),
                    "admission rejections are typed overloads, got {e}"
                );
                rejected += 1;
            }
        }
    }
    (admitted, rejected)
}

/// Per-campaign projection: (id, attempts, preemptions, retry schedule,
/// status discriminant).
type ReportShape = (u64, u32, u32, Vec<Duration>, u8);

/// The deterministic half of a run, projected for cross-thread-count
/// comparison.
fn deterministic_shape(run: &SchedRun) -> (Vec<u64>, Vec<ReportShape>) {
    let counters = [
        "sched.admitted",
        "sched.rejected",
        "sched.completed",
        "sched.shed",
        "sched.preempted",
        "sched.retries",
        "sched.failed",
        "sched.breaker_trips",
        "sched.deadline_expired",
    ]
    .iter()
    .map(|k| run.metrics.counter(k))
    .collect();
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
        .collect();
    (counters, shape)
}

fn run_workload(threads: usize, seed: u64) -> (SchedRun, Vec<u64>, usize) {
    let mut s = Scheduler::new(overload_cfg(seed));
    let (admitted, rejected) = submit_workload(&mut s, seed);
    let run = s.run(threads);
    (run, admitted, rejected)
}

#[test]
fn overloaded_mixed_workload_terminates_cleanly() {
    let seed = chaos_seed();
    let (mut run, admitted, rejected) = run_workload(8, seed);

    assert!(rejected >= 1, "the injected queue-full fault must reject");
    assert_eq!(run.reports.len(), admitted.len());

    // Termination taxonomy: every admitted campaign lands in exactly one
    // arm; nothing is left waiting or running.
    let mut resumable_ids = Vec::new();
    for r in &run.reports {
        match &r.status {
            CampaignStatus::Completed(out) => {
                // Completed Monte Carlo campaigns carry estimates unless
                // everything was shed into a best-effort partial.
                if out.report.shed == 0 && out.report.succeeded > 0 {
                    assert!(out.value.is_some());
                }
            }
            CampaignStatus::Rejected(o) => {
                assert!(!o.to_string().is_empty(), "typed rejection renders");
            }
            CampaignStatus::Preempted { resumable } => {
                assert!(*resumable, "mid-run shed campaigns keep checkpoints");
                resumable_ids.push(r.id);
            }
            CampaignStatus::Failed { message } => {
                assert!(!message.is_empty());
            }
        }
    }

    // The deterministic counters account for every admitted campaign.
    let m = &run.metrics;
    assert_eq!(m.counter("sched.admitted"), admitted.len() as u64);
    assert_eq!(
        m.counter("sched.completed")
            + m.counter("sched.failed")
            + m.counter("sched.shed")
            + m.counter("sched.deadline_expired"),
        admitted.len() as u64,
        "taxonomy sums to the admitted count (preempted campaigns re-queue and land elsewhere)"
    );

    // A shed-but-resumable campaign resumes and finishes.
    for id in resumable_ids {
        let c = run.reclaim(id).expect("resumable campaign reclaims");
        let mut s2 = Scheduler::new(SchedConfig::default());
        let id2 = s2.submit(CampaignSpec::new("resume", "shed"), c).unwrap();
        let run2 = s2.run(2);
        assert!(
            matches!(
                run2.report(id2).unwrap().status,
                CampaignStatus::Completed(_)
            ),
            "reclaimed campaign completes from its checkpoint"
        );
    }
}

#[test]
fn deterministic_half_is_identical_across_thread_counts() {
    let seed = chaos_seed();
    let (run1, _, rej1) = run_workload(1, seed);
    let (run2, _, rej2) = run_workload(2, seed);
    let (run8, _, rej8) = run_workload(8, seed);

    assert_eq!(rej1, rej2);
    assert_eq!(rej1, rej8);
    let s1 = deterministic_shape(&run1);
    assert_eq!(s1, deterministic_shape(&run2), "1 vs 2 workers");
    assert_eq!(s1, deterministic_shape(&run8), "1 vs 8 workers");
}

#[test]
fn completed_estimates_are_thread_count_invariant() {
    let seed = chaos_seed();
    let (run1, _, _) = run_workload(1, seed);
    let (run8, _, _) = run_workload(8, seed);
    for (a, b) in run1.reports.iter().zip(run8.reports.iter()) {
        assert_eq!(a.id, b.id);
        if let (CampaignStatus::Completed(x), CampaignStatus::Completed(y)) = (&a.status, &b.status)
        {
            assert_eq!(x.value, y.value, "campaign {} estimate differs", a.id);
            assert_eq!(
                x.report.succeeded, y.report.succeeded,
                "campaign {} ledger differs",
                a.id
            );
        }
    }
}

#[test]
fn stalled_worker_does_not_wedge_the_pool() {
    // Every campaign stalls: with 2 workers and 6 stalled campaigns the
    // pool still drains, bounded only by the stall budget.
    let mut faults = FaultPlan::new();
    for id in 0..6 {
        faults = faults.stall_worker(id);
    }
    let mut s = Scheduler::new(SchedConfig {
        stall_ms: 10,
        faults: Some(faults),
        ..SchedConfig::default()
    });
    let mut ids = Vec::new();
    for i in 0..6u32 {
        ids.push(
            s.submit(
                CampaignSpec::new("t", format!("stall{i}")),
                Box::new(Flaky { failures: 0 }),
            )
            .unwrap(),
        );
    }
    let run = s.run(2);
    for id in ids {
        assert!(matches!(
            run.report(id).unwrap().status,
            CampaignStatus::Completed(_)
        ));
    }
}
