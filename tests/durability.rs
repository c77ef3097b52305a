//! The preemption chaos harness: durable campaigns interrupted at every
//! boundary must resume **bit-identically** — same estimates, same RNG
//! draw order, same [`RunReport`] ledger — whether the checkpoint
//! travelled through memory or through disk.
//!
//! The second half attacks the checkpoint files themselves: flipped
//! bytes, truncation, and foreign fingerprints must surface as typed
//! [`CheckpointError`]s — never panics, never silently wrong numbers.
//!
//! The master seed comes from `MDE_CHAOS_SEED` (default 11) so CI can
//! sweep a seed matrix over the same assertions.

use model_data_ecosystems::assim::pf::{
    BootstrapProposal, ParticleFilter, ParticleState, PfRun, StateSpaceModel,
};
use model_data_ecosystems::assim::wildfire::default_scenario;
use model_data_ecosystems::assim::AssimError;
use model_data_ecosystems::calibrate::optim::{genetic_algorithm, random_search, Bounds, GaConfig};
use model_data_ecosystems::calibrate::CalibrateError;
use model_data_ecosystems::mcdb::mc::{McRun, MonteCarloQuery};
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::AggSpec;
use model_data_ecosystems::mcdb::vg::NormalVg;
use model_data_ecosystems::mcdb::McdbError;
use model_data_ecosystems::metamodel::response::FnResponse;
use model_data_ecosystems::metamodel::screening::{
    sequential_bifurcation, BifurcationConfig, ScreeningRun,
};
use model_data_ecosystems::metamodel::MetamodelError;
use model_data_ecosystems::numeric::dist::{Continuous, Normal};
use model_data_ecosystems::numeric::resilience::{
    CancelToken, CheckpointSpec, Deadline, FaultKind, FaultPlan, RunOptions, RunPolicy, RunReport,
    StopCause,
};
use model_data_ecosystems::numeric::rng::{chaos_seed, Rng, StreamFactory};
use model_data_ecosystems::numeric::{CampaignState, CheckpointError};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The master seed for every campaign in this harness. CI sweeps a seed
/// matrix by exporting `MDE_CHAOS_SEED`; locally the default applies.
/// A scratch checkpoint path unique to this process and test.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(name: &str) -> Self {
        ScratchFile(std::env::temp_dir().join(format!(
            "mde-durability-{}-{}-{name}.ckpt",
            std::process::id(),
            chaos_seed()
        )))
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

// ---------------------------------------------------------------------------
// Monte Carlo queries (mcdb)
// ---------------------------------------------------------------------------

/// A catalog with a `MU` column plus a query that sums one `Normal(mu, 1)`
/// draw per row — a genuinely stochastic campaign whose sample sequence
/// exposes any RNG drift across preemption and resumption.
fn normal_setup() -> (Catalog, MonteCarloQuery) {
    normal_setup_with_std(1.0)
}

/// [`normal_setup`] with the draws' deviation — one literal in the spec's
/// parameter expressions — chosen by the caller.
fn normal_setup_with_std(std: f64) -> (Catalog, MonteCarloQuery) {
    let mut db = Catalog::new();
    let mut builder = Table::build("T", &[("MU", DataType::Float)]);
    for mu in [0.0, 1.0, 2.5, -1.5] {
        builder = builder.row(vec![Value::from(mu)]);
    }
    db.insert(builder.finish().unwrap());
    let spec = RandomTableSpec::builder("OUT")
        .for_each(Plan::scan("T"))
        .with_vg(Arc::new(NormalVg))
        .vg_params_exprs(&[Expr::col("MU"), Expr::lit(std)])
        .select(&[("V", Expr::col("VALUE"))])
        .build()
        .unwrap();
    let q = MonteCarloQuery::new(
        vec![spec],
        Plan::scan("OUT").aggregate(&[], vec![AggSpec::new("S", AggFunc::Sum, Expr::col("V"))]),
    );
    (db, q)
}

/// Preempt exactly before `cut` and return the partial run.
fn preempt_opts(cut: u64) -> RunOptions {
    RunOptions::default().with_faults(FaultPlan::new().preempt_at(cut))
}

/// Default options that continue from `state`.
fn resuming(state: CampaignState) -> RunOptions {
    RunOptions::default().resuming(state)
}

/// A file-based resume, as spelled at a call site: load (checksum and
/// structure verified), then hand the state to the one entry point.
fn resuming_from(path: &Path) -> Result<RunOptions, CheckpointError> {
    CampaignState::load(path).map(resuming)
}

/// Resume the Monte Carlo campaign from a checkpoint file.
fn mc_from_checkpoint(
    q: &MonteCarloQuery,
    db: &Catalog,
    n: usize,
    seed: u64,
    path: &Path,
) -> Result<McRun, McdbError> {
    q.run_with_options(db, n, seed, &resuming_from(path)?)
}

fn assert_mc_runs_identical(resumed: &McRun, baseline: &McRun, context: &str) {
    let a: Vec<u64> = resumed
        .result
        .samples()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let b: Vec<u64> = baseline
        .result
        .samples()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(a, b, "{context}: samples diverged");
    assert_eq!(
        resumed.report, baseline.report,
        "{context}: ledgers diverged"
    );
    assert_eq!(
        resumed.stopped, None,
        "{context}: resumed run did not finish"
    );
}

#[test]
fn mc_preempted_runs_resume_bit_identically_at_every_boundary() {
    let seed = chaos_seed();
    let n = 24;
    let (db, q) = normal_setup();
    let baseline = q
        .run_with_options(&db, n, seed, &RunOptions::default())
        .unwrap();
    assert_eq!(baseline.result.n(), n);

    for cut in 0..n as u64 {
        let partial = q
            .run_with_options(&db, n, seed, &preempt_opts(cut))
            .unwrap();
        assert_eq!(partial.stopped, Some(StopCause::Preempted), "cut {cut}");
        assert_eq!(partial.result.n(), cut as usize, "cut {cut}");
        let state = partial.checkpoint.clone();
        assert_eq!(state.cursor, cut);

        let resumed = q.run_with_options(&db, n, seed, &resuming(state)).unwrap();
        assert_mc_runs_identical(&resumed, &baseline, &format!("resume at {cut}"));
    }
}

/// A fixed-seed golden over every part of the Monte Carlo boundary loop at
/// once: a retried panic at replicate 2, a NaN then an error at 5, a
/// preemption at 11 under a 4-replicate cadence, and the resume. The
/// constants pin the samples, both states' `MDECKPT2` bytes and the save
/// counts, not just the resumed ≡ uninterrupted relation.
#[test]
fn mc_faulted_preempted_resumed_run_matches_its_golden() {
    use model_data_ecosystems::numeric::codec::{fnv1a, FNV_OFFSET};
    let (seed, n) = (0x00C0_FFEE, 16);
    let (db, q) = normal_setup();
    let scratch = ScratchFile::new("mc-golden");
    let faulted = RunOptions::policy(RunPolicy::Retry {
        max_attempts: 3,
        reseed: true,
    })
    .with_faults(
        FaultPlan::new()
            .fail_on(2, 0, FaultKind::Panic)
            .fail_on(5, 0, FaultKind::Nan)
            .fail_on(5, 1, FaultKind::Error),
    )
    .with_checkpoint(CheckpointSpec::new(scratch.path()).every(4));
    let mut preempted = faulted.clone();
    preempted.faults = preempted.faults.map(|plan| plan.preempt_at(11));
    let partial = q.run_with_options(&db, n, seed, &preempted).unwrap();
    assert_eq!(partial.stopped, Some(StopCause::Preempted));
    let partial_state = partial.checkpoint;
    let resumed = q
        .run_with_options(
            &db,
            n,
            seed,
            &faulted.resuming(CampaignState::load(scratch.path()).unwrap()),
        )
        .unwrap();
    assert_eq!(resumed.stopped, None);
    let final_state = resumed.checkpoint;
    let samples: Vec<u64> = resumed
        .result
        .samples()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let digest = |s: &CampaignState| fnv1a(FNV_OFFSET, &s.encode());
    let saves = |r: &RunReport| r.metrics.io_counter("ckpt.saves");
    assert_eq!(
        samples,
        [
            0x3fd1_2759_519c_7898,
            0x3fde_b87b_294d_0430,
            0x4016_a4cd_c0dc_6c72,
            0x4009_7e11_aa23_aaf5,
            0x3ff5_3a8c_6098_974c,
            0x3ff3_c423_3c0e_e516,
            0x3ff6_e2b4_e4f2_cddc,
            0x400e_1ae8_394b_ac6b,
            0x4001_df98_07ea_8f66,
            0x4011_da65_0f5c_b61b,
            0x3fd0_9122_785c_602c,
            0x4013_2031_c85e_8f20,
            0xbff0_48ef_ba45_c8c4,
            0x400f_43ca_3d83_f73d,
            0x401b_a365_2802_80c2,
            0xbfe3_b917_4789_d7e2,
        ]
    );
    assert_eq!(
        (digest(&partial_state), digest(&final_state)),
        (0x4e51_84e2_9dc1_ff14, 0x1119_73ea_d642_8269),
        "state bytes"
    );
    // Cadence saves at 4 and 8 plus the final one; then at 12 and 16 plus
    // the final one (save counts are out-of-band: a resume starts at 0).
    assert_eq!(
        (saves(&partial.report), saves(&resumed.report)),
        (3, 3),
        "checkpoint saves"
    );
}

#[test]
fn mc_checkpoint_survives_the_disk_round_trip() {
    let seed = chaos_seed();
    let n = 16;
    let (db, q) = normal_setup();
    let baseline = q
        .run_with_options(&db, n, seed, &RunOptions::default())
        .unwrap();

    let scratch = ScratchFile::new("mc-disk");
    let opts = preempt_opts(9).with_checkpoint(CheckpointSpec::new(scratch.path()).every(1));
    let partial = q.run_with_options(&db, n, seed, &opts).unwrap();
    assert_eq!(partial.stopped, Some(StopCause::Preempted));

    // The stopped run left its final state on disk; a resume reads it back
    // and finishes bit-identically.
    let resumed = mc_from_checkpoint(&q, &db, n, seed, scratch.path()).unwrap();
    assert_mc_runs_identical(&resumed, &baseline, "resume from disk");
}

/// A campaign whose plan holds an inline table with a string column, built
/// from scratch on every call — as a restarted process would build it.
fn inline_strings_setup() -> (Catalog, MonteCarloQuery) {
    let mut builder = Table::build("D", &[("NAME", DataType::Str), ("MU", DataType::Float)]);
    for (i, name) in [
        "north", "", "süd", "east", "west", "north", "up", "down", "in",
    ]
    .into_iter()
    .enumerate()
    {
        builder = builder.row(vec![Value::str(name), Value::from(i as f64 * 0.5 - 2.0)]);
    }
    let spec = RandomTableSpec::builder("OUT")
        .for_each(Plan::values(builder.finish().unwrap()))
        .with_vg(Arc::new(NormalVg))
        .vg_params_exprs(&[Expr::col("MU"), Expr::lit(1.0)])
        .select(&[("NAME", Expr::col("NAME")), ("V", Expr::col("VALUE"))])
        .build()
        .unwrap();
    let q = MonteCarloQuery::new(
        vec![spec],
        Plan::scan("OUT")
            .filter(Expr::col("NAME").ne(Expr::lit("east")))
            .aggregate(&[], vec![AggSpec::new("S", AggFunc::Sum, Expr::col("V"))]),
    );
    (Catalog::new(), q)
}

/// The campaign fingerprint hashes the plan's debug text, inline tables
/// included: the same plan built again — other `Arc`s, another dictionary,
/// another hash-map seed — is the same campaign.
#[test]
fn mc_rebuilt_plan_with_inline_strings_resumes_its_own_checkpoint() {
    let seed = chaos_seed();
    let n = 12;
    let (db, q) = inline_strings_setup();
    let baseline = q
        .run_with_options(&db, n, seed, &RunOptions::default())
        .unwrap();
    let partial = q.run_with_options(&db, n, seed, &preempt_opts(5)).unwrap();
    let state = partial.checkpoint;
    for _ in 0..4 {
        let (db, rebuilt) = inline_strings_setup();
        let resumed = rebuilt
            .run_with_options(&db, n, seed, &resuming(state.clone()))
            .unwrap();
        assert_mc_runs_identical(&resumed, &baseline, "rebuilt plan");
    }
}

#[test]
fn mc_deadline_and_cancellation_stop_cleanly_with_partial_results() {
    let seed = chaos_seed();
    let n = 12;
    let (db, q) = normal_setup();
    let baseline = q
        .run_with_options(&db, n, seed, &RunOptions::default())
        .unwrap();

    // An already-expired deadline: zero replicates, but a valid checkpoint
    // and no error.
    let opts = RunOptions::default().with_deadline(Deadline::after(Duration::ZERO));
    let run = q.run_with_options(&db, n, seed, &opts).unwrap();
    assert_eq!(run.stopped, Some(StopCause::Deadline));
    assert_eq!(run.result.n(), 0);
    let resumed = q
        .run_with_options(&db, n, seed, &resuming(run.checkpoint))
        .unwrap();
    assert_mc_runs_identical(&resumed, &baseline, "resume after deadline");

    // A pre-cancelled token behaves the same.
    let token = CancelToken::new();
    token.cancel();
    let opts = RunOptions::default().with_cancel(token);
    let run = q.run_with_options(&db, n, seed, &opts).unwrap();
    assert_eq!(run.stopped, Some(StopCause::Cancelled));
    assert_eq!(run.result.n(), 0);
    let resumed = q
        .run_with_options(&db, n, seed, &resuming(run.checkpoint))
        .unwrap();
    assert_mc_runs_identical(&resumed, &baseline, "resume after cancellation");
}

// ---------------------------------------------------------------------------
// Checkpoint files under attack
// ---------------------------------------------------------------------------

/// Write a valid mid-campaign checkpoint to disk and return its bytes.
fn checkpointed_mc_state(scratch: &ScratchFile) -> (Catalog, MonteCarloQuery, Vec<u8>) {
    let (db, q) = normal_setup();
    let opts = preempt_opts(5).with_checkpoint(CheckpointSpec::new(scratch.path()).every(1));
    let run = q.run_with_options(&db, 10, chaos_seed(), &opts).unwrap();
    assert_eq!(run.stopped, Some(StopCause::Preempted));
    let bytes = std::fs::read(scratch.path()).unwrap();
    (db, q, bytes)
}

#[test]
fn corrupt_checkpoints_yield_typed_errors_never_panics() {
    let scratch = ScratchFile::new("mc-corrupt");
    let (db, q, bytes) = checkpointed_mc_state(&scratch);
    let seed = chaos_seed();

    // Flip one byte at a sweep of offsets: magic, header, checksum, and
    // body corruption must all decode to a typed CheckpointError.
    for offset in [0, 4, 9, 17, bytes.len() / 2, bytes.len() - 1] {
        let mut torn = bytes.clone();
        torn[offset] ^= 0xA5;
        std::fs::write(scratch.path(), &torn).unwrap();
        let err = mc_from_checkpoint(&q, &db, 10, seed, scratch.path()).unwrap_err();
        assert!(
            matches!(
                err,
                McdbError::Checkpoint(
                    CheckpointError::Corrupt { .. } | CheckpointError::ChecksumMismatch { .. }
                )
            ),
            "flipped byte {offset}: unexpected error {err}"
        );
    }

    // Truncation at every prefix length — header-only, mid-body, empty.
    for keep in [0, 7, 16, bytes.len() / 3, bytes.len() - 1] {
        std::fs::write(scratch.path(), &bytes[..keep]).unwrap();
        let err = mc_from_checkpoint(&q, &db, 10, seed, scratch.path()).unwrap_err();
        assert!(
            matches!(
                err,
                McdbError::Checkpoint(
                    CheckpointError::Corrupt { .. } | CheckpointError::ChecksumMismatch { .. }
                )
            ),
            "truncated to {keep}: unexpected error {err}"
        );
    }

    // A missing file is a typed I/O error.
    std::fs::remove_file(scratch.path()).unwrap();
    let err = mc_from_checkpoint(&q, &db, 10, seed, scratch.path()).unwrap_err();
    assert!(
        matches!(err, McdbError::Checkpoint(CheckpointError::Io { .. })),
        "{err}"
    );
}

#[test]
fn foreign_checkpoints_are_refused_across_every_surface() {
    let scratch = ScratchFile::new("mc-foreign");
    let (db, q, _) = checkpointed_mc_state(&scratch);
    let seed = chaos_seed();

    // Same campaign, different seed → fingerprint mismatch.
    let err = mc_from_checkpoint(&q, &db, 10, seed + 1, scratch.path()).unwrap_err();
    assert!(
        matches!(err, McdbError::Checkpoint(CheckpointError::Mismatch { .. })),
        "{err}"
    );

    // Same campaign, different replicate count → fingerprint mismatch.
    let err = mc_from_checkpoint(&q, &db, 11, seed, scratch.path()).unwrap_err();
    assert!(
        matches!(err, McdbError::Checkpoint(CheckpointError::Mismatch { .. })),
        "{err}"
    );

    // A Monte Carlo checkpoint handed to the other durable surfaces is
    // refused by campaign tag, not misinterpreted.
    let foreign = resuming_from(scratch.path()).unwrap();
    let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
    let err =
        genetic_algorithm(|x| x[0], &bounds, &GaConfig::default(), seed, &foreign).unwrap_err();
    assert!(
        matches!(
            err,
            CalibrateError::Checkpoint(CheckpointError::Mismatch { .. })
        ),
        "{err}"
    );

    let response = FnResponse::new(4, |x: &[f64], _rng: &mut Rng| x.iter().sum());
    let err = sequential_bifurcation(&response, &BifurcationConfig::default(), seed, &foreign)
        .unwrap_err();
    assert!(
        matches!(
            err,
            MetamodelError::Checkpoint(CheckpointError::Mismatch { .. })
        ),
        "{err}"
    );

    let pf = ParticleFilter::new(64, seed);
    let ys = vec![0.0; 6];
    let err = pf
        .run(&ar1_model(), &BootstrapProposal, &ys, &foreign)
        .unwrap_err();
    assert!(
        matches!(
            err,
            AssimError::Checkpoint(CheckpointError::Mismatch { .. })
        ),
        "{err}"
    );
}

/// One durable surface reduced to what the table below needs: run it at
/// `seed` under `opts` and return its final checkpoint, or the checkpoint
/// error it refused the options with (`Err(None)`: any other error).
type Surface<'a> =
    Box<dyn Fn(u64, &RunOptions) -> Result<CampaignState, Option<CheckpointError>> + 'a>;

#[test]
fn resuming_a_foreign_state_is_a_typed_checkpoint_error_on_all_five_surfaces() {
    let seed = chaos_seed();
    let (db, q) = normal_setup();
    let bounds = Bounds::new(vec![(-1.0, 1.0), (-1.0, 1.0)]).unwrap();
    let ga_cfg = GaConfig {
        population: 8,
        generations: 3,
        ..GaConfig::default()
    };
    let response = screening_response();
    let model = ar1_model();
    let ys = ar1_observations(6);
    let done = |checkpoint: CampaignState| Ok(checkpoint);

    let surfaces: Vec<(&str, Surface)> = vec![
        (
            "monte-carlo",
            Box::new(|seed, opts| match q.run_with_options(&db, 10, seed, opts) {
                Ok(run) => done(run.checkpoint),
                Err(McdbError::Checkpoint(e)) => Err(Some(e)),
                Err(_) => Err(None),
            }),
        ),
        (
            "particle-filter",
            Box::new(|seed, opts| {
                let pf = ParticleFilter::new(32, seed);
                match pf.run(&model, &BootstrapProposal, &ys, opts) {
                    Ok(run) => done(run.checkpoint),
                    Err(AssimError::Checkpoint(e)) => Err(Some(e)),
                    Err(_) => Err(None),
                }
            }),
        ),
        (
            "genetic-algorithm",
            Box::new(|seed, opts| {
                match genetic_algorithm(rosenbrock, &bounds, &ga_cfg, seed, opts) {
                    Ok(run) => done(run.checkpoint),
                    Err(CalibrateError::Checkpoint(e)) => Err(Some(e)),
                    Err(_) => Err(None),
                }
            }),
        ),
        (
            "random-search",
            Box::new(
                |seed, opts| match random_search(rosenbrock, &bounds, 8, seed, opts) {
                    Ok(run) => done(run.checkpoint),
                    Err(CalibrateError::Checkpoint(e)) => Err(Some(e)),
                    Err(_) => Err(None),
                },
            ),
        ),
        (
            "sequential-bifurcation",
            Box::new(|seed, opts| {
                let cfg = BifurcationConfig::default();
                match sequential_bifurcation(&response, &cfg, seed, opts) {
                    Ok(run) => done(run.checkpoint),
                    Err(MetamodelError::Checkpoint(e)) => Err(Some(e)),
                    Err(_) => Err(None),
                }
            }),
        ),
    ];

    // Every surface's own mid-campaign state, written at this seed and at
    // a different one.
    let states: Vec<(CampaignState, CampaignState)> = surfaces
        .iter()
        .map(|(name, run)| {
            let at = |seed| run(seed, &preempt_opts(1)).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            (at(seed), at(seed + 1))
        })
        .collect();

    // The Monte Carlo query's twin, different in one parameter literal,
    // preempted at the same seed and `n`.
    let mc_twin_state = normal_setup_with_std(3.0)
        .1
        .run_with_options(&db, 10, seed, &preempt_opts(1))
        .unwrap()
        .checkpoint;

    for (i, (name, run)) in surfaces.iter().enumerate() {
        // Its own state resumes; the same surface's state from another seed
        // (and, for Monte Carlo, the twin's from this one) is refused by
        // fingerprint; every other surface's state by tag.
        run(seed, &resuming(states[i].0.clone())).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let mut foreign = vec![("fingerprint", states[i].1.clone())];
        if *name == "monte-carlo" {
            foreign.push(("fingerprint", mc_twin_state.clone()));
        }
        foreign.extend(
            (0..surfaces.len())
                .filter(|&j| j != i)
                .map(|j| ("campaign", states[j].0.clone())),
        );
        for (expected, state) in foreign {
            let from = state.campaign.clone();
            match run(seed, &resuming(state)) {
                Err(Some(CheckpointError::Mismatch { field, .. })) => {
                    assert_eq!(field, expected, "{name} resuming a {from} state")
                }
                other => panic!("{name} resuming a {from} state: expected Mismatch, got {other:?}"),
            }
        }
    }
}

/// One run of a durable surface reduced to what the tables below compare:
/// the result as raw bits, the ledger, the stop cause and the final state.
struct Sliced {
    value: Vec<u64>,
    report: RunReport,
    stopped: Option<StopCause>,
    state: CampaignState,
}

fn sliced(
    value: impl IntoIterator<Item = f64>,
    report: RunReport,
    stopped: Option<StopCause>,
    state: CampaignState,
) -> Sliced {
    Sliced {
        value: value.into_iter().map(f64::to_bits).collect(),
        report,
        stopped,
        state,
    }
}

/// Call `test` with each of the five durable surfaces as a function of its
/// options (campaigns small enough to cut at every boundary).
fn for_each_durable_surface(test: impl Fn(&str, &dyn Fn(&RunOptions) -> Sliced)) {
    let seed = chaos_seed();
    let (db, q) = normal_setup();
    test("monte-carlo", &|opts| {
        let run = q.run_with_options(&db, 10, seed, opts).unwrap();
        let samples = run.result.samples().to_vec();
        sliced(samples, run.report, run.stopped, run.checkpoint)
    });
    let (model, ys) = (ar1_model(), ar1_observations(6));
    test("particle-filter", &|opts| {
        let pf = ParticleFilter::new(32, seed);
        let run = pf.run(&model, &BootstrapProposal, &ys, opts).unwrap();
        let steps = run.steps.iter().flat_map(|s| {
            let mut v = s.particles.clone();
            v.extend([s.ess, s.ln_evidence_increment]);
            v
        });
        sliced(
            steps.collect::<Vec<_>>(),
            run.report,
            run.stopped,
            run.checkpoint,
        )
    });
    let bounds = Bounds::new(vec![(-1.0, 1.0), (-1.0, 1.0)]).unwrap();
    let ga_cfg = GaConfig {
        population: 8,
        generations: 3,
        ..GaConfig::default()
    };
    let best = |run: model_data_ecosystems::calibrate::optim::OptimRun| {
        let value = run.best.map_or(Vec::new(), |b| {
            let mut v = b.x;
            v.extend([b.fx, b.evals as f64]);
            v
        });
        sliced(value, run.report, run.stopped, run.checkpoint)
    };
    test("genetic-algorithm", &|opts| {
        best(genetic_algorithm(rosenbrock, &bounds, &ga_cfg, seed, opts).unwrap())
    });
    test("random-search", &|opts| {
        best(random_search(rosenbrock, &bounds, 8, seed, opts).unwrap())
    });
    let response = screening_response();
    test("sequential-bifurcation", &|opts| {
        let cfg = BifurcationConfig {
            threshold: 1.0,
            reps: 4,
        };
        let run = sequential_bifurcation(&response, &cfg, seed, opts).unwrap();
        let value = run.result.map_or(Vec::new(), |r| {
            let mut v: Vec<f64> = r.important.iter().map(|&j| j as f64).collect();
            v.push(r.runs_used as f64);
            v
        });
        sliced(value, run.report, run.stopped, run.checkpoint)
    });
}

#[test]
fn every_surface_ledgers_its_checkpoint_saves() {
    for_each_durable_surface(|name, run| {
        let plain = run(&RunOptions::default());
        assert_eq!(plain.report.metrics.io_counter("ckpt.saves"), 0, "{name}");
        let scratch = ScratchFile::new(&format!("ledger-{name}"));
        let spec = CheckpointSpec::new(scratch.path()).every(2);
        let saved = run(&RunOptions::default().with_checkpoint(spec));
        let io = &saved.report.metrics;
        assert!(
            io.io_counter("ckpt.saves") > 0,
            "{name}: saves not ledgered"
        );
        assert!(
            io.io_counter("ckpt.bytes") > 0,
            "{name}: bytes not ledgered"
        );
        assert!(
            io.duration("ckpt.fsync").is_some(),
            "{name}: fsync not timed"
        );
        assert!(
            io.duration("ckpt.rename").is_some(),
            "{name}: rename not timed"
        );
        // Out-of-band: the ledger's deterministic half does not notice.
        assert_eq!(saved.report, plain.report, "{name}");
    });
}

#[test]
fn faulted_campaigns_preempted_at_every_boundary_resume_bit_identically() {
    // Boundary 1 fails once and boundary 3 twice: retried to success under
    // `Retry`, dropped under `BestEffort` — so every cut lands before,
    // between or after a retry or a drop already in the ledger.
    let plan = FaultPlan::new()
        .fail_on(1, 0, FaultKind::Panic)
        .fail_on(3, 0, FaultKind::Nan)
        .fail_on(3, 1, FaultKind::Error);
    let policies = [
        RunPolicy::Retry {
            max_attempts: 3,
            reseed: true,
        },
        RunPolicy::BestEffort { min_fraction: 0.5 },
    ];
    for_each_durable_surface(|name, run| {
        for policy in policies {
            let faulted = RunOptions::policy(policy).with_faults(plan.clone());
            let whole = run(&faulted);
            assert_eq!(whole.stopped, None, "{name} {policy:?}");
            assert_eq!(
                whole.report.failure_keys(),
                plan.expected_failure_keys(&policy),
                "{name} {policy:?}: ledger is not the injected plan"
            );
            for cut in 0..whole.state.cursor {
                for through_disk in [false, true] {
                    let context = format!("{name} {policy:?} cut {cut} disk {through_disk}");
                    let scratch = ScratchFile::new(&format!("composed-{name}-{cut}"));
                    let mut opts =
                        RunOptions::policy(policy).with_faults(plan.clone().preempt_at(cut));
                    if through_disk {
                        opts = opts.with_checkpoint(CheckpointSpec::new(scratch.path()));
                    }
                    let partial = run(&opts);
                    assert_eq!(partial.stopped, Some(StopCause::Preempted), "{context}");
                    assert_eq!(partial.state.cursor, cut, "{context}");
                    let state = if through_disk {
                        CampaignState::load(scratch.path()).unwrap()
                    } else {
                        partial.state
                    };
                    let resumed = run(&faulted.clone().resuming(state));
                    assert_eq!(resumed.stopped, None, "{context}");
                    assert_eq!(resumed.value, whole.value, "{context}: result diverged");
                    assert_eq!(resumed.report, whole.report, "{context}: ledger diverged");
                    assert_eq!(
                        resumed.state.encode(),
                        whole.state.encode(),
                        "{context}: state bytes diverged"
                    );
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Particle filter (assim)
// ---------------------------------------------------------------------------

/// Scalar AR(1) state-space model with Gaussian observation noise.
struct Ar1 {
    phi: f64,
    q: f64,
    r: f64,
}

impl StateSpaceModel for Ar1 {
    type State = f64;
    type Obs = f64;

    fn sample_initial(&self, rng: &mut Rng) -> f64 {
        2.0 * Normal::sample_standard(rng)
    }

    fn sample_transition(&self, prev: &f64, rng: &mut Rng) -> f64 {
        self.phi * prev + self.q * Normal::sample_standard(rng)
    }

    fn ln_likelihood(&self, state: &f64, obs: &f64) -> f64 {
        Normal::new(*state, self.r).unwrap().ln_pdf(*obs)
    }

    fn state_width(&self) -> usize {
        1
    }
}

fn ar1_model() -> Ar1 {
    Ar1 {
        phi: 0.9,
        q: 0.4,
        r: 0.6,
    }
}

/// A fixed observation sequence — the filter does not care that it came
/// from a formula rather than the model.
fn ar1_observations(t: usize) -> Vec<f64> {
    (0..t).map(|i| (i as f64 * 0.7).sin() * 2.0).collect()
}

/// Every particle of every step as the bits of its ledger floats.
fn particle_bits<S: ParticleState>(particles: &[S]) -> Vec<u64> {
    let mut floats = Vec::new();
    for p in particles {
        p.encode(&mut floats);
    }
    floats.into_iter().map(f64::to_bits).collect()
}

fn assert_pf_runs_identical<S: ParticleState>(
    resumed: &PfRun<S>,
    baseline: &PfRun<S>,
    context: &str,
) {
    assert_eq!(
        resumed.steps.len(),
        baseline.steps.len(),
        "{context}: step counts"
    );
    for (t, (a, b)) in resumed.steps.iter().zip(&baseline.steps).enumerate() {
        assert_eq!(
            particle_bits(&a.particles),
            particle_bits(&b.particles),
            "{context}: particles diverged at step {t}"
        );
        assert_eq!(
            a.ess.to_bits(),
            b.ess.to_bits(),
            "{context}: ESS diverged at step {t}"
        );
        assert_eq!(
            a.ln_evidence_increment.to_bits(),
            b.ln_evidence_increment.to_bits(),
            "{context}: evidence diverged at step {t}"
        );
    }
    assert_eq!(
        resumed.report, baseline.report,
        "{context}: ledgers diverged"
    );
    assert_eq!(
        resumed.stopped, None,
        "{context}: resumed run did not finish"
    );
}

#[test]
fn pf_preempted_runs_resume_bit_identically_at_every_step() {
    let seed = chaos_seed();
    let t = 10;
    let model = ar1_model();
    let ys = ar1_observations(t);
    let pf = ParticleFilter::new(200, seed);
    let baseline = pf
        .run(&model, &BootstrapProposal, &ys, &RunOptions::default())
        .unwrap();
    assert_eq!(baseline.steps.len(), t);

    for cut in 0..t as u64 {
        let partial = pf
            .run(&model, &BootstrapProposal, &ys, &preempt_opts(cut))
            .unwrap();
        assert_eq!(partial.stopped, Some(StopCause::Preempted), "cut {cut}");
        assert_eq!(partial.steps.len(), cut as usize);
        let resumed = pf
            .run(
                &model,
                &BootstrapProposal,
                &ys,
                &resuming(partial.checkpoint),
            )
            .unwrap();
        assert_pf_runs_identical(&resumed, &baseline, &format!("pf resume at {cut}"));
    }
}

#[test]
fn pf_checkpoint_survives_the_disk_round_trip() {
    let seed = chaos_seed();
    let model = ar1_model();
    let ys = ar1_observations(8);
    let pf = ParticleFilter::new(150, seed);
    let baseline = pf
        .run(&model, &BootstrapProposal, &ys, &RunOptions::default())
        .unwrap();

    let scratch = ScratchFile::new("pf-disk");
    let opts = preempt_opts(4).with_checkpoint(CheckpointSpec::new(scratch.path()).every(1));
    let partial = pf.run(&model, &BootstrapProposal, &ys, &opts).unwrap();
    assert_eq!(partial.stopped, Some(StopCause::Preempted));
    let resumed = pf
        .run(
            &model,
            &BootstrapProposal,
            &ys,
            &resuming_from(scratch.path()).unwrap(),
        )
        .unwrap();
    assert_pf_runs_identical(&resumed, &baseline, "pf resume from disk");
}

/// The wildfire model's states — a grid of tagged cells, not a fixed
/// vector — checkpoint like any other: a 16-particle, 6-step run preempted
/// before every step and resumed through its checkpoint file equals the
/// uninterrupted run bit for bit.
#[test]
fn wildfire_runs_preempted_at_every_step_resume_bit_identically_through_disk() {
    let seed = chaos_seed();
    let model = default_scenario();
    let (_, obs) = model.simulate_truth(6, &mut StreamFactory::new(seed).stream(0));
    let pf = ParticleFilter::new(16, seed);
    let opts = RunOptions::default();
    let baseline = pf.run(&model, &BootstrapProposal, &obs, &opts).unwrap();
    assert_eq!(baseline.steps.len(), 6);
    for cut in 0..6 {
        let scratch = ScratchFile::new(&format!("wildfire-{cut}"));
        let opts = preempt_opts(cut).with_checkpoint(CheckpointSpec::new(scratch.path()));
        let partial = pf.run(&model, &BootstrapProposal, &obs, &opts).unwrap();
        assert_eq!(partial.stopped, Some(StopCause::Preempted), "cut {cut}");
        assert_eq!(partial.steps.len(), cut as usize);
        let resume = resuming_from(scratch.path()).unwrap();
        let resumed = pf.run(&model, &BootstrapProposal, &obs, &resume).unwrap();
        assert_pf_runs_identical(&resumed, &baseline, &format!("wildfire resume at {cut}"));
    }
}

/// A wildfire ledger whose particle floats no fire state encodes to — a
/// bad cell tag, a fractional or out-of-range burning age, a float too
/// few — is a typed `Corrupt` on resume, never a panic.
#[test]
fn hostile_wildfire_ledgers_are_typed_corruption() {
    let seed = chaos_seed();
    let model = default_scenario();
    let (_, obs) = model.simulate_truth(4, &mut StreamFactory::new(seed).stream(1));
    let pf = ParticleFilter::new(16, seed);
    let state = pf
        .run(&model, &BootstrapProposal, &obs, &preempt_opts(2))
        .unwrap()
        .checkpoint;
    // Step 0's payload: `[ess, evidence, cell₀ tag, cell₀ intensity, …]`,
    // two floats a cell; a burning cell's tag is its age.
    let payload = &state.completed[0].1;
    let burning = (2..payload.len())
        .step_by(2)
        .find(|&i| payload[i] >= 0.0)
        .expect("the prior ignites a cell");
    type Damage = Box<dyn Fn(&mut Vec<f64>)>;
    let hostile: [(&str, Damage, &str); 6] = [
        ("bad tag", Box::new(|p| p[2] = -3.0), "tag"),
        ("NaN tag", Box::new(|p| p[2] = f64::NAN), "tag"),
        ("fractional age", Box::new(move |p| p[burning] = 1.5), "age"),
        ("age past u8", Box::new(move |p| p[burning] = 256.0), "age"),
        (
            "float too few",
            Box::new(|p| p.truncate(p.len() - 1)),
            "floats",
        ),
        ("float too many", Box::new(|p| p.push(-1.0)), "floats"),
    ];
    for (name, damage, says) in hostile {
        let mut state = state.clone();
        damage(&mut state.completed[0].1);
        // Through the binary codec, as a file on disk would carry it.
        let state = CampaignState::decode(&state.encode()).unwrap();
        match pf.run(&model, &BootstrapProposal, &obs, &resuming(state)) {
            Err(AssimError::Checkpoint(CheckpointError::Corrupt { reason })) => {
                assert!(reason.contains(says), "{name}: {reason}")
            }
            other => panic!(
                "{name}: expected Corrupt, got {:?}",
                other.map(|run| run.steps.len())
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Optimizers (calibrate)
// ---------------------------------------------------------------------------

fn rosenbrock(x: &[f64]) -> f64 {
    (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
}

fn assert_optim_runs_identical(
    resumed: &model_data_ecosystems::calibrate::optim::OptimRun,
    baseline: &model_data_ecosystems::calibrate::optim::OptimRun,
    context: &str,
) {
    let a = resumed.best.as_ref().expect("resumed best");
    let b = baseline.best.as_ref().expect("baseline best");
    let ax: Vec<u64> = a.x.iter().map(|v| v.to_bits()).collect();
    let bx: Vec<u64> = b.x.iter().map(|v| v.to_bits()).collect();
    assert_eq!(ax, bx, "{context}: best point diverged");
    assert_eq!(
        a.fx.to_bits(),
        b.fx.to_bits(),
        "{context}: best value diverged"
    );
    assert_eq!(a.evals, b.evals, "{context}: evaluation counts diverged");
    assert_eq!(
        resumed.report, baseline.report,
        "{context}: ledgers diverged"
    );
    assert_eq!(
        resumed.stopped, None,
        "{context}: resumed run did not finish"
    );
}

#[test]
fn ga_checkpoint_survives_the_disk_round_trip() {
    let seed = chaos_seed();
    let bounds = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
    let cfg = GaConfig {
        population: 12,
        generations: 6,
        ..GaConfig::default()
    };
    let baseline =
        genetic_algorithm(rosenbrock, &bounds, &cfg, seed, &RunOptions::default()).unwrap();

    for cut in 0..=cfg.generations as u64 {
        let scratch = ScratchFile::new(&format!("ga-disk-{cut}"));
        let opts = preempt_opts(cut).with_checkpoint(CheckpointSpec::new(scratch.path()).every(1));
        let partial = genetic_algorithm(rosenbrock, &bounds, &cfg, seed, &opts).unwrap();
        assert_eq!(partial.stopped, Some(StopCause::Preempted), "cut {cut}");
        let resume = resuming_from(scratch.path()).unwrap();
        let resumed = genetic_algorithm(rosenbrock, &bounds, &cfg, seed, &resume).unwrap();
        assert_optim_runs_identical(&resumed, &baseline, &format!("ga disk resume at {cut}"));
    }
}

#[test]
fn random_search_deadline_checkpoint_resumes_to_the_full_budget() {
    let seed = chaos_seed();
    let bounds = Bounds::new(vec![(-3.0, 3.0), (-3.0, 3.0)]).unwrap();
    let evals = 32;
    let baseline = random_search(rosenbrock, &bounds, evals, seed, &RunOptions::default()).unwrap();

    let opts = RunOptions::default().with_deadline(Deadline::after(Duration::ZERO));
    let partial = random_search(rosenbrock, &bounds, evals, seed, &opts).unwrap();
    assert_eq!(partial.stopped, Some(StopCause::Deadline));
    assert!(partial.best.is_none());
    let resume = resuming(partial.checkpoint);
    let resumed = random_search(rosenbrock, &bounds, evals, seed, &resume).unwrap();
    assert_optim_runs_identical(&resumed, &baseline, "rs resume after deadline");
}

// ---------------------------------------------------------------------------
// Screening (metamodel)
// ---------------------------------------------------------------------------

fn screening_response() -> FnResponse<impl Fn(&[f64], &mut Rng) -> f64> {
    let effects = [(2usize, 4.0), (9, 3.0), (13, 5.0)];
    FnResponse::new(16, move |x: &[f64], rng: &mut Rng| {
        let signal: f64 = effects.iter().map(|&(i, b)| b * x[i]).sum();
        signal + 0.2 * Normal::sample_standard(rng)
    })
}

fn assert_screening_runs_identical(resumed: &ScreeningRun, baseline: &ScreeningRun, context: &str) {
    let a = resumed.result.as_ref().expect("resumed result");
    let b = baseline.result.as_ref().expect("baseline result");
    assert_eq!(
        a.important, b.important,
        "{context}: important factors diverged"
    );
    assert_eq!(a.runs_used, b.runs_used, "{context}: run counts diverged");
    assert_eq!(
        resumed.report, baseline.report,
        "{context}: ledgers diverged"
    );
    assert_eq!(
        resumed.stopped, None,
        "{context}: resumed run did not finish"
    );
}

#[test]
fn screening_checkpoint_survives_the_disk_round_trip() {
    let seed = chaos_seed();
    let cfg = BifurcationConfig {
        threshold: 1.0,
        reps: 4,
    };
    let response = screening_response();
    let baseline = sequential_bifurcation(&response, &cfg, seed, &RunOptions::default()).unwrap();
    let total_rounds = baseline.report.attempted as u64;

    for cut in 0..total_rounds {
        let scratch = ScratchFile::new(&format!("sb-disk-{cut}"));
        let opts = preempt_opts(cut).with_checkpoint(CheckpointSpec::new(scratch.path()).every(1));
        let partial = sequential_bifurcation(&response, &cfg, seed, &opts).unwrap();
        assert_eq!(partial.stopped, Some(StopCause::Preempted), "cut {cut}");
        assert!(
            partial.result.is_none(),
            "cut {cut}: queue should not be drained"
        );
        let resume = resuming_from(scratch.path()).unwrap();
        let resumed = sequential_bifurcation(&response, &cfg, seed, &resume).unwrap();
        assert_screening_runs_identical(&resumed, &baseline, &format!("sb disk resume at {cut}"));
    }
}

// ---------------------------------------------------------------------------
// The committed `MDECKPT2` fixture
// ---------------------------------------------------------------------------

/// The state `tests/fixtures/mdeckpt2_ledger.ckpt` holds: a ledger with a
/// NaN (two payloads), `-0.0`, both infinities and a unicode failure
/// message, in every section of the layout.
fn fixture_state() -> CampaignState {
    use model_data_ecosystems::numeric::resilience::{FailureKind, FailureRecord};
    let payload_nan = f64::from_bits(0x7FF0_0000_0000_0001);
    let mut s = CampaignState::new("fixture.ledger", 0x0123_4567_89AB_CDEF, 0x00C0_FFEE, 12);
    s.cursor = 5;
    s.completed = vec![
        (0, vec![1.5, -0.0]),
        (1, vec![f64::NAN, payload_nan]),
        (3, vec![f64::INFINITY, f64::NEG_INFINITY, 1e-310]),
        (4, vec![]),
    ];
    s.report.attempted = 5;
    s.report.succeeded = 4;
    s.report.retried = 2;
    s.report.dropped = 1;
    s.report.shed = 3;
    s.report.ci_widened = true;
    s.report.failures = vec![
        FailureRecord {
            replicate: 2,
            attempt: 0,
            kind: FailureKind::Panic,
            message: "replicate 2 panicked: Δ ≥ ∞ — ünïcödé 🎲".into(),
        },
        FailureRecord {
            replicate: 2,
            attempt: 1,
            kind: FailureKind::NonFinite,
            message: "NaN".into(),
        },
        FailureRecord {
            replicate: 3,
            attempt: 0,
            kind: FailureKind::Error,
            message: String::new(),
        },
    ];
    s.report.metrics.add("replicates.attempted", 5);
    s.report.metrics.add("attempts.retried", 2);
    for v in [1.5, -0.0, -20.0, f64::NAN, f64::INFINITY, 3e-300] {
        s.report.metrics.observe("mc.sample", v);
    }
    s.floats = vec![f64::NAN, -0.0, f64::INFINITY, 0.1];
    s.ints = vec![0, 7, u64::MAX];
    s
}

/// A checkpoint written by an earlier build still loads, to the state it
/// was written from, and today's encoder writes the same bytes back.
/// Never regenerate the fixture: a failure here means checkpoints on disk
/// would stop resuming.
#[test]
fn mdeckpt2_fixture_decodes_to_its_state_and_re_encodes_byte_for_byte() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mdeckpt2_ledger.ckpt");
    let bytes = std::fs::read(&path).unwrap();
    let loaded = CampaignState::load(&path).unwrap();
    assert!(
        loaded.encode() == bytes,
        "re-encoding differs from the fixture"
    );

    let expected = fixture_state();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        (&loaded.campaign, loaded.fingerprint, loaded.master_seed),
        (
            &expected.campaign,
            expected.fingerprint,
            expected.master_seed
        )
    );
    assert_eq!(
        (loaded.total, loaded.cursor),
        (expected.total, expected.cursor)
    );
    assert_eq!(loaded.completed.len(), expected.completed.len());
    for ((i, got), (j, want)) in loaded.completed.iter().zip(&expected.completed) {
        assert_eq!((i, bits(got)), (j, bits(want)));
    }
    assert_eq!(bits(&loaded.floats), bits(&expected.floats));
    assert_eq!(loaded.ints, expected.ints);
    assert_eq!(loaded.report, expected.report);
    assert_eq!(
        loaded.report.failures[0].message,
        "replicate 2 panicked: Δ ≥ ∞ — ünïcödé 🎲"
    );
}
