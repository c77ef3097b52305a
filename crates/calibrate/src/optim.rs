//! Simulation-budgeted global optimizers for calibration objectives.
//!
//! §3.1: "Fabretti uses heuristic optimization methods, such as
//! Nelder-Mead and genetic algorithms, to try and quickly locate the
//! optimal parameter value. While this approach is a vast improvement over
//! random sampling of θ values, the computational requirements can still
//! be high." This module provides the genetic algorithm and the
//! random-sampling baseline (Nelder–Mead lives in `mde_numeric::optim`);
//! every optimizer reports its evaluation count so the calibration-contest
//! experiment can compare methods at equal budgets.
//!
//! Both optimizers ([`genetic_algorithm`], [`random_search`]) run as
//! **durable campaigns**: the search is decomposed into checkpoint
//! boundaries (one GA generation, one random-search evaluation), each
//! boundary draws its randomness from a stream derived purely from
//! `(seed, boundary)`, and the campaign can be stopped by a deadline, a
//! cancellation token, or an injected preemption notice and later resumed
//! bit-identically from its [`CampaignState`].

use mde_numeric::checkpoint::{CampaignState, CheckpointError, Fingerprint};
use mde_numeric::optim::OptimResult;
use mde_numeric::resilience::{
    drive, Attempt, AttemptFailure, RunOptions, RunReport, StopCause, Surface,
};
use mde_numeric::rng::Rng;

use crate::error::CalibrateError;

/// Box constraints for global search.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    /// Per-dimension `(lo, hi)`.
    pub ranges: Vec<(f64, f64)>,
}

impl Bounds {
    /// Create bounds. Each range must have finite endpoints with
    /// `lo <= hi`; a degenerate range (`lo == hi`) pins that dimension.
    /// Empty or malformed ranges yield a typed [`CalibrateError`] rather
    /// than a panic, so a calibration service can surface bad user input
    /// as a fatal-but-reportable configuration error.
    pub fn new(ranges: Vec<(f64, f64)>) -> crate::Result<Self> {
        if ranges.is_empty() {
            return Err(CalibrateError::InvalidConfig {
                context: "bounds",
                reason: "need at least one dimension".into(),
            });
        }
        for (index, &(lo, hi)) in ranges.iter().enumerate() {
            if !lo.is_finite() || !hi.is_finite() || lo > hi {
                return Err(CalibrateError::InvalidBounds { index, lo, hi });
            }
        }
        Ok(Bounds { ranges })
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.ranges.len()
    }

    /// A uniform random point.
    pub fn sample(&self, rng: &mut Rng) -> Vec<f64> {
        self.ranges
            .iter()
            .map(|&(lo, hi)| lo + (hi - lo) * rng.gen::<f64>())
            .collect()
    }

    /// Clamp a point into the box.
    pub fn clamp(&self, x: &mut [f64]) {
        for (v, &(lo, hi)) in x.iter_mut().zip(&self.ranges) {
            *v = v.clamp(lo, hi);
        }
    }
}

/// Genetic-algorithm configuration (Fabretti-style real-coded GA).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-coordinate Gaussian mutation scale, as a fraction of the range.
    pub mutation_scale: f64,
    /// Per-coordinate mutation probability.
    pub mutation_prob: f64,
    /// Elite individuals copied unchanged each generation.
    pub elites: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 30,
            generations: 20,
            tournament: 3,
            mutation_scale: 0.1,
            mutation_prob: 0.3,
            elites: 2,
        }
    }
}

impl GaConfig {
    /// Typed validation of the configuration: [`genetic_algorithm`]
    /// refuses a bad one with [`CalibrateError::InvalidConfig`].
    fn validate(&self) -> crate::Result<()> {
        let reject = |reason: &str| {
            Err(CalibrateError::InvalidConfig {
                context: "genetic algorithm",
                reason: reason.into(),
            })
        };
        if self.population < 4 {
            return reject("population too small (need >= 4)");
        }
        if self.elites >= self.population {
            return reject("elites must be < population");
        }
        if self.tournament == 0 {
            return reject("tournament size must be >= 1");
        }
        Ok(())
    }
}

/// Evaluate `f`, mapping NaN to `+inf` so ordering stays total.
fn guarded_eval(f: &mut dyn FnMut(&[f64]) -> f64, x: &[f64]) -> f64 {
    let v = f(x);
    if v.is_nan() {
        f64::INFINITY
    } else {
        v
    }
}

/// Sample and evaluate an initial population of `n` individuals.
fn seeded_population(
    f: &mut dyn FnMut(&[f64]) -> f64,
    bounds: &Bounds,
    n: usize,
    rng: &mut Rng,
) -> Vec<(Vec<f64>, f64)> {
    (0..n)
        .map(|_| {
            let x = bounds.sample(rng);
            let fx = guarded_eval(f, &x);
            (x, fx)
        })
        .collect()
}

/// Evolve one generation: tournament selection, BLX-0.25 blend crossover,
/// Gaussian mutation, elitism. Pure in `(pop, rng)` — the campaign relies
/// on this to re-derive any generation from the previous population and a
/// per-boundary stream.
fn next_generation(
    f: &mut dyn FnMut(&[f64]) -> f64,
    pop: &[(Vec<f64>, f64)],
    bounds: &Bounds,
    cfg: &GaConfig,
    rng: &mut Rng,
) -> Vec<(Vec<f64>, f64)> {
    let d = bounds.dim();
    let mut ranked = pop.to_vec();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut next: Vec<(Vec<f64>, f64)> = ranked[..cfg.elites].to_vec();
    while next.len() < cfg.population {
        let parent = |rng: &mut Rng| -> usize {
            (0..cfg.tournament.max(1))
                .map(|_| rng.gen_range(0..ranked.len()))
                .min_by(|&a, &b| ranked[a].1.total_cmp(&ranked[b].1))
                .unwrap_or(0)
        };
        let (pa, pb) = (parent(rng), parent(rng));
        // Blend crossover.
        let mut child: Vec<f64> = (0..d)
            .map(|k| {
                let (a, b) = (ranked[pa].0[k], ranked[pb].0[k]);
                let t: f64 = rng.gen::<f64>() * 1.5 - 0.25; // BLX-0.25
                a + t * (b - a)
            })
            .collect();
        // Gaussian mutation.
        for (k, v) in child.iter_mut().enumerate() {
            if rng.gen::<f64>() < cfg.mutation_prob {
                let (lo, hi) = bounds.ranges[k];
                *v += cfg.mutation_scale
                    * (hi - lo)
                    * mde_numeric::dist::Normal::sample_standard(rng);
            }
        }
        bounds.clamp(&mut child);
        let fx = guarded_eval(f, &child);
        next.push((child, fx));
    }
    next
}

// ---------------------------------------------------------------------------
// Campaigns: checkpoint-per-generation GA and per-evaluation random search
// ---------------------------------------------------------------------------

const CAMPAIGN_GA: &str = "calibrate.genetic-algorithm";
const CAMPAIGN_RS: &str = "calibrate.random-search";

/// The result of an optimizer campaign: the best point found over
/// the completed boundaries (if any completed), the supervision ledger,
/// why the run stopped early (if it did), and the final campaign state
/// for resumption.
#[derive(Debug, Clone)]
pub struct OptimRun {
    /// Best point over the completed boundaries; `None` when the campaign
    /// stopped before any boundary completed.
    pub best: Option<OptimResult>,
    /// Normalized supervision ledger (attempts, retries, drops).
    pub report: RunReport,
    /// Why the campaign stopped early, or `None` if it ran to completion.
    pub stopped: Option<StopCause>,
    /// Final campaign state — hand it back through
    /// [`RunOptions::resuming`] (or persist with [`CampaignState::save_ledgered`])
    /// to continue the run.
    pub checkpoint: CampaignState,
}

/// Minimize with a real-coded genetic algorithm — tournament selection,
/// blend (BLX-style) crossover, Gaussian mutation, elitism — run as a
/// **durable campaign**.
///
/// Boundary `0` seeds the initial population; boundaries `1..=generations`
/// each evolve one generation, so the campaign has `generations + 1`
/// boundaries in total. Every boundary draws its randomness from
/// `StreamFactory::new(seed).child(boundary)` — never from a carried RNG —
/// so a resumed campaign replays nothing and its remaining generations,
/// evaluation count, and final population are bit-identical to an
/// uninterrupted run. The checkpoint ledger stores each completed
/// population (flattened `[x.., fx]` per individual); deadline, cancel,
/// and preemption notices are honored before each boundary.
///
/// With [`RunOptions::resume`] set (an [`OptimRun::checkpoint`], or
/// [`CampaignState::load`]) the campaign continues from that state's
/// boundary; a state whose campaign tag or fingerprint (seed, bounds, GA
/// configuration) does not match is refused with a typed
/// [`CalibrateError::Checkpoint`].
pub fn genetic_algorithm(
    f: impl FnMut(&[f64]) -> f64,
    bounds: &Bounds,
    cfg: &GaConfig,
    seed: u64,
    opts: &RunOptions,
) -> crate::Result<OptimRun> {
    cfg.validate()?;
    let mut state = CampaignState::start_or_resume(
        opts.resume.as_ref(),
        CAMPAIGN_GA,
        ga_fingerprint(bounds, cfg, seed),
        seed,
        cfg.generations as u64 + 1,
    )?;
    let mut search = GaSurface {
        pop: decode_ledger_population(&state, cfg.population, bounds.dim())?,
        evals: state.ints.first().copied().unwrap_or(0),
        f,
        bounds,
        cfg,
    };
    state.ints = vec![search.evals];
    let stopped = drive(&mut search, &mut state, opts)?;
    let best = search
        .pop
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(x, fx)| OptimResult {
            x: x.clone(),
            fx: *fx,
            evals: search.evals as usize,
            converged: false,
        });
    Ok(OptimRun {
        best,
        report: state.report.clone(),
        stopped,
        checkpoint: state,
    })
}

/// Campaign identity for the GA: tag, seed, bounds, and every
/// configuration field that shapes the draw sequence.
fn ga_fingerprint(bounds: &Bounds, cfg: &GaConfig, seed: u64) -> u64 {
    let mut fp = Fingerprint::new(CAMPAIGN_GA)
        .push_u64(seed)
        .push_u64(bounds.dim() as u64)
        .push_u64(cfg.population as u64)
        .push_u64(cfg.generations as u64)
        .push_u64(cfg.tournament as u64)
        .push_u64(cfg.elites as u64)
        .push_f64(cfg.mutation_scale)
        .push_f64(cfg.mutation_prob);
    for &(lo, hi) in &bounds.ranges {
        fp = fp.push_f64(lo).push_f64(hi);
    }
    fp.finish()
}

/// The GA as a campaign surface: one boundary per generation, the working
/// set being the live population and the evaluation count.
struct GaSurface<'a, F> {
    f: F,
    bounds: &'a Bounds,
    cfg: &'a GaConfig,
    pop: Vec<(Vec<f64>, f64)>,
    evals: u64,
}

impl<F: FnMut(&[f64]) -> f64> Surface for GaSurface<'_, F> {
    type Value = Vec<(Vec<f64>, f64)>;
    type Error = CalibrateError;

    fn attempt(
        &mut self,
        att: &Attempt<'_>,
    ) -> Result<Self::Value, AttemptFailure<CalibrateError>> {
        att.run(
            "optimizer boundary",
            || {
                let mut rng = att.streams(att.boundary).stream(0);
                // Boundary 0 — or a recovery from an all-dropped prefix —
                // seeds a fresh population.
                Ok(if self.pop.is_empty() {
                    seeded_population(&mut self.f, self.bounds, self.cfg.population, &mut rng)
                } else {
                    next_generation(&mut self.f, &self.pop, self.bounds, self.cfg, &mut rng)
                })
            },
            // A generation whose entire population evaluated to NaN (mapped
            // to +inf) is unusable — retryable.
            |next| next.iter().map(|p| p.1).fold(f64::INFINITY, f64::min),
        )
    }

    /// A dropped boundary carries the population forward unchanged
    /// (graceful degradation, like a dropped filter step).
    fn commit(&mut self, state: &mut CampaignState, b: u64, value: Option<Self::Value>) {
        if let Some(next) = value {
            let delta = if self.pop.is_empty() {
                self.cfg.population as u64
            } else {
                (self.cfg.population - self.cfg.elites) as u64
            };
            self.evals += delta;
            state.report.metrics.add("optim.evals", delta);
            self.pop = next;
            let gen_best = self.pop.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            state.report.metrics.observe("optim.best", gen_best);
            state.completed.push((b, encode_population(&self.pop)));
        }
        state.ints = vec![self.evals];
    }
}

/// Pure random search — the baseline §3.1 says heuristics vastly improve
/// on — run as a **durable campaign**: one boundary per evaluation, each
/// drawing its point from `StreamFactory::new(seed).child(i)`. The ledger
/// stores each completed evaluation as `[x.., fx]`; a non-finite objective
/// value is a retryable failure rather than a silent `+inf`. [`RunOptions::resume`] continues
/// from a saved state exactly as for [`genetic_algorithm`].
pub fn random_search(
    f: impl FnMut(&[f64]) -> f64,
    bounds: &Bounds,
    evals: usize,
    seed: u64,
    opts: &RunOptions,
) -> crate::Result<OptimRun> {
    if evals == 0 {
        return Err(CalibrateError::InvalidConfig {
            context: "random search",
            reason: "need at least one evaluation".into(),
        });
    }
    let mut state = CampaignState::start_or_resume(
        opts.resume.as_ref(),
        CAMPAIGN_RS,
        rs_fingerprint(bounds, evals, seed),
        seed,
        evals as u64,
    )?;
    let d = bounds.dim();
    validate_ledger(&state, d + 1)?;
    let stopped = drive(&mut RsSurface { f, bounds }, &mut state, opts)?;
    // Best over all completed evaluations; `evals` counts them.
    let n = state.completed.len();
    let best = state
        .completed
        .iter()
        .min_by(|a, b| a.1[d].total_cmp(&b.1[d]))
        .map(|(_, payload)| OptimResult {
            x: payload[..d].to_vec(),
            fx: payload[d],
            evals: n,
            converged: false,
        });
    Ok(OptimRun {
        best,
        report: state.report.clone(),
        stopped,
        checkpoint: state,
    })
}

/// Campaign identity for random search.
fn rs_fingerprint(bounds: &Bounds, evals: usize, seed: u64) -> u64 {
    let mut fp = Fingerprint::new(CAMPAIGN_RS)
        .push_u64(seed)
        .push_u64(evals as u64)
        .push_u64(bounds.dim() as u64);
    for &(lo, hi) in &bounds.ranges {
        fp = fp.push_f64(lo).push_f64(hi);
    }
    fp.finish()
}

/// Random search as a campaign surface: one boundary per evaluation, each
/// landing in the ledger as `[x.., fx]`.
struct RsSurface<'a, F> {
    f: F,
    bounds: &'a Bounds,
}

impl<F: FnMut(&[f64]) -> f64> Surface for RsSurface<'_, F> {
    type Value = (Vec<f64>, f64);
    type Error = CalibrateError;

    fn attempt(
        &mut self,
        att: &Attempt<'_>,
    ) -> Result<Self::Value, AttemptFailure<CalibrateError>> {
        att.run(
            "optimizer boundary",
            || {
                let mut rng = att.streams(att.boundary).stream(0);
                let x = self.bounds.sample(&mut rng);
                let fx = (self.f)(&x);
                Ok((x, fx))
            },
            |(_, fx)| *fx,
        )
    }

    fn commit(&mut self, state: &mut CampaignState, i: u64, value: Option<Self::Value>) {
        if let Some((mut payload, fx)) = value {
            state.report.metrics.inc("optim.evals");
            state.report.metrics.observe("optim.objective", fx);
            payload.push(fx);
            state.completed.push((i, payload));
        }
    }
}

/// Flatten a scored population into a ledger payload: `[x.., fx]` per
/// individual, in population order.
fn encode_population(pop: &[(Vec<f64>, f64)]) -> Vec<f64> {
    let mut out = Vec::with_capacity(pop.len() * (pop.first().map_or(0, |p| p.0.len()) + 1));
    for (x, fx) in pop {
        out.extend_from_slice(x);
        out.push(*fx);
    }
    out
}

/// Reconstruct the running population from the checkpoint ledger: each
/// payload is exactly `population * (d + 1)` floats and the *last* entry is
/// the live population.
fn decode_ledger_population(
    state: &CampaignState,
    population: usize,
    d: usize,
) -> crate::Result<Vec<(Vec<f64>, f64)>> {
    let width = d + 1;
    validate_ledger(state, population * width)?;
    Ok(state
        .completed
        .last()
        .map(|(_, payload)| {
            payload
                .chunks_exact(width)
                .map(|chunk| (chunk[..d].to_vec(), chunk[d]))
                .collect()
        })
        .unwrap_or_default())
}

/// Validate a checkpoint ledger: strictly ascending boundaries below the
/// cursor, each payload exactly `floats` long. Structural disagreements
/// surface as typed [`CheckpointError::Corrupt`] — never a panic.
fn validate_ledger(state: &CampaignState, floats: usize) -> crate::Result<()> {
    let corrupt = |reason: String| {
        Err(CalibrateError::Checkpoint(CheckpointError::Corrupt {
            reason,
        }))
    };
    let mut last_boundary = None;
    for (b, payload) in &state.completed {
        if last_boundary.is_some_and(|prev| *b <= prev) {
            return corrupt(format!("ledger entry {b} out of order"));
        }
        if *b >= state.cursor {
            return corrupt(format!("ledger entry {b} beyond cursor {}", state.cursor));
        }
        if payload.len() != floats {
            return corrupt(format!(
                "ledger entry {b} has {} floats, expected {floats}",
                payload.len()
            ));
        }
        last_boundary = Some(*b);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::resilience::{FaultKind, FaultPlan, RunPolicy};
    use mde_numeric::rng::{chaos_seed, rng_from_seed, StreamFactory};
    use mde_numeric::stats::Summary;
    use mde_numeric::Deadline;
    use std::time::Duration;

    /// A rugged multimodal objective (Rastrigin-flavored) with its global
    /// minimum at (1, -0.5).
    fn rugged(x: &[f64]) -> f64 {
        let a = x[0] - 1.0;
        let b = x[1] + 0.5;
        a * a
            + b * b
            + 1.0 * (1.0 - (4.0 * std::f64::consts::PI * a).cos())
            + 1.0 * (1.0 - (4.0 * std::f64::consts::PI * b).cos())
    }

    fn bounds() -> Bounds {
        Bounds::new(vec![(-3.0, 3.0), (-3.0, 3.0)]).expect("valid bounds")
    }

    #[test]
    fn bounds_sampling_and_clamping() {
        let b = bounds();
        let mut rng = rng_from_seed(1);
        for _ in 0..100 {
            let x = b.sample(&mut rng);
            assert!(x.iter().all(|v| (-3.0..=3.0).contains(v)));
        }
        let mut x = vec![-10.0, 10.0];
        b.clamp(&mut x);
        assert_eq!(x, vec![-3.0, 3.0]);
    }

    #[test]
    fn bad_bounds_rejected_with_typed_error() {
        // Reversed range: typed error naming the offending dimension.
        match Bounds::new(vec![(0.0, 1.0), (2.0, 1.0)]) {
            Err(CalibrateError::InvalidBounds { index, lo, hi }) => {
                assert_eq!(index, 1);
                assert_eq!((lo, hi), (2.0, 1.0));
            }
            other => panic!("expected InvalidBounds, got {other:?}"),
        }
        // Non-finite endpoints are rejected.
        assert!(matches!(
            Bounds::new(vec![(f64::NAN, 1.0)]),
            Err(CalibrateError::InvalidBounds { index: 0, .. })
        ));
        assert!(matches!(
            Bounds::new(vec![(0.0, f64::INFINITY)]),
            Err(CalibrateError::InvalidBounds { index: 0, .. })
        ));
        // No dimensions at all is a configuration error.
        assert!(matches!(
            Bounds::new(vec![]),
            Err(CalibrateError::InvalidConfig { .. })
        ));
        // A degenerate range pins the dimension — allowed.
        let pinned = Bounds::new(vec![(1.0, 1.0)]).expect("degenerate range pins");
        let mut rng = rng_from_seed(4);
        assert_eq!(pinned.sample(&mut rng), vec![1.0]);
    }

    /// The best point of a completed run with default options.
    fn best_of(run: crate::Result<OptimRun>) -> OptimResult {
        let run = run.expect("run");
        assert!(run.stopped.is_none());
        run.best.expect("a completed run has a best")
    }

    #[test]
    fn random_search_respects_budget_and_improves() {
        let mut count = 0usize;
        let r = best_of(random_search(
            |x| {
                count += 1;
                rugged(x)
            },
            &bounds(),
            500,
            2,
            &RunOptions::default(),
        ));
        assert_eq!(count, 500);
        assert_eq!(r.evals, 500);
        assert!(r.fx < rugged(&[0.0, 0.0]));
    }

    #[test]
    fn ga_finds_near_global_minimum() {
        let r = best_of(genetic_algorithm(
            rugged,
            &bounds(),
            &GaConfig::default(),
            3,
            &RunOptions::default(),
        ));
        assert!(r.fx < 0.5, "GA best f = {}", r.fx);
        assert!((r.x[0] - 1.0).abs() < 0.3, "x = {:?}", r.x);
        assert!((r.x[1] + 0.5).abs() < 0.3);
    }

    /// "a vast improvement over random sampling of θ values", at 13 seed
    /// pairs drawn from `chaos_seed()`: with random search given the GA's
    /// evaluation count, `ln J(GA) − ln J(RS)` is negative by at least 3
    /// of its standard errors. The geometric mean, because both searches
    /// end orders of magnitude apart on this objective and a sum of raw J
    /// is one seed's J.
    #[test]
    fn ga_beats_random_search_at_equal_budget() {
        let seeds = StreamFactory::new(chaos_seed());
        let mut ln_ratio = Summary::new();
        for pair in 0..13 {
            let opts = RunOptions::default();
            let ga = best_of(genetic_algorithm(
                rugged,
                &bounds(),
                &GaConfig::default(),
                seeds.seed_of(2 * pair),
                &opts,
            ));
            let rs = best_of(random_search(
                rugged,
                &bounds(),
                ga.evals,
                seeds.seed_of(2 * pair + 1),
                &opts,
            ));
            ln_ratio.push(ga.fx.ln() - rs.fx.ln());
        }
        let se = ln_ratio.sample_std_dev() / (ln_ratio.count() as f64).sqrt();
        assert!(
            ln_ratio.mean() < -3.0 * se,
            "ln J(GA) − ln J(RS): {} ± {se}",
            ln_ratio.mean()
        );
    }

    #[test]
    fn ga_reproducible_given_seed() {
        let run = |seed| {
            best_of(genetic_algorithm(
                rugged,
                &bounds(),
                &GaConfig::default(),
                seed,
                &RunOptions::default(),
            ))
            .x
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn ga_elites_preserved() {
        // With an easy convex objective, the best value never worsens
        // across generations thanks to elitism — check final quality.
        let r = best_of(genetic_algorithm(
            |x: &[f64]| x[0] * x[0] + x[1] * x[1],
            &bounds(),
            &GaConfig {
                generations: 30,
                ..GaConfig::default()
            },
            5,
            &RunOptions::default(),
        ));
        assert!(r.fx < 1e-2, "f = {}", r.fx);
    }

    fn small_cfg() -> GaConfig {
        GaConfig {
            population: 10,
            generations: 8,
            ..GaConfig::default()
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn durable_ga_finds_minimum_and_reports_evals() {
        let opts = RunOptions::default();
        let run = genetic_algorithm(rugged, &bounds(), &GaConfig::default(), 3, &opts)
            .expect("durable GA");
        assert!(run.stopped.is_none());
        let best = run.best.expect("completed run has a best");
        assert!(best.fx < 0.5, "durable GA best f = {}", best.fx);
        assert_eq!(best.evals, 30 + 20 * 28);
        assert_eq!(run.report.succeeded, 21);
    }

    #[test]
    fn durable_ga_preempt_resume_is_bit_identical() {
        let cfg = small_cfg();
        let baseline = genetic_algorithm(rugged, &bounds(), &cfg, 11, &RunOptions::default())
            .expect("uninterrupted");
        let base_best = baseline.best.expect("best");

        for cut in 0..=(cfg.generations as u64) {
            let opts = RunOptions::default().with_faults(FaultPlan::new().preempt_at(cut));
            let partial = genetic_algorithm(rugged, &bounds(), &cfg, 11, &opts)
                .expect("preempted run is not an error");
            assert_eq!(partial.stopped, Some(StopCause::Preempted));
            let state = partial.checkpoint;
            assert_eq!(state.cursor, cut);
            let resume = RunOptions::default().resuming(state);
            let resumed = genetic_algorithm(rugged, &bounds(), &cfg, 11, &resume).expect("resume");
            assert!(resumed.stopped.is_none());
            let best = resumed.best.expect("best");
            assert_eq!(bits(&best.x), bits(&base_best.x), "cut at {cut}");
            assert_eq!(best.fx.to_bits(), base_best.fx.to_bits());
            assert_eq!(best.evals, base_best.evals);
            assert_eq!(
                resumed.report.failure_keys(),
                baseline.report.failure_keys()
            );
        }
    }

    #[test]
    fn durable_ga_rejects_foreign_checkpoint() {
        let cfg = small_cfg();
        let run =
            genetic_algorithm(rugged, &bounds(), &cfg, 11, &RunOptions::default()).expect("run");
        let state = run.checkpoint;
        // Different seed → fingerprint mismatch, surfaced as a typed error.
        let resume = RunOptions::default().resuming(state);
        let err = genetic_algorithm(rugged, &bounds(), &cfg, 12, &resume)
            .expect_err("mismatched seed must be refused");
        assert!(matches!(
            err,
            CalibrateError::Checkpoint(CheckpointError::Mismatch { .. })
        ));
    }

    #[test]
    fn durable_ga_retries_injected_faults_deterministically() {
        let cfg = small_cfg();
        let opts = RunOptions::policy(RunPolicy::Retry {
            max_attempts: 3,
            reseed: true,
        })
        .with_faults(FaultPlan::new().fail_on(2, 0, FaultKind::Panic).fail_on(
            4,
            0,
            FaultKind::Nan,
        ));
        let run = genetic_algorithm(rugged, &bounds(), &cfg, 11, &opts).expect("run");
        assert!(run.stopped.is_none());
        assert_eq!(
            run.report.failure_keys(),
            opts.faults
                .as_ref()
                .unwrap()
                .expected_failure_keys(&opts.policy)
        );
        assert!(run.best.expect("best").fx.is_finite());
    }

    #[test]
    fn durable_rs_preempt_resume_is_bit_identical() {
        let evals = 40;
        let baseline = random_search(rugged, &bounds(), evals, 11, &RunOptions::default())
            .expect("uninterrupted");
        let base_best = baseline.best.expect("best");
        assert_eq!(base_best.evals, evals);

        for cut in [0u64, 1, 7, 20, 39] {
            let opts = RunOptions::default().with_faults(FaultPlan::new().preempt_at(cut));
            let partial = random_search(rugged, &bounds(), evals, 11, &opts)
                .expect("preempted run is not an error");
            assert_eq!(partial.stopped, Some(StopCause::Preempted));
            let resume = RunOptions::default().resuming(partial.checkpoint);
            let resumed = random_search(rugged, &bounds(), evals, 11, &resume).expect("resume");
            let best = resumed.best.expect("best");
            assert_eq!(bits(&best.x), bits(&base_best.x), "cut at {cut}");
            assert_eq!(best.fx.to_bits(), base_best.fx.to_bits());
            assert_eq!(best.evals, evals);
        }
    }

    #[test]
    fn expired_deadline_yields_partial_optim_run_not_error() {
        let opts = RunOptions::default().with_deadline(Deadline::after(Duration::ZERO));
        let run = random_search(rugged, &bounds(), 20, 11, &opts)
            .expect("expired deadline is not an error");
        assert_eq!(run.stopped, Some(StopCause::Deadline));
        assert!(run.best.is_none(), "no boundary completed");
        let state = run.checkpoint;
        assert_eq!(state.cursor, 0);
        // The checkpoint resumes to the full result once time allows.
        let resume = RunOptions::default().resuming(state);
        let resumed = random_search(rugged, &bounds(), 20, 11, &resume).expect("resume");
        assert_eq!(resumed.best.expect("best").evals, 20);
    }

    #[test]
    fn durable_ga_invalid_config_is_typed() {
        let cfg = GaConfig {
            population: 2,
            ..GaConfig::default()
        };
        assert!(matches!(
            genetic_algorithm(rugged, &bounds(), &cfg, 1, &RunOptions::default()),
            Err(CalibrateError::InvalidConfig { .. })
        ));
        assert!(matches!(
            random_search(rugged, &bounds(), 0, 1, &RunOptions::default()),
            Err(CalibrateError::InvalidConfig { .. })
        ));
    }
}
