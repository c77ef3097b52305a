//! Factor screening — §4.3 of the paper.
//!
//! "Factor screening refers to the process of identifying the subset of
//! parameters to which the simulation response is most sensitive."
//!
//! * **Sequential bifurcation** (Bettonvil/Kleijnen, hybridized in Shen &
//!   Wan): assuming a linear metamodel with Gaussian noise and
//!   *known-positive* main effects, groups of factors are tested together
//!   — "such group testing is much faster than testing each individual
//!   parameter" — and groups showing an effect are recursively split.
//! * **GP-based screening**: fit a Gaussian-process metamodel and rank
//!   factors by the fitted correlation-decay parameters `θⱼ` (a near-zero
//!   `θⱼ` means the response does not vary with factor `j`).

use std::collections::BTreeMap;

use crate::design::nolh;
use crate::error::MetamodelError;
use crate::gp::{GpConfig, GpModel};
use crate::response::ResponseSurface;
use mde_numeric::checkpoint::{CampaignState, CheckpointError, Fingerprint};
use mde_numeric::resilience::{
    drive, Attempt, AttemptFailure, RunOptions, RunReport, StopCause, Surface,
};
use mde_numeric::rng::{Rng, StreamFactory};

/// Result of a sequential-bifurcation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreeningResult {
    /// Indices of factors declared important, ascending.
    pub important: Vec<usize>,
    /// Simulation runs consumed (each run = `reps` replications).
    pub runs_used: usize,
}

/// Configuration for sequential bifurcation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BifurcationConfig {
    /// Declare a (group) effect important when it exceeds this threshold —
    /// set above the noise scale and below the smallest effect of
    /// interest.
    pub threshold: f64,
    /// Replications averaged per probe (noise reduction).
    pub reps: usize,
}

impl Default for BifurcationConfig {
    fn default() -> Self {
        BifurcationConfig {
            threshold: 0.5,
            reps: 4,
        }
    }
}

/// Sequential bifurcation over a response with assumed-positive main
/// effects on coded inputs (`−1` low, `+1` high).
///
/// A probe evaluates the response with one *prefix group* of factors high;
/// the group effect is the difference between consecutive probes. Groups
/// whose effect exceeds the threshold split recursively; singleton groups
/// are declared important.
pub fn sequential_bifurcation<R: ResponseSurface>(
    response: &R,
    cfg: &BifurcationConfig,
    rng: &mut Rng,
) -> ScreeningResult {
    let k = response.dim();
    let mut runs_used = 0usize;
    // Probe cache: response with factors 0..=j high, rest low, keyed by
    // the boundary index (SB's classic "cumulative" parametrization, which
    // makes a group effect a difference of two probes).
    let mut cache: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    let mut probe = |hi_upto: usize, rng: &mut Rng, runs: &mut usize| -> f64 {
        if let Some(&v) = cache.get(&hi_upto) {
            return v;
        }
        let x: Vec<f64> = (0..k)
            .map(|j| if j < hi_upto { 1.0 } else { -1.0 })
            .collect();
        let v = response.eval_mean(&x, cfg.reps, rng);
        *runs += 1;
        cache.insert(hi_upto, v);
        v
    };

    let mut important = Vec::new();
    // Work queue of half-open factor ranges [lo, hi).
    let mut queue = vec![(0usize, k)];
    while let Some((lo, hi)) = queue.pop() {
        if lo >= hi {
            continue;
        }
        let y_hi = probe(hi, rng, &mut runs_used);
        let y_lo = probe(lo, rng, &mut runs_used);
        let group_effect = y_hi - y_lo;
        if group_effect <= cfg.threshold {
            continue; // no important factor inside
        }
        if hi - lo == 1 {
            important.push(lo);
        } else {
            let mid = lo + (hi - lo) / 2;
            queue.push((lo, mid));
            queue.push((mid, hi));
        }
    }
    important.sort_unstable();
    ScreeningResult {
        important,
        runs_used,
    }
}

// ---------------------------------------------------------------------------
// Durable campaign: checkpoint-per-round sequential bifurcation
// ---------------------------------------------------------------------------

const CAMPAIGN_SB: &str = "metamodel.seq-bifurcation";

/// The result of a durable screening campaign: the screening result when
/// every bisection round resolved, the supervision ledger, why the run
/// stopped early (if it did), and the final campaign state for
/// resumption.
#[derive(Debug, Clone)]
pub struct ScreeningRun {
    /// The completed screening result, or `None` when the campaign
    /// stopped with unresolved factor groups still queued.
    pub result: Option<ScreeningResult>,
    /// Normalized supervision ledger (attempts, retries, drops).
    pub report: RunReport,
    /// Why the campaign stopped early, or `None` if it ran to completion.
    pub stopped: Option<StopCause>,
    /// Final campaign state — hand it back through
    /// [`RunOptions::resuming`] (or persist with [`CampaignState::save`])
    /// to continue the run.
    pub checkpoint: Option<CampaignState>,
}

/// Run sequential bifurcation as a **durable campaign**: one checkpoint
/// boundary per bisection round (the resolution of one queued factor
/// group), with deadline/cancel/preempt checks before each round.
///
/// Unlike [`sequential_bifurcation`], which threads one RNG through every
/// probe, each probe here draws from a stream derived purely from
/// `(seed, probe boundary index)` and lands in a probe cache carried in
/// the checkpoint, so a resumed campaign replays nothing: the surviving
/// work queue, probe cache, run count, and important-factor set continue
/// bit-identically from where the interrupted run stopped. The campaign
/// is open-ended (the queue grows as groups split), so the checkpoint's
/// `total` is 0 and completion is "queue drained".
///
/// With [`RunOptions::resume`] set (a [`ScreeningRun::checkpoint`], or
/// [`CampaignState::load`]) the campaign continues from that state's
/// round; a state whose campaign tag or fingerprint (seed, dimension,
/// threshold, reps) does not match is refused with a typed
/// [`MetamodelError::Checkpoint`].
pub fn sequential_bifurcation_durable<R: ResponseSurface>(
    response: &R,
    cfg: &BifurcationConfig,
    seed: u64,
    opts: &RunOptions,
) -> crate::Result<ScreeningRun> {
    let k = response.dim();
    validate_sb_config(cfg, k)?;
    let mut state = CampaignState::start_or_resume(
        opts.resume.as_ref(),
        CAMPAIGN_SB,
        sb_fingerprint(cfg, seed, k),
        seed,
        0,
    )?;
    let (runs_used, important, queue, cache) = decode_sb_state(&state, k)?;
    let mut screen = SbSurface {
        response,
        cfg,
        runs_used,
        important,
        queue,
        cache,
    };
    screen.encode_into(&mut state);
    let stopped = drive(&mut screen, &mut state, opts)?;
    let result = screen.queue.is_empty().then(|| {
        let mut important = screen.important;
        important.sort_unstable();
        ScreeningResult {
            important,
            runs_used: screen.runs_used as usize,
        }
    });
    Ok(ScreeningRun {
        result,
        report: state.report.clone(),
        stopped,
        checkpoint: Some(state),
    })
}

fn validate_sb_config(cfg: &BifurcationConfig, k: usize) -> crate::Result<()> {
    let reject = |reason: &str| {
        Err(MetamodelError::InvalidConfig {
            context: "sequential bifurcation",
            reason: reason.into(),
        })
    };
    if k == 0 {
        return reject("response has zero factors");
    }
    if cfg.reps == 0 {
        return reject("need at least one replication per probe");
    }
    if !cfg.threshold.is_finite() {
        return reject("threshold must be finite");
    }
    Ok(())
}

/// Campaign identity: tag, seed, dimension, and the probing
/// configuration.
fn sb_fingerprint(cfg: &BifurcationConfig, seed: u64, k: usize) -> u64 {
    Fingerprint::new(CAMPAIGN_SB)
        .push_u64(seed)
        .push_u64(k as u64)
        .push_u64(cfg.reps as u64)
        .push_f64(cfg.threshold)
        .finish()
}

/// Sequential bifurcation as a campaign surface: one boundary per
/// bisection round, open-ended — the campaign is done when the queue of
/// unresolved factor groups drains.
struct SbSurface<'a, R> {
    response: &'a R,
    cfg: &'a BifurcationConfig,
    runs_used: u64,
    important: Vec<usize>,
    /// Half-open factor ranges `[lo, hi)` still to resolve; the last is next.
    queue: Vec<(usize, usize)>,
    /// Probe cache: response with factors `0..hi_upto` high, keyed by
    /// `hi_upto`. A `BTreeMap` so its encoding is canonical.
    cache: BTreeMap<usize, f64>,
}

impl<R: ResponseSurface> SbSurface<'_, R> {
    /// Serialize the working set into the checkpoint scratch fields:
    /// `ints = [runs_used, |important|, important.., |queue|, (lo, hi)..,
    /// |cache|, cache keys..]`, `floats = cache values` (in key order).
    fn encode_into(&self, state: &mut CampaignState) {
        let mut ints =
            Vec::with_capacity(3 + self.important.len() + 2 * self.queue.len() + self.cache.len());
        ints.push(self.runs_used);
        ints.push(self.important.len() as u64);
        ints.extend(self.important.iter().map(|&j| j as u64));
        ints.push(self.queue.len() as u64);
        for &(lo, hi) in &self.queue {
            ints.push(lo as u64);
            ints.push(hi as u64);
        }
        ints.push(self.cache.len() as u64);
        ints.extend(self.cache.keys().map(|&key| key as u64));
        state.ints = ints;
        state.floats = self.cache.values().copied().collect();
    }
}

impl<R: ResponseSurface> Surface for SbSurface<'_, R> {
    /// `(y_hi, y_lo)`, each with whether it was freshly probed.
    type Value = ((f64, bool), (f64, bool));
    type Error = MetamodelError;

    fn pending(&self, _: &CampaignState) -> bool {
        !self.queue.is_empty()
    }

    fn attempt(
        &mut self,
        att: &Attempt<'_>,
    ) -> Result<Self::Value, AttemptFailure<MetamodelError>> {
        let &(lo, hi) = self
            .queue
            .last()
            .expect("a pending round has a queued group");
        let k = self.response.dim();
        att.run(
            "bifurcation round",
            || {
                // A probe's stream is keyed on its own index (`hi_upto`),
                // not the round, so the cache stays coherent; a probe is
                // committed to the cache only when its round succeeds.
                let probe = |hi_upto: usize| -> (f64, bool) {
                    if let Some(&v) = self.cache.get(&hi_upto) {
                        return (v, false);
                    }
                    let mut rng = att.streams(hi_upto as u64).stream(0);
                    let x: Vec<f64> = (0..k)
                        .map(|j| if j < hi_upto { 1.0 } else { -1.0 })
                        .collect();
                    (self.response.eval_mean(&x, self.cfg.reps, &mut rng), true)
                };
                Ok((probe(hi), probe(lo)))
            },
            |&((y_hi, _), (y_lo, _))| if y_hi.is_finite() { y_lo } else { y_hi },
        )
    }

    /// A dropped round leaves its factor group unresolved: the subtree is
    /// abandoned (graceful degradation) rather than poisoning the campaign.
    fn commit(&mut self, state: &mut CampaignState, _: u64, value: Option<Self::Value>) {
        let (lo, hi) = self
            .queue
            .pop()
            .expect("a committed round had a queued group");
        if let Some(((y_hi, fresh_hi), (y_lo, fresh_lo))) = value {
            if fresh_hi {
                self.cache.insert(hi, y_hi);
                self.runs_used += 1;
            }
            if fresh_lo {
                self.cache.insert(lo, y_lo);
                self.runs_used += 1;
            }
            if y_hi - y_lo > self.cfg.threshold {
                if hi - lo == 1 {
                    self.important.push(lo);
                } else {
                    let mid = lo + (hi - lo) / 2;
                    self.queue.push((lo, mid));
                    self.queue.push((mid, hi));
                }
            }
        }
        self.encode_into(state);
    }
}

/// Inverse of `SbSurface::encode_into`, with typed [`CheckpointError::Corrupt`]
/// on structural disagreement. A fresh state (`cursor == 0`, empty
/// scratch) decodes to the initial working set with the whole factor
/// range queued.
#[allow(clippy::type_complexity)]
fn decode_sb_state(
    state: &CampaignState,
    k: usize,
) -> crate::Result<(u64, Vec<usize>, Vec<(usize, usize)>, BTreeMap<usize, f64>)> {
    if state.cursor == 0 && state.ints.is_empty() {
        return Ok((0, Vec::new(), vec![(0, k)], BTreeMap::new()));
    }
    let corrupt = |reason: String| {
        Err(MetamodelError::Checkpoint(CheckpointError::Corrupt {
            reason,
        }))
    };
    fn take<'a>(ints: &'a [u64], at: &mut usize, n: usize) -> Option<&'a [u64]> {
        let end = at.checked_add(n)?;
        let slice = ints.get(*at..end)?;
        *at = end;
        Some(slice)
    }
    let ints = &state.ints[..];
    let mut at = 0usize;
    let Some(&[runs_used]) = take(ints, &mut at, 1) else {
        return corrupt("screening scratch missing run count".into());
    };
    let Some(&[n_imp]) = take(ints, &mut at, 1) else {
        return corrupt("screening scratch missing important count".into());
    };
    let Some(imp) = take(ints, &mut at, n_imp as usize) else {
        return corrupt(format!(
            "screening scratch truncated: {n_imp} important factors"
        ));
    };
    let important: Vec<usize> = imp.iter().map(|&j| j as usize).collect();
    let Some(&[n_queue]) = take(ints, &mut at, 1) else {
        return corrupt("screening scratch missing queue length".into());
    };
    let queue_ints = (n_queue as usize).saturating_mul(2);
    let Some(pairs) = take(ints, &mut at, queue_ints) else {
        return corrupt(format!(
            "screening scratch truncated: {n_queue} queued groups"
        ));
    };
    let queue: Vec<(usize, usize)> = pairs
        .chunks_exact(2)
        .map(|p| (p[0] as usize, p[1] as usize))
        .collect();
    let Some(&[n_cache]) = take(ints, &mut at, 1) else {
        return corrupt("screening scratch missing cache length".into());
    };
    let Some(keys) = take(ints, &mut at, n_cache as usize) else {
        return corrupt(format!("screening scratch truncated: {n_cache} cache keys"));
    };
    if at != ints.len() {
        return corrupt(format!(
            "{} trailing ints in screening scratch",
            ints.len() - at
        ));
    }
    if state.floats.len() != n_cache as usize {
        return corrupt(format!(
            "cache has {} keys but {} values",
            n_cache,
            state.floats.len()
        ));
    }
    if important.iter().any(|&j| j >= k)
        || queue.iter().any(|&(lo, hi)| lo >= hi || hi > k)
        || keys.iter().any(|&key| key as usize > k)
    {
        return corrupt(format!("screening scratch indexes outside 0..={k}"));
    }
    let cache: BTreeMap<usize, f64> = keys
        .iter()
        .map(|&key| key as usize)
        .zip(state.floats.iter().copied())
        .collect();
    Ok((runs_used, important, queue, cache))
}

/// GP-based screening: fit a GP on a nearly orthogonal Latin hypercube
/// sample of the response over `[-1, 1]^k` and return the factors ranked
/// by descending `θⱼ`, together with the fitted values.
pub fn gp_screening<R: ResponseSurface>(
    response: &R,
    design_runs: usize,
    rng: &mut Rng,
) -> mde_numeric::Result<Vec<(usize, f64)>> {
    let k = response.dim();
    let design = nolh(k, design_runs, 50, rng);
    let ranges = vec![(-1.0, 1.0); k];
    let xs = design.scale_to(&ranges);
    let ys: Vec<f64> = xs.iter().map(|x| response.eval(x, rng)).collect();
    let gp = GpModel::fit(&xs, &ys, &GpConfig::default())?;
    Ok(rank_thetas(&gp))
}

/// [`gp_screening`] with every probe memoized through a cross-campaign
/// [`ObjectiveScope`](mde_numeric::cache::ObjectiveScope).
///
/// Takes a `seed` rather than a shared RNG: the NOLH design draws from
/// `StreamFactory::new(seed).child(0)` and probe `i` from `child(1 + i)`,
/// so each probe's randomness is a pure function of `(seed, i)` — a cache
/// hit skips the evaluation *without* perturbing any other probe's
/// stream, keeping cached and uncached screenings bit-identical. The
/// final ranking is stored as a trace entry (`[factor, θ]` pairs) whose
/// provenance lists every probe entry consulted or produced. The fit
/// itself is remembered in the same cache ([`GpModel::fit_remembered`]): a
/// warm screening re-verifies the stored `(τ², θ)` with one factorization
/// instead of searching, and returns the same ranking to the bit. That
/// entry is a leaf of its own (`gp.fit`), not part of the scope's
/// provenance, which keeps listing evaluations.
pub fn gp_screening_cached<R: ResponseSurface>(
    response: &R,
    design_runs: usize,
    seed: u64,
    scope: &mut mde_numeric::cache::ObjectiveScope,
) -> mde_numeric::Result<Vec<(usize, f64)>> {
    let factory = StreamFactory::new(seed);
    let k = response.dim();
    let design = nolh(k, design_runs, 50, &mut factory.child(0).stream(0));
    let ranges = vec![(-1.0, 1.0); k];
    let xs = design.scale_to(&ranges);
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            scope.memoize_scalar(x, || {
                let mut probe_rng = factory.child(1 + i as u64).stream(0);
                response.eval(x, &mut probe_rng)
            })
        })
        .collect();
    let mut ws = crate::kernel::KernelWorkspace::new(&xs)?;
    let zeros = vec![0.0; ys.len()];
    let cfg = GpConfig::default();
    let gp = GpModel::fit_remembered(&mut ws, &ys, &zeros, &cfg, None, Some(scope.handle()))?;
    let ranked = rank_thetas(&gp);
    let mut trace = Vec::with_capacity(ranked.len() * 2);
    for &(j, theta) in &ranked {
        trace.push(j as f64);
        trace.push(theta);
    }
    scope.store_trace(trace);
    Ok(ranked)
}

/// Factors ranked by descending fitted `θⱼ`.
fn rank_thetas(gp: &GpModel) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = gp.thetas().iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::FnResponse;
    use mde_numeric::dist::Normal;
    use mde_numeric::rng::rng_from_seed;

    /// 128 factors, 8 important with effect 2, noise σ = 0.3 — the §4.3
    /// setting: group testing finds them in far fewer than 128 probes.
    fn sparse_response() -> FnResponse<impl Fn(&[f64], &mut Rng) -> f64> {
        let important = [3usize, 17, 31, 64, 65, 90, 110, 127];
        FnResponse::new(128, move |x: &[f64], rng: &mut Rng| {
            let signal: f64 = important.iter().map(|&j| 2.0 * x[j]).sum();
            signal + 0.3 * Normal::sample_standard(rng)
        })
    }

    #[test]
    fn finds_all_important_factors() {
        let r = sparse_response();
        let mut rng = rng_from_seed(1);
        let res = sequential_bifurcation(&r, &BifurcationConfig::default(), &mut rng);
        assert_eq!(res.important, vec![3, 17, 31, 64, 65, 90, 110, 127]);
    }

    #[test]
    fn uses_far_fewer_runs_than_one_at_a_time() {
        let r = sparse_response();
        let mut rng = rng_from_seed(2);
        let res = sequential_bifurcation(&r, &BifurcationConfig::default(), &mut rng);
        // One-at-a-time needs 129 probes; 2^128 for a full factorial. SB
        // with 8 important of 128 needs O(g·log k) ≈ 60-80 probes.
        assert!(
            res.runs_used < 100,
            "sequential bifurcation used {} runs",
            res.runs_used
        );
    }

    #[test]
    fn no_important_factors_costs_two_probes() {
        let r = FnResponse::new(64, |_: &[f64], rng: &mut Rng| {
            0.1 * Normal::sample_standard(rng)
        });
        let mut rng = rng_from_seed(3);
        let res = sequential_bifurcation(&r, &BifurcationConfig::default(), &mut rng);
        assert!(res.important.is_empty());
        assert_eq!(res.runs_used, 2); // all-high and all-low only
    }

    #[test]
    fn single_factor_problem() {
        let r = FnResponse::new(1, |x: &[f64], _rng: &mut Rng| 3.0 * x[0]);
        let mut rng = rng_from_seed(4);
        let res = sequential_bifurcation(&r, &BifurcationConfig::default(), &mut rng);
        assert_eq!(res.important, vec![0]);
    }

    #[test]
    fn threshold_separates_small_effects() {
        // Effects 2.0 (factor 0) and 0.05 (factor 1): only the first
        // crosses a 0.5 threshold.
        let r = FnResponse::new(2, |x: &[f64], _rng: &mut Rng| 1.0 * x[0] + 0.025 * x[1]);
        let mut rng = rng_from_seed(5);
        let res = sequential_bifurcation(&r, &BifurcationConfig::default(), &mut rng);
        assert_eq!(res.important, vec![0]);
    }

    use mde_numeric::resilience::FaultPlan;
    use mde_numeric::Deadline;
    use std::time::Duration;

    /// 16 factors, 3 important — small enough that the durable preempt
    /// sweep over every round stays fast.
    fn small_sparse_response() -> FnResponse<impl Fn(&[f64], &mut Rng) -> f64> {
        let important = [2usize, 7, 13];
        FnResponse::new(16, move |x: &[f64], rng: &mut Rng| {
            let signal: f64 = important.iter().map(|&j| 2.0 * x[j]).sum();
            signal + 0.2 * Normal::sample_standard(rng)
        })
    }

    #[test]
    fn durable_bifurcation_finds_important_factors() {
        let r = small_sparse_response();
        let run = sequential_bifurcation_durable(
            &r,
            &BifurcationConfig::default(),
            7,
            &RunOptions::default(),
        )
        .expect("durable screening");
        assert!(run.stopped.is_none());
        let result = run.result.expect("completed run has a result");
        assert_eq!(result.important, vec![2, 7, 13]);
        assert!(result.runs_used >= 2);
    }

    #[test]
    fn durable_bifurcation_preempt_resume_is_bit_identical() {
        let r = small_sparse_response();
        let cfg = BifurcationConfig::default();
        let baseline = sequential_bifurcation_durable(&r, &cfg, 7, &RunOptions::default())
            .expect("uninterrupted");
        let base = baseline.result.expect("result");
        let rounds = baseline.checkpoint.as_ref().expect("state").cursor;
        assert!(rounds >= 4, "expected several rounds, got {rounds}");

        for cut in 0..rounds {
            let opts = RunOptions::default().with_faults(FaultPlan::new().preempt_at(cut));
            let partial = sequential_bifurcation_durable(&r, &cfg, 7, &opts)
                .expect("preempted run is not an error");
            assert_eq!(partial.stopped, Some(StopCause::Preempted));
            assert!(partial.result.is_none(), "cut at {cut} leaves queued work");
            let state = partial.checkpoint.expect("state");
            assert_eq!(state.cursor, cut);
            // Round-trip the state through the binary codec, as a real
            // preemption would.
            let state = CampaignState::decode(&state.encode()).expect("codec");
            let resume = RunOptions::default().resuming(state);
            let resumed = sequential_bifurcation_durable(&r, &cfg, 7, &resume).expect("resume");
            let result = resumed.result.expect("resumed to completion");
            assert_eq!(result, base, "cut at {cut}");
            let final_state = resumed.checkpoint.expect("final state");
            assert_eq!(final_state.cursor, rounds);
            assert_eq!(
                final_state.floats,
                baseline.checkpoint.as_ref().unwrap().floats,
                "probe cache must be bit-identical after resume at {cut}"
            );
        }
    }

    #[test]
    fn durable_bifurcation_rejects_foreign_checkpoint() {
        let r = small_sparse_response();
        let cfg = BifurcationConfig::default();
        let run = sequential_bifurcation_durable(&r, &cfg, 7, &RunOptions::default()).expect("run");
        let state = run.checkpoint.expect("state");
        let resume = RunOptions::default().resuming(state);
        let err = sequential_bifurcation_durable(&r, &cfg, 8, &resume)
            .expect_err("mismatched seed must be refused");
        assert!(matches!(
            err,
            MetamodelError::Checkpoint(CheckpointError::Mismatch { .. })
        ));
    }

    #[test]
    fn durable_bifurcation_corrupt_scratch_is_typed() {
        let r = small_sparse_response();
        let cfg = BifurcationConfig::default();
        let run = sequential_bifurcation_durable(&r, &cfg, 7, &RunOptions::default()).expect("run");
        let mut state = run.checkpoint.expect("state");
        // Claim more cached probes than there are stored values.
        let last = state.ints.len() - 1;
        state.ints[last - state.floats.len()] += 1;
        let resume = RunOptions::default().resuming(state);
        let err = sequential_bifurcation_durable(&r, &cfg, 7, &resume)
            .expect_err("structural mismatch must be refused");
        assert!(
            matches!(
                err,
                MetamodelError::Checkpoint(CheckpointError::Corrupt { .. })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn expired_deadline_yields_partial_screening_not_error() {
        let r = small_sparse_response();
        let cfg = BifurcationConfig::default();
        let opts = RunOptions::default().with_deadline(Deadline::after(Duration::ZERO));
        let run = sequential_bifurcation_durable(&r, &cfg, 7, &opts)
            .expect("expired deadline is not an error");
        assert_eq!(run.stopped, Some(StopCause::Deadline));
        assert!(run.result.is_none());
        let state = run.checkpoint.expect("state");
        assert_eq!(state.cursor, 0);
        let resume = RunOptions::default().resuming(state);
        let resumed = sequential_bifurcation_durable(&r, &cfg, 7, &resume).expect("resume");
        assert_eq!(resumed.result.expect("result").important, vec![2, 7, 13]);
    }

    #[test]
    fn gp_screening_cached_is_deterministic_and_hits_when_warm() {
        use mde_numeric::cache::{CacheHandle, ObjectiveScope};
        // Deterministic response (no draws consumed) so cold/warm bit
        // identity is exact even at the probe level.
        let r = FnResponse::new(4, |x: &[f64], _rng: &mut Rng| {
            2.0 * x[0] - 1.5 * x[2] + 0.1 * x[1] * x[3]
        });
        let handle = CacheHandle::in_memory();
        let mut scope = ObjectiveScope::new(handle.clone(), "metamodel.gp-screening", 0x5EED, 1, 9);
        let cold = gp_screening_cached(&r, 17, 9, &mut scope).unwrap();
        // The uncached screening on the same streams: design from
        // `child(0)`, a deterministic response, a plain fit.
        let xs = nolh(4, 17, 50, &mut StreamFactory::new(9).child(0).stream(0))
            .scale_to(&[(-1.0, 1.0); 4]);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| r.eval(x, &mut rng_from_seed(0)))
            .collect();
        let uncached = rank_thetas(&GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap());
        // Warm pass, fresh scope with the same identity: pure hits,
        // bit-identical ranking.
        let mut scope2 =
            ObjectiveScope::new(handle.clone(), "metamodel.gp-screening", 0x5EED, 1, 9);
        let before = handle.stats();
        let warm = gp_screening_cached(&r, 17, 9, &mut scope2).unwrap();
        let after = handle.stats();
        assert_eq!(after.misses, before.misses, "warm screening must not miss");
        // 17 probes and the remembered fit.
        assert_eq!(after.hits, before.hits + 18);
        // uncached ≡ cold ≡ warm, to the bit.
        assert_eq!(cold.len(), warm.len());
        for (((ci, ct), (wi, wt)), (ui, ut)) in cold.iter().zip(&warm).zip(&uncached) {
            assert_eq!((ci, ct.to_bits()), (wi, wt.to_bits()));
            assert_eq!((ci, ct.to_bits()), (ui, ut.to_bits()));
        }
        // Active factors 0 and 2 outrank the inert ones.
        let top2: Vec<usize> = cold[..2].iter().map(|(j, _)| *j).collect();
        assert!(top2.contains(&0) && top2.contains(&2), "ranked: {cold:?}");
        // The ranking's provenance lists all 17 probes.
        let prov = handle
            .provenance_of(&scope2.trace_key())
            .expect("trace provenance");
        assert_eq!(prov.upstream.len(), 17);
    }

    #[test]
    fn gp_screening_ranks_active_factors_first() {
        // 4 factors; only 0 and 2 matter.
        let r = FnResponse::new(4, |x: &[f64], _rng: &mut Rng| {
            (3.0 * x[0]).sin() + x[2] * x[2]
        });
        let mut rng = rng_from_seed(6);
        let ranked = gp_screening(&r, 25, &mut rng).unwrap();
        let top2: Vec<usize> = ranked[..2].iter().map(|(j, _)| *j).collect();
        assert!(top2.contains(&0) && top2.contains(&2), "ranking {ranked:?}");
        // Importance scores of active factors dominate inert ones.
        let theta = |j: usize| ranked.iter().find(|(i, _)| *i == j).unwrap().1;
        assert!(
            theta(0) > 5.0 * theta(1).max(theta(3)),
            "ranking {ranked:?}"
        );
    }
}
