//! Monte Carlo query estimation — the outer loop of MCDB.
//!
//! "Generating a sample of each uncertain data value creates a database
//! instance … Running an SQL query over the database instance generates a
//! sample from the query-result distribution. Iteration of this process
//! yields a collection of samples … that can then be used to estimate
//! distribution features of interest such as moments and quantiles."
//!
//! [`MonteCarloQuery`] packages the stochastic-table specs with an
//! aggregate query and runs `N` iterations on the calling thread (MCDB
//! spreads them over a parallel-database backend; at the sizes this
//! workspace runs, a second thread never paid for itself). There is one
//! RNG layout and one engine. Specs and query are prepared once per run;
//! the part of them no replicate can change — every sub-plan of the query,
//! of a driver or of a parameter query that reads no table realized before
//! it in the replicate — runs once per run, in the first replicate that
//! reaches it, and is shared by all replicates. The stochastic rest runs,
//! as MCDB runs a plan once over tuple bundles, once per **tuple bundle**
//! where the task allows it: when every spec's inputs are invariant, no
//! spec shadows a base table and the query reaches its stochastic table
//! through filters, projections and aggregates alone, attempt 0 of a run
//! of replicates realizes them into one batch tagged by lane and one
//! execution of the query, grouped by lane, answers them all
//! (`BundlePlan`). Everything else — retries, a discarded bundle's
//! replicates, a lane without exactly one answer row, an ineligible task —
//! takes the one-replicate path: realize the specs
//! ([`PreparedRandomTable::realize`]) and run the stochastic rest of the
//! plan. Both give sample `i` the same bits (E3 in EXPERIMENTS.md measures
//! what each costs). The result object answers the paper's analysis
//! patterns:
//!
//! * moments and confidence intervals (plain MCDB);
//! * **extreme quantiles** for risk analysis (MCDB-R, Arumugam et al.);
//! * **threshold queries** — "Which regions will see more than a 2% decline
//!   in sales with at least 50% probability?" (Perez et al.) — via
//!   [`McResult::prob_above`]/[`McResult::threshold_decision`]. A grouped
//!   question is one run per group on the same seed, its query the grouped
//!   one filtered to that group's key (`… WHERE REGION = 'north'`):
//!   replicate `i` realizes the same instance in every run, so each group's
//!   sample is the one a single grouped pass would read for it, and every
//!   group's run has the policy, checkpoints, cache and bundles below. A
//!   realization that names a group twice answers its run with two rows,
//!   which the run refuses as a non-scalar result.
//!
//! Runs are **supervised**: per-replicate execution is wrapped in
//! `catch_unwind`, panics and non-finite samples become typed
//! [`McdbError::ReplicateFailed`](crate::McdbError::ReplicateFailed)
//! failures, and a [`RunPolicy`](mde_numeric::RunPolicy) decides whether a
//! failing replicate aborts the run, retries on a fresh deterministic
//! sub-seed, or is dropped best-effort with the damage recorded in a
//! [`RunReport`]. See [`MonteCarloQuery::run_with_options`].
//!
//! Runs are also **durable campaigns**: attach a
//! [`CheckpointSpec`](mde_numeric::CheckpointSpec) and the run persists a
//! crash-consistent [`CampaignState`] every `k` replicates (and always at
//! stop/completion); attach a [`Deadline`](mde_numeric::Deadline) or
//! [`CancelToken`](mde_numeric::CancelToken) and the run stops at the next
//! replicate boundary with a partial [`McRun`] — samples so far, partial
//! ledger, final checkpoint — rather than an error. A preempted or
//! expired campaign handed back through [`RunOptions::resuming`] is
//! bit-identical to one that was never interrupted. The loop is the
//! boundary protocol's [`drive`], as for every other durable surface.

use crate::expr::Expr;
use crate::query::{Catalog, Plan, PreparedQuery};
use crate::random_table::{Draws, PreparedRandomTable, RandomTableSpec};
use crate::schema::{Column, DataType, Schema};
use crate::table::Table;
use crate::value::Value;
use mde_numeric::cache::{CacheEntry, CacheHandle, CacheKey, Provenance};
use mde_numeric::checkpoint::{CampaignState, Fingerprint};
use mde_numeric::resilience::{
    catch_panic, drive, Attempt, AttemptFailure, RunOptions, RunReport, StopCause, Surface,
};
use mde_numeric::rng::StreamFactory;
use mde_numeric::stats::{
    mean_confidence_interval, proportion_confidence_interval, quantile, ConfidenceInterval, Summary,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Campaign tag written into every Monte Carlo checkpoint.
const CAMPAIGN_MC: &str = "mcdb.monte-carlo";

/// The rows a tuple bundle grows to at most — fewer where the catalog's
/// spill threshold is lower, so that a bundle's group-by never spills.
const BUNDLE_ROWS: usize = 4096;

/// The column that tags each row of a tuple bundle with its lane. No SQL
/// text can name it: an identifier starts with a letter or `_`.
const LANE: &str = "#lane";

/// A Monte Carlo estimation task: realize the stochastic tables, run the
/// query, collect the scalar result; repeat.
#[derive(Debug, Clone)]
pub struct MonteCarloQuery {
    specs: Vec<RandomTableSpec>,
    query: Plan,
}

impl MonteCarloQuery {
    /// Create a task from stochastic-table specs and an aggregate query
    /// whose result must be a single scalar per realization.
    pub fn new(specs: Vec<RandomTableSpec>, query: Plan) -> Self {
        MonteCarloQuery { specs, query }
    }

    /// Run `n` Monte Carlo iterations: the three-argument convenience over
    /// [`MonteCarloQuery::run_with_options`] with default options.
    ///
    /// Replicate `i` realizes spec `k` (in `specs` order) on
    /// `StreamFactory::new(seed).child(i).stream(k)` — the one RNG layout,
    /// so "sample `i`" is the same number on every path that computes it.
    /// Every replicate (and every retry attempt of one) sees the **base**
    /// catalog: a spec's output replaces a same-named table for the rest of
    /// that replicate only, so a spec that shadows a table it reads —
    /// `PRICES AS FOR EACH PRICES …` — perturbs the base `PRICES` in every
    /// replicate, never the previous replicate's realization.
    /// Fail-fast: the first failing replicate aborts the run
    /// with a typed error (a panicking VG function surfaces as
    /// [`McdbError::ReplicateFailed`](crate::McdbError::ReplicateFailed),
    /// never as a panic in the caller).
    pub fn run(&self, catalog: &Catalog, n: usize, seed: u64) -> crate::Result<McResult> {
        Ok(self
            .run_with_options(catalog, n, seed, &RunOptions::default())?
            .result)
    }

    /// Run `n` supervised Monte Carlo iterations under `opts` — the one
    /// options-taking entry point.
    ///
    /// Each replicate executes inside `catch_unwind`; panics, typed
    /// errors, and non-finite samples are classified and handled per the
    /// [`RunPolicy`](mde_numeric::RunPolicy):
    ///
    /// * `FailFast` — abort on the first failure with the replicate's
    ///   typed error.
    /// * `Retry` — re-execute the replicate on a fresh deterministic
    ///   sub-seed ([`mde_numeric::resilience::retry_seed`]) up to `max_attempts`.
    /// * `BestEffort` — drop failing replicates; the run succeeds as long
    ///   as at least `min_fraction` of replicates produce a sample, and
    ///   the returned [`RunReport`] carries the complete failure ledger.
    ///
    /// Fatal errors (unknown columns, invalid plans, bad parameters —
    /// anything that would fail identically on every attempt) abort the
    /// run under every policy.
    ///
    /// Iteration `i` uses stream `i` and retry sub-seeds are a pure
    /// function of `(seed, replicate, attempt)`, so the result — samples,
    /// retries, drops, and the ledger — is bit-identical however the run
    /// was cut, resumed or cached.
    ///
    /// With [`RunOptions::resume`] set the run continues from that state's
    /// cursor (as returned in [`McRun::checkpoint`], or loaded with
    /// [`CampaignState::load`]) instead of replicate 0. The state must
    /// carry this campaign's tag and seed/spec fingerprint — anything else
    /// is a typed [`McdbError::Checkpoint`](crate::McdbError::Checkpoint) —
    /// and the final [`McRun`] is bit-identical to an uninterrupted run.
    ///
    /// A fresh run consults [`RunOptions::cache`] first; a resumed run does
    /// not; both store a completed result.
    pub fn run_with_options(
        &self,
        catalog: &Catalog,
        n: usize,
        seed: u64,
        opts: &RunOptions,
    ) -> crate::Result<McRun> {
        // Formatted once per run: the checkpoint and both cache sides share
        // the fingerprint, the lookup and the insert share the key.
        let fingerprint = self.fingerprint(n, seed);
        let cached = opts
            .cache
            .as_ref()
            .map(|cache| (cache, Self::cache_key(fingerprint, n, seed, opts)));
        // A resumed run does not consult the cache; it still stores.
        if let (Some((cache, key)), None) = (&cached, &opts.resume) {
            if let Some(hit) = Self::replay_cached(cache, key, fingerprint, n, seed, opts)? {
                return Ok(hit);
            }
        }
        let state = CampaignState::start_or_resume(
            opts.resume.as_ref(),
            CAMPAIGN_MC,
            fingerprint,
            seed,
            n as u64,
        )?;
        let run = self.campaign(catalog, opts, state)?;
        if let Some((cache, key)) = cached {
            Self::cache_completed(cache, key, &run);
        }
        Ok(run)
    }

    /// The digest that ties a checkpoint to this exact campaign: tag,
    /// master seed, replicate count, and the complete debug text of the
    /// specs (driver plan, VG name, parameter query, parameter and select
    /// expressions) and of the query plan. Resuming with a different query,
    /// spec set, seed, or `n` is refused. Table *contents* are not in it:
    /// the catalog is the caller's to hold fixed per checkpoint and per
    /// cache file.
    fn fingerprint(&self, n: usize, seed: u64) -> u64 {
        Fingerprint::new(CAMPAIGN_MC)
            .push_u64(seed)
            .push_u64(n as u64)
            .push_str(&format!("{:?}", self.specs))
            .push_str(&format!("{:?}", self.query))
            .finish()
    }

    /// Content address of a *completed* run of this campaign in the
    /// cross-campaign result cache: the campaign fingerprint plus the
    /// run-shaping options. Policy and fault plan participate because
    /// they change which replicates survive (and therefore the bits of
    /// the result); deadline/cancel/checkpoint do not — a
    /// completed run is the same completed run regardless of how it was
    /// scheduled or persisted.
    fn cache_key(fingerprint: u64, n: usize, seed: u64, opts: &RunOptions) -> CacheKey {
        let spec_fingerprint = Fingerprint::new("mcdb.mc-cache")
            .push_u64(fingerprint)
            .push_str(&format!("{:?}", opts.policy))
            .push_str(&format!("{:?}", opts.faults))
            .finish();
        CacheKey::for_campaign(spec_fingerprint, n as u64, seed)
    }

    /// Replay the completed run `cache` holds under `key`, if any.
    /// Reconstructs the full [`McRun`] — samples, deterministic report,
    /// resumable final state — bit-identically to a recompute, honoring the
    /// final-checkpoint contract when a
    /// [`CheckpointSpec`](mde_numeric::CheckpointSpec) is attached. A
    /// structurally implausible entry is treated as a miss (recompute),
    /// never an error.
    fn replay_cached(
        cache: &CacheHandle,
        key: &CacheKey,
        fingerprint: u64,
        n: usize,
        seed: u64,
        opts: &RunOptions,
    ) -> crate::Result<Option<McRun>> {
        let Some(entry) = cache.get(key) else {
            return Ok(None);
        };
        let Some(report) = entry.report else {
            return Ok(None);
        };
        if entry.values.len() != entry.ints.len() || entry.values.len() > n {
            return Ok(None);
        }
        let mut state = CampaignState::new(CAMPAIGN_MC, fingerprint, seed, n as u64);
        state.cursor = n as u64;
        state.completed = entry
            .ints
            .iter()
            .zip(&entry.values)
            .map(|(&i, &v)| (i, vec![v]))
            .collect();
        state.report = report;
        if let Some(spec) = &opts.checkpoint {
            state.save_ledgered(&spec.path)?;
        }
        let samples = state.completed.iter().map(|(_, v)| v[0]).collect();
        Ok(Some(McRun {
            result: McResult::new(samples),
            report: state.report.clone(),
            stopped: None,
            checkpoint: state,
        }))
    }

    /// Store a *completed* run in `cache` under `key` (stopped/partial runs
    /// are never cached — they are checkpoints, not answers). Best-effort
    /// durable: a failed persist is counted, never surfaced.
    fn cache_completed(cache: &CacheHandle, key: CacheKey, run: &McRun) {
        if run.stopped.is_some() {
            return;
        }
        let state = &run.checkpoint;
        let spec_fingerprint = key.spec_fingerprint;
        cache.insert_durable(CacheEntry {
            key,
            values: state.completed.iter().map(|(_, v)| v[0]).collect(),
            ints: state.completed.iter().map(|(i, _)| *i).collect(),
            report: Some(run.report.clone()),
            provenance: Provenance {
                campaign: CAMPAIGN_MC.to_string(),
                spec_fingerprint,
                upstream: Vec::new(),
            },
        });
    }

    /// The campaign loop: [`drive`] over an [`McSurface`] from the resume
    /// cursor, on the calling thread, so every stop check, commit and
    /// checkpoint cadence is the boundary protocol's own.
    fn campaign(
        &self,
        catalog: &Catalog,
        opts: &RunOptions,
        mut state: CampaignState,
    ) -> crate::Result<McRun> {
        // Plan once: specs and the aggregate query are prepared against the
        // base catalog (plus placeholder schemas for the stochastic
        // tables); what they pin runs in the first replicate to reach it,
        // the rest per replicate. Prepare-time errors are structural — they
        // would fail identically on every attempt — so they abort under
        // every policy, exactly as fatal runtime errors did when planning
        // happened inside each replicate.
        let prepare = Instant::now();
        let prepared = prepare_task(&self.specs, &self.query, catalog)?;
        // A bundle answers two boundaries or more.
        let bundles = (state.total - state.cursor > 1)
            .then(|| bundle_plan(&prepared, &self.query, catalog))
            .flatten();
        let metrics = &mut state.report.metrics;
        metrics.observe_duration("mc.prepare", prepare.elapsed());
        let mut surface = McSurface {
            ahead: bundles.map(|plan| Ahead::new(plan, catalog)),
            prepared,
            scratch: catalog.clone(),
            started: Instant::now(),
            opts,
            total: state.total,
            from_lane: false,
        };
        let stopped = drive(&mut surface, &mut state, opts)?;
        let samples = state.completed.iter().map(|(_, v)| v[0]).collect();
        Ok(McRun {
            result: McResult::new(samples),
            report: state.report.clone(),
            stopped,
            checkpoint: state,
        })
    }
}

/// A Monte Carlo run as a boundary [`Surface`]: boundary `i` is replicate
/// `i`, and a success keeps one scalar sample.
struct McSurface<'a> {
    prepared: PreparedMc,
    /// The base catalog that attempts realize into (see [`realize_and_query`]).
    scratch: Catalog,
    /// When attempt 0 of the current replicate began: `mc.replicate` times
    /// a replicate with its retries.
    started: Instant,
    /// The run's options: a bundle stops before a boundary they stop at.
    opts: &'a RunOptions,
    /// The run's boundary count: a bundle never reaches past it.
    total: u64,
    /// The tuple bundles of a task that has a lane-aware plan.
    ahead: Option<Ahead>,
    /// Whether the current attempt's value is a bundle lane's answer.
    from_lane: bool,
}

/// A run's tuple bundles: the lane-aware plan, the catalog bundles are
/// realized into, and the answers of the last bundle, kept for the
/// boundaries they belong to.
struct Ahead {
    plan: BundlePlan,
    /// The base catalog plus the last bundle's lane-tagged tables.
    scratch: Catalog,
    /// The last bundle's boundaries: `first..end`. Those a discarded bundle
    /// had reached take the one-replicate path.
    first: u64,
    end: u64,
    /// Attempt-0 answer per lane; `None` for a lane the one-replicate path
    /// answers.
    answers: Vec<Option<f64>>,
    /// How long building the last bundle took, until a commit books it.
    took: Option<Duration>,
}

impl Ahead {
    fn new(plan: BundlePlan, catalog: &Catalog) -> Ahead {
        Ahead {
            plan,
            scratch: catalog.clone(),
            first: 0,
            end: 0,
            answers: Vec::new(),
            took: None,
        }
    }
}

impl McSurface<'_> {
    /// Attempt 0 of boundary `att.boundary` as a bundle answers it: from the
    /// last bundle, or from a new one that starts here. `None` sends the
    /// boundary down the one-replicate path.
    fn lane_answer(&mut self, att: &Attempt<'_>) -> Option<f64> {
        let ahead = self.ahead.as_mut()?;
        let b = att.boundary;
        if !(ahead.first..ahead.end).contains(&b) {
            let started = Instant::now();
            let mut reached = 0;
            let bundle = catch_panic(|| {
                let (specs, scratch) = (&self.prepared.specs, &mut ahead.scratch);
                let stop = |r: u64| r == self.total || self.opts.stop_cause(r).is_some();
                realize_bundle(&ahead.plan, specs, scratch, att, &stop, &mut reached)
            });
            // An error or a panic discards the whole bundle, so that each
            // boundary it reached fails, or not, on its own.
            ahead.answers = bundle.ok().and_then(Result::ok).unwrap_or_default();
            ahead.first = b;
            ahead.end = b + reached.max(1);
            ahead.took = (reached > 0).then(|| started.elapsed());
        }
        ahead
            .answers
            .get((b - ahead.first) as usize)
            .copied()
            .flatten()
    }
}

impl Surface for McSurface<'_> {
    type Value = f64;
    type Error = crate::McdbError;

    fn attempt(&mut self, att: &Attempt<'_>) -> Result<f64, AttemptFailure<crate::McdbError>> {
        if att.attempt == 0 {
            self.started = Instant::now();
        }
        self.from_lane = false;
        att.run(
            "replicate",
            || {
                // Retries draw from their own streams: never a lane's.
                if att.attempt == 0 {
                    if let Some(v) = self.lane_answer(att) {
                        self.from_lane = true;
                        return Ok(v);
                    }
                }
                let streams = att.streams(att.boundary);
                realize_and_query(&self.prepared, &mut self.scratch, &streams)
            },
            |v| *v,
        )
    }

    fn commit(&mut self, state: &mut CampaignState, i: u64, sample: Option<f64>) {
        let metrics = &mut state.report.metrics;
        metrics.observe_duration("mc.replicate", self.started.elapsed());
        if let Some(took) = self.ahead.as_mut().and_then(|a| a.took.take()) {
            metrics.observe_duration("mc.bundle", took);
        }
        let path = match self.from_lane && sample.is_some() {
            true => "mc.bundled",
            false => "mc.unbundled",
        };
        metrics.add_io(path, 1);
        if let Some(value) = sample {
            metrics.observe("mc.sample", value);
            state.completed.push((i, vec![value]));
        }
    }
}

/// A Monte Carlo task lowered to prepared form: every spec's driver and
/// parameter query planned, every expression bound, and the aggregate
/// query planned against the realized-table schemas — all exactly once per
/// run, shared by every replicate. Its plans are
/// pinned (`PreparedQuery::pin_invariant`): a sub-plan that reads nothing a
/// replicate realizes before it runs keeps its output from the first
/// replicate that computes it until the run ends. That ties a `PreparedMc`
/// to the one base catalog it was prepared against.
#[derive(Debug)]
struct PreparedMc {
    specs: Vec<PreparedRandomTable>,
    query: PreparedQuery,
    /// The base tables that some spec's output shadows. Every attempt puts
    /// them back first; empty for the usual task, whose stochastic tables
    /// have names of their own.
    shadowed: Vec<Arc<Table>>,
}

/// A task's lane-aware form (DESIGN §3). Where every spec keeps its
/// realization inputs for the run, no spec shadows a base table, and the
/// query reaches its stochastic table through filters, projections and
/// aggregates alone, the replicates of a *tuple bundle* are realized into
/// one batch per spec, each row tagged with its replicate's lane, and one
/// execution of this plan answers them all.
struct BundlePlan {
    /// Per spec: its output schema with the lane column last.
    schemas: Vec<Schema>,
    /// The query with the lane carried through every projection and put
    /// first in every grouping, so each lane's aggregates fold that
    /// replicate's rows alone, in the order its own execution folds them.
    query: PreparedQuery,
    /// The lane's column and the answer's in the query's output.
    lane: usize,
    value: usize,
}

/// Prepare the specs and query against the base catalog. Specs prepare in
/// realization order against a planning catalog that accumulates empty
/// placeholder tables for each spec's output, so later specs and the final
/// query can reference earlier stochastic tables by schema.
///
/// The volatile-set rule for pinning follows from what a replicate's
/// catalog holds when each plan runs — the base tables, plus the outputs
/// realized so far: the aggregate query holds every spec's output volatile;
/// spec `k`'s driver and parameter query hold the outputs of specs before
/// `k` volatile, and read the *base* table under `k`'s own or a later
/// spec's name.
fn prepare_task(
    specs: &[RandomTableSpec],
    query: &Plan,
    catalog: &Catalog,
) -> crate::Result<PreparedMc> {
    let mut planning = catalog.clone();
    let mut prepared = Vec::with_capacity(specs.len());
    let mut volatile: Vec<&str> = Vec::with_capacity(specs.len());
    for spec in specs {
        let mut p = spec.prepare(&planning)?;
        p.pin_invariant(&volatile);
        planning.insert(Table::new(p.name(), p.output_schema().clone()));
        volatile.push(spec.name());
        prepared.push(p);
    }
    let mut query = PreparedQuery::prepare(query, &planning)?;
    query.pin_invariant(&volatile);
    Ok(PreparedMc {
        specs: prepared,
        query,
        shadowed: volatile.iter().filter_map(|v| catalog.shared(v)).collect(),
    })
}

/// The lane-aware plan of a prepared task, prepared and pinned as its own
/// query is (`query` and `catalog` are what `prepared` came from) — or
/// `None` where the task is not eligible: a spec that does not keep its
/// realization inputs, a spec that shadows a base table, an answer of
/// more than one column, a query that reaches its stochastic table
/// through anything but filters, projections and aggregates, or a name
/// that takes the lane column's.
fn bundle_plan(prepared: &PreparedMc, query: &Plan, catalog: &Catalog) -> Option<BundlePlan> {
    let specs = &prepared.specs;
    let eligible = prepared.shadowed.is_empty()
        && prepared.query.schema().len() == 1
        && specs.iter().all(PreparedRandomTable::keeps_inputs);
    if !eligible {
        return None;
    }
    let volatile: Vec<&str> = specs.iter().map(PreparedRandomTable::name).collect();
    let lane_query = carry_lane(query, &volatile)?;
    let mut planning = catalog.clone();
    let mut schemas = Vec::with_capacity(specs.len());
    for spec in specs {
        let mut columns = spec.output_schema().columns().to_vec();
        columns.push(Column::new(LANE, DataType::Int));
        let schema = Schema::new(columns).ok()?;
        planning.insert(Table::new(spec.name(), schema.clone()));
        schemas.push(schema);
    }
    let mut lane_query = PreparedQuery::prepare(&lane_query, &planning).ok()?;
    lane_query.pin_invariant(&volatile);
    let lane = lane_query.schema().index_of(LANE).ok()?;
    (lane_query.schema().len() == 2).then_some(BundlePlan {
        schemas,
        query: lane_query,
        lane,
        value: 1 - lane,
    })
}

/// `query` with the lane carried from the stochastic table it scans up to
/// its output: every projection passes it on, every aggregate groups by it
/// first. `None` unless that path is filters, projections and aggregates
/// alone.
fn carry_lane(query: &Plan, stochastic: &[&str]) -> Option<Plan> {
    let carried = |input: &Plan| carry_lane(input, stochastic).map(Box::new);
    Some(match query {
        Plan::Scan { table } if stochastic.contains(&table.as_str()) => query.clone(),
        Plan::Filter { input, predicate } => Plan::Filter {
            input: carried(input)?,
            predicate: predicate.clone(),
        },
        Plan::Project { input, exprs } => Plan::Project {
            input: carried(input)?,
            exprs: exprs
                .iter()
                .cloned()
                .chain([(LANE.to_string(), Expr::col(LANE))])
                .collect(),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: carried(input)?,
            group_by: [LANE.to_string()]
                .into_iter()
                .chain(group_by.iter().cloned())
                .collect(),
            aggs: aggs.clone(),
        },
        Plan::Scan { .. }
        | Plan::Values { .. }
        | Plan::Join { .. }
        | Plan::Sort { .. }
        | Plan::Limit { .. } => return None,
    })
}

/// Realize a tuple bundle and answer it. Lane `k` is replicate
/// `att.boundary + k` on its attempt-0 streams; lanes are added until the
/// bundle holds [`BUNDLE_ROWS`] rows (or the spill threshold's worth, one
/// row a VG call) or `stop` says the next boundary is not to run. A bundle
/// of one lane would only cost more than the one-replicate path, so none is
/// built. Returns each lane's answer ([`lane_answers`]); `reached` counts
/// the lanes whose draws began.
fn realize_bundle(
    plan: &BundlePlan,
    specs: &[PreparedRandomTable],
    scratch: &mut Catalog,
    att: &Attempt<'_>,
    stop: &dyn Fn(u64) -> bool,
    reached: &mut u64,
) -> crate::Result<Vec<Option<f64>>> {
    let inputs = specs
        .iter()
        .map(|spec| {
            spec.kept_inputs(scratch)
                .expect("an eligible spec keeps its inputs")
        })
        .collect::<crate::Result<Vec<_>>>()?;
    // A lane's rows where every VG call emits one.
    let per_lane: usize = inputs.iter().map(|i| i.rows()).sum();
    let cap = BUNDLE_ROWS.min(scratch.spill_config().threshold_rows);
    let first = att.boundary;
    if per_lane == 0 || 2 * per_lane > cap || stop(first + 1) {
        return Ok(Vec::new());
    }
    let mut draws: Vec<Draws> = specs
        .iter()
        .zip(inputs)
        .map(|(spec, inputs)| Draws::new(spec, inputs))
        .collect();
    let mut rows = 0;
    for r in first.. {
        if r > first && (rows + per_lane > cap || stop(r)) {
            break;
        }
        *reached += 1;
        let streams = att.streams(r);
        for (k, spec) in draws.iter_mut().enumerate() {
            rows += spec.draw(&mut streams.stream(k as u64))?;
        }
    }
    for (spec, schema) in draws.into_iter().zip(&plan.schemas) {
        scratch.insert(spec.assemble(Some(schema))?);
    }
    let out = plan.query.execute(scratch)?;
    Ok(lane_answers(&out, plan, *reached as usize))
}

/// Each lane's answer in the lane-aware query's output: the value of its
/// one row as a sample, or `None` — no row, several, or a value that is no
/// sample — for the one-replicate path to answer (or refuse, in its own
/// words).
fn lane_answers(out: &Table, plan: &BundlePlan, lanes: usize) -> Vec<Option<f64>> {
    let batch = out.batch();
    let (tags, values) = (batch.column(plan.lane), batch.column(plan.value));
    let mut answers = vec![None; lanes];
    let mut rows = vec![0u32; lanes];
    for i in 0..batch.len() {
        let lane = tags.value(i).as_i64().expect("a lane number") as usize;
        rows[lane] += 1;
        answers[lane] = match values.value(i) {
            Value::Null => None,
            v => v.as_f64().ok(),
        };
    }
    for (answer, rows) in answers.iter_mut().zip(rows) {
        if rows != 1 {
            *answer = None;
        }
    }
    answers
}

/// One replicate, or one retry attempt of one, on the stream family
/// [`Attempt::streams`](mde_numeric::resilience::Attempt::streams) chose:
/// start from the base catalog's tables, realize every stochastic table
/// (spec `k` on `streams.stream(k)`), answer the query, read the answer as
/// the scalar sample. `scratch` is a copy of the base catalog that earlier
/// attempts have realized into; whatever they left under a spec's name is
/// either put back here (a shadowed base table) or replaced before anything
/// can read it (a plan can only name outputs of specs before it).
fn realize_and_query(
    prepared: &PreparedMc,
    scratch: &mut Catalog,
    streams: &StreamFactory,
) -> crate::Result<f64> {
    for base in &prepared.shadowed {
        scratch.insert_shared(Arc::clone(base));
    }
    for (k, spec) in prepared.specs.iter().enumerate() {
        let mut rng = streams.stream(k as u64);
        let t = spec.realize(scratch, &mut rng)?;
        scratch.insert(t);
    }
    let v = prepared.query.execute(scratch)?.scalar()?;
    if v.is_null() {
        // SQL aggregates over empty inputs yield NULL; represent as NaN?
        // No — surface it, the analyst must handle empty events.
        return Err(crate::McdbError::invalid_plan(
            "Monte Carlo query produced NULL; guard the aggregate with COUNT or COALESCE-style logic",
        ));
    }
    v.as_f64()
}

/// A supervised Monte Carlo run: the estimation result over the surviving
/// replicates plus the failure ledger, and — for durable campaigns — the
/// stop cause and final campaign state.
#[derive(Debug, Clone)]
pub struct McRun {
    /// The Monte Carlo sample (dropped replicates simply absent).
    pub result: McResult,
    /// Attempted/succeeded/retried/dropped counts and per-failure causes;
    /// [`RunReport::ci_widened`] is set whenever the estimate rests on
    /// fewer samples than requested.
    pub report: RunReport,
    /// Why the run stopped before completing all replicates, when it did
    /// (deadline expiry, cancellation, or an injected preemption); `None`
    /// for a run that completed.
    pub stopped: Option<StopCause>,
    /// The final campaign state — resume a stopped run by handing it back
    /// through [`RunOptions::resuming`] (it is also what
    /// [`CampaignState::load`] reads back from disk when a
    /// [`CheckpointSpec`](mde_numeric::CheckpointSpec) is attached).
    pub checkpoint: CampaignState,
}

/// The Monte Carlo sample of a query result, with estimation helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct McResult {
    samples: Vec<f64>,
    summary: Summary,
}

impl McResult {
    /// Wrap a sample vector.
    pub(crate) fn new(samples: Vec<f64>) -> Self {
        let summary = Summary::from_slice(&samples);
        McResult { samples, summary }
    }

    /// The raw samples, in iteration order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of Monte Carlo iterations.
    pub fn n(&self) -> usize {
        self.samples.len()
    }

    /// Sample mean — the MCDB estimate of the expected query result.
    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    /// Sample variance of the query result distribution.
    #[cfg(test)]
    fn variance(&self) -> f64 {
        self.summary.sample_variance()
    }

    /// Student-t confidence interval (`n − 1` degrees of freedom) for the
    /// expected query result.
    pub fn mean_ci(&self, level: f64) -> crate::Result<ConfidenceInterval> {
        Ok(mean_confidence_interval(&self.summary, level)?)
    }

    /// Empirical quantile of the query-result distribution — including the
    /// extreme quantiles MCDB-R targets for risk analysis (e.g. `p = 0.99`
    /// for value-at-risk).
    pub fn quantile(&self, p: f64) -> crate::Result<f64> {
        Ok(quantile(&self.samples, p)?)
    }

    /// Estimated `P(result > x)` with a Wilson confidence interval.
    pub fn prob_above(&self, x: f64, level: f64) -> crate::Result<ConfidenceInterval> {
        let successes = self.samples.iter().filter(|&&v| v > x).count() as u64;
        Ok(proportion_confidence_interval(
            successes,
            self.samples.len() as u64,
            level,
        )?)
    }

    /// Threshold decision: is `P(result > x) >= p_min`?
    ///
    /// Returns `Some(true)`/`Some(false)` when the Wilson interval at the
    /// given confidence level lies entirely on one side of `p_min`, and
    /// `None` when the evidence is inconclusive (more iterations needed) —
    /// the decision procedure behind "Which regions will see more than a 2%
    /// decline in sales with at least 50% probability?".
    pub fn threshold_decision(
        &self,
        x: f64,
        p_min: f64,
        level: f64,
    ) -> crate::Result<Option<bool>> {
        let ci = self.prob_above(x, level)?;
        Ok(if ci.lo >= p_min {
            Some(true)
        } else if ci.hi < p_min {
            Some(false)
        } else {
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::AggSpec;
    use crate::schema::DataType;
    use crate::table::Table;
    use crate::value::Value;
    use crate::vg::NormalVg;
    use mde_numeric::resilience::{FaultKind, RunPolicy};
    use mde_numeric::rng::StreamFactory;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn demand_catalog() -> Catalog {
        let mut db = Catalog::new();
        db.insert(
            Table::build("ITEMS", &[("IID", DataType::Int)])
                .rows((0..20).map(|i| vec![Value::from(i)]))
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
        db
    }

    fn revenue_query() -> MonteCarloQuery {
        // Total "revenue" = sum over 20 items of N(10, 2) draws; true mean
        // is 200, true std is 2*sqrt(20) ≈ 8.94.
        let spec = RandomTableSpec::builder("SALES")
            .for_each(Plan::scan("ITEMS"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_query(Plan::scan("PARAMS"))
            .select(&[("IID", Expr::col("IID")), ("AMT", Expr::col("VALUE"))])
            .build()
            .unwrap();
        let q = Plan::scan("SALES").aggregate(
            &[],
            vec![AggSpec::new(
                "TOTAL",
                crate::query::AggFunc::Sum,
                Expr::col("AMT"),
            )],
        );
        MonteCarloQuery::new(vec![spec], q)
    }

    #[test]
    fn a_replicate_never_builds_a_row_view_of_what_it_realizes_or_answers() {
        let db = demand_catalog();
        let task = revenue_query();
        let prepared = prepare_task(&task.specs, &task.query, &db).unwrap();
        let mut scratch = db.clone();
        let streams = StreamFactory::new(7).child(0);
        let views = Table::row_views_built();
        let v = realize_and_query(&prepared, &mut scratch, &streams).unwrap();
        // The stochastic table was assembled and scanned as columns, and
        // the 1×1 answer was read as a cell.
        let sales = scratch.get("SALES").unwrap();
        assert_eq!(sales.len(), 20);
        assert!(!sales.rows_materialized());
        let answer = prepared.query.execute(&scratch).unwrap();
        assert_eq!(answer.scalar().unwrap(), Value::from(v));
        assert!(!answer.rows_materialized());
        assert!(!scratch.get("ITEMS").unwrap().rows_materialized());
        assert!(!scratch.get("PARAMS").unwrap().rows_materialized());
        // Nor were the tables this test has no handle on — the driver
        // query's result and the parameter query's — or anything else.
        assert_eq!(Table::row_views_built(), views);
    }

    // ---- pinned sub-plans --------------------------------------------------

    const OLAP_N: usize = 8;
    const OLAP_SEED: u64 = 21;

    /// The benchmark's olap `MC` frame in small: `SHOCK` draws one factor
    /// per `DIM` row, the query joins it to the filtered `FACT`.
    fn olap_task() -> MonteCarloQuery {
        let shock = crate::sql::parse_create_random_table(
            "CREATE TABLE SHOCK(SK, S) AS FOR EACH DIM \
             WITH Normal(W, 0.25) SELECT DK AS SK, VALUE AS S",
            &crate::sql::VgRegistry::standard(),
        )
        .unwrap();
        let query = crate::sql::plan_from_sql(
            "SELECT SUM(V * S) AS X FROM FACT JOIN SHOCK ON K = SK WHERE Q < 300",
        )
        .unwrap();
        MonteCarloQuery::new(vec![shock], query)
    }

    fn olap_catalog() -> Catalog {
        let mut db = Catalog::new();
        db.insert(
            Table::build(
                "FACT",
                &[
                    ("K", DataType::Int),
                    ("V", DataType::Float),
                    ("Q", DataType::Int),
                    ("G", DataType::Str),
                ],
            )
            .rows((0..600i64).map(|i| {
                vec![
                    Value::from(i * 7 % 40),
                    Value::from(i as f64 * 0.5 - 100.0),
                    Value::from(i),
                    Value::from(["x", "y", "z"][i as usize % 3]),
                ]
            }))
            .finish()
            .unwrap(),
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
            .rows((0..40i64).map(|k| {
                vec![
                    Value::from(k),
                    Value::from(1.0 + k as f64 * 0.125),
                    Value::from(format!("dim-{k}").as_str()),
                ]
            }))
            .finish()
            .unwrap(),
        );
        db
    }

    /// A scratch directory holding `db`'s tables as 256-byte-page files,
    /// removed on drop.
    struct PagedTwin {
        dir: std::path::PathBuf,
        db: Catalog,
    }

    impl PagedTwin {
        fn new(tag: &str, db: &Catalog, frames: usize) -> PagedTwin {
            let dir = std::env::temp_dir().join(format!("mde_mc_{tag}_{}", std::process::id()));
            let db = db
                .to_paged(&dir, 256, crate::storage::BufferPool::new(frames))
                .unwrap();
            PagedTwin { dir, db }
        }

        fn store(&self, table: &str) -> &crate::storage::PagedStore {
            self.db.get(table).unwrap().paged_store().unwrap()
        }

        /// Pages read since the stores were opened, over both tables.
        fn reads(&self) -> u64 {
            self.store("FACT").logical_reads() + self.store("DIM").logical_reads()
        }

        /// Pages of the three `FACT` columns the olap query binds.
        fn fact_pages(&self) -> u64 {
            let schema = self.db.get("FACT").unwrap().schema();
            let bound = ["K", "V", "Q"].map(|c| schema.index_of(c).unwrap() as u32);
            let pages = self.store("FACT").directory().iter();
            pages.filter(|page| bound.contains(&page.column)).count() as u64
        }

        /// What one execution of the olap task's invariant part reads: the
        /// bound `FACT` columns, and every page of `DIM` (a driver's whole
        /// result is its output).
        fn pages_of_one_scan(&self) -> u64 {
            self.fact_pages() + self.store("DIM").n_pages() as u64
        }
    }

    impl Drop for PagedTwin {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    /// The olap task replicate by replicate over the public API, nothing
    /// prepared and so nothing pinned: replicate `i` realizes `SHOCK` on
    /// stream `k` of `streams(i)`, `k` being its place among the specs.
    fn olap_by_hand(db: &Catalog, k: u64, streams: impl Fn(u64) -> StreamFactory) -> Vec<u64> {
        let task = olap_task();
        (0..OLAP_N as u64)
            .map(|i| {
                let mut scratch = db.clone();
                let shock = task.specs[0].realize(&scratch, &mut streams(i).stream(k));
                scratch.insert(shock.unwrap());
                let answer = scratch.query(&task.query).unwrap().scalar().unwrap();
                answer.as_f64().unwrap().to_bits()
            })
            .collect()
    }

    /// Any task replicate by replicate over the public API, nothing pinned:
    /// replicate `i` realizes spec `k` on stream `k` of
    /// `StreamFactory::new(OLAP_SEED).child(i)`.
    fn by_hand(task: &MonteCarloQuery, db: &Catalog) -> Vec<u64> {
        (0..OLAP_N as u64)
            .map(|i| {
                let streams = StreamFactory::new(OLAP_SEED).child(i);
                let mut scratch = db.clone();
                for (k, spec) in task.specs.iter().enumerate() {
                    let t = spec.realize(&scratch, &mut streams.stream(k as u64));
                    scratch.insert(t.unwrap());
                }
                let answer = scratch.query(&task.query).unwrap().scalar().unwrap();
                answer.as_f64().unwrap().to_bits()
            })
            .collect()
    }

    /// The task's replicates through one prepared (pinned) plan, as a run
    /// executes them, and the probes its memoizing join ran.
    fn pinned_loop(task: &MonteCarloQuery, db: &Catalog) -> (Vec<u64>, Option<u64>) {
        let prepared = prepare_task(&task.specs, &task.query, db).unwrap();
        let mut scratch = db.clone();
        let samples = (0..OLAP_N as u64)
            .map(|i| {
                let streams = StreamFactory::new(OLAP_SEED).child(i);
                realize_and_query(&prepared, &mut scratch, &streams)
                    .unwrap()
                    .to_bits()
            })
            .collect();
        (samples, prepared.query.join_probes())
    }

    fn shock_task(ddl: &str) -> MonteCarloQuery {
        let registry = crate::sql::VgRegistry::standard();
        let mut specs = Vec::new();
        for stmt in ddl.split(';') {
            specs.push(crate::sql::parse_create_random_table(stmt, &registry).unwrap());
        }
        MonteCarloQuery::new(specs, olap_task().query)
    }

    #[test]
    fn a_join_to_a_pinned_input_probes_once_while_the_keys_repeat() {
        let db = olap_catalog();
        let by_hand = olap_by_hand(&db, 0, |i| StreamFactory::new(OLAP_SEED).child(i));
        // `SK` is the driver's `DK` in every replicate: one probe a run.
        assert_eq!(pinned_loop(&olap_task(), &db), (by_hand.clone(), Some(1)));
        let run = olap_task()
            .run_with_options(&db, OLAP_N, OLAP_SEED, &RunOptions::default())
            .unwrap();
        assert_eq!(bits(&run), by_hand);
    }

    #[test]
    fn a_join_key_drawn_by_the_vg_misses_every_replicate() {
        // The key is a Poisson draw: it changes from replicate to replicate,
        // so every replicate probes.
        let task = shock_task(
            "CREATE TABLE SHOCK(SK, S) AS FOR EACH DIM \
             WITH Poisson(W * 10) SELECT VALUE AS SK, W AS S",
        );
        let db = olap_catalog();
        let (samples, probes) = pinned_loop(&task, &db);
        assert_eq!(samples, by_hand(&task, &db));
        assert_eq!(probes, Some(OLAP_N as u64));
    }

    #[test]
    fn a_variable_cardinality_walk_misses_and_a_fixed_one_hits() {
        let db = olap_catalog();
        // The number of walk steps per `DIM` row is drawn in each
        // replicate, so the walk's rows — and its keys — differ: a miss
        // every replicate.
        let drawn = shock_task(
            "CREATE TABLE STEPS(DK, N, W) AS FOR EACH DIM \
             WITH Poisson(2) SELECT DK, VALUE AS N, W; \
             CREATE TABLE SHOCK(SK, S) AS FOR EACH STEPS \
             WITH BackwardWalk(W, 0.25, N) SELECT DK AS SK, PRICE AS S",
        );
        let (samples, probes) = pinned_loop(&drawn, &db);
        assert_eq!(samples, by_hand(&drawn, &db));
        assert_eq!(probes, Some(OLAP_N as u64));
        // Three steps per row in every replicate: the same keys, one probe.
        let fixed = shock_task(
            "CREATE TABLE SHOCK(SK, S) AS FOR EACH DIM \
             WITH BackwardWalk(W, 0.25, 3) SELECT DK AS SK, PRICE AS S",
        );
        let (samples, probes) = pinned_loop(&fixed, &db);
        assert_eq!(samples, by_hand(&fixed, &db));
        assert_eq!(probes, Some(1));
    }

    #[test]
    fn a_failed_first_probe_leaves_no_pair_list() {
        // The join spills every input, into a directory that is not there
        // yet: replicate 0's probe fails after the pinned `FACT` side is
        // filled.
        let dir = std::env::temp_dir().join(format!("mde_mc_memo_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut db = olap_catalog();
        db.set_spill_config(crate::storage::SpillConfig {
            threshold_rows: 0,
            partitions: 2,
            dir: Some(dir.clone()),
            ..crate::storage::SpillConfig::default()
        });
        let task = olap_task();
        let prepared = prepare_task(&task.specs, &task.query, &db).unwrap();
        let mut scratch = db.clone();
        let streams = |i: u64| StreamFactory::new(OLAP_SEED).child(i);
        let err = realize_and_query(&prepared, &mut scratch, &streams(0)).unwrap_err();
        assert!(err.to_string().contains("mde_mc_memo"), "{err}");
        assert_eq!(prepared.query.join_probes(), Some(0));
        // With the directory in place the same replicates answer as the
        // unpinned loop does, and only the first probes.
        std::fs::create_dir_all(&dir).unwrap();
        let samples: Vec<u64> = (0..OLAP_N as u64)
            .map(|i| {
                let v = realize_and_query(&prepared, &mut scratch, &streams(i));
                v.unwrap().to_bits()
            })
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(samples, olap_by_hand(&olap_catalog(), 0, streams));
        assert_eq!(prepared.query.join_probes(), Some(1));
    }

    fn bits(run: &McRun) -> Vec<u64> {
        run.result.samples().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn an_invariant_subplan_runs_exactly_once_per_run() {
        let twin = PagedTwin::new("once", &olap_catalog(), 64);
        let one_scan = twin.pages_of_one_scan();
        assert!(one_scan > 20, "the fixture spans {one_scan} pages");
        let before = twin.reads();
        let by_hand = olap_by_hand(&twin.db, 0, |i| StreamFactory::new(OLAP_SEED).child(i));
        assert_eq!(twin.reads() - before, OLAP_N as u64 * one_scan);
        let before = twin.reads();
        let run = olap_task()
            .run_with_options(&twin.db, OLAP_N, OLAP_SEED, &RunOptions::default())
            .unwrap();
        assert_eq!(twin.reads() - before, one_scan);
        assert_eq!(bits(&run), by_hand);
    }

    #[test]
    fn a_failed_fill_leaves_the_cell_empty() {
        use mde_numeric::resilience::{retry_seed, FailureKind, FaultPlan};
        let retry = RunPolicy::Retry {
            max_attempts: 3,
            reseed: true,
        };
        // Replicate 0 succeeds on its second attempt, on that attempt's
        // own streams.
        let streams = |i: u64| match i {
            0 => StreamFactory::new(retry_seed(OLAP_SEED, 0, 1)),
            i => StreamFactory::new(OLAP_SEED).child(i),
        };
        let by_hand = olap_by_hand(&olap_catalog(), 0, streams);

        // An injected error or panic ends attempt 0 before it reaches a
        // cell; attempt 1 fills them, once.
        let twin = PagedTwin::new("refill", &olap_catalog(), 64);
        for kind in [FaultKind::Error, FaultKind::Panic] {
            let before = twin.reads();
            let opts = RunOptions::policy(retry).with_faults(FaultPlan::new().fail_on(0, 0, kind));
            let run = olap_task()
                .run_with_options(&twin.db, OLAP_N, OLAP_SEED, &opts)
                .unwrap();
            assert_eq!(twin.reads() - before, twin.pages_of_one_scan());
            assert_eq!(bits(&run), by_hand, "{kind:?}");
            assert_eq!(
                run.report.failure_keys(),
                vec![(0, 0, kind.failure_kind().unwrap())]
            );
        }

        // A fill that fails half way. The pool has two frames and the test
        // pins both, so the driver's scan of `DIM` gets as far as its third
        // page and returns `PoolExhausted`; a stochastic table realized
        // before `SHOCK` lets go of the pins when it is realized the second
        // time — in attempt 1 of replicate 0.
        #[derive(Debug)]
        struct Gate {
            calls: AtomicU64,
            pins: std::sync::Mutex<Vec<Arc<Vec<u8>>>>,
        }
        impl crate::vg::VgFunction for Gate {
            fn name(&self) -> &str {
                "Gate"
            }
            fn output_schema(&self) -> crate::schema::Schema {
                crate::schema::Schema::from_pairs(&[("VALUE", DataType::Int)]).unwrap()
            }
            fn arity(&self) -> Option<usize> {
                Some(0)
            }
            fn generate(
                &self,
                _params: &[Value],
                _rng: &mut mde_numeric::rng::Rng,
            ) -> crate::Result<Vec<crate::table::Row>> {
                if self.calls.fetch_add(1, Ordering::SeqCst) == 1 {
                    self.pins.lock().unwrap().clear();
                }
                Ok(vec![vec![Value::from(1)]])
            }
        }
        let starved = PagedTwin::new("starved", &olap_catalog(), 2);
        let mut db = starved.db.clone();
        db.insert(
            Table::build("ONE", &[("I", DataType::Int)])
                .row(vec![Value::from(0)])
                .finish()
                .unwrap(),
        );
        let dim = starved.store("DIM");
        assert!(dim.n_pages() > 2);
        let gate = Arc::new(Gate {
            calls: AtomicU64::new(0),
            pins: std::sync::Mutex::new(vec![dim.read_page(0).unwrap(), dim.read_page(1).unwrap()]),
        });
        let gate_spec = RandomTableSpec::builder("GATE")
            .for_each(Plan::scan("ONE"))
            .with_vg(Arc::clone(&gate) as Arc<dyn crate::vg::VgFunction>)
            .select(&[("VALUE", Expr::col("VALUE"))])
            .build()
            .unwrap();
        let task = olap_task();
        let gated = MonteCarloQuery::new(vec![gate_spec, task.specs[0].clone()], task.query);
        // `SHOCK` is spec 1 here, so it draws from stream 1 of each family.
        let by_hand = olap_by_hand(&olap_catalog(), 1, streams);
        let before = starved.reads();
        let run = gated
            .run_with_options(&db, OLAP_N, OLAP_SEED, &RunOptions::policy(retry))
            .unwrap();
        assert_eq!(bits(&run), by_hand);
        assert_eq!(run.report.failure_keys(), vec![(0, 0, FailureKind::Error)]);
        assert!(
            run.report.failures[0].message.contains("buffer pool"),
            "{:?}",
            run.report.failures
        );
        assert_eq!(
            (
                run.report.attempted,
                run.report.succeeded,
                run.report.retried
            ),
            (OLAP_N, OLAP_N, 1)
        );
        // The failed fill stopped at the first page it could not get, its
        // third; the one that succeeded read everything once.
        assert_eq!(starved.reads() - before, 3 + starved.pages_of_one_scan());
        assert_eq!(gate.calls.load(Ordering::SeqCst), OLAP_N as u64 + 1);
    }

    // ---- tuple bundles -----------------------------------------------------

    /// `Wobbly(mode)` → one row `(X: Float, J: Int)` on one uniform draw `u`:
    /// `X = u`, `J` near `i64::MAX` when `u < 0.2` (else 1). Where
    /// `u < 0.05` mode 1 fails with a retryable error and mode 2 panics.
    /// Counts its calls.
    #[derive(Debug, Default)]
    struct Wobbly {
        calls: AtomicU64,
    }

    impl crate::vg::VgFunction for Wobbly {
        fn name(&self) -> &str {
            "Wobbly"
        }
        fn output_schema(&self) -> crate::schema::Schema {
            crate::schema::Schema::from_pairs(&[("X", DataType::Float), ("J", DataType::Int)])
                .unwrap()
        }
        fn arity(&self) -> Option<usize> {
            Some(1)
        }
        fn generate(
            &self,
            params: &[Value],
            rng: &mut mde_numeric::rng::Rng,
        ) -> crate::Result<Vec<crate::table::Row>> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let u: f64 = rng.gen();
            match (params[0].as_i64()?, u < 0.05) {
                (1, true) => Err(mde_numeric::NumericError::SingularMatrix {
                    context: "a wobbly draw",
                }
                .into()),
                (2, true) => panic!("a wobbly draw panicked"),
                _ => {
                    let j = if u < 0.2 { i64::MAX - 10 } else { 1 };
                    Ok(vec![vec![Value::from(u), Value::from(j)]])
                }
            }
        }
    }

    /// `ITEMS(IID, KIND, MU, SD, RATE)` of `n` rows.
    fn items_catalog(n: usize) -> Catalog {
        let mut db = Catalog::new();
        db.insert(
            Table::build(
                "ITEMS",
                &[
                    ("IID", DataType::Int),
                    ("KIND", DataType::Str),
                    ("MU", DataType::Float),
                    ("SD", DataType::Float),
                    ("RATE", DataType::Float),
                ],
            )
            .rows((0..n).map(|i| {
                vec![
                    Value::from(i as i64),
                    Value::from(["a", "b", "c"][i % 3]),
                    Value::from(10.0 + 1.5 * i as f64),
                    Value::from(0.5 + 0.75 * (i % 4) as f64),
                    Value::from(0.5 + i as f64),
                ]
            }))
            .finish()
            .unwrap(),
        );
        db
    }

    /// `SALES` (`Normal(MU, SD)` per item), `DEMAND` (`Poisson(RATE)`) and
    /// `WOBBLE` (`Wobbly(mode)`), each driven by `ITEMS` alone.
    fn item_specs(mode: i64, wobbly: &Arc<Wobbly>) -> Vec<RandomTableSpec> {
        let spec = |name: &str, vg: Arc<dyn crate::vg::VgFunction>, params: &[Expr]| {
            RandomTableSpec::builder(name)
                .for_each(Plan::scan("ITEMS"))
                .with_vg(vg)
                .vg_params_exprs(params)
        };
        vec![
            spec(
                "SALES",
                Arc::new(NormalVg),
                &[Expr::col("MU"), Expr::col("SD")],
            )
            .select(&[
                ("IID", Expr::col("IID")),
                ("KIND", Expr::col("KIND")),
                ("AMT", Expr::col("VALUE")),
            ])
            .build()
            .unwrap(),
            spec(
                "DEMAND",
                Arc::new(crate::vg::PoissonVg),
                &[Expr::col("RATE")],
            )
            .select(&[("IID", Expr::col("IID")), ("D", Expr::col("VALUE"))])
            .build()
            .unwrap(),
            spec("WOBBLE", wobbly.clone(), &[Expr::lit(mode)])
                .select(&[("X", Expr::col("X")), ("J", Expr::col("J"))])
                .build()
                .unwrap(),
        ]
    }

    fn sql(text: &str) -> Plan {
        crate::sql::plan_from_sql(text).unwrap()
    }

    /// Queries a bundle answers: every aggregate, filters that leave some
    /// replicates without a row, nested aggregates, projections over and
    /// under aggregates, one group of a group-by, an `Int` sum that
    /// overflows in some replicates.
    fn bundled_plans() -> Vec<Plan> {
        let sum = |name: &str, col: &str| {
            vec![AggSpec::new(
                name,
                crate::query::AggFunc::Sum,
                Expr::col(col),
            )]
        };
        vec![
            sql("SELECT SUM(AMT) AS S FROM SALES"),
            sql("SELECT COUNT(*) AS N FROM SALES WHERE AMT > 16"),
            sql("SELECT AVG(AMT) AS A FROM SALES WHERE AMT > 16"),
            sql("SELECT MIN(D) AS M FROM DEMAND WHERE D > 2"),
            sql("SELECT MAX(AMT) AS M FROM SALES WHERE KIND <> 'b'"),
            Plan::scan("SALES")
                .aggregate(&["KIND"], sum("T", "AMT"))
                .aggregate(
                    &[],
                    vec![AggSpec::new(
                        "M",
                        crate::query::AggFunc::Max,
                        Expr::col("T"),
                    )],
                ),
            Plan::scan("DEMAND")
                .aggregate(&[], sum("S", "D"))
                .project(&[("X", Expr::col("S").mul(Expr::lit(2)).add(Expr::lit(1)))]),
            Plan::scan("SALES")
                .project(&[("T", Expr::col("AMT").mul(Expr::lit(1.2)))])
                .filter(Expr::col("T").lt(Expr::lit(20.0)))
                .aggregate(&[], sum("S", "T")),
            Plan::scan("SALES")
                .aggregate(&["KIND"], sum("T", "AMT"))
                .filter(Expr::col("KIND").eq(Expr::lit("a")))
                .project(&[("T", Expr::col("T"))]),
            sql("SELECT SUM(X) AS S FROM WOBBLE"),
            sql("SELECT SUM(J) AS S FROM WOBBLE"),
        ]
    }

    /// Queries a bundle leaves to the one-replicate path: a join, a top-k,
    /// a query that reads no stochastic table.
    fn unbundled_plans() -> Vec<Plan> {
        let sum = vec![AggSpec::new(
            "S",
            crate::query::AggFunc::Sum,
            Expr::col("AMT"),
        )];
        vec![
            Plan::scan("SALES")
                .join(Plan::scan("DEMAND"), &[("IID", "IID")])
                .aggregate(&[], sum.clone()),
            Plan::scan("SALES")
                .sort(vec![crate::query::SortKey::desc(Expr::col("AMT"))])
                .limit(3)
                .aggregate(&[], sum),
            sql("SELECT COUNT(*) AS N FROM ITEMS"),
        ]
    }

    /// Replicate `i` by hand over the public API: realize spec `k` on
    /// `StreamFactory::new(seed).child(i).stream(k)`, run the query — its
    /// sample's bits, or what refused it.
    fn hand_loop(
        task: &MonteCarloQuery,
        db: &Catalog,
        n: u64,
        seed: u64,
    ) -> Vec<Result<u64, String>> {
        (0..n)
            .map(|i| {
                let streams = StreamFactory::new(seed).child(i);
                let answer = catch_panic(|| {
                    let mut scratch = db.clone();
                    for (k, spec) in task.specs.iter().enumerate() {
                        scratch.insert(spec.realize(&scratch, &mut streams.stream(k as u64))?);
                    }
                    scratch.query(&task.query)?.scalar()
                });
                match answer {
                    Err(panic) => Err(panic),
                    Ok(Err(e)) => Err(e.to_string()),
                    Ok(Ok(Value::Null)) => Err("produced NULL".into()),
                    Ok(Ok(v)) => Ok(v.as_f64().unwrap().to_bits()),
                }
            })
            .collect()
    }

    /// Run `task` under fail-fast and best-effort and hold both to the hand
    /// loop; returns the lanes the best-effort run's bundles answered.
    fn check_against_hand_loop(task: &MonteCarloQuery, db: &Catalog, n: u64, seed: u64) -> u64 {
        let by_hand = hand_loop(task, db, n, seed);
        let what = format!("{:?}", task.query);
        // Fail-fast: every sample, or the first replicate's refusal.
        let run = task.run_with_options(db, n as usize, seed, &RunOptions::default());
        match (by_hand.iter().find_map(|r| r.as_ref().err()), run) {
            (None, Ok(run)) => {
                let want: Vec<u64> = by_hand.iter().map(|r| *r.as_ref().unwrap()).collect();
                assert_eq!(bits(&run), want, "{what}");
            }
            (Some(refusal), Err(e)) => assert!(e.to_string().contains(refusal), "{what}: {e}"),
            (want, got) => panic!("{what}: by hand {want:?}, run {:?}", got.map(|r| bits(&r))),
        }
        // Best effort: the same samples, and each retryable failure on its
        // own boundary with its own text.
        let opts = RunOptions::policy(RunPolicy::BestEffort { min_fraction: 0.0 });
        match task.run_with_options(db, n as usize, seed, &opts) {
            Ok(run) => {
                let kept: Vec<u64> = by_hand.iter().filter_map(|r| r.clone().ok()).collect();
                assert_eq!(bits(&run), kept, "{what}");
                let failed: Vec<(u64, &String)> = by_hand
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| r.as_ref().err().map(|e| (i as u64, e)))
                    .collect();
                assert_eq!(run.report.failures.len(), failed.len(), "{what}");
                for (f, (i, e)) in run.report.failures.iter().zip(failed) {
                    assert_eq!((f.replicate, f.attempt), (i, 0), "{what}");
                    assert!(f.message.contains(e.as_str()), "{what}: {}", f.message);
                }
                let metrics = &run.report.metrics;
                let lanes = metrics.io_counter("mc.bundled");
                assert_eq!(lanes + metrics.io_counter("mc.unbundled"), n, "{what}");
                lanes
            }
            // A fatal refusal aborts best effort too.
            Err(e) => {
                let e = e.to_string();
                let mut refusals = by_hand.iter().filter_map(|r| r.as_ref().err());
                assert!(refusals.any(|r| e.contains(r.as_str())), "{what}: {e}");
                0
            }
        }
    }

    #[test]
    fn bundled_run_equals_the_plan_per_replicate_loop() {
        let mut bundled = [0u64; 11];
        mde_numeric::rng::for_cases(12, |rng| {
            let items = rng.gen_range(1usize..9);
            let n = rng.gen_range(1u64..40);
            let seed = rng.gen_range(0u64..1000);
            let mode = rng.gen_range(0i64..3);
            let db = items_catalog(items);
            let wobbly = Arc::new(Wobbly::default());
            for (plan, lanes) in bundled_plans().into_iter().zip(&mut bundled) {
                let task = MonteCarloQuery::new(item_specs(mode, &wobbly), plan);
                *lanes += check_against_hand_loop(&task, &db, n, seed);
            }
            for plan in unbundled_plans() {
                let task = MonteCarloQuery::new(item_specs(mode, &wobbly), plan);
                assert_eq!(check_against_hand_loop(&task, &db, n, seed), 0);
            }
        });
        // Every eligible query had lanes answered by bundles.
        assert!(bundled.iter().all(|&lanes| lanes > 0), "{bundled:?}");
    }

    #[test]
    fn a_stochastic_driver_or_a_shadowed_table_takes_the_one_replicate_path() {
        let db = items_catalog(5);
        let wobbly = Arc::new(Wobbly::default());
        let mut specs = item_specs(0, &wobbly);
        // `WALK` is driven by `SALES`.
        specs.push(
            crate::sql::parse_create_random_table(
                "CREATE TABLE WALK(IID, P) AS FOR EACH SALES \
                 WITH BackwardWalk(AMT, 2.0, 2) SELECT IID, PRICE AS P",
                &crate::sql::VgRegistry::standard(),
            )
            .unwrap(),
        );
        let walk = MonteCarloQuery::new(specs, sql("SELECT SUM(AMT) AS S FROM SALES"));
        assert_eq!(check_against_hand_loop(&walk, &db, 12, 3), 0);
        // `ITEMS` is shadowed by a perturbed copy of itself.
        let mut specs = item_specs(0, &wobbly);
        specs.insert(
            0,
            crate::sql::parse_create_random_table(
                "CREATE TABLE ITEMS(IID, KIND, MU, SD, RATE) AS FOR EACH ITEMS \
                 WITH Normal(MU, 1.0) SELECT IID, KIND, VALUE AS MU, SD, RATE",
                &crate::sql::VgRegistry::standard(),
            )
            .unwrap(),
        );
        let shadowed = MonteCarloQuery::new(specs, sql("SELECT SUM(AMT) AS S FROM SALES"));
        assert_eq!(check_against_hand_loop(&shadowed, &db, 12, 3), 0);
    }

    #[test]
    fn a_bundle_splits_at_its_row_cap_and_stays_under_the_spill_threshold() {
        let wobbly = Arc::new(Wobbly::default());
        let task = || MonteCarloQuery::new(item_specs(0, &wobbly), bundled_plans().remove(0));
        let bundles = |run: &McRun| run.report.metrics.duration("mc.bundle").unwrap().count();
        // Three specs of 500 rows: two lanes a bundle, and the last
        // replicate alone on the one-replicate path.
        let db = items_catalog(500);
        assert_eq!(check_against_hand_loop(&task(), &db, 7, 11), 6);
        // A spill threshold of 40 rows holds three lanes of 4 items by 3
        // specs. A spill would fail on the missing directory and leave the
        // lanes to the one-replicate path.
        let mut db = items_catalog(4);
        let dir = std::env::temp_dir().join(format!("mde_mc_nowhere_{}", std::process::id()));
        db.set_spill_config(crate::storage::SpillConfig {
            threshold_rows: 40,
            dir: Some(dir.join("missing")),
            ..crate::storage::SpillConfig::default()
        });
        assert_eq!(check_against_hand_loop(&task(), &db, 10, 11), 9);
        let run = task().run_with_options(&db, 10, 11, &RunOptions::default());
        assert_eq!(bundles(&run.unwrap()), 3);
        // Below two lanes' rows there is no bundle at all.
        db.set_spill_config(crate::storage::SpillConfig {
            threshold_rows: 23,
            ..crate::storage::SpillConfig::default()
        });
        assert_eq!(check_against_hand_loop(&task(), &db, 10, 11), 0);
    }

    #[test]
    fn a_bundle_stops_before_a_preempted_boundary() {
        use mde_numeric::resilience::FaultPlan;
        let db = items_catalog(3);
        let wobbly = Arc::new(Wobbly::default());
        let task = MonteCarloQuery::new(item_specs(0, &wobbly), bundled_plans().remove(8));
        let opts = RunOptions::default().with_faults(FaultPlan::new().preempt_at(5));
        let partial = task.run_with_options(&db, 20, 5, &opts).unwrap();
        assert_eq!(partial.stopped, Some(StopCause::Preempted));
        assert_eq!(partial.report.metrics.io_counter("mc.bundled"), 5);
        // Five replicates of three items: no draw for a replicate that
        // never ran.
        assert_eq!(wobbly.calls.load(Ordering::SeqCst), 15);
        let resumed = task
            .run_with_options(
                &db,
                20,
                5,
                &RunOptions::default().resuming(partial.checkpoint),
            )
            .unwrap();
        let clean = task.run(&db, 20, 5).unwrap();
        assert_eq!(resumed.result.samples(), clean.samples());
    }

    #[test]
    fn a_bundled_run_never_builds_a_row_view() {
        let db = items_catalog(6);
        let wobbly = Arc::new(Wobbly::default());
        let views = Table::row_views_built();
        for plan in bundled_plans() {
            let task = MonteCarloQuery::new(item_specs(0, &wobbly), plan);
            let run = task.run_with_options(&db, 16, 9, &RunOptions::default());
            if let Ok(run) = run {
                assert!(run.report.metrics.io_counter("mc.bundled") > 0);
            }
        }
        assert_eq!(Table::row_views_built(), views);
    }

    #[test]
    fn plain_prepare_never_pins() {
        let twin = PagedTwin::new("plain", &olap_catalog(), 64);
        let task = olap_task();
        let mut db = twin.db.clone();
        let shock = task.specs[0]
            .realize(&db, &mut StreamFactory::new(1).stream(0))
            .unwrap();
        db.insert(shock);
        let prepared = PreparedQuery::prepare(&task.query, &db).unwrap();
        for _ in 0..3 {
            let before = twin.store("FACT").logical_reads();
            prepared.execute(&db).unwrap();
            assert_eq!(
                twin.store("FACT").logical_reads() - before,
                twin.fact_pages()
            );
        }
        // Every execution runs its scans, so every execution checks them.
        db.insert(
            Table::build("FACT", &[("K", DataType::Int)])
                .finish()
                .unwrap(),
        );
        let err = prepared.execute(&db).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
    }

    /// MCDB's interval at the replicate counts this system runs: over 13
    /// master seeds derived from `chaos_seed()`, the 95 % interval for the
    /// mean of `N(200, 80)` totals covers 200 at its nominal rate inside a
    /// binomial 4σ band, at n = 16 (1 000 runs a seed) and at n = 256 (100
    /// runs a seed). The normal critical value covers ≈ 93 % at n = 16,
    /// ten bands short.
    #[test]
    fn mean_interval_covers_at_its_level_at_small_and_large_n() {
        const LEVEL: f64 = 0.95;
        let db = demand_catalog();
        let query = revenue_query();
        let masters = StreamFactory::new(mde_numeric::rng::chaos_seed());
        for (n, runs_per_seed) in [(16, 1_000), (256, 100)] {
            let mut covered = 0u64;
            for master in 0..13 {
                let seeds = StreamFactory::new(masters.seed_of(master));
                for run in 0..runs_per_seed {
                    let res = query.run(&db, n, seeds.seed_of(run)).unwrap();
                    covered += u64::from(res.mean_ci(LEVEL).unwrap().contains(200.0));
                }
            }
            let runs = 13 * runs_per_seed;
            let coverage = covered as f64 / runs as f64;
            let band = 4.0 * (LEVEL * (1.0 - LEVEL) / runs as f64).sqrt();
            assert!(
                (coverage - LEVEL).abs() <= band,
                "n = {n}: the {LEVEL} interval covered in {coverage} of {runs} runs (band ±{band:.4})"
            );
        }
    }

    /// The estimator's claims hold for the generator, not for one seed:
    /// over 400 independent runs of 100 replicates (seeds derived from
    /// `chaos_seed()`), the t interval for the mean covers the
    /// truth at its nominal rate — at both 0.90 and 0.99, inside a binomial
    /// 4σ band, `4·√(p(1−p)/400)` — and the pooled mean and variance sit
    /// within 5 standard errors of 200 and 80 (the total is exactly
    /// `N(200, 80)`, so `s²` has s.e. `σ²·√(2/ν)`).
    #[test]
    fn estimates_query_result_distribution() {
        const LEVELS: [f64; 2] = [0.90, 0.99];
        let (runs, n) = (400, 100);
        let db = demand_catalog();
        let query = revenue_query();
        let seeds = StreamFactory::new(mde_numeric::rng::chaos_seed());
        let mut covered = [0.0; 2];
        let (mut mean, mut variance) = (0.0, 0.0);
        for run in 0..runs {
            let res = query.run(&db, n, seeds.seed_of(run)).unwrap();
            assert_eq!(res.n(), n);
            mean += res.mean() / runs as f64;
            variance += res.variance() / runs as f64;
            for (hits, level) in covered.iter_mut().zip(LEVELS) {
                if res.mean_ci(level).unwrap().contains(200.0) {
                    *hits += 1.0;
                }
            }
        }
        for (hits, level) in covered.into_iter().zip(LEVELS) {
            let coverage = hits / runs as f64;
            let band = 4.0 * (level * (1.0 - level) / runs as f64).sqrt();
            assert!(
                (coverage - level).abs() <= band,
                "{level} interval covered the truth in {coverage} of runs (band ±{band:.3})"
            );
        }
        let draws = (runs as usize * n) as f64;
        let se_mean = (80.0 / draws).sqrt();
        assert!((mean - 200.0).abs() < 5.0 * se_mean, "pooled mean {mean}");
        let se_variance = 80.0 * (2.0 / (draws - runs as f64)).sqrt();
        assert!(
            (variance - 80.0).abs() < 5.0 * se_variance,
            "pooled variance {variance}"
        );
    }

    #[test]
    fn quantiles_and_risk() {
        let db = demand_catalog();
        let res = revenue_query().run(&db, 1000, 8).unwrap();
        let q50 = res.quantile(0.5).unwrap();
        let q99 = res.quantile(0.99).unwrap();
        assert!((q50 - 200.0).abs() < 2.0);
        // 99% quantile of N(200, 8.94) ≈ 200 + 2.33*8.94 ≈ 220.8.
        assert!((q99 - 220.8).abs() < 5.0, "q99 = {q99}");
        assert!(q99 > q50);
    }

    #[test]
    fn threshold_queries() {
        let db = demand_catalog();
        let res = revenue_query().run(&db, 400, 9).unwrap();
        // P(total > 150) is essentially 1.
        assert_eq!(
            res.threshold_decision(150.0, 0.5, 0.95).unwrap(),
            Some(true)
        );
        // P(total > 250) is essentially 0.
        assert_eq!(
            res.threshold_decision(250.0, 0.5, 0.95).unwrap(),
            Some(false)
        );
        // The decision is always consistent with the Wilson interval.
        let ci = res.prob_above(200.0, 0.95).unwrap();
        let decision = res.threshold_decision(200.0, 0.5, 0.95).unwrap();
        match decision {
            Some(true) => assert!(ci.lo >= 0.5),
            Some(false) => assert!(ci.hi < 0.5),
            None => assert!(ci.contains(0.5)),
        }

        // A deterministic inconclusive case: 50/100 successes straddles 0.5.
        let balanced = McResult::new(
            (0..100)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        );
        assert_eq!(balanced.threshold_decision(0.0, 0.5, 0.95).unwrap(), None);
    }

    #[test]
    fn non_scalar_query_rejected() {
        let db = demand_catalog();
        let spec = revenue_query();
        let bad = MonteCarloQuery::new(
            vec![spec.specs[0].clone()],
            Plan::scan("SALES"), // multi-row, multi-column
        );
        assert!(bad.run(&db, 2, 1).is_err());
    }

    /// Two regions with demand means 100 and 80, one row each per
    /// realization.
    fn regions_task(query: Plan) -> (Catalog, MonteCarloQuery) {
        let mut db = Catalog::new();
        db.insert(
            Table::build(
                "REGIONS",
                &[("NAME", DataType::Str), ("MEAN", DataType::Float)],
            )
            .row(vec![Value::from("east"), Value::from(100.0)])
            .row(vec![Value::from("west"), Value::from(80.0)])
            .finish()
            .unwrap(),
        );
        let spec = RandomTableSpec::builder("SALES")
            .for_each(Plan::scan("REGIONS"))
            .with_vg(std::sync::Arc::new(crate::vg::NormalVg))
            .vg_params_exprs(&[Expr::col("MEAN"), Expr::lit(5.0)])
            .select(&[("REGION", Expr::col("NAME")), ("AMT", Expr::col("VALUE"))])
            .build()
            .unwrap();
        (db, MonteCarloQuery::new(vec![spec], query))
    }

    /// The per-region query of a grouped one: its `REGION` rows filtered to
    /// one region, that region's `TOTAL` projected.
    fn one_region(grouped: Plan, region: &str) -> Plan {
        grouped
            .filter(Expr::col("REGION").eq(Expr::lit(region)))
            .project(&[("TOTAL", Expr::col("TOTAL"))])
    }

    #[test]
    fn grouped_query_answers_the_which_regions_question() {
        // Ask which region will fall below a sales threshold with >= 50%
        // probability, one run per region on the same seed. `TOTAL` is the
        // negated sales, so "below 90" is `TOTAL > -90`.
        let grouped = Plan::scan("SALES").aggregate(
            &["REGION"],
            vec![AggSpec::new(
                "TOTAL",
                crate::query::AggFunc::Sum,
                Expr::col("AMT").neg(),
            )],
        );
        let run = |region: &str| {
            let (db, task) = regions_task(one_region(grouped.clone(), region));
            task.run(&db, 300, 5).unwrap()
        };
        let (east, west) = (run("east"), run("west"));
        // East ~ N(100, 5), west ~ N(80, 5): below 90 is a near-certain NO
        // for east, YES for west.
        assert_eq!(
            east.threshold_decision(-90.0, 0.5, 0.95).unwrap(),
            Some(false)
        );
        assert_eq!(
            west.threshold_decision(-90.0, 0.5, 0.95).unwrap(),
            Some(true)
        );
        // Per-region results are real MC samples.
        assert_eq!(east.n(), 300);
        assert!((east.mean() + 100.0).abs() < 2.0);
    }

    #[test]
    fn grouped_query_refuses_a_realization_that_repeats_a_group() {
        // Two rows per realization, both keyed `east`: the region's run
        // sees two answer rows, and refuses them rather than averaging.
        let repeated = Plan::scan("SALES")
            .project(&[("REGION", Expr::lit("east")), ("TOTAL", Expr::col("AMT"))]);
        let (db, task) = regions_task(one_region(repeated, "east"));
        match task.run(&db, 10, 5) {
            Err(crate::McdbError::NonScalarResult { rows: 2, cols: 1 }) => {}
            other => panic!("expected a non-scalar refusal, got {other:?}"),
        }
    }

    #[test]
    fn supervised_fail_fast_matches_legacy_run() {
        let db = demand_catalog();
        let q = revenue_query();
        let legacy = q.run(&db, 64, 13).unwrap();
        let supervised = q
            .run_with_options(&db, 64, 13, &RunOptions::default())
            .unwrap();
        assert_eq!(legacy.samples(), supervised.result.samples());
        assert_eq!(supervised.report.attempted, 64);
        assert_eq!(supervised.report.succeeded, 64);
        assert_eq!(supervised.report.retried, 0);
        assert_eq!(supervised.report.dropped, 0);
        assert!(!supervised.report.ci_widened);
        assert!(supervised.report.failures.is_empty());
    }

    #[test]
    fn injected_panic_is_contained_and_retried() {
        use mde_numeric::resilience::FaultPlan;
        let db = demand_catalog();
        let q = revenue_query();
        let opts = RunOptions::policy(RunPolicy::Retry {
            max_attempts: 3,
            reseed: true,
        })
        .with_faults(FaultPlan::new().fail_on(5, 0, FaultKind::Panic));
        let run = q.run_with_options(&db, 32, 13, &opts).unwrap();
        assert_eq!(run.result.n(), 32, "retried replicate still contributes");
        assert_eq!(run.report.retried, 1);
        assert_eq!(run.report.dropped, 0);
        assert_eq!(
            run.report.failure_keys(),
            vec![(5, 0, mde_numeric::resilience::FailureKind::Panic)]
        );
        // The retried sample differs from the unfaulted one (fresh
        // sub-seed), everything else is untouched.
        let clean = q.run(&db, 32, 13).unwrap();
        for (i, (a, b)) in clean.samples().iter().zip(run.result.samples()).enumerate() {
            if i == 5 {
                assert_ne!(a, b);
            } else {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn retry_recovery_is_reproducible() {
        use mde_numeric::resilience::FaultPlan;
        let db = demand_catalog();
        let q = revenue_query();
        let opts = RunOptions::policy(RunPolicy::Retry {
            max_attempts: 2,
            reseed: true,
        })
        .with_faults(FaultPlan::new().fail_on(2, 0, FaultKind::Panic).fail_on(
            9,
            0,
            FaultKind::Nan,
        ));
        let first = q.run_with_options(&db, 24, 17, &opts).unwrap();
        let again = q.run_with_options(&db, 24, 17, &opts).unwrap();
        assert_eq!(first.result.samples(), again.result.samples());
        assert_eq!(first.report, again.report);
    }

    #[test]
    fn best_effort_ledger_matches_fault_plan() {
        use mde_numeric::resilience::FaultPlan;
        let db = demand_catalog();
        let q = revenue_query();
        let policy = RunPolicy::BestEffort { min_fraction: 0.8 };
        let plan = FaultPlan::new()
            .fail_on(1, 0, FaultKind::Nan)
            .fail_on(7, 0, FaultKind::Panic)
            .fail_on(11, 0, FaultKind::Error);
        let opts = RunOptions::policy(policy).with_faults(plan.clone());
        let run = q.run_with_options(&db, 20, 3, &opts).unwrap();
        assert_eq!(run.result.n(), 17);
        assert_eq!(run.report.dropped, 3);
        assert!(run.report.ci_widened);
        assert_eq!(
            run.report.failure_keys(),
            plan.expected_failure_keys(&policy)
        );
        // Degrading below the floor is a typed error.
        let strict =
            RunOptions::policy(RunPolicy::BestEffort { min_fraction: 0.95 }).with_faults(plan);
        match q.run_with_options(&db, 20, 3, &strict) {
            Err(crate::McdbError::TooManyFailures {
                succeeded,
                attempted,
                required,
            }) => {
                assert_eq!((succeeded, attempted, required), (17, 20, 19));
            }
            other => panic!("expected TooManyFailures, got {other:?}"),
        }
    }

    #[test]
    fn fatal_errors_abort_under_every_policy() {
        // A structurally broken query (unknown table) must abort even
        // under the most forgiving policies — retrying cannot help.
        let db = demand_catalog();
        let q = MonteCarloQuery::new(vec![], Plan::scan("NO_SUCH_TABLE"));
        for policy in [
            RunPolicy::FailFast,
            RunPolicy::Retry {
                max_attempts: 5,
                reseed: true,
            },
            RunPolicy::BestEffort { min_fraction: 0.0 },
        ] {
            match q.run_with_options(&db, 4, 1, &RunOptions::policy(policy)) {
                Err(crate::McdbError::UnknownTable { name }) => {
                    assert_eq!(name, "NO_SUCH_TABLE")
                }
                other => panic!("expected UnknownTable under {policy:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn preempted_run_resumes_bit_identically() {
        use mde_numeric::resilience::FaultPlan;
        let db = demand_catalog();
        let q = revenue_query();
        let clean = q
            .run_with_options(&db, 24, 13, &RunOptions::default())
            .unwrap();
        assert!(clean.stopped.is_none());
        // Preempt at replicate 9, then resume with a clean plan.
        let opts = RunOptions::default().with_faults(FaultPlan::new().preempt_at(9));
        let partial = q.run_with_options(&db, 24, 13, &opts).unwrap();
        assert_eq!(partial.stopped, Some(StopCause::Preempted));
        assert_eq!(partial.result.n(), 9);
        assert_eq!(partial.result.samples(), &clean.result.samples()[..9]);
        let state = partial.checkpoint;
        assert_eq!(state.cursor, 9);
        let resume = RunOptions::default().resuming(state);
        let resumed = q.run_with_options(&db, 24, 13, &resume).unwrap();
        assert!(resumed.stopped.is_none());
        assert_eq!(resumed.result.samples(), clean.result.samples());
        assert_eq!(resumed.report, clean.report);
        // Resuming under a different (seed, n) is refused with a typed
        // error, never a silent wrong resume.
        match q.run_with_options(&db, 24, 14, &resume) {
            Err(crate::McdbError::Checkpoint(mde_numeric::CheckpointError::Mismatch {
                field,
                ..
            })) => assert_eq!(field, "fingerprint"),
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_returns_partial_run_not_error() {
        use mde_numeric::Deadline;
        let db = demand_catalog();
        let q = revenue_query();
        let opts = RunOptions::default().with_deadline(Deadline::at(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        ));
        let run = q.run_with_options(&db, 16, 5, &opts).unwrap();
        assert_eq!(run.stopped, Some(StopCause::Deadline));
        assert_eq!(run.result.n(), 0);
        let state = run.checkpoint;
        assert_eq!(state.cursor, 0);
        // The partial state resumes to the full run.
        let resumed = q
            .run_with_options(&db, 16, 5, &RunOptions::default().resuming(state))
            .unwrap();
        let clean = q.run(&db, 16, 5).unwrap();
        assert_eq!(resumed.result.samples(), clean.samples());
    }

    #[test]
    fn mc_result_on_known_samples() {
        let r = McResult::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(r.mean(), 3.0);
        assert_eq!(r.quantile(0.5).unwrap(), 3.0);
        let ci = r.prob_above(2.5, 0.95).unwrap();
        assert!((ci.estimate - 0.6).abs() < 1e-12);
    }
}
