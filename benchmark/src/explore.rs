//! The two library-driven workloads, `explore_cold` and `explore_warm`: a
//! GenIE-style exploration loop. An op is one campaign — GP screening of
//! eight factors, kriging calibration of the top two, then what-if Monte
//! Carlo queries at the calibrated point — and every objective evaluation is
//! itself a small `MonteCarloQuery`. A pass is a fleet of campaigns sharing
//! one on-disk `MDECACHE1` result cache: empty at the start of every cold
//! pass, reopened from the populated file at the start of every warm pass.

use crate::harness::{self, Args, Limit, Outcome};
use crate::spec::*;
use crate::stats;
use crate::trace::{self, Recorder};
use mde_calibrate::kriging_cal::{
    kriging_calibrate_cached, kriging_calibrate_with, KrigingCalConfig,
};
use mde_calibrate::optim::Bounds;
use mde_mcdb::mc::MonteCarloQuery;
use mde_mcdb::prelude::*;
use mde_mcdb::query::AggSpec;
use mde_mcdb::vg::NormalVg;
use mde_mcdb::RunOptions;
use mde_metamodel::design::nolh;
use mde_metamodel::gp::{GpConfig, GpModel};
use mde_metamodel::response::FnResponse;
use mde_metamodel::screening::gp_screening_cached;
use mde_numeric::cache::{CacheEntry, CacheHandle, CacheKey, ObjectiveScope, DEFAULT_MAX_BYTES};
use mde_numeric::linalg::{Cholesky, Matrix};
use mde_numeric::obs::RunMetrics;
use mde_numeric::rng::{rng_from_seed, splitmix64, Rng};
use std::cell::Cell;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Identity of the objective in the result cache: everything that shapes
/// its bits and is not in the parameter point.
const SPEC_FINGERPRINT: u64 =
    0xE7_910E_0000 ^ ((EXPLORE_OBJECTIVE_N as u64) << 8) ^ ((EXPLORE_ITEMS as u64) << 16);

/// The value the calibration steers the simulated total toward.
const TARGET_TOTAL: f64 = 172.0;

fn kriging_cfg() -> KrigingCalConfig {
    KrigingCalConfig {
        design_runs: EXPLORE_DESIGN_RUNS,
        infill_rounds: EXPLORE_INFILL_ROUNDS,
        reps_per_point: EXPLORE_REPS,
        nolh_tries: 50,
        refit_every: 2,
    }
}

/// The data the simulation model ranges over.
fn items_catalog() -> Catalog {
    let mut db = Catalog::new();
    db.insert(
        Table::build("ITEMS", &[("IID", DataType::Int)])
            .rows((0..EXPLORE_ITEMS).map(|i| vec![Value::from(i)]))
            .finish()
            .expect("ITEMS table"),
    );
    db
}

/// The simulation model at parameter point `x`: per-item demand is Normal
/// with a mean and spread that depend on the eight factors (two strongly,
/// the rest weakly); the response is the simulated total.
fn model_at(x: &[f64]) -> MonteCarloQuery {
    let mean = 10.0 + 3.0 * x[0] + 2.0 * x[3] + 0.1 * (x[1] + x[2] + x[4] + x[5] + x[6] + x[7]);
    let std = 2.0 + 0.5 * x[3].abs();
    let spec = RandomTableSpec::builder("SALES")
        .for_each(Plan::scan("ITEMS"))
        .with_vg(Arc::new(NormalVg))
        .vg_params_exprs(&[Expr::lit(mean), Expr::lit(std)])
        .select(&[("IID", Expr::col("IID")), ("AMT", Expr::col("VALUE"))])
        .build()
        .expect("stochastic table spec");
    let total = Plan::scan("SALES").aggregate(
        &[],
        vec![AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("AMT"))],
    );
    MonteCarloQuery::new(vec![spec], total)
}

/// Seed of the evaluation at `x`, replication `rep`: a pure function of
/// both, so cached and recomputed evaluations agree to the bit.
fn eval_seed(x: &[f64], rep: usize) -> u64 {
    x.iter()
        .fold(splitmix64(rep as u64), |h, v| splitmix64(h ^ v.to_bits()))
}

/// What one campaign answered, as bits: the factor ranking, the calibrated
/// point and its objective, and every what-if mean.
type Answer = Vec<u64>;

/// What the traced run collects per campaign next to its spans.
#[derive(Default)]
struct CampaignTally {
    fresh_evals: u64,
    objective_evals: u64,
    gp: RunMetrics,
}

/// Everything a campaign runs against.
struct Lab<'a> {
    db: &'a Catalog,
    rec: &'a Recorder,
}

impl Lab<'_> {
    /// One evaluation of the simulation response: a small Monte Carlo query.
    fn simulate(&self, x: &[f64], rep: usize) -> f64 {
        self.rec
            .span("mcdb.mc", "mc.objective", || {
                model_at(x)
                    .run(self.db, EXPLORE_OBJECTIVE_N, eval_seed(x, rep))
                    .expect("objective Monte Carlo runs")
                    .mean()
            })
            .0
    }

    /// One campaign with seed `seed` against `cache`; `None` runs the same
    /// campaign with no result cache at all where the library offers that
    /// (kriging, what-if) — the oracle.
    fn campaign(
        &self,
        seed: u64,
        cache: Option<&CacheHandle>,
        tally: &mut CampaignTally,
    ) -> Answer {
        let fresh = Cell::new(0u64);
        let mut answer = Answer::new();

        // 1. Screening: rank the eight factors by fitted GP length-scale.
        let screen_cache = cache.cloned().unwrap_or_else(CacheHandle::in_memory);
        let ranked = self
            .rec
            .span("metamodel", "metamodel.screen", || {
                let response = FnResponse::new(EXPLORE_FACTORS, |x: &[f64], _: &mut Rng| {
                    fresh.set(fresh.get() + 1);
                    self.simulate(x, 0)
                });
                let mut scope = ObjectiveScope::new(
                    screen_cache,
                    "bench.explore.screen",
                    SPEC_FINGERPRINT,
                    1,
                    seed,
                );
                gp_screening_cached(&response, EXPLORE_SCREEN_RUNS, seed, &mut scope)
                    .expect("screening fits")
            })
            .0;
        for &(factor, theta) in &ranked {
            answer.extend([factor as u64, theta.to_bits()]);
        }

        // 2. Kriging calibration of the two most important factors.
        let top = [ranked[0].0, ranked[1].0];
        let bounds = Bounds::new(vec![(-1.0, 1.0); 2]).expect("valid bounds");
        let point = |theta: &[f64]| {
            let mut x = vec![0.0; EXPLORE_FACTORS];
            x[top[0]] = theta[0];
            x[top[1]] = theta[1];
            x
        };
        let objective = |theta: &[f64], rep: usize| {
            fresh.set(fresh.get() + 1);
            let total = self.simulate(&point(theta), 1 + rep);
            (total - TARGET_TOTAL).powi(2)
        };
        let calibrated = self
            .rec
            .span("calibrate", "calibrate.kriging", || {
                let mut rng = rng_from_seed(seed);
                match cache {
                    Some(cache) => {
                        let fp = SPEC_FINGERPRINT
                            ^ splitmix64((top[0] * EXPLORE_FACTORS + top[1]) as u64);
                        let mut scope = ObjectiveScope::new(
                            cache.clone(),
                            "bench.explore.calibrate",
                            fp,
                            EXPLORE_REPS as u64,
                            seed,
                        );
                        kriging_calibrate_cached(
                            objective,
                            &bounds,
                            &kriging_cfg(),
                            &mut rng,
                            Some(&mut tally.gp),
                            &mut scope,
                        )
                    }
                    None => {
                        kriging_calibrate_with(objective, &bounds, &kriging_cfg(), &mut rng, None)
                    }
                }
                .expect("calibration converges")
            })
            .0;
        tally.objective_evals += calibrated.best.evals as u64;
        answer.extend(calibrated.best.x.iter().map(|v| v.to_bits()));
        answer.push(calibrated.best.fx.to_bits());

        // 3. What-if queries at the calibrated point.
        let model = model_at(&point(&calibrated.best.x));
        let opts = match cache {
            Some(cache) => RunOptions::default().with_cache(cache.clone()),
            None => RunOptions::default(),
        };
        for j in 0..EXPLORE_WHATIFS {
            let hits_before = cache.map_or(0, |c| c.stats().hits);
            let (run, done) = self.rec.span("mcdb.mc", "mc.whatif", || {
                model
                    .run_with_options(self.db, EXPLORE_WHATIF_N, splitmix64(seed) ^ j, &opts)
                    .expect("what-if Monte Carlo runs")
            });
            answer.push(run.result.mean().to_bits());
            let hit = cache.is_some_and(|c| c.stats().hits > hits_before);
            if !hit {
                fresh.set(fresh.get() + 1);
            }
            // A miss ends in `insert_durable`, which persists the whole
            // file. Every fifth traced what-if, time the same persist again
            // and book it under the what-if span as the cache's share.
            if let Some(cache) = cache.filter(|_| !hit && self.rec.enabled() && j % 5 == 0) {
                self.rec.under(done.id, || {
                    self.rec.span("numeric.cache", "cache.persist", || {
                        cache.persist().expect("cache persists");
                    })
                });
            }
        }
        tally.fresh_evals += fresh.get();
        answer
    }
}

/// One client: its fleet's seeds, its cache file, and the answers its
/// campaigns must give.
struct Client {
    db: Catalog,
    seeds: Vec<u64>,
    oracle: Arc<Vec<Answer>>,
    path: PathBuf,
    cache: Option<CacheHandle>,
    warm: bool,
}

fn open_cache(path: &Path) -> CacheHandle {
    let (cache, dropped) =
        CacheHandle::open_or_recover(path, DEFAULT_MAX_BYTES).expect("result cache opens");
    assert_eq!(dropped, 0, "the benchmark's own cache file reloads clean");
    cache
}

impl Client {
    /// Campaign `i` of the endless cycle over the fleet. A cold pass starts
    /// on an empty file and persists after every campaign; a warm pass
    /// starts by reopening the populated file.
    fn run_op(&mut self, i: u64, rec: &Recorder, tally: &mut CampaignTally) -> bool {
        let k = (i % EXPLORE_FLEET) as usize;
        if k == 0 {
            if !self.warm {
                let _ = std::fs::remove_file(&self.path);
            }
            self.cache = Some(
                rec.span("numeric.cache", "cache.open", || open_cache(&self.path))
                    .0,
            );
        }
        let cache = self
            .cache
            .as_ref()
            .expect("opened at the start of the pass");
        let lab = Lab { db: &self.db, rec };
        let answer = lab.campaign(self.seeds[k], Some(cache), tally);
        if !self.warm {
            rec.span("numeric.cache", "cache.persist", || {
                cache.persist().expect("cache persists");
            });
        }
        answer == self.oracle[k]
    }
}

/// The fleet seeds of client `w`.
fn fleet_seeds(seed: u64, w: usize) -> Vec<u64> {
    (0..EXPLORE_FLEET)
        .map(|k| seed.wrapping_add(k).wrapping_add(1000 * w as u64))
        .collect()
}

/// Run one explore workload.
pub fn run(warm: bool, args: &Args) -> Outcome {
    let scratch = args.scratch();
    let n_clients = if args.trace { 1 } else { CLIENTS };

    // Oracle: every campaign of every fleet with no result cache, one
    // thread per fleet. The checker's work, not part of `setup_s`.
    let db = items_catalog();
    let oracles: Vec<Arc<Vec<Answer>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|w| {
                let db = &db;
                scope.spawn(move || {
                    let rec = Recorder::new(false);
                    let lab = Lab { db, rec: &rec };
                    fleet_seeds(args.seed, w)
                        .into_iter()
                        .map(|s| lab.campaign(s, None, &mut CampaignTally::default()))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| Arc::new(h.join().expect("oracle thread panicked")))
            .collect()
    });

    // Set-up: build the data and run one cold pass per client, which warms
    // the process and leaves the populated cache file a warm pass reopens.
    let mut out = Outcome::default();
    let mut setup_failed = 0;
    let mut rep = 0;
    let (mut clients, setup_s) = harness::timed_setup(args.setup_reps(), || {
        rep += 1;
        let mut clients: Vec<Client> = (0..n_clients)
            .map(|w| Client {
                db: items_catalog(),
                seeds: fleet_seeds(args.seed, w),
                oracle: Arc::clone(&oracles[w]),
                path: scratch.0.join(format!("setup{rep}-client{w}.mdecache")),
                cache: None,
                warm: false,
            })
            .collect();
        let cold = harness::drive(&mut clients, Limit::Ops(EXPLORE_FLEET), |c, i| {
            c.run_op(i, &Recorder::new(false), &mut CampaignTally::default())
        });
        setup_failed += cold.failed();
        for c in &mut clients {
            c.warm = warm;
        }
        clients
    });
    out.fact("clients", n_clients);
    out.fact("loop", "closed");
    out.fact("ops_per_pass", EXPLORE_FLEET);
    out.fact(
        "objective_evals_per_campaign",
        EXPLORE_SCREEN_RUNS + (EXPLORE_DESIGN_RUNS + EXPLORE_INFILL_ROUNDS) * EXPLORE_REPS,
    );
    out.fact("whatifs_per_campaign", EXPLORE_WHATIFS);

    if args.trace {
        traced(args, &mut clients, &mut out);
    } else {
        let driven = harness::drive(&mut clients, args.limit(EXPLORE_FLEET), |c, i| {
            c.run_op(i, &Recorder::new(false), &mut CampaignTally::default())
        });
        harness::end_to_end(&mut out, &driven, setup_s);
    }
    out.failed += setup_failed;
    out.attempted += args.setup_reps() as u64 * n_clients as u64 * EXPLORE_FLEET;
    out
}

/// The traced run: one client; an untraced stretch for the overhead
/// baseline, then whole passes with spans, then the probes. Counts are per
/// pass, so they repeat exactly.
fn traced(args: &Args, clients: &mut [Client], out: &mut Outcome) {
    let baseline_limit = match args.passes {
        Some(p) => Limit::Ops(p * EXPLORE_FLEET),
        None => Limit::Seconds(args.seconds * 0.4),
    };
    let baseline = harness::drive(clients, baseline_limit, |c, i| {
        c.run_op(i, &Recorder::new(false), &mut CampaignTally::default())
    });
    out.attempted += baseline.attempted();
    out.failed += baseline.failed();

    let rec = Recorder::new(true);
    let client = &mut clients[0];
    let mut tally = CampaignTally::default();
    let (mut lookups, mut hits, mut lookup_s) = (0u64, 0u64, 0.0f64);
    let mut last_stats = None;
    let phase = Instant::now();
    let mut passes = 0u64;
    loop {
        let over = match args.passes {
            Some(p) => passes >= p,
            None => passes >= 1 && phase.elapsed().as_secs_f64() >= args.seconds * 0.4,
        };
        if over {
            break;
        }
        for k in 0..EXPLORE_FLEET {
            rec.set_request(passes * EXPLORE_FLEET + k);
            let (ok, _) = rec.span("harness", "campaign", || client.run_op(k, &rec, &mut tally));
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
        // A pass's handle starts its counters at zero: its final reading
        // is that pass's own.
        let cache = client.cache.as_ref().expect("open after a pass");
        let s = cache.stats();
        lookups += s.hits + s.misses;
        hits += s.hits;
        let mut ledger = RunMetrics::new();
        cache.record_into(&mut ledger);
        lookup_s += ledger
            .duration("cache.lookup")
            .and_then(|h| h.max())
            .unwrap_or(0.0);
        last_stats = Some(s);
        passes += 1;
    }
    let traced_s = phase.elapsed().as_secs_f64();
    let per_pass = |total: u64| total as f64 / passes as f64;
    let spans = rec.spans();
    let median_ms = |name: &str| stats::median(&trace::durations(&spans, name)) / 1e6;
    let total_ns = |name: &str| trace::durations(&spans, name).iter().sum::<f64>();

    // numeric.cache
    let s = last_stats.expect("at least one traced pass");
    out.set("cache.lookups", per_pass(lookups));
    out.set("cache.hit_rate", hits as f64 / lookups.max(1) as f64);
    out.set("cache.fresh_evals", per_pass(tally.fresh_evals));
    out.set("cache.lookup_us", lookup_s * 1e6 / lookups.max(1) as f64);
    out.set("cache.persist_ms", median_ms("cache.persist"));
    out.set("cache.open_ms", median_ms("cache.open"));
    out.set("cache.entries", s.entries as f64);
    out.set("cache.evictions", s.evictions as f64);
    out.set(
        "cache.file_bytes",
        std::fs::metadata(&client.path).map_or(0.0, |m| m.len() as f64),
    );
    let probe = CacheHandle::in_memory();
    let inserts: Vec<f64> = (0..1000u64)
        .map(|i| {
            let entry = CacheEntry::leaf(
                CacheKey::for_point(SPEC_FINGERPRINT, &[i as f64, 0.5], 2, args.seed),
                "bench.probe",
                vec![1.0, 2.0],
            );
            let t = Instant::now();
            black_box(probe.insert(entry));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.set("cache.insert_us", stats::median(&inserts));

    // mcdb.mc: the objective evaluations and what-if queries that ran.
    let objective = trace::durations(&spans, "mc.objective");
    out.set(
        "mc.replicate_us",
        stats::median(&objective) / 1e3 / EXPLORE_OBJECTIVE_N as f64,
    );
    out.set(
        "mc.attempted",
        per_pass(objective.len() as u64 * EXPLORE_OBJECTIVE_N as u64),
    );
    let fixed: Vec<f64> = (0..9)
        .map(|k| {
            let t = Instant::now();
            black_box(
                model_at(&[0.0; EXPLORE_FACTORS])
                    .run(&client.db, 1, args.seed + k)
                    .expect("n=1 Monte Carlo runs"),
            );
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.set("mc.fixed_us", stats::median(&fixed));

    // metamodel / calibrate / numeric.linalg
    out.set("metamodel.screen_ms", median_ms("metamodel.screen"));
    out.set("calibrate.kriging_ms", median_ms("calibrate.kriging"));
    out.set("calibrate.objective_evals", per_pass(tally.objective_evals));
    for (name, counter) in [
        ("metamodel.assembles", "gp.assembles"),
        ("metamodel.factorizations", "gp.factorizations"),
        ("metamodel.extends", "gp.extends"),
    ] {
        out.set(name, per_pass(tally.gp.counter(counter)));
    }
    let kriging_ns = total_ns("calibrate.kriging");
    let objective_in_kriging: f64 = {
        let kriging_ids: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "calibrate.kriging")
            .map(|s| s.id)
            .collect();
        spans
            .iter()
            .filter(|s| s.name == "mc.objective" && kriging_ids.binary_search(&s.parent).is_ok())
            .map(|s| s.nanos() as f64)
            .sum()
    };
    out.set(
        "calibrate.surrogate_share",
        1.0 - objective_in_kriging / kriging_ns.max(1.0),
    );
    let mut rng = rng_from_seed(args.seed);
    let xs = nolh(EXPLORE_FACTORS, EXPLORE_SCREEN_RUNS, 50, &mut rng)
        .scale_to(&[(-1.0, 1.0); EXPLORE_FACTORS]);
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 3.0 * x[0] + 2.0 * x[3] + 0.1 * x[5])
        .collect();
    let fits: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(GpModel::fit(&xs, &ys, &GpConfig::default()).expect("probe GP fits"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("metamodel.gp_fit_ms", stats::median(&fits));
    let n = EXPLORE_SCREEN_RUNS;
    let mut spd = Matrix::identity(n);
    for i in 0..n {
        for j in 0..n {
            let d = (i as f64 - j as f64) / n as f64;
            spd.row_mut(i)[j] += (-8.0 * d * d).exp();
        }
    }
    let factors: Vec<f64> = (0..25)
        .map(|_| {
            let t = Instant::now();
            black_box(Cholesky::new(&spd).expect("probe matrix factors"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("linalg.cholesky_ms", stats::median(&factors));

    // Shares of the campaigns' time that are each layer's self time.
    let self_ns = trace::self_time_by_layer(spans.iter());
    let base = total_ns("campaign").max(1.0);
    let of = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64;
    out.set("share.mc", of("mcdb.mc") / base);
    out.set("share.cache", of("numeric.cache") / base);
    out.set(
        "share.metamodel",
        (of("metamodel") + of("calibrate")) / base,
    );
    let untraced_rate = baseline.attempted() as f64 / (baseline.window_ns as f64 / 1e9);
    let traced_rate = (passes * EXPLORE_FLEET) as f64 / traced_s;
    out.set("trace.overhead_share", 1.0 - traced_rate / untraced_rate);
    out.fact("traced_passes", passes);
    out.fact("traced_spans", spans.len());

    let path = Path::new("target/benchmark").join(format!("trace-{}.jsonl", args.workload));
    rec.write_jsonl(&path).expect("write the span file");
    out.fact("trace_file", path.display());
}
