//! A consumer-market ABS — the §3.1 integration-and-calibration target.
//!
//! Bonabeau's WSC 2013 keynote (as surveyed in the paper) proposes ABS as
//! a data-integration tool for marketing: "simulate synthetic personas
//! created from … heterogeneous data sources" — individual behaviors,
//! aggregate customer profiles, network data, touch points, and
//! decision-making — then "*calibrate* the model using statistical and
//! machine learning techniques in order to approximately match existing
//! datasets".
//!
//! [`MarketModel`] is that simulation: personas with awareness and
//! perception states on a small-world word-of-mouth network, media touch
//! points, and a stochastic purchase decision. It emits the paper's four
//! disparate dataset granularities ([`MarketDatasets`]) and exposes the
//! summary-statistic vector ([`MarketModel::simulate_summary`]) that the
//! method of simulated moments in `mde-calibrate` matches against data.

use crate::engine::StepModel;
use crate::error::AbsError;
use mde_numeric::rng::{rng_from_seed, Rng};

/// The behavioral parameters θ that calibration must recover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketParams {
    /// Per-tick probability that media reaches (and makes aware) a persona.
    pub media_reach: f64,
    /// Strength of word-of-mouth: probability per aware-adopter neighbor
    /// per tick of becoming aware / having perception boosted.
    pub wom_strength: f64,
    /// Base per-tick purchase propensity of an aware persona, scaled by
    /// its perception.
    pub purchase_propensity: f64,
}

impl MarketParams {
    /// Flatten to the θ vector used by the calibration machinery.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.media_reach,
            self.wom_strength,
            self.purchase_propensity,
        ]
    }

    /// Inverse of [`MarketParams::to_vec`]; clamps into the open unit cube
    /// so optimizer proposals are always simulable.
    pub fn from_slice(theta: &[f64]) -> Self {
        assert!(theta.len() == 3, "theta must have 3 entries");
        let c = |x: f64| x.clamp(1e-4, 0.999);
        MarketParams {
            media_reach: c(theta[0]),
            wom_strength: c(theta[1]),
            purchase_propensity: c(theta[2]),
        }
    }
}

/// Structural configuration (not calibrated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketConfig {
    /// Number of personas.
    pub n: usize,
    /// Neighbors per persona in the ring lattice (must be even).
    pub degree: usize,
    /// Watts–Strogatz rewiring probability.
    pub rewire: f64,
    /// Simulation horizon in ticks ("weeks").
    pub ticks: usize,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            n: 400,
            degree: 6,
            rewire: 0.1,
            ticks: 40,
        }
    }
}

impl MarketConfig {
    /// Typed validation of the persona-network configuration: too few
    /// personas, an odd or out-of-range lattice degree, a rewiring
    /// probability outside `[0, 1]`, or a zero-tick horizon is rejected
    /// with a fatal [`AbsError::InvalidConfig`] instead of a panic.
    pub(crate) fn validate(&self) -> Result<(), AbsError> {
        let reject = |reason: String| {
            Err(AbsError::InvalidConfig {
                context: "market model",
                reason,
            })
        };
        if self.n < 10 {
            return reject("population too small".into());
        }
        if self.degree < 2 || !self.degree.is_multiple_of(2) {
            return reject("degree must be even >= 2".into());
        }
        if self.degree >= self.n {
            return reject(format!(
                "degree {} must be < population {}",
                self.degree, self.n
            ));
        }
        if !(0.0..=1.0).contains(&self.rewire) {
            return reject(format!(
                "rewire probability must be in [0,1], got {}",
                self.rewire
            ));
        }
        if self.ticks == 0 {
            return reject("horizon must be at least one tick".into());
        }
        Ok(())
    }
}

/// A persona's state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Persona {
    /// Aware of the product?
    pub aware: bool,
    /// Perception / affinity in `[0, 1]`.
    pub perception: f64,
    /// Tick of first purchase, if any.
    pub adopted_at: Option<usize>,
}

/// Per-tick observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketObs {
    /// Fraction aware.
    pub awareness: f64,
    /// Fraction who have purchased.
    pub adoption: f64,
    /// Purchases this tick.
    pub sales: usize,
}

/// The market simulation.
#[derive(Debug, Clone)]
pub struct MarketModel {
    cfg: MarketConfig,
    params: MarketParams,
    personas: Vec<Persona>,
    neighbors: Vec<Vec<usize>>,
    tick: usize,
    last_sales: usize,
    /// Purchases attributable to word-of-mouth exposure (vs media).
    wom_attributed: usize,
    media_attributed: usize,
    /// (tick, persona, channel) purchase log — the individual-level
    /// dataset.
    purchase_log: Vec<(usize, usize, &'static str)>,
    /// How each persona became aware (for attribution).
    aware_via: Vec<Option<&'static str>>,
}

impl MarketModel {
    /// Build the persona network (Watts–Strogatz small world) and initial
    /// states.
    pub(crate) fn new(cfg: MarketConfig, params: MarketParams, seed: u64) -> Self {
        MarketModel::try_new(cfg, params, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: [`MarketConfig::validate`] then build.
    pub(crate) fn try_new(
        cfg: MarketConfig,
        params: MarketParams,
        seed: u64,
    ) -> Result<Self, AbsError> {
        cfg.validate()?;
        let mut rng = rng_from_seed(seed);
        // Ring lattice + rewiring.
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); cfg.n];
        for i in 0..cfg.n {
            for d in 1..=cfg.degree / 2 {
                let mut j = (i + d) % cfg.n;
                if rng.gen::<f64>() < cfg.rewire {
                    j = rng.gen_range(0..cfg.n);
                    if j == i {
                        j = (i + 1) % cfg.n;
                    }
                }
                neighbors[i].push(j);
                neighbors[j].push(i);
            }
        }
        let personas = (0..cfg.n)
            .map(|_| Persona {
                aware: false,
                perception: 0.3 + 0.4 * rng.gen::<f64>(),
                adopted_at: None,
            })
            .collect();
        Ok(MarketModel {
            cfg,
            params,
            personas,
            neighbors,
            tick: 0,
            last_sales: 0,
            wom_attributed: 0,
            media_attributed: 0,
            purchase_log: Vec::new(),
            aware_via: vec![None; cfg.n],
        })
    }

    /// Run to the configured horizon, returning the per-tick observations.
    pub(crate) fn run(&mut self, seed: u64) -> Vec<MarketObs> {
        crate::engine::run_model(self, self.cfg.ticks, seed)
    }

    /// The calibration summary-statistic vector `Y`:
    /// `(final awareness, final adoption, half-adoption time / horizon,
    /// word-of-mouth share of attributed sales)`.
    fn summary_statistics(history: &[MarketObs], model: &MarketModel) -> Vec<f64> {
        let last = history.last().expect("non-empty history");
        let half = last.adoption / 2.0;
        let t_half = history
            .iter()
            .position(|o| o.adoption >= half && half > 0.0)
            .unwrap_or(history.len());
        let attributed = (model.wom_attributed + model.media_attributed).max(1);
        vec![
            last.awareness,
            last.adoption,
            t_half as f64 / history.len() as f64,
            model.wom_attributed as f64 / attributed as f64,
        ]
    }

    /// Simulate once at the given θ and return the summary statistics —
    /// the `m̂(θ)` oracle for the method of simulated moments.
    pub fn simulate_summary(cfg: MarketConfig, theta: &[f64], seed: u64) -> Vec<f64> {
        let params = MarketParams::from_slice(theta);
        let mut model = MarketModel::new(cfg, params, seed);
        let history = model.run(seed ^ 0xabcd);
        Self::summary_statistics(&history, &model)
    }

    /// Export the four disparate dataset granularities of the paper.
    pub fn datasets(&self, history: &[MarketObs]) -> MarketDatasets {
        MarketDatasets {
            purchases: self.purchase_log.clone(),
            profile: history
                .iter()
                .enumerate()
                .map(|(t, o)| (t, o.awareness, o.adoption))
                .collect(),
            network_degree: self.neighbors.iter().map(|n| n.len()).collect(),
            touch_points: vec![
                ("media", self.media_attributed),
                ("word_of_mouth", self.wom_attributed),
            ],
        }
    }
}

/// The paper's four disparate marketing datasets, at their natural
/// granularities.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketDatasets {
    /// Individual consumer behaviors: `(tick, persona, channel)` purchases.
    pub purchases: Vec<(usize, usize, &'static str)>,
    /// Aggregate customer profiles: `(tick, awareness, adoption)`.
    pub profile: Vec<(usize, f64, f64)>,
    /// Network data: degree sequence.
    pub network_degree: Vec<usize>,
    /// Touch points: attributed conversions per channel.
    pub touch_points: Vec<(&'static str, usize)>,
}

impl StepModel for MarketModel {
    type Observation = MarketObs;

    fn step(&mut self, rng: &mut Rng) {
        let n = self.cfg.n;
        // Media touch points.
        for i in 0..n {
            if !self.personas[i].aware && rng.gen::<f64>() < self.params.media_reach {
                self.personas[i].aware = true;
                self.aware_via[i] = Some("media");
            }
        }
        // Word of mouth from aware adopters.
        let adopters: Vec<bool> = self
            .personas
            .iter()
            .map(|p| p.adopted_at.is_some())
            .collect();
        for i in 0..n {
            let influencers = self.neighbors[i].iter().filter(|&&j| adopters[j]).count();
            if influencers == 0 {
                continue;
            }
            let p_influence = 1.0 - (1.0 - self.params.wom_strength).powi(influencers as i32);
            if rng.gen::<f64>() < p_influence {
                if !self.personas[i].aware {
                    self.personas[i].aware = true;
                    self.aware_via[i] = Some("word_of_mouth");
                }
                self.personas[i].perception = (self.personas[i].perception + 0.05).min(1.0);
            }
        }
        // Purchase decisions.
        let mut sales = 0;
        for i in 0..n {
            let p = self.personas[i];
            if p.aware && p.adopted_at.is_none() {
                let prob = self.params.purchase_propensity * p.perception;
                if rng.gen::<f64>() < prob {
                    self.personas[i].adopted_at = Some(self.tick);
                    sales += 1;
                    let channel = self.aware_via[i].unwrap_or("media");
                    self.purchase_log.push((self.tick, i, channel));
                    match channel {
                        "word_of_mouth" => self.wom_attributed += 1,
                        _ => self.media_attributed += 1,
                    }
                }
            }
        }
        self.last_sales = sales;
        self.tick += 1;
    }

    fn observe(&self) -> MarketObs {
        let n = self.cfg.n as f64;
        MarketObs {
            awareness: self.personas.iter().filter(|p| p.aware).count() as f64 / n,
            adoption: self
                .personas
                .iter()
                .filter(|p| p.adopted_at.is_some())
                .count() as f64
                / n,
            sales: self.last_sales,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MarketParams {
        MarketParams {
            media_reach: 0.03,
            wom_strength: 0.08,
            purchase_propensity: 0.25,
        }
    }

    #[test]
    fn try_new_rejects_bad_configs_with_typed_errors() {
        let params = MarketParams {
            media_reach: 0.05,
            wom_strength: 0.1,
            purchase_propensity: 0.2,
        };
        let bad = |cfg: MarketConfig| match MarketModel::try_new(cfg, params, 1) {
            Err(AbsError::InvalidConfig { context, reason }) => {
                assert_eq!(context, "market model");
                reason
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| "model")),
        };
        let base = MarketConfig::default();
        assert!(bad(MarketConfig { n: 5, ..base }).contains("population"));
        assert!(bad(MarketConfig { degree: 3, ..base }).contains("even"));
        assert!(bad(MarketConfig {
            rewire: 1.5,
            ..base
        })
        .contains("rewire"));
        assert!(bad(MarketConfig { ticks: 0, ..base }).contains("tick"));
        assert!(MarketModel::try_new(base, params, 1).is_ok());
    }

    #[test]
    fn params_roundtrip_and_clamp() {
        let p = params();
        assert_eq!(MarketParams::from_slice(&p.to_vec()), p);
        let clamped = MarketParams::from_slice(&[-1.0, 2.0, 0.5]);
        assert!(clamped.media_reach > 0.0 && clamped.wom_strength < 1.0);
    }

    #[test]
    fn adoption_curve_is_monotone_s_shape() {
        let mut m = MarketModel::new(MarketConfig::default(), params(), 1);
        let history = m.run(2);
        for w in history.windows(2) {
            assert!(w[1].adoption >= w[0].adoption, "adoption must be monotone");
            assert!(w[1].awareness >= w[0].awareness);
        }
        let last = history.last().unwrap();
        assert!(last.adoption > 0.3, "no diffusion: {}", last.adoption);
        assert!(last.awareness >= last.adoption);
    }

    #[test]
    fn word_of_mouth_accelerates_adoption() {
        let run_final = |wom: f64| {
            let p = MarketParams {
                wom_strength: wom,
                ..params()
            };
            let mut m = MarketModel::new(MarketConfig::default(), p, 3);
            m.run(4).last().unwrap().adoption
        };
        let with = run_final(0.15);
        let without = run_final(0.0);
        assert!(
            with > without + 0.05,
            "word of mouth had no effect: {without} vs {with}"
        );
    }

    #[test]
    fn summary_statistics_are_in_range_and_sensitive() {
        let cfg = MarketConfig::default();
        let s_lo = MarketModel::simulate_summary(cfg, &[0.01, 0.01, 0.1], 5);
        let s_hi = MarketModel::simulate_summary(cfg, &[0.2, 0.2, 0.6], 5);
        for s in [&s_lo, &s_hi] {
            assert_eq!(s.len(), 4);
            for v in s.iter() {
                assert!((0.0..=1.0).contains(v), "statistic out of range: {v}");
            }
        }
        assert!(s_hi[0] > s_lo[0], "awareness not sensitive to theta");
        assert!(s_hi[1] > s_lo[1], "adoption not sensitive to theta");
    }

    #[test]
    fn datasets_cover_four_granularities() {
        let mut m = MarketModel::new(MarketConfig::default(), params(), 6);
        let history = m.run(7);
        let d = m.datasets(&history);
        assert!(!d.purchases.is_empty());
        assert_eq!(d.profile.len(), history.len());
        assert_eq!(d.network_degree.len(), 400);
        assert_eq!(d.touch_points.len(), 2);
        // Attribution totals match the purchase log.
        let attributed: usize = d.touch_points.iter().map(|(_, c)| c).sum();
        assert_eq!(attributed, d.purchases.len());
        // Degrees are positive (connected personas).
        assert!(d.network_degree.iter().all(|&d| d >= 2));
    }

    #[test]
    fn reproducible_given_seeds() {
        let a = MarketModel::simulate_summary(MarketConfig::default(), &[0.05, 0.1, 0.3], 9);
        let b = MarketModel::simulate_summary(MarketConfig::default(), &[0.05, 0.1, 0.3], 9);
        assert_eq!(a, b);
    }
}
