//! The built-in VG function library — the paper's worked examples plus
//! general-purpose generators.

use super::{check_width, float_param, VgColumns, VgFunction, VgParams};
use crate::schema::{DataType, Schema};
use crate::table::Row;
use crate::value::Value;
use mde_numeric::dist::{Bernoulli, Beta, Distribution, Exponential, Gamma, Normal, Poisson};
use mde_numeric::rng::Rng;

fn value_schema(dtype: DataType) -> Schema {
    Schema::from_pairs(&[("VALUE", dtype)]).expect("static schema")
}

/// A VG that draws one `Float` a call from `N` float parameters: its
/// parameter names, in order, and the draw. `generate` and
/// `generate_batch` are both written once over these, so the batch is the
/// row loop by construction.
trait FloatDraw<const N: usize>: VgFunction {
    const PARAMS: [&'static str; N];

    fn draw(x: [f64; N], rng: &mut Rng) -> crate::Result<f64>;

    /// [`VgFunction::generate`]: one row holding one draw.
    fn generate_one(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.check_arity(params)?;
        let mut x = [0.0; N];
        for (idx, what) in Self::PARAMS.iter().enumerate() {
            x[idx] = float_param(params, idx, self.name(), what)?;
        }
        Ok(vec![vec![Value::Float(Self::draw(x, rng)?)]])
    }

    /// [`VgFunction::generate_batch`]: call by call, the parameters read
    /// straight from the parameter columns, the draws into one column.
    fn generate_floats(
        &self,
        params: &VgParams<'_>,
        rng: &mut Rng,
        out: &mut VgColumns<'_>,
    ) -> crate::Result<()> {
        if params.rows() > 0 {
            check_width(self.name(), self.arity(), params.width())?;
        }
        let mut values = Vec::with_capacity(params.rows());
        for r in 0..params.rows() {
            let mut x = [0.0; N];
            for (idx, what) in Self::PARAMS.iter().enumerate() {
                x[idx] = params.float(r, idx, self.name(), what)?;
            }
            values.push(Self::draw(x, rng)?);
        }
        out.push_floats(values)
    }
}

/// `Normal(mean, std)` → one row `(VALUE: Float)`.
///
/// The VG function of the paper's SBP example.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalVg;

impl VgFunction for NormalVg {
    fn name(&self) -> &str {
        "Normal"
    }

    fn output_schema(&self) -> Schema {
        value_schema(DataType::Float)
    }

    fn arity(&self) -> Option<usize> {
        Some(2)
    }

    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.generate_one(params, rng)
    }

    fn generate_batch(
        &self,
        params: &VgParams<'_>,
        rng: &mut Rng,
        out: &mut VgColumns<'_>,
    ) -> crate::Result<()> {
        self.generate_floats(params, rng, out)
    }
}

impl FloatDraw<2> for NormalVg {
    const PARAMS: [&'static str; 2] = ["mean", "std"];

    fn draw([mean, std]: [f64; 2], rng: &mut Rng) -> crate::Result<f64> {
        Ok(Normal::new(mean, std)?.sample(rng))
    }
}

/// `Uniform(lo, hi)` → one row `(VALUE: Float)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformVg;

impl VgFunction for UniformVg {
    fn name(&self) -> &str {
        "Uniform"
    }

    fn output_schema(&self) -> Schema {
        value_schema(DataType::Float)
    }

    fn arity(&self) -> Option<usize> {
        Some(2)
    }

    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.generate_one(params, rng)
    }

    fn generate_batch(
        &self,
        params: &VgParams<'_>,
        rng: &mut Rng,
        out: &mut VgColumns<'_>,
    ) -> crate::Result<()> {
        self.generate_floats(params, rng, out)
    }
}

impl FloatDraw<2> for UniformVg {
    const PARAMS: [&'static str; 2] = ["lo", "hi"];

    fn draw([lo, hi]: [f64; 2], rng: &mut Rng) -> crate::Result<f64> {
        Ok(mde_numeric::dist::Uniform::new(lo, hi)?.sample(rng))
    }
}

/// `Poisson(lambda)` → one row `(VALUE: Int)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoissonVg;

impl VgFunction for PoissonVg {
    fn name(&self) -> &str {
        "Poisson"
    }

    fn output_schema(&self) -> Schema {
        value_schema(DataType::Int)
    }

    fn arity(&self) -> Option<usize> {
        Some(1)
    }

    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.check_arity(params)?;
        let lambda = float_param(params, 0, self.name(), "lambda")?;
        let d = Poisson::new(lambda)?;
        Ok(vec![vec![Value::Int(d.sample_count(rng) as i64)]])
    }
}

/// `DiscreteChoice(w_0, …, w_{k−1})` over fixed labels → one row
/// `(VALUE: Str)`. The labels are supplied at construction; the weights
/// arrive as parameters so they can come from data.
#[derive(Debug, Clone)]
pub struct DiscreteChoiceVg {
    labels: Vec<String>,
}

impl DiscreteChoiceVg {
    /// Create with the category labels.
    pub fn new(labels: &[&str]) -> Self {
        DiscreteChoiceVg {
            labels: labels.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl VgFunction for DiscreteChoiceVg {
    fn name(&self) -> &str {
        "DiscreteChoice"
    }

    fn output_schema(&self) -> Schema {
        value_schema(DataType::Str)
    }

    fn arity(&self) -> Option<usize> {
        Some(self.labels.len())
    }

    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.check_arity(params)?;
        let weights: Vec<f64> = (0..params.len())
            .map(|i| float_param(params, i, self.name(), "weight"))
            .collect::<crate::Result<_>>()?;
        let cat = mde_numeric::dist::Categorical::new(&weights)?;
        let idx = cat.sample_index(rng);
        Ok(vec![vec![Value::str(&self.labels[idx])]])
    }
}

/// `BackwardWalk(current_price, step_std, n_steps)` → `n_steps` rows
/// `(LAG: Int, PRICE: Float)`.
///
/// The paper's "backward random walk starting at a given current price in
/// order to estimate missing prior prices": `LAG = 1` is one step into the
/// past, and prices follow a Gaussian random walk backwards from the
/// current price, floored at zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackwardWalkVg;

impl VgFunction for BackwardWalkVg {
    fn name(&self) -> &str {
        "BackwardWalk"
    }

    fn output_schema(&self) -> Schema {
        Schema::from_pairs(&[("LAG", DataType::Int), ("PRICE", DataType::Float)])
            .expect("static schema")
    }

    fn arity(&self) -> Option<usize> {
        Some(3)
    }

    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.check_arity(params)?;
        let current = float_param(params, 0, self.name(), "current_price")?;
        let step_std = float_param(params, 1, self.name(), "step_std")?;
        let n_steps = float_param(params, 2, self.name(), "n_steps")? as usize;
        let noise = Normal::new(0.0, step_std)?;
        let mut price = current;
        let mut rows = Vec::with_capacity(n_steps);
        for lag in 1..=n_steps {
            price = (price + noise.sample(rng)).max(0.0);
            rows.push(vec![Value::Int(lag as i64), Value::Float(price)]);
        }
        Ok(rows)
    }
}

/// `StockOption(s0, strike, mu, sigma, horizon_days)` → one row
/// `(VALUE: Float)`: the payoff `max(S_T − strike, 0)` of a European call
/// after simulating a geometric-Brownian-motion price path day by day.
///
/// The paper's "simulating a sequence of stock prices in order to return a
/// sample of the value of a stock option one week from now" — the whole
/// path is simulated (not just the terminal lognormal draw) because real VG
/// functions do arbitrary work per sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct StockOptionVg;

impl VgFunction for StockOptionVg {
    fn name(&self) -> &str {
        "StockOption"
    }

    fn output_schema(&self) -> Schema {
        value_schema(DataType::Float)
    }

    fn arity(&self) -> Option<usize> {
        Some(5)
    }

    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.check_arity(params)?;
        let s0 = float_param(params, 0, self.name(), "s0")?;
        let strike = float_param(params, 1, self.name(), "strike")?;
        let mu = float_param(params, 2, self.name(), "mu (annualized drift)")?;
        let sigma = float_param(params, 3, self.name(), "sigma (annualized vol)")?;
        let days = float_param(params, 4, self.name(), "horizon_days")? as usize;
        if s0 <= 0.0 || sigma <= 0.0 {
            return Err(crate::McdbError::type_mismatch(
                "StockOption",
                "positive s0 and sigma",
                format!("s0={s0}, sigma={sigma}"),
            ));
        }
        const TRADING_DAYS: f64 = 252.0;
        let dt = 1.0 / TRADING_DAYS;
        let mut s = s0;
        for _ in 0..days {
            let z = Normal::sample_standard(rng);
            s *= ((mu - 0.5 * sigma * sigma) * dt + sigma * dt.sqrt() * z).exp();
        }
        Ok(vec![vec![Value::Float((s - strike).max(0.0))]])
    }
}

/// `BayesianDemand(alpha, beta, hist_periods, hist_units, price, ref_price,
/// elasticity)` → one row `(VALUE: Int)`.
///
/// The paper's Bayesian demand example. A global parametric demand model
/// gives a Gamma(`alpha`, rate `beta`) prior on a customer's base demand
/// rate per period. The customer's own purchase history (`hist_units`
/// units over `hist_periods` periods) updates it by conjugacy to
/// Gamma(`alpha + hist_units`, rate `beta + hist_periods`) — Bayes'
/// Theorem, exactly as the paper sketches. The realized rate is then
/// scaled by a log-linear price response
/// `exp(−elasticity · (price − ref_price) / ref_price)` and demand is drawn
/// Poisson. Asking "how would revenue have been affected by a 5% price
/// increase" is then a query with a different `price` parameter.
#[derive(Debug, Clone, Copy, Default)]
pub struct BayesianDemandVg;

impl VgFunction for BayesianDemandVg {
    fn name(&self) -> &str {
        "BayesianDemand"
    }

    fn output_schema(&self) -> Schema {
        value_schema(DataType::Int)
    }

    fn arity(&self) -> Option<usize> {
        Some(7)
    }

    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.check_arity(params)?;
        let alpha = float_param(params, 0, self.name(), "prior shape alpha")?;
        let beta = float_param(params, 1, self.name(), "prior rate beta")?;
        let hist_periods = float_param(params, 2, self.name(), "history periods")?;
        let hist_units = float_param(params, 3, self.name(), "history units")?;
        let price = float_param(params, 4, self.name(), "price")?;
        let ref_price = float_param(params, 5, self.name(), "reference price")?;
        let elasticity = float_param(params, 6, self.name(), "elasticity")?;

        // Conjugate posterior for a Poisson rate under a Gamma prior.
        let post_shape = alpha + hist_units;
        let post_rate = beta + hist_periods;
        let rate_dist = Gamma::new(post_shape, 1.0 / post_rate)?;
        let base_rate = rate_dist.sample(rng);
        let price_factor = (-elasticity * (price - ref_price) / ref_price).exp();
        let lambda = (base_rate * price_factor).max(1e-12);
        let demand = Poisson::new(lambda)?.sample_count(rng);
        Ok(vec![vec![Value::Int(demand as i64)]])
    }
}

/// `Exponential(rate)` → one row `(VALUE: Float)` — used by calibration
/// examples (the paper's §3.1 worked example distribution).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExponentialVg;

impl VgFunction for ExponentialVg {
    fn name(&self) -> &str {
        "Exponential"
    }

    fn output_schema(&self) -> Schema {
        value_schema(DataType::Float)
    }

    fn arity(&self) -> Option<usize> {
        Some(1)
    }

    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.generate_one(params, rng)
    }

    fn generate_batch(
        &self,
        params: &VgParams<'_>,
        rng: &mut Rng,
        out: &mut VgColumns<'_>,
    ) -> crate::Result<()> {
        self.generate_floats(params, rng, out)
    }
}

impl FloatDraw<1> for ExponentialVg {
    const PARAMS: [&'static str; 1] = ["rate"];

    fn draw([rate]: [f64; 1], rng: &mut Rng) -> crate::Result<f64> {
        Ok(Exponential::new(rate)?.sample(rng))
    }
}

/// `Beta(a, b)` → one row `(VALUE: Float)` in `[0, 1]` — conjugate
/// posterior draws for the SimSQL-style Bayesian chains (§2.1: "well
/// suited to scalable Bayesian machine learning").
#[derive(Debug, Clone, Copy, Default)]
pub struct BetaVg;

impl VgFunction for BetaVg {
    fn name(&self) -> &str {
        "Beta"
    }

    fn output_schema(&self) -> Schema {
        value_schema(DataType::Float)
    }

    fn arity(&self) -> Option<usize> {
        Some(2)
    }

    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.check_arity(params)?;
        let a = float_param(params, 0, self.name(), "alpha")?;
        let b = float_param(params, 1, self.name(), "beta")?;
        let d = Beta::new(a, b)?;
        Ok(vec![vec![Value::Float(d.sample(rng))]])
    }
}

/// `Bernoulli(p)` → one row `(VALUE: Int)` ∈ {0, 1}.
#[derive(Debug, Clone, Copy, Default)]
pub struct BernoulliVg;

impl VgFunction for BernoulliVg {
    fn name(&self) -> &str {
        "Bernoulli"
    }

    fn output_schema(&self) -> Schema {
        value_schema(DataType::Int)
    }

    fn arity(&self) -> Option<usize> {
        Some(1)
    }

    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
        self.check_arity(params)?;
        let p = float_param(params, 0, self.name(), "p")?;
        let d = Bernoulli::new(p.clamp(0.0, 1.0))?;
        Ok(vec![vec![Value::Int(if d.sample_bool(rng) {
            1
        } else {
            0
        })]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::rng_from_seed;
    use mde_numeric::stats::Summary;

    #[test]
    fn normal_vg_moments() {
        let vg = NormalVg;
        let mut rng = rng_from_seed(1);
        let mut s = Summary::new();
        for _ in 0..20_000 {
            let rows = vg
                .generate(&[Value::from(120.0), Value::from(15.0)], &mut rng)
                .unwrap();
            s.push(rows[0][0].as_f64().unwrap());
        }
        assert!((s.mean() - 120.0).abs() < 0.5);
        assert!((s.sample_std_dev() - 15.0).abs() < 0.5);
    }

    #[test]
    fn normal_vg_arity_and_types() {
        let vg = NormalVg;
        let mut rng = rng_from_seed(1);
        assert!(vg.generate(&[Value::from(1.0)], &mut rng).is_err());
        assert!(vg
            .generate(&[Value::from("x"), Value::from(1.0)], &mut rng)
            .is_err());
        assert!(vg
            .generate(&[Value::from(0.0), Value::from(-1.0)], &mut rng)
            .is_err());
    }

    #[test]
    fn poisson_vg_is_integer_and_unbiased() {
        let vg = PoissonVg;
        let mut rng = rng_from_seed(2);
        let mut s = Summary::new();
        for _ in 0..20_000 {
            let rows = vg.generate(&[Value::from(4.0)], &mut rng).unwrap();
            s.push(rows[0][0].as_i64().unwrap() as f64);
        }
        assert!((s.mean() - 4.0).abs() < 0.1);
    }

    #[test]
    fn discrete_choice_respects_weights() {
        let vg = DiscreteChoiceVg::new(&["A", "B"]);
        assert_eq!(vg.arity(), Some(2));
        let mut rng = rng_from_seed(3);
        let mut count_a = 0;
        let n = 10_000;
        for _ in 0..n {
            let rows = vg
                .generate(&[Value::from(3.0), Value::from(1.0)], &mut rng)
                .unwrap();
            if rows[0][0].as_str().unwrap() == "A" {
                count_a += 1;
            }
        }
        let frac = count_a as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "P(A) estimate {frac}");
    }

    #[test]
    fn backward_walk_structure() {
        let vg = BackwardWalkVg;
        let mut rng = rng_from_seed(4);
        let rows = vg
            .generate(
                &[Value::from(100.0), Value::from(2.0), Value::from(5.0)],
                &mut rng,
            )
            .unwrap();
        assert_eq!(rows.len(), 5);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0].as_i64().unwrap(), (i + 1) as i64);
            assert!(row[1].as_f64().unwrap() >= 0.0, "prices floored at zero");
        }
    }

    #[test]
    fn stock_option_payoff_nonnegative_and_sane() {
        let vg = StockOptionVg;
        let mut rng = rng_from_seed(5);
        let mut s = Summary::new();
        for _ in 0..5_000 {
            let rows = vg
                .generate(
                    &[
                        Value::from(100.0),
                        Value::from(100.0),
                        Value::from(0.05),
                        Value::from(0.2),
                        Value::from(5.0),
                    ],
                    &mut rng,
                )
                .unwrap();
            let payoff = rows[0][0].as_f64().unwrap();
            assert!(payoff >= 0.0);
            s.push(payoff);
        }
        // At-the-money call over 5 trading days with sigma=0.2:
        // E ≈ S0·sigma·sqrt(T/2pi) ≈ 100·0.2·sqrt(5/252)/sqrt(2pi) ≈ 1.12.
        assert!(
            (s.mean() - 1.12).abs() < 0.15,
            "ATM payoff mean {}",
            s.mean()
        );
    }

    #[test]
    fn stock_option_rejects_bad_params() {
        let vg = StockOptionVg;
        let mut rng = rng_from_seed(5);
        let bad = vg.generate(
            &[
                Value::from(-1.0),
                Value::from(100.0),
                Value::from(0.0),
                Value::from(0.2),
                Value::from(5.0),
            ],
            &mut rng,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn bayesian_demand_posterior_shifts_with_history() {
        let vg = BayesianDemandVg;
        let mut rng = rng_from_seed(6);
        // Prior mean alpha/beta = 2. A heavy purchase history (100 units in
        // 10 periods) should pull expected demand toward 10.
        let mut s_prior = Summary::new();
        let mut s_heavy = Summary::new();
        for _ in 0..5_000 {
            let r = vg
                .generate(
                    &[
                        Value::from(2.0),
                        Value::from(1.0),
                        Value::from(0.0),
                        Value::from(0.0),
                        Value::from(10.0),
                        Value::from(10.0),
                        Value::from(1.0),
                    ],
                    &mut rng,
                )
                .unwrap();
            s_prior.push(r[0][0].as_i64().unwrap() as f64);
            let r = vg
                .generate(
                    &[
                        Value::from(2.0),
                        Value::from(1.0),
                        Value::from(10.0),
                        Value::from(100.0),
                        Value::from(10.0),
                        Value::from(10.0),
                        Value::from(1.0),
                    ],
                    &mut rng,
                )
                .unwrap();
            s_heavy.push(r[0][0].as_i64().unwrap() as f64);
        }
        assert!((s_prior.mean() - 2.0).abs() < 0.2);
        assert!((s_heavy.mean() - 102.0 / 11.0).abs() < 0.4);
    }

    #[test]
    fn bayesian_demand_price_elasticity() {
        let vg = BayesianDemandVg;
        let mut rng = rng_from_seed(7);
        let demand_at = |price: f64, rng: &mut mde_numeric::rng::Rng| {
            let mut s = Summary::new();
            for _ in 0..4_000 {
                let r = vg
                    .generate(
                        &[
                            Value::from(5.0),
                            Value::from(1.0),
                            Value::from(0.0),
                            Value::from(0.0),
                            Value::from(price),
                            Value::from(10.0),
                            Value::from(2.0),
                        ],
                        rng,
                    )
                    .unwrap();
                s.push(r[0][0].as_i64().unwrap() as f64);
            }
            s.mean()
        };
        let base = demand_at(10.0, &mut rng);
        let raised = demand_at(10.5, &mut rng); // the paper's 5% price increase
                                                // Expected multiplier exp(-2 * 0.05) ≈ 0.905.
        let ratio = raised / base;
        assert!(
            (ratio - 0.905).abs() < 0.05,
            "5% price increase demand ratio {ratio}"
        );
    }

    #[test]
    fn exponential_vg() {
        let vg = ExponentialVg;
        let mut rng = rng_from_seed(8);
        let mut s = Summary::new();
        for _ in 0..20_000 {
            let r = vg.generate(&[Value::from(0.5)], &mut rng).unwrap();
            s.push(r[0][0].as_f64().unwrap());
        }
        assert!((s.mean() - 2.0).abs() < 0.05);
    }
}
