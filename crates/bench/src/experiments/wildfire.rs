//! E10 — §3.2 Algorithm 2: wildfire data assimilation.
//!
//! Tracking error vs particle count for open-loop simulation, the
//! bootstrap-proposal PF [56], and the sensor-aware-proposal PF [57],
//! under both a well-specified and a misspecified spread model.

use mde_assim::pf::{BootstrapProposal, ParticleFilter, Proposal, StateSpaceModel};
use mde_assim::proposal::SensorAwareProposal;
use mde_assim::wildfire::{default_scenario, CellFire, FireModel, FireState};
use mde_numeric::resilience::RunOptions;
use mde_numeric::rng::rng_from_seed;

fn centroid_x(s: &FireState, width: usize) -> f64 {
    let (mut sum, mut n) = (0.0, 0.0);
    for (i, c) in s.cells.iter().enumerate() {
        if c.is_burning() || matches!(c, CellFire::Burned) {
            sum += (i % width) as f64;
            n += 1.0;
        }
    }
    if n > 0.0 {
        sum / n
    } else {
        width as f64 / 2.0
    }
}

fn pf_errors<P: Proposal<FireModel>>(
    filter_model: &FireModel,
    proposal: &P,
    truth: &[FireState],
    obs: &[Vec<f64>],
    particles: usize,
    seed: u64,
) -> (f64, f64) {
    let pf = ParticleFilter::new(particles, seed);
    let steps = pf
        .run(filter_model, proposal, obs, &RunOptions::default())
        .expect("filter run")
        .steps;
    let w = filter_model.config().width;
    let mut count_err = 0.0;
    let mut centroid_err = 0.0;
    for (s, t) in steps.iter().zip(truth) {
        count_err += (s.estimate(|x| x.burning_count() as f64) - t.burning_count() as f64).abs();
        centroid_err += (s.estimate(|x| centroid_x(x, w)) - centroid_x(t, w)).abs();
    }
    (
        count_err / truth.len() as f64,
        centroid_err / truth.len() as f64,
    )
}

/// Regenerate the assimilation comparison.
pub(crate) fn wildfire_assimilation_report() -> String {
    let steps = 15;
    let truth_model = default_scenario();
    let mut rng = rng_from_seed(31);
    let (truth, obs) = truth_model.simulate_truth(steps, &mut rng);

    let mut out = String::new();
    out.push_str("E10 | §3.2 Algorithm 2: wildfire particle filtering\n\n");

    // Part A: correct model; error vs particle count.
    out.push_str("A) well-specified model: mean |burning-count error| vs N particles\n");
    let mut rows = Vec::new();
    for &n in &[25usize, 100, 400] {
        // Open loop at matched ensemble size.
        let mut orng = rng_from_seed(40);
        let mut ensemble: Vec<FireState> = (0..n)
            .map(|_| truth_model.sample_initial(&mut orng))
            .collect();
        let mut open_err = 0.0;
        for (t, tr) in truth.iter().enumerate() {
            if t > 0 {
                ensemble = ensemble
                    .iter()
                    .map(|s| truth_model.sample_transition(s, &mut orng))
                    .collect();
            }
            let est = ensemble
                .iter()
                .map(|s| s.burning_count() as f64)
                .sum::<f64>()
                / n as f64;
            open_err += (est - tr.burning_count() as f64).abs();
        }
        let (boot_err, _) = pf_errors(&truth_model, &BootstrapProposal, &truth, &obs, n, 41);
        rows.push(vec![
            n.to_string(),
            crate::f(open_err / steps as f64),
            crate::f(boot_err),
        ]);
    }
    out.push_str(&crate::render_table(
        &["particles", "open loop", "PF bootstrap [56]"],
        &rows,
    ));

    // Part B: misspecified ignition; bootstrap vs sensor-aware on location.
    out.push_str(
        "\nB) misspecified ignition (believed (24,16), actual (8,16)): \
         mean |centroid error| in cells\n",
    );
    let mut wrong = truth_model.config().clone();
    wrong.ignition = (24, 16);
    let filter_model = FireModel::new(wrong, (5, 5), 8.0);
    let mut rows = Vec::new();
    for &n in &[50usize, 150] {
        let (_, boot_centroid) = pf_errors(&filter_model, &BootstrapProposal, &truth, &obs, n, 42);
        let aware = SensorAwareProposal {
            sensor_confidence: 0.8,
            ..SensorAwareProposal::default()
        };
        let (_, aware_centroid) = pf_errors(&filter_model, &aware, &truth, &obs, n, 42);
        rows.push(vec![
            n.to_string(),
            crate::f(boot_centroid),
            crate::f(aware_centroid),
        ]);
    }
    out.push_str(&crate::render_table(
        &["particles", "bootstrap [56]", "sensor-aware [57]"],
        &rows,
    ));
    out.push_str(
        "\nExpected shape: (A) on this one trajectory assimilation beats open loop at\n\
         N >= 100 only (it ties at N = 25), and no test asserts it; (B) is the claim: when\n\
         the transition density is far from the optimal proposal, [56] degrades and the\n\
         sensor-aware proposal of [57] recovers the fire's location, as the paper reports.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::{chaos_seed, StreamFactory};
    use mde_numeric::stats::Summary;

    /// Part B's claim as a paired statistic rather than one seed (where the
    /// two errors were 17.30 and 17.25): over 24 (truth, filter seed) draws
    /// from `chaos_seed()`, 40 particles, 15 steps, the sensor-aware
    /// proposal's centroid error is below the bootstrap's by at least 4
    /// standard errors of the mean paired difference — the assertion
    /// `mde-assim`'s `sensor_aware_beats_bootstrap_under_prior_mismatch`
    /// makes, here through the report's own `pf_errors`.
    #[test]
    fn sensor_aware_beats_bootstrap_on_centroid_under_mismatch() {
        let truth_model = default_scenario();
        let mut wrong = truth_model.config().clone();
        wrong.ignition = (24, 16);
        let filter_model = FireModel::new(wrong, (5, 5), 8.0);
        let aware = SensorAwareProposal {
            sensor_confidence: 0.8,
            ..SensorAwareProposal::default()
        };
        let seeds = StreamFactory::new(chaos_seed());
        let mut diff = Summary::new();
        for pair in 0..24 {
            let (truth, obs) = truth_model.simulate_truth(15, &mut seeds.stream(2 * pair));
            let pf_seed = seeds.seed_of(2 * pair + 1);
            let (_, boot) = pf_errors(&filter_model, &BootstrapProposal, &truth, &obs, 40, pf_seed);
            let (_, sa) = pf_errors(&filter_model, &aware, &truth, &obs, 40, pf_seed);
            diff.push(sa - boot);
        }
        let se = diff.sample_std_dev() / (diff.count() as f64).sqrt();
        assert!(
            diff.mean() < -4.0 * se,
            "sensor-aware minus bootstrap centroid error: {} ± {se}",
            diff.mean()
        );
    }
}
