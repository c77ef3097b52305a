//! Wildfire data assimilation — §3.2 of the paper and its Algorithm 2.
//!
//! A ground-truth fire spreads over a 32×32 terrain; a 5×5 grid of noisy
//! temperature sensors reports every step. Two scenarios:
//!
//! **A — well-specified model.** The tracker knows the ignition point.
//! The particle filter (bootstrap proposal, [56]) is set against running
//! the simulation open loop on the burning-cell count — the paper's "more
//! accurate estimates of the fire status than could be obtained from
//! either data source alone". On this one trajectory the filter tracks
//! worse, and the example says so; E10 shows the comparison over particle
//! counts.
//!
//! **B — misspecified model.** The tracker believes the fire started on
//! the wrong side of the map. Now the transition density is far from the
//! optimal proposal and, as [56] reports, bootstrap accuracy degrades;
//! the sensor-aware proposal of [57] — igniting hot sensor cells and
//! extinguishing cool ones — recovers the fire's *location* (centroid)
//! far better.
//!
//! Run with: `cargo run --release --example wildfire_assimilation`

use model_data_ecosystems::assim::pf::{BootstrapProposal, ParticleFilter, StateSpaceModel};
use model_data_ecosystems::assim::proposal::SensorAwareProposal;
use model_data_ecosystems::assim::wildfire::{default_scenario, FireModel, FireState};
use model_data_ecosystems::numeric::resilience::RunOptions;
use model_data_ecosystems::numeric::rng::rng_from_seed;

/// Horizontal centroid of the fire footprint (burning + burned cells).
fn centroid_x(s: &FireState, width: usize) -> f64 {
    let (mut sum, mut n) = (0.0, 0.0);
    for (i, c) in s.cells.iter().enumerate() {
        if c.is_burning() || matches!(c, model_data_ecosystems::assim::wildfire::CellFire::Burned) {
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

/// The change from `before` to `after` in percent of `before`, as a
/// magnitude, and whether it is a fall.
fn relative_change(before: f64, after: f64) -> (f64, bool) {
    (100.0 * (after / before - 1.0).abs(), after <= before)
}

fn main() {
    let steps = 20;
    let particles = 200;
    let truth_model = default_scenario(); // ignition (8, 16)
    let width = truth_model.config().width;
    let mut rng = rng_from_seed(2024);
    let (truth, observations) = truth_model.simulate_truth(steps, &mut rng);

    // ================= Scenario A: well-specified model =================
    println!("== Scenario A: correct model — PF vs open loop on burning-cell count ==");
    let mut open_rng = rng_from_seed(5);
    let mut open: Vec<FireState> = (0..particles)
        .map(|_| truth_model.sample_initial(&mut open_rng))
        .collect();
    let pf = ParticleFilter::new(particles, 9);
    let opts = RunOptions::default();
    let boot = pf
        .run(&truth_model, &BootstrapProposal, &observations, &opts)
        .expect("filter run")
        .steps;

    let (mut e_open, mut e_pf) = (0.0f64, 0.0f64);
    for t in 0..steps {
        if t > 0 {
            open = open
                .iter()
                .map(|s| truth_model.sample_transition(s, &mut open_rng))
                .collect();
        }
        let open_est =
            open.iter().map(|s| s.burning_count() as f64).sum::<f64>() / particles as f64;
        let pf_est = boot[t].estimate(|s| s.burning_count() as f64);
        let tru = truth[t].burning_count() as f64;
        e_open += (open_est - tru).abs();
        e_pf += (pf_est - tru).abs();
    }
    println!(
        "mean |burning-count error|: open loop {:.2}   PF (bootstrap) {:.2}",
        e_open / steps as f64,
        e_pf / steps as f64
    );
    let (pct, fell) = relative_change(e_open, e_pf);
    let verb = if fell { "cut" } else { "raised" };
    println!("assimilation {verb} the tracking error by {pct:.0}%\n");

    // ================ Scenario B: misspecified ignition =================
    println!("== Scenario B: wrong ignition belief — bootstrap vs sensor-aware proposal ==");
    let mut wrong = truth_model.config().clone();
    wrong.ignition = (24, 16); // reality: (8, 16)
    let filter_model = FireModel::new(wrong, (5, 5), 8.0);

    let boot = pf
        .run(&filter_model, &BootstrapProposal, &observations, &opts)
        .expect("filter run")
        .steps;
    let aware = SensorAwareProposal {
        sensor_confidence: 0.8,
        ..SensorAwareProposal::default()
    };
    let aware = pf
        .run(&filter_model, &aware, &observations, &opts)
        .expect("filter run")
        .steps;

    println!("step  truth-centroid-x  bootstrap  sensor-aware");
    let (mut c_boot, mut c_aware) = (0.0f64, 0.0f64);
    for t in 0..steps {
        let tru = centroid_x(&truth[t], width);
        let b = boot[t].estimate(|s| centroid_x(s, width));
        let a = aware[t].estimate(|s| centroid_x(s, width));
        c_boot += (b - tru).abs();
        c_aware += (a - tru).abs();
        if t % 4 == 0 {
            println!("{t:>4}  {tru:>16.1}  {b:>9.1}  {a:>12.1}");
        }
    }
    println!(
        "\nmean |centroid error|: bootstrap {:.2} cells   sensor-aware {:.2} cells",
        c_boot / steps as f64,
        c_aware / steps as f64
    );
    let (pct, fell) = relative_change(c_boot, c_aware);
    if fell {
        println!("the sensor-aware proposal of [57] recovers the fire location {pct:.0}% better");
    } else {
        println!("the sensor-aware proposal of [57] tracks the fire location {pct:.0}% worse");
    }
}
