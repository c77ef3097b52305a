//! The synchronous-stepping engine: it drives models whose agents all
//! update once per tick (traffic, Schelling, the consumer market).

use mde_numeric::rng::{rng_from_seed, Rng};

/// A synchronously stepped simulation model.
pub trait StepModel {
    /// Observable summary type recorded after each step.
    type Observation;

    /// Advance one tick.
    fn step(&mut self, rng: &mut Rng);

    /// Observe the current state.
    fn observe(&self) -> Self::Observation;
}

/// Run a [`StepModel`] for `steps` ticks, returning the observation after
/// every tick (plus the initial observation at index 0).
pub fn run_model<M: StepModel>(model: &mut M, steps: usize, seed: u64) -> Vec<M::Observation> {
    let mut rng = rng_from_seed(seed);
    let mut out = Vec::with_capacity(steps + 1);
    out.push(model.observe());
    for _ in 0..steps {
        model.step(&mut rng);
        out.push(model.observe());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);

    impl StepModel for Counter {
        type Observation = u64;

        fn step(&mut self, _rng: &mut Rng) {
            self.0 += 1;
        }

        fn observe(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn run_model_records_initial_and_per_step() {
        let mut m = Counter(0);
        let obs = run_model(&mut m, 5, 1);
        assert_eq!(obs, vec![0, 1, 2, 3, 4, 5]);
    }
}
