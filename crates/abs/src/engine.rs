//! Simulation engines: synchronous stepping and a discrete-event core.
//!
//! The synchronous engine drives models whose agents all update once per
//! tick (traffic, Schelling, epidemics on a daily clock). The
//! discrete-event core is the DEVS-flavored substrate (§2.2 cites DEVS as
//! a composite-modeling framework): a time-ordered event queue with a
//! simulation clock, used by models with asynchronous dynamics.

use mde_numeric::rng::{rng_from_seed, Rng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// A scheduled discrete event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<E> {
    /// Simulated firing time.
    pub time: f64,
    /// Tie-break sequence number (FIFO among simultaneous events).
    pub seq: u64,
    /// The payload.
    pub payload: E,
}

impl<E> Eq for Event<E> where E: PartialEq {}

impl<E: PartialEq> PartialOrd for Event<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: PartialEq> Ord for Event<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so earliest time pops first;
        // among ties, lowest sequence number first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A discrete-event scheduler: time-ordered queue plus clock.
#[derive(Debug, Clone)]
pub struct EventQueue<E: PartialEq> {
    heap: BinaryHeap<Event<E>>,
    clock: f64,
    seq: u64,
}

impl<E: PartialEq> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            clock: 0.0,
            seq: 0,
        }
    }
}

impl<E: PartialEq> EventQueue<E> {
    /// Create an empty queue with the clock at 0.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule a payload at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` precedes the current clock (causality violation).
    pub fn schedule(&mut self, time: f64, payload: E) {
        assert!(
            time >= self.clock,
            "cannot schedule into the past: t={time} < clock={}",
            self.clock
        );
        self.heap.push(Event {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Schedule relative to the current clock.
    #[cfg(test)]
    fn schedule_in(&mut self, delay: f64, payload: E) {
        assert!(delay >= 0.0, "negative delay {delay}");
        self.schedule(self.clock + delay, payload);
    }

    /// Pop the next event, advancing the clock to its time.
    ///
    /// Named for the simulation loop (`while let Some(ev) = q.next()`),
    /// not `Iterator`: popping mutates the clock, so lending it to
    /// iterator adaptors would hide the time side effect.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Event<E>> {
        let ev = self.heap.pop()?;
        self.clock = ev.time;
        Some(ev)
    }
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

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.next().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.next().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(2.5, ());
        q.schedule_in(5.0, ());
        assert_eq!(q.now(), 0.0);
        q.next();
        assert_eq!(q.now(), 2.5);
        q.next();
        assert_eq!(q.now(), 5.0);
        assert!(q.next().is_none());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.next();
        q.schedule(1.0, ());
    }
}
