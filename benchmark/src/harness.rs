//! What the workloads share: the closed-loop driver, the set-up timer and
//! the end-to-end metric arithmetic.

use crate::spec::{SETUP_REPS, SLICES};
use crate::{host, stats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One run's command line.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// Measure this many passes per client in place of `seconds` (smoke
    /// runs and the exact-count test).
    pub passes: Option<u64>,
    /// Position of this run in a `--check-repeat` or `--all` series.
    pub run_index: u64,
}

impl Args {
    /// When the measured phase of `pass_len` ops per pass ends.
    pub fn limit(&self, pass_len: u64) -> Limit {
        match self.passes {
            Some(p) => Limit::Ops(p * pass_len),
            None => Limit::Seconds(self.seconds),
        }
    }

    /// Set-ups per run: several when `setup_s` is reported, one for a traced
    /// run, which does not report it.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Directory for this process's files, inside the checkout's build
    /// output. Removed by [`Scratch`]'s drop.
    pub fn scratch(&self) -> Scratch {
        let dir = PathBuf::from("target/benchmark").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory under target/benchmark");
        Scratch(dir)
    }
}

/// A scratch directory removed on drop.
pub struct Scratch(pub PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Run `setup` `reps` times, dropping each state before the next is built;
/// return the last state and the median set-up time in seconds.
pub fn timed_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), stats::median(&times))
}

/// When a measured phase ends.
#[derive(Clone, Copy)]
pub enum Limit {
    /// No op starts after this many seconds.
    Seconds(f64),
    /// Each client runs exactly this many ops.
    Ops(u64),
}

/// One client's ops: `(start, end)` in nanoseconds since the phase began,
/// and how many of them failed.
#[derive(Default)]
pub struct OpLog {
    pub ops: Vec<(u64, u64)>,
    pub failed: u64,
}

/// A finished measured phase.
pub struct Driven {
    pub logs: Vec<OpLog>,
    /// Length of the window rates are taken over, nanoseconds.
    pub window_ns: u64,
    /// CPU seconds the process used during the phase.
    pub cpu_s: f64,
}

impl Driven {
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.ops.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    /// Latencies of every op in milliseconds, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(
            self.logs
                .iter()
                .flat_map(|l| l.ops.iter().map(|&(s, e)| (e - s) as f64 / 1e6))
                .collect(),
        )
    }

    /// Ops per second in each of [`SLICES`] equal slices of the window. An
    /// op counts toward a slice by the share of its own duration that falls
    /// inside it, so slice edges do not quantize the rate.
    fn slice_rates(&self) -> Vec<f64> {
        let slice = self.window_ns as f64 / SLICES as f64;
        let mut done = [0.0f64; SLICES];
        for &(s, e) in self.logs.iter().flat_map(|l| &l.ops) {
            let (s, e) = (s as f64, (e as f64).max(s as f64 + 1.0));
            let first = (s / slice) as usize;
            let last = ((e / slice) as usize).min(SLICES - 1);
            for (k, d) in done.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = s.max(k as f64 * slice);
                let hi = e.min((k + 1) as f64 * slice);
                *d += (hi - lo).max(0.0) / (e - s);
            }
        }
        done.iter().map(|d| d / (slice / 1e9)).collect()
    }

    /// Median op latency in each slice (by the slice the op ended in), for
    /// slices that hold at least three ops.
    fn slice_medians_ms(&self) -> Vec<f64> {
        let slice = self.window_ns as f64 / SLICES as f64;
        let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for &(s, e) in self.logs.iter().flat_map(|l| &l.ops) {
            let k = ((e as f64 / slice) as usize).min(SLICES - 1);
            by_slice[k].push((e - s) as f64 / 1e6);
        }
        by_slice
            .into_iter()
            .filter(|v| v.len() >= 3)
            .map(|v| stats::median(&v))
            .collect()
    }

    /// Throughput of the quiet part of the run: the 90th percentile of the
    /// slice rates. The host is a shared VM whose interference only ever
    /// slows a slice down, so the quiet side estimates the program's own
    /// speed far more steadily than the middle.
    pub fn ops_per_s(&self) -> f64 {
        stats::percentile(&stats::sorted(self.slice_rates()), 0.9)
    }

    /// Median latency of the quiet part of the run: the 10th percentile of
    /// the slices' median latencies.
    pub fn op_p50_ms(&self) -> f64 {
        stats::percentile(&stats::sorted(self.slice_medians_ms()), 0.1)
    }
}

/// Closed loop: every client runs `op(client, i)` for `i = 0, 1, …` on its
/// own thread, starting the next op when the previous returns, until
/// `limit`. `op` returns whether the op succeeded and its answer was right.
pub fn drive<C: Send>(
    clients: &mut [C],
    limit: Limit,
    op: impl Fn(&mut C, u64) -> bool + Sync,
) -> Driven {
    assert!(
        clients.len() <= host::cpus(),
        "refusing to run {} client threads on {} CPUs",
        clients.len(),
        host::cpus()
    );
    let barrier = Barrier::new(clients.len());
    let cpu0 = host::cpu_seconds();
    let epoch = Instant::now();
    let logs: Vec<OpLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (barrier, op) = (&barrier, &op);
                scope.spawn(move || {
                    let mut log = OpLog::default();
                    barrier.wait();
                    for i in 0u64.. {
                        let start = epoch.elapsed();
                        let over = match limit {
                            Limit::Seconds(s) => start >= Duration::from_secs_f64(s),
                            Limit::Ops(n) => i >= n,
                        };
                        if over {
                            break;
                        }
                        if !op(client, i) {
                            log.failed += 1;
                        }
                        log.ops
                            .push((start.as_nanos() as u64, epoch.elapsed().as_nanos() as u64));
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let last_end = logs
        .iter()
        .filter_map(|l| l.ops.last())
        .map(|&(_, e)| e)
        .max()
        .unwrap_or(1);
    Driven {
        window_ns: match limit {
            Limit::Seconds(s) => (s * 1e9) as u64,
            Limit::Ops(_) => last_end,
        },
        cpu_s: host::cpu_seconds() - cpu0,
        logs,
    }
}

/// Fill in the end-to-end metrics of a run.
pub fn end_to_end(out: &mut Outcome, driven: &Driven, setup_s: f64) {
    let lat = driven.latencies_ms();
    out.attempted = driven.attempted();
    out.failed = driven.failed();
    out.set("ops_per_s", driven.ops_per_s());
    out.set("op_p50_ms", driven.op_p50_ms());
    out.set(
        "cpu_ms_per_op",
        driven.cpu_s * 1e3 / driven.attempted().max(1) as f64,
    );
    out.fact("peak_rss_mb", format!("{:.3}", host::peak_rss_mb()));
    out.set("setup_s", setup_s);
    out.fact("ops", driven.attempted());
    for (key, p) in [
        ("run_p50_ms", 0.5),
        ("run_p90_ms", 0.9),
        ("run_p99_ms", 0.99),
    ] {
        out.fact(key, format!("{:.4}", stats::percentile(&lat, p)));
    }
    out.fact(
        "run_max_ms",
        format!("{:.4}", lat.last().copied().unwrap_or(0.0)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_rate_counts_ops_by_overlap() {
        // A 20 s window, so 1 s slices; an op every 0.4 s exactly, none of
        // them aligned with a slice edge.
        let ops: Vec<(u64, u64)> = (0..50)
            .map(|i| (i * 400_000_000, (i + 1) * 400_000_000))
            .collect();
        let d = Driven {
            logs: vec![OpLog {
                ops,
                ..OpLog::default()
            }],
            window_ns: 20_000_000_000,
            cpu_s: 0.0,
        };
        assert!(d.slice_rates().iter().all(|r| (r - 2.5).abs() < 1e-9));
        assert!((d.ops_per_s() - 2.5).abs() < 1e-9);
        assert!((d.op_p50_ms() - 400.0).abs() < 1e-9);

        // An op straddling the end of the window counts only its inside
        // part: two thirds of it, spread evenly over the slices.
        let d = Driven {
            logs: vec![OpLog {
                ops: vec![(0, 1_500_000_000)],
                ..OpLog::default()
            }],
            window_ns: 1_000_000_000,
            cpu_s: 0.0,
        };
        let total: f64 = d.slice_rates().iter().sum::<f64>() * 0.05;
        assert!((total - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn quiet_side_ignores_a_stalled_stretch() {
        // 100 ms ops, except a stall in the middle fifth of the run.
        let mut ops = Vec::new();
        let mut t = 0u64;
        while t < 20_000_000_000 {
            let stalled = (8_000_000_000..12_000_000_000).contains(&t);
            let d = if stalled { 400_000_000 } else { 100_000_000 };
            ops.push((t, t + d));
            t += d;
        }
        let d = Driven {
            logs: vec![OpLog {
                ops,
                ..OpLog::default()
            }],
            window_ns: 20_000_000_000,
            cpu_s: 0.0,
        };
        assert!((d.ops_per_s() - 10.0).abs() < 1e-6);
        assert!((d.op_p50_ms() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn drive_runs_exactly_the_requested_ops() {
        let mut clients = vec![0u64];
        let d = drive(&mut clients, Limit::Ops(5), |c, i| {
            *c += i;
            i != 3
        });
        assert_eq!(clients[0], 10);
        assert_eq!((d.attempted(), d.failed()), (5, 1));
    }
}
