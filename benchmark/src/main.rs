//! `mde-benchmark`: the repository's benchmark. One invocation runs one
//! workload in this process, prints every metric by name with its unit,
//! checks every answer, and ends with one line of JSON. See `README.md`.

mod explore;
mod harness;
mod host;
mod spec;
mod stats;
mod trace;
mod wire;

use harness::{Args, Outcome};
use spec::{Better, Metric, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: mde-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--passes <n>]
       mde-benchmark --list | --all | --check-repeat [--runs <n>] [--seed <u64>] [--seconds <s>]";

/// The value after `flag`, if the flag is present.
fn value_of<'a>(argv: &'a [String], flag: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(argv: &[String], flag: &str, default: T) -> Result<T, String> {
    match value_of(argv, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {flag}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let has = |flag: &str| argv.iter().any(|a| a == flag);
    if has("--list") {
        spec::print_list();
        return Ok(ExitCode::SUCCESS);
    }
    let seed: u64 = parse(argv, "--seed", DEFAULT_SEED)?;
    let seconds: f64 = parse(argv, "--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    if has("--all") {
        return Ok(run_all(seed, seconds));
    }
    if has("--check-repeat") {
        return Ok(check_repeat(parse(argv, "--runs", 5)?, seed, seconds));
    }
    let name = value_of(argv, "--workload").ok_or("missing --workload")?;
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match value_of(argv, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad value `{other}` for --trace")),
    };
    let args = Args {
        workload: workload.name,
        seed,
        seconds,
        trace,
        passes: value_of(argv, "--passes")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value `{v}` for --passes"))
            })
            .transpose()?,
        run_index: parse(argv, "--run-index", 0)?,
    };
    let mut out = match args.workload {
        "serve_mixed" => wire::run(wire::Kind::Serve, &args),
        "olap_mem" => wire::run(wire::Kind::OlapMem, &args),
        "olap_fit" => wire::run(wire::Kind::OlapFit, &args),
        "olap_spill" => wire::run(wire::Kind::OlapSpill, &args),
        "explore_cold" => explore::run(false, &args),
        "explore_warm" => explore::run(true, &args),
        other => unreachable!("workload `{other}` is in the table but not dispatched"),
    };
    if args.trace {
        out.set("process.rss_mb", host::rss_mb());
        out.set("process.peak_rss_mb", host::peak_rss_mb());
    }
    Ok(report(&args, &out))
}

/// Print the facts, every metric by name with its unit, and the result line.
/// The exit code is non-zero if any op failed or answered wrongly.
fn report(args: &Args, out: &Outcome) -> ExitCode {
    let metrics: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in out.metrics.keys() {
        assert!(
            metrics.iter().any(|m| m.name == *name),
            "metric `{name}` is not in the {} table",
            if args.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "# workload={} seed={} seconds={} trace={} run_index={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.run_index
    );
    println!(
        "# host_cpus={} rustc=\"{}\" git_rev={}",
        host::cpus(),
        host::rustc_version(),
        host::git_rev()
    );
    for (key, value) in &out.facts {
        println!("# {key}={value}");
    }
    println!(
        "# attempted={} failed={} failed_share={} answer_checksum_ok={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        u8::from(correct)
    );
    let mut json = Vec::new();
    for m in metrics {
        // End-to-end metrics are all set by every workload; a per-layer
        // metric a workload does not reach reads 0.
        let value = match out.metrics.get(m.name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("workload did not report end-to-end metric `{}`", m.name),
        };
        println!("{:<36} {:>18.6} {}", m.name, value, m.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} ops failed or answered wrongly",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}

/// Run this binary again with `args`; its standard output if it exited 0.
fn spawn_self(args: &[String]) -> Option<String> {
    let exe = std::env::current_exe().expect("path of this executable");
    let output = Command::new(exe)
        .args(args)
        .output()
        .expect("spawn this executable");
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).into_owned())
}

fn run_args(workload: &str, seed: u64, seconds: f64, trace: bool, run_index: u64) -> Vec<String> {
    [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
        "--run-index",
        &run_index.to_string(),
    ]
    .map(String::from)
    .to_vec()
}

/// `--all`: every workload, untraced then traced, one process each.
fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let mut ok = true;
    for (i, w) in WORKLOADS.iter().enumerate() {
        for trace in [false, true] {
            match spawn_self(&run_args(w.name, seed, seconds, trace, i as u64)) {
                Some(stdout) => print!("{stdout}"),
                None => {
                    eprintln!("{} (trace={}) failed", w.name, u8::from(trace));
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The value of `metric` in a run's result line.
fn metric_value(stdout: &str, metric: &str) -> Option<f64> {
    let line = stdout.lines().last()?;
    let rest = line.split_once(&format!("\"{metric}\": {{\"value\": "))?.1;
    rest.split_once(',')?.0.parse().ok()
}

/// `--check-repeat`: two sets of `runs` runs of every workload, alternating
/// between the sets, each run with another seed. Fails if a median differs
/// between the sets by more than the metric's bound (in the worse
/// direction), or if a set's quartile spread exceeds it.
fn check_repeat(runs: usize, seed: u64, seconds: f64) -> ExitCode {
    let runs = runs.max(5);
    let mut ok = true;
    println!("workload       metric          median_a      median_b      worse_by  spread_a  spread_b  bound");
    for w in &WORKLOADS {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * runs {
            let args = run_args(w.name, seed + (i / 2) as u64, seconds, false, i as u64);
            match spawn_self(&args) {
                Some(stdout) => sets[i % 2].push(stdout),
                None => {
                    eprintln!("{} run {i} failed", w.name);
                    ok = false;
                }
            }
        }
        for m in &END_TO_END {
            let values = |set: &[String]| -> Vec<f64> {
                set.iter().filter_map(|s| metric_value(s, m.name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse_by = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let (sa, sb) = (stats::iqr_share(&a), stats::iqr_share(&b));
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let spread_counts = m.name != "setup_s";
            let bad = worse_by.abs() > bound || (spread_counts && sa.max(sb) > bound);
            ok &= !bad;
            println!(
                "{:<14} {:<14} {:>13.5} {:>13.5} {:>+9.2}% {:>8.2}% {:>8.2}% {:>5.0}%{}",
                w.name,
                m.name,
                ma,
                mb,
                worse_by * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if bad { "  <-- outside the bound" } else { "" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
