//! The observability determinism contract, enforced end to end:
//!
//! * the deterministic metrics ledger (`replicates.*`, `attempts.*`,
//!   `mc.sample`) is bit-identical from one Monte Carlo run to the next,
//!   under retries and injected faults;
//! * a preempted-then-resumed campaign finishes with exactly the metrics
//!   of an uninterrupted one, while checkpoint I/O stays out-of-band;
//! * a fixed three-operator plan (filter → join → group-by) emits an
//!   exact golden span tree with per-operator row counts;
//! * every JSONL trace line is a schema-complete JSON object.

use model_data_ecosystems::core::obs::{JsonlSink, MemorySink, Tracer};
use model_data_ecosystems::core::resilience::{
    CampaignState, FaultKind, FaultPlan, RunOptions, RunPolicy, StopCause,
};
use model_data_ecosystems::mcdb::mc::MonteCarloQuery;
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::{AggSpec, PreparedQuery};
use model_data_ecosystems::mcdb::vg::NormalVg;
use model_data_ecosystems::numeric::rng::chaos_seed;
use std::path::PathBuf;
use std::sync::Arc;

/// Master seed; CI sweeps `MDE_CHAOS_SEED` over the same assertions.
/// A scratch checkpoint path unique to this process and test.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(name: &str) -> Self {
        ScratchFile(std::env::temp_dir().join(format!(
            "mde-observability-{}-{}-{name}.ckpt",
            std::process::id(),
            chaos_seed()
        )))
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A stochastic campaign: sum one `Normal(mu, 1)` draw per `T` row.
fn normal_setup() -> (Catalog, MonteCarloQuery) {
    let mut db = Catalog::new();
    let mut builder = Table::build("T", &[("MU", DataType::Float)]);
    for mu in [0.0, 1.0, 2.5, -1.5] {
        builder = builder.row(vec![Value::from(mu)]);
    }
    db.insert(builder.finish().unwrap());
    let spec = RandomTableSpec::builder("OUT")
        .for_each(Plan::scan("T"))
        .with_vg(Arc::new(NormalVg))
        .vg_params_exprs(&[Expr::col("MU"), Expr::lit(1.0)])
        .select(&[("V", Expr::col("VALUE"))])
        .build()
        .unwrap();
    let q = MonteCarloQuery::new(
        vec![spec],
        Plan::scan("OUT").aggregate(&[], vec![AggSpec::new("S", AggFunc::Sum, Expr::col("V"))]),
    );
    (db, q)
}

/// The fixed deterministic catalog behind the golden-trace tests.
fn trace_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.insert(
        Table::build(
            "sales",
            &[
                ("id", DataType::Int),
                ("region", DataType::Str),
                ("amount", DataType::Float),
            ],
        )
        .row(vec![Value::from(1), Value::from("east"), Value::from(10.0)])
        .row(vec![Value::from(2), Value::from("west"), Value::from(20.0)])
        .row(vec![Value::from(3), Value::from("east"), Value::from(30.0)])
        .row(vec![Value::from(4), Value::from("east"), Value::Null])
        .finish()
        .unwrap(),
    );
    c.insert(
        Table::build(
            "regions",
            &[("name", DataType::Str), ("tax", DataType::Float)],
        )
        .row(vec![Value::from("east"), Value::from(0.1)])
        .row(vec![Value::from("west"), Value::from(0.2)])
        .finish()
        .unwrap(),
    );
    c
}

/// The fixed three-operator plan: filter → join → group-by.
fn trace_plan() -> Plan {
    Plan::scan("sales")
        .filter(Expr::col("amount").gt(Expr::lit(15.0)))
        .join(Plan::scan("regions"), &[("region", "name")])
        .aggregate(
            &["region"],
            vec![AggSpec::new("total", AggFunc::Sum, Expr::col("amount"))],
        )
}

// ---------------------------------------------------------------------------
// Differential: repeated runs' metrics
// ---------------------------------------------------------------------------

#[test]
fn repeated_run_metrics_are_bit_identical() {
    let seed = chaos_seed();
    let n = 24;
    let (db, q) = normal_setup();
    // Retries and faults exercise every counter the runners ledger:
    // replicate 2 panics once, replicate 5 burns two attempts (NaN, then
    // a typed error) before its third succeeds.
    let opts = RunOptions::policy(RunPolicy::Retry {
        max_attempts: 3,
        reseed: true,
    })
    .with_faults(
        FaultPlan::new()
            .fail_on(2, 0, FaultKind::Panic)
            .fail_on(5, 0, FaultKind::Nan)
            .fail_on(5, 1, FaultKind::Error),
    );

    let seq = q.run_with_options(&db, n, seed, &opts).unwrap();
    let m = &seq.report.metrics;
    assert_eq!(m.counter("replicates.attempted"), n as u64);
    assert_eq!(m.counter("replicates.succeeded"), n as u64);
    assert_eq!(m.counter("replicates.dropped"), 0);
    assert_eq!(m.counter("attempts.retried"), 3, "1 + 2 extra attempts");
    let samples = m.histogram("mc.sample").expect("sample histogram");
    assert_eq!(samples.count(), n as u64);
    // Wall-clock latency is ledgered, but out-of-band.
    assert!(m.duration("mc.replicate").is_some());

    let again = q.run_with_options(&db, n, seed, &opts).unwrap();
    // RunReport equality now covers the deterministic metrics ledger.
    assert_eq!(seq.report, again.report);
    let am = &again.report.metrics;
    assert_eq!(
        am.histogram("mc.sample"),
        Some(samples),
        "sample histograms diverged"
    );
    assert_eq!(am.counter("attempts.retried"), 3);
}

// ---------------------------------------------------------------------------
// Differential: resumed vs uninterrupted metrics
// ---------------------------------------------------------------------------

#[test]
fn resumed_campaign_metrics_match_uninterrupted() {
    let seed = chaos_seed();
    let n = 16;
    let (db, q) = normal_setup();
    let baseline = q
        .run_with_options(&db, n, seed, &RunOptions::default())
        .unwrap();

    let scratch = ScratchFile::new("resume-metrics");
    let spec =
        model_data_ecosystems::core::resilience::CheckpointSpec::new(scratch.path()).every(2);
    let interrupted = q
        .run_with_options(
            &db,
            n,
            seed,
            &RunOptions::default()
                .with_checkpoint(spec.clone())
                .with_faults(FaultPlan::new().preempt_at(6)),
        )
        .unwrap();
    assert_eq!(interrupted.stopped, Some(StopCause::Preempted));
    // The preempted prefix's deterministic metrics round-trip through the
    // checkpoint file; its checkpoint I/O does not.
    let im = &interrupted.report.metrics;
    assert_eq!(im.histogram("mc.sample").unwrap().count(), 6);
    assert!(im.io_counter("ckpt.saves") > 0, "saves are ledgered");

    let state = CampaignState::load(scratch.path()).unwrap();
    let resumed = q
        .run_with_options(
            &db,
            n,
            seed,
            &RunOptions::default().with_checkpoint(spec).resuming(state),
        )
        .unwrap();
    assert_eq!(resumed.stopped, None);
    // Equality covers counters and value histograms — the resumed run's
    // ledger is exactly the uninterrupted one's, even though its samples
    // 0..6 were observed before the preemption and decoded from disk.
    assert_eq!(resumed.report, baseline.report);
    assert_eq!(
        resumed
            .report
            .metrics
            .histogram("mc.sample")
            .unwrap()
            .count(),
        n as u64
    );
    // Out-of-band ledgers tell the truth about *this* process's I/O
    // instead: the resumed run saved fewer checkpoints than a full run
    // would, and none of that entered the equality above.
    assert!(resumed.report.metrics.io_counter("ckpt.bytes") > 0);
    assert!(baseline.report.metrics.io_counter("ckpt.bytes") == 0);
}

// ---------------------------------------------------------------------------
// Golden span tree
// ---------------------------------------------------------------------------

/// Drop `*_nanos` fields from a rendered span tree. The deterministic
/// ledger is every span field EXCEPT the `*_nanos` wall-clock ones
/// (DESIGN.md §6g); golden comparisons strip exactly that.
fn strip_nanos_fields(tree: &str) -> String {
    let mut out = String::new();
    let mut rest = tree;
    while let Some(i) = rest.find(", query.morsel_nanos=") {
        out.push_str(&rest[..i]);
        let after = &rest[i + ", query.morsel_nanos=".len()..];
        let end = after
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(after.len());
        rest = &after[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn fixed_plan_emits_exact_golden_span_tree() {
    let c = trace_catalog();
    let prepared = PreparedQuery::prepare(&trace_plan(), &c).unwrap();

    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(sink.clone());
    let out = prepared.execute_traced(&c, &tracer).unwrap();
    assert_eq!(out.len(), 2, "east and west survive the filter");

    // `query.morsels` / `query.simd_lanes` are deterministic execution
    // counters: one morsel each for filter, join probe, and aggregate —
    // result materialization adopts the output batch in O(1) and
    // dispatches none; the 4-row filter routes its 4 lanes through the
    // SIMD comparison fast path. Only wall-clock is stripped.
    assert_eq!(
        strip_nanos_fields(&sink.tree()),
        "query{exec=1, rows_out=2, query.morsels=3, query.simd_lanes=4}\n\
         \x20 aggregate{rows_in=2, groups=2}\n\
         \x20   join{left_rows=2, right_rows=2, rows_out=2}\n\
         \x20     filter{rows_in=4, rows_out=2}\n\
         \x20       scan{table=\"sales\", rows=4}\n\
         \x20     scan{table=\"regions\", rows=2}\n"
    );

    // Second execution on the same catalog: the same tree, one execution
    // further on.
    let sink2 = Arc::new(MemorySink::new());
    let tracer2 = Tracer::new(sink2.clone());
    prepared.execute_traced(&c, &tracer2).unwrap();
    assert_eq!(prepared.executions(), 2);
    assert_eq!(
        strip_nanos_fields(&sink2.tree()),
        strip_nanos_fields(&sink.tree()).replace("exec=1", "exec=2")
    );

    // Children complete before their parents in the raw record stream.
    let names: Vec<String> = sink.records().into_iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        ["scan", "filter", "scan", "join", "aggregate", "query"]
    );
}

// ---------------------------------------------------------------------------
// JSONL schema
// ---------------------------------------------------------------------------

#[test]
fn jsonl_trace_lines_are_schema_complete() {
    let c = trace_catalog();
    let sink = Arc::new(JsonlSink::new(Vec::<u8>::new()));
    let tracer = Tracer::new(sink.clone());
    c.query_traced(&trace_plan(), &tracer).unwrap();
    drop(tracer);

    let sink = Arc::into_inner(sink).expect("sole owner after tracer drop");
    let text = String::from_utf8(sink.into_inner()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "one line per span:\n{text}");

    let mut seen_ids = Vec::new();
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not an object: {line}"
        );
        for key in [
            "\"span\":",
            "\"parent\":",
            "\"name\":",
            "\"fields\":",
            "\"duration_ns\":",
        ] {
            assert!(line.contains(key), "missing {key}: {line}");
        }
        let field = |key: &str| -> u64 {
            let at = line.find(key).unwrap() + key.len();
            line[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let (id, parent) = (field("\"span\":"), field("\"parent\":"));
        assert!(id >= 1, "span ids start at 1: {line}");
        assert!(!seen_ids.contains(&id), "duplicate span id: {line}");
        // Children are emitted before their parents, so a parent id is
        // either the root sentinel or a span not yet emitted — it can
        // never point at an already-finished span's child.
        assert_ne!(parent, id, "self-parent: {line}");
        seen_ids.push(id);
    }
    // Exactly one root.
    assert_eq!(
        lines.iter().filter(|l| l.contains("\"parent\":0,")).count(),
        1,
        "{text}"
    );
}
