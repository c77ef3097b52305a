//! The benchmark's contract in one place: the six workloads with their
//! reasons and size constants, the end-to-end metrics with their bounds,
//! and the per-layer metric names. `BENCHMARK.json` repeats the names,
//! units, directions and bounds; the test below keeps the two in step.

/// Client threads (= connections) of an end-to-end run. Closed loop: each
/// sends its next request when the previous reply arrives.
pub const CLIENTS: usize = 2;

/// Set-up is repeated this many times per run and `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The measured window is cut into this many equal slices; `ops_per_s` and
/// `op_p50_ms` are read from the quiet side of the slices' distribution.
pub const SLICES: usize = 20;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 21;

/// Default `--seconds` (the `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 10.0;

// ---- serve_mixed -------------------------------------------------------

/// `serve_mixed` runs one client. Two clients repeating sub-millisecond
/// cycles against two session threads and the hub's workers on two CPUs
/// phase-lock: a run flips between a fast and a slow regime for seconds at
/// a time, and identical runs differ by a fifth. One client repeats within
/// two percent.
pub const SERVE_CLIENTS: usize = 1;

/// Rows of the `ITEMS` table behind the `SALES` stochastic table.
pub const SERVE_ITEMS: i64 = 8;
/// Replicates of every `MC` and `CAMPAIGN` frame.
pub const SERVE_MC_N: u64 = 48;
/// `SQL` frames per cycle (then one `MC`, then one `CAMPAIGN`); the cycle
/// is the op.
pub const SERVE_SQL_PER_CYCLE: usize = 6;
/// Cycles per pass; a pass is the unit the oracle and the counts repeat on.
pub const SERVE_CYCLES_PER_PASS: usize = 32;

// ---- olap_* ------------------------------------------------------------

/// Rows of `FACT(K, G, V, Q)`.
pub const OLAP_FACT_ROWS: usize = 65_536;
/// Rows of `DIM(K, W, LABEL)`.
pub const OLAP_DIM_ROWS: usize = 1_000;
/// Distinct values of the group-by column `G`.
pub const OLAP_GROUPS: u64 = 16;
/// Replicates of the refresh's `MC` frame.
pub const OLAP_MC_N: u64 = 4;
/// Refreshes per pass and client. Six frames each, every SQL text distinct,
/// so one pass holds more texts than the plan cache's 64 entries and the
/// FIFO cache misses on every frame of every pass.
pub const OLAP_REFRESHES_PER_PASS: usize = 16;
/// `olap_fit`: pool frames as a multiple of the paged files' pages.
pub const OLAP_FIT_POOL_X: f64 = 2.0;
/// `olap_spill`: pool frames as a share of the paged files' pages.
pub const OLAP_SPILL_POOL_X: f64 = 0.125;

// ---- explore_* ---------------------------------------------------------

/// Campaigns per fleet (seeds `seed + k`); a pass is one fleet.
pub const EXPLORE_FLEET: u64 = 12;
/// Screening: factors and NOLH runs.
pub const EXPLORE_FACTORS: usize = 8;
pub const EXPLORE_SCREEN_RUNS: usize = 65;
/// Kriging calibration on the top two factors.
pub const EXPLORE_DESIGN_RUNS: usize = 33;
pub const EXPLORE_INFILL_ROUNDS: usize = 8;
pub const EXPLORE_REPS: usize = 2;
/// What-if Monte Carlo queries at the calibrated point, per campaign.
pub const EXPLORE_WHATIFS: u64 = 8;
/// Replicates of one objective evaluation and of one what-if query.
pub const EXPLORE_OBJECTIVE_N: usize = 16;
pub const EXPLORE_WHATIF_N: usize = 24;
/// Rows of the `ITEMS` table the objective's stochastic table ranges over.
pub const EXPLORE_ITEMS: i64 = 16;

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "serve_mixed",
        why: "tiny tables over the wire: framing, sessions, plan-cache hits, CampaignHub and the MC fixed cost do the work, query and storage almost none",
    },
    Workload {
        name: "olap_mem",
        why: "in-memory star schema, every SQL text new: planner and vectorized operators do the work, storage none; plan-cache misses",
    },
    Workload {
        name: "olap_fit",
        why: "same refreshes on 16 KiB paged tables in a pool twice their size: adds page decode at pool hit rate near 1",
    },
    Workload {
        name: "olap_spill",
        why: "same refreshes with a pool an eighth of the pages: eviction, file reads and checksums on every scan",
    },
    Workload {
        name: "explore_cold",
        why: "screen, calibrate, what-if fleet on an empty result cache: MC objective evaluations and GP fits share the work, the cache is written (insert + persist)",
    },
    Workload {
        name: "explore_warm",
        why: "the same fleet replayed from a reopened cache file: every evaluation hits, so GP fit/infill and cache open+lookup do the work",
    },
];

/// Whether a lower or a higher value is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen; per-layer metrics have none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// End-to-end metrics, every one emitted by every workload with tracing off.
pub const END_TO_END: [Metric; 4] = [
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("cpu_ms_per_op", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics of the traced run, every one emitted by every workload
/// (0 where the workload does not reach the layer).
pub const PER_LAYER: [Metric; 85] = [
    // server
    layer("server.ping_rtt_us", "us", Lower),
    layer("server.frame_codec_ns", "ns", Lower),
    layer("server.parse_request_ns", "ns", Lower),
    layer("server.plan_cache_hit_rate", "ratio", Higher),
    layer("server.plan_cache_hit_us", "us", Lower),
    layer("server.plan_cache_miss_us", "us", Lower),
    layer("server.reply_encode_us", "us", Lower),
    layer("server.residual_sql_us", "us", Lower),
    layer("server.residual_mc_us", "us", Lower),
    layer("server.requests", "count", Lower),
    layer("server.errors", "count", Lower),
    layer("server.overloaded", "count", Lower),
    layer("server.drain_ms", "ms", Lower),
    layer("server.sql_p50_ms", "ms", Lower),
    layer("server.sql_p95_ms", "ms", Lower),
    layer("server.sql_p99_ms", "ms", Lower),
    layer("server.sql_p999_ms", "ms", Lower),
    layer("server.mc_p50_ms", "ms", Lower),
    layer("server.mc_p95_ms", "ms", Lower),
    layer("server.mc_p99_ms", "ms", Lower),
    layer("server.campaign_p50_ms", "ms", Lower),
    // core.sched + CampaignHub
    layer("sched.campaign_overhead_us", "us", Lower),
    layer("sched.dispatch_us_per_campaign", "us", Lower),
    layer("sched.queue_wait_p50_ms", "ms", Lower),
    layer("sched.queue_wait_p99_ms", "ms", Lower),
    layer("sched.shed", "count", Lower),
    layer("sched.retries", "count", Lower),
    layer("sched.rejected", "count", Lower),
    // mcdb.sql
    layer("sql.parse_us", "us", Lower),
    layer("sql.prepare_us", "us", Lower),
    // mcdb.query
    layer("query.filter_ms", "ms", Lower),
    layer("query.range_ms", "ms", Lower),
    layer("query.join_ms", "ms", Lower),
    layer("query.groupby_ms", "ms", Lower),
    layer("query.topk_ms", "ms", Lower),
    layer("query.mrows_per_s", "Mrows/s", Higher),
    layer("query.rows_examined_per_row_returned", "ratio", Lower),
    layer("query.morsels", "count", Lower),
    layer("query.simd_lanes", "count", Higher),
    // mcdb.mc
    layer("mc.fixed_us", "us", Lower),
    layer("mc.replicate_us", "us", Lower),
    layer("mc.prepare_us", "us", Lower),
    layer("mc.attempted", "count", Lower),
    layer("mc.retries", "count", Lower),
    // mcdb.storage
    layer("storage.page_reads", "count", Lower),
    layer("storage.pool_hit_rate", "ratio", Higher),
    layer("storage.pool_evictions", "count", Lower),
    layer("storage.pool_resident", "count", Lower),
    layer("storage.pool_exhausted", "count", Lower),
    layer("storage.read_batch_ms", "ms", Lower),
    layer("storage.decode_mrows_s", "Mrows/s", Higher),
    layer("storage.write_s", "s", Lower),
    layer("storage.pages", "count", Lower),
    layer("storage.file_bytes", "bytes", Lower),
    layer("storage.bytes_per_user_byte", "ratio", Lower),
    // numeric.cache
    layer("cache.lookups", "count", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    layer("cache.fresh_evals", "count", Lower),
    layer("cache.lookup_us", "us", Lower),
    layer("cache.insert_us", "us", Lower),
    layer("cache.persist_ms", "ms", Lower),
    layer("cache.open_ms", "ms", Lower),
    layer("cache.entries", "count", Lower),
    layer("cache.evictions", "count", Lower),
    layer("cache.file_bytes", "bytes", Lower),
    // metamodel / calibrate / numeric.linalg
    layer("metamodel.screen_ms", "ms", Lower),
    layer("metamodel.gp_fit_ms", "ms", Lower),
    layer("metamodel.assembles", "count", Lower),
    layer("metamodel.factorizations", "count", Lower),
    layer("metamodel.extends", "count", Higher),
    layer("calibrate.kriging_ms", "ms", Lower),
    layer("calibrate.objective_evals", "count", Lower),
    layer("calibrate.surrogate_share", "ratio", Lower),
    layer("linalg.cholesky_ms", "ms", Lower),
    // share of the traced requests' time that is each layer's self time
    layer("share.server", "ratio", Lower),
    layer("share.sched", "ratio", Lower),
    layer("share.sql", "ratio", Lower),
    layer("share.query", "ratio", Lower),
    layer("share.mc", "ratio", Lower),
    layer("share.storage", "ratio", Lower),
    layer("share.cache", "ratio", Lower),
    layer("share.metamodel", "ratio", Lower),
    // the whole process, at the end of the traced run
    layer("process.rss_mb", "MiB", Lower),
    layer("process.peak_rss_mb", "MiB", Lower),
    // the trace itself
    layer("trace.overhead_share", "ratio", Lower),
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--list`: every workload with its reason, every metric with unit,
/// direction and bound.
pub fn print_list() {
    println!("workloads (closed loop, {CLIENTS} clients; serve_mixed {SERVE_CLIENTS}):");
    for w in &WORKLOADS {
        println!("  {:<13} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload, tracing off):");
    for m in &END_TO_END {
        println!(
            "  {:<14} {:<6} {:<6} better, may worsen by {:.0} %",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    println!("per-layer metrics (traced run, one client, no bound):");
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:<8} {} better",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is a static file the driver reads; every entry of
    /// the tables above must appear in it verbatim, and nothing else.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let json = include_str!("../../BENCHMARK.json");
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "missing or stale: {entry}");
            assert!(w.why.len() <= 200);
        }
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics have bounds")
            );
            assert!(json.contains(&entry), "missing or stale: {entry}");
            assert!(m.bound.is_some_and(|b| b <= 0.25));
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(json.contains(&entry), "missing or stale: {entry}");
        }
        let entries = json.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        assert!(json.contains(&format!("\"run_seconds\": {}", DEFAULT_SECONDS)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
