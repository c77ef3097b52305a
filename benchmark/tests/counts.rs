//! The traced run's deterministic counts must repeat exactly: two runs of
//! each workload at smoke size (one pass) report identical values.

use std::collections::BTreeMap;
use std::process::Command;

/// Counters that are pure functions of the op list.
const EXACT: [&str; 7] = [
    "storage.page_reads",
    "cache.lookups",
    "cache.fresh_evals",
    "calibrate.objective_evals",
    "metamodel.factorizations",
    "query.morsels",
    "server.requests",
];

const WORKLOADS: [&str; 6] = [
    "serve_mixed",
    "olap_mem",
    "olap_fit",
    "olap_spill",
    "explore_cold",
    "explore_warm",
];

/// Run one traced smoke pass and return its per-layer metrics.
fn traced_smoke(workload: &str) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_mde-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            "1",
            "--passes",
            "1",
        ])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    // Metric lines are `name value unit`; facts start with `#`.
    stdout
        .lines()
        .filter(|l| !l.starts_with(['#', '{']))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
        })
        .collect()
}

#[test]
fn traced_counts_repeat_exactly() {
    for workload in WORKLOADS {
        let (a, b) = (traced_smoke(workload), traced_smoke(workload));
        assert_eq!(a.len(), 85, "{workload} prints every per-layer metric");
        for name in EXACT {
            assert_eq!(
                a[name], b[name],
                "{workload}: {name} differs between two runs"
            );
        }
        // The design each workload was sized for.
        match workload {
            "serve_mixed" => {
                assert!(a["share.query"] + a["share.storage"] < 0.10);
                assert!(a["server.plan_cache_hit_rate"] > 0.9);
            }
            "olap_mem" => assert_eq!(a["storage.page_reads"], 0.0),
            "olap_fit" => assert!(a["storage.pool_hit_rate"] >= 0.95),
            "olap_spill" => assert!(a["storage.pool_hit_rate"] <= 0.2),
            "explore_cold" => assert!(a["cache.fresh_evals"] > 0.0),
            "explore_warm" => {
                assert_eq!(a["cache.hit_rate"], 1.0);
                assert_eq!(a["cache.fresh_evals"], 0.0);
            }
            _ => unreachable!(),
        }
        if workload.starts_with("olap") {
            assert!(a["server.plan_cache_hit_rate"] < 0.1);
        }
    }
}
