//! E8 — §2.4 PDES-MAS: instantaneous range queries over shared state.
//!
//! "find all agents who are, right now, within one mile and who are over
//! 25 years old" — k-d tree vs linear scan across population sizes, plus
//! the SSV-history as-of reads that let ALPs at different simulated times
//! query consistently.

use mde_abs::rangequery::{random_agents, range_query_naive, AgentState, KdTree, SsvStore};
use mde_numeric::rng::rng_from_seed;
use std::time::Instant;

/// Regenerate the range-query throughput table.
pub(crate) fn rangequery_report() -> String {
    let mut out = String::new();
    out.push_str("E8 | §2.4 PDES-MAS: range queries — k-d tree vs naive scan\n");
    out.push_str("query: within radius 1.0 (of a 100x100 world) AND age > 25; 200 queries\n\n");

    let mut rows = Vec::new();
    for &n in &[1_000usize, 10_000, 100_000] {
        let mut rng = rng_from_seed(7);
        let agents = random_agents(n, 100.0, &mut rng);
        let t0 = Instant::now();
        let tree = KdTree::build(&agents);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;

        let centers: Vec<(f64, f64)> = (0..200)
            .map(|q| ((q * 37 % 100) as f64, (q * 61 % 100) as f64))
            .collect();
        let pred = |a: &AgentState| a.attrs[0] > 25.0;

        let t1 = Instant::now();
        let mut tree_hits = 0usize;
        for &c in &centers {
            tree_hits += tree.range_query(&agents, c, 1.0, pred).len();
        }
        let tree_ms = t1.elapsed().as_secs_f64() * 1e3;

        let t2 = Instant::now();
        let mut naive_hits = 0usize;
        for &c in &centers {
            naive_hits += range_query_naive(&agents, c, 1.0, pred).len();
        }
        let naive_ms = t2.elapsed().as_secs_f64() * 1e3;
        assert_eq!(tree_hits, naive_hits, "index/scan disagreement");

        rows.push(vec![
            n.to_string(),
            format!("{build_ms:.1}"),
            format!("{tree_ms:.2}"),
            format!("{naive_ms:.2}"),
            format!("{:.0}x", naive_ms / tree_ms.max(1e-9)),
            tree_hits.to_string(),
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "agents",
            "build (ms)",
            "k-d 200 queries (ms)",
            "scan 200 queries (ms)",
            "speedup",
            "hits",
        ],
        &rows,
    ));

    // SSV history: as-of reads.
    let mut store = SsvStore::default();
    let mut rng = rng_from_seed(9);
    for t in 0..10 {
        store.record(t as f64, random_agents(1000, 100.0, &mut rng));
    }
    out.push_str(&format!(
        "\nSSV history: {} snapshots; as-of(3.7) resolves to the t=3 snapshot \
         (ALPs 'progress through simulated time at different rates').\n",
        store.len()
    ));
    let snap = store.as_of(3.7).expect("snapshot");
    out.push_str(&format!(
        "as-of(3.7) snapshot size: {} agents\n",
        snap.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_asserts_index_scan_agreement() {
        // The report itself asserts equality on every row; it completing
        // is the test.
        let r = rangequery_report();
        assert!(r.contains("speedup"));
    }
}
