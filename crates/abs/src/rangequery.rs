//! PDES-MAS-style shared state and instantaneous range queries (§2.4).
//!
//! In PDES-MAS, "parallel 'agent logical processes' … operate in a
//! repeating cycle of 'sense-think-response'. A key part of the 'sense'
//! stage is discovering nearby agents via an instantaneous *range* query,
//! e.g., 'find all agents who are, right now, within one mile and who are
//! over 25 years old'. … a set of 'communication logical processes'
//! maintains, in a distributed manner, a collection of 'shared-state
//! variables' (SSVs) … CLPs in fact maintain a history of SSV values over
//! time."
//!
//! This module provides:
//! * [`SsvStore`] — timestamped history of agent shared-state (position +
//!   attributes) with as-of reads, the CLP behavior;
//! * [`KdTree`] — a 2-d tree answering circular range queries with an
//!   attribute predicate, plus the naive scan baseline it is benchmarked
//!   against.

use mde_numeric::rng::Rng;

/// A snapshot of one agent's externally visible state.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentState {
    /// Agent id.
    pub id: u64,
    /// Position `(x, y)`.
    pub pos: (f64, f64),
    /// Scalar attributes (e.g. age), in a fixed order per store.
    pub attrs: Vec<f64>,
}

/// Timestamped history of shared-state snapshots (the CLP's SSV store).
#[derive(Debug, Clone, Default)]
pub struct SsvStore {
    /// Snapshots in increasing-time order.
    history: Vec<(f64, Vec<AgentState>)>,
}

impl SsvStore {
    /// Record a snapshot at time `t` (must be ≥ the last recorded time).
    pub fn record(&mut self, t: f64, agents: Vec<AgentState>) {
        if let Some((last, _)) = self.history.last() {
            assert!(t >= *last, "snapshots must be recorded in time order");
        }
        self.history.push((t, agents));
    }

    /// The snapshot in force at time `t` (latest with timestamp ≤ `t`);
    /// `None` before the first snapshot — supporting ALPs that "progress
    /// through simulated time at different rates".
    pub fn as_of(&self, t: f64) -> Option<&[AgentState]> {
        let idx = self.history.partition_point(|(ts, _)| *ts <= t);
        idx.checked_sub(1).map(|i| self.history[i].1.as_slice())
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether the store has no snapshots.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }
}

/// Naive range query: linear scan — the correctness baseline (and the
/// thing the k-d tree is benchmarked against in `mde-bench`).
pub fn range_query_naive(
    agents: &[AgentState],
    center: (f64, f64),
    radius: f64,
    pred: impl Fn(&AgentState) -> bool,
) -> Vec<&AgentState> {
    let r2 = radius * radius;
    agents
        .iter()
        .filter(|a| {
            let dx = a.pos.0 - center.0;
            let dy = a.pos.1 - center.1;
            dx * dx + dy * dy <= r2 && pred(a)
        })
        .collect()
}

/// A static 2-d tree over agent positions.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<KdNode>,
    root: Option<usize>,
}

#[derive(Debug, Clone)]
struct KdNode {
    /// Index into the agent slice the tree was built over.
    agent: usize,
    pos: (f64, f64),
    left: Option<usize>,
    right: Option<usize>,
    /// Split axis: 0 = x, 1 = y.
    axis: u8,
}

impl KdTree {
    /// Build a balanced tree over the agents (median splitting).
    pub fn build(agents: &[AgentState]) -> Self {
        let mut idx: Vec<usize> = (0..agents.len()).collect();
        let mut nodes = Vec::with_capacity(agents.len());
        let root = Self::build_rec(agents, &mut idx[..], 0, &mut nodes);
        KdTree { nodes, root }
    }

    fn build_rec(
        agents: &[AgentState],
        idx: &mut [usize],
        depth: u8,
        nodes: &mut Vec<KdNode>,
    ) -> Option<usize> {
        if idx.is_empty() {
            return None;
        }
        let axis = depth % 2;
        idx.sort_by(|&a, &b| {
            let ka = if axis == 0 {
                agents[a].pos.0
            } else {
                agents[a].pos.1
            };
            let kb = if axis == 0 {
                agents[b].pos.0
            } else {
                agents[b].pos.1
            };
            ka.partial_cmp(&kb).expect("finite positions")
        });
        let mid = idx.len() / 2;
        let agent = idx[mid];
        let node_slot = nodes.len();
        nodes.push(KdNode {
            agent,
            pos: agents[agent].pos,
            left: None,
            right: None,
            axis,
        });
        let (lo, hi) = idx.split_at_mut(mid);
        let left = Self::build_rec(agents, lo, depth + 1, nodes);
        let right = Self::build_rec(agents, &mut hi[1..], depth + 1, nodes);
        nodes[node_slot].left = left;
        nodes[node_slot].right = right;
        Some(node_slot)
    }

    /// All agents within `radius` of `center` satisfying `pred`, as indices
    /// into the slice the tree was built over.
    pub fn range_query(
        &self,
        agents: &[AgentState],
        center: (f64, f64),
        radius: f64,
        pred: impl Fn(&AgentState) -> bool,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.query_rec(
                root,
                agents,
                center,
                radius * radius,
                radius,
                &pred,
                &mut out,
            );
        }
        out.sort_unstable();
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn query_rec(
        &self,
        node_id: usize,
        agents: &[AgentState],
        center: (f64, f64),
        r2: f64,
        r: f64,
        pred: &impl Fn(&AgentState) -> bool,
        out: &mut Vec<usize>,
    ) {
        let node = &self.nodes[node_id];
        let dx = node.pos.0 - center.0;
        let dy = node.pos.1 - center.1;
        if dx * dx + dy * dy <= r2 && pred(&agents[node.agent]) {
            out.push(node.agent);
        }
        let (coord, ccoord) = if node.axis == 0 {
            (node.pos.0, center.0)
        } else {
            (node.pos.1, center.1)
        };
        // Recurse into the side containing the center; enter the other side
        // only if the splitting plane intersects the query disc.
        let (near, far) = if ccoord <= coord {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if let Some(n) = near {
            self.query_rec(n, agents, center, r2, r, pred, out);
        }
        if (ccoord - coord).abs() <= r {
            if let Some(f) = far {
                self.query_rec(f, agents, center, r2, r, pred, out);
            }
        }
    }
}

/// Generate a uniform random agent population over `[0, extent]²` with a
/// single "age" attribute — the workload of the range-query experiments.
pub fn random_agents(n: usize, extent: f64, rng: &mut Rng) -> Vec<AgentState> {
    (0..n)
        .map(|id| AgentState {
            id: id as u64,
            pos: (rng.gen::<f64>() * extent, rng.gen::<f64>() * extent),
            attrs: vec![rng.gen_range(0..=90) as f64],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::rng_from_seed;

    #[test]
    fn ssv_store_as_of_semantics() {
        let mut store = SsvStore::default();
        assert!(store.is_empty());
        let snap = |id, x| AgentState {
            id,
            pos: (x, 0.0),
            attrs: vec![30.0],
        };
        store.record(0.0, vec![snap(1, 0.0)]);
        store.record(5.0, vec![snap(1, 5.0)]);
        store.record(10.0, vec![snap(1, 10.0)]);
        assert_eq!(store.len(), 3);
        assert!(store.as_of(-1.0).is_none());
        assert_eq!(store.as_of(0.0).unwrap()[0].pos.0, 0.0);
        assert_eq!(store.as_of(7.3).unwrap()[0].pos.0, 5.0);
        assert_eq!(store.as_of(100.0).unwrap()[0].pos.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn ssv_rejects_out_of_order_snapshots() {
        let mut store = SsvStore::default();
        store.record(5.0, vec![]);
        store.record(1.0, vec![]);
    }

    #[test]
    fn kdtree_matches_naive_on_random_data() {
        let mut rng = rng_from_seed(1);
        let agents = random_agents(500, 100.0, &mut rng);
        let tree = KdTree::build(&agents);
        for q in 0..20 {
            let center = (5.0 * q as f64, 97.0 - 4.0 * q as f64);
            let radius = 3.0 + q as f64;
            // The paper's example predicate: age over 25.
            let pred = |a: &AgentState| a.attrs[0] > 25.0;
            let naive: Vec<u64> = range_query_naive(&agents, center, radius, pred)
                .iter()
                .map(|a| a.id)
                .collect();
            let mut naive_sorted = naive;
            naive_sorted.sort_unstable();
            let tree_ids: Vec<u64> = tree
                .range_query(&agents, center, radius, pred)
                .iter()
                .map(|&i| agents[i].id)
                .collect();
            assert_eq!(tree_ids, naive_sorted, "query {q} diverged");
        }
    }

    #[test]
    fn kdtree_empty_and_singleton() {
        let tree = KdTree::build(&[]);
        assert!(tree.range_query(&[], (0.0, 0.0), 10.0, |_| true).is_empty());

        let one = vec![AgentState {
            id: 7,
            pos: (1.0, 1.0),
            attrs: vec![40.0],
        }];
        let tree = KdTree::build(&one);
        assert_eq!(tree.range_query(&one, (0.0, 0.0), 2.0, |_| true), vec![0]);
        assert!(tree.range_query(&one, (0.0, 0.0), 1.0, |_| true).is_empty());
    }

    #[test]
    fn radius_boundary_is_inclusive() {
        let agents = vec![AgentState {
            id: 0,
            pos: (3.0, 4.0),
            attrs: vec![],
        }];
        let tree = KdTree::build(&agents);
        // Distance exactly 5.
        assert_eq!(
            tree.range_query(&agents, (0.0, 0.0), 5.0, |_| true).len(),
            1
        );
        assert_eq!(
            range_query_naive(&agents, (0.0, 0.0), 5.0, |_| true).len(),
            1
        );
    }

    #[test]
    fn predicate_filters_inside_radius() {
        let mut rng = rng_from_seed(2);
        let agents = random_agents(200, 10.0, &mut rng);
        let tree = KdTree::build(&agents);
        let all = tree.range_query(&agents, (5.0, 5.0), 20.0, |_| true);
        assert_eq!(all.len(), 200, "everything within the big disc");
        let old = tree.range_query(&agents, (5.0, 5.0), 20.0, |a| a.attrs[0] > 25.0);
        assert!(old.len() < all.len());
        assert!(old.iter().all(|&i| agents[i].attrs[0] > 25.0));
    }

    #[test]
    fn duplicate_positions_handled() {
        let agents: Vec<AgentState> = (0..10)
            .map(|id| AgentState {
                id,
                pos: (1.0, 1.0),
                attrs: vec![],
            })
            .collect();
        let tree = KdTree::build(&agents);
        assert_eq!(
            tree.range_query(&agents, (1.0, 1.0), 0.1, |_| true).len(),
            10
        );
    }
}
