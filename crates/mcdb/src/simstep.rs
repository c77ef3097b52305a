//! Agent-based simulation steps as self-joins (Wang et al., VLDB 2010).
//!
//! "A step in an agent-based simulation can be viewed as a self-join. That
//! is, the data in each row of a table represent the internal state of an
//! agent, so the self-join step allows agents to interact with other
//! agents. A key observation is that agents typically interact only with a
//! relatively small group of 'nearby' agents. Thus (with a little care) the
//! join can be parallelized among groups of agents."
//!
//! [`SelfJoinSim`] implements exactly that: the agent table carries a
//! *partition key* (spatial cell, social group, …); a step equi-joins each
//! agent with the agents in its own and adjacent partitions and applies a
//! pluggable stochastic [`AgentTransition`]. Partitions run in first-seen
//! order on the calling thread, the `p`-th on RNG stream `p`, and rows are
//! scattered back to input order. No partition's draws depend on another's
//! — the "little care" the paper alludes to, which is what would let them
//! run in parallel.

use crate::table::{Row, Table};
use crate::value::{GroupKey, Value};
use mde_numeric::rng::{Rng, StreamFactory};
use std::collections::HashMap;
use std::sync::Arc;

/// A stochastic agent state-transition function.
pub trait AgentTransition: Send + Sync {
    /// Compute the agent's next-state row from its current row and the rows
    /// of its neighbors (agents in the same or adjacent partitions,
    /// including the agent itself). Must return a row matching the agent
    /// table's schema.
    fn transition(&self, agent: &Row, neighbors: &[&Row], rng: &mut Rng) -> crate::Result<Row>;
}

/// Blanket implementation so closures can be used directly.
impl<F> AgentTransition for F
where
    F: Fn(&Row, &[&Row], &mut Rng) -> crate::Result<Row> + Send + Sync,
{
    fn transition(&self, agent: &Row, neighbors: &[&Row], rng: &mut Rng) -> crate::Result<Row> {
        self(agent, neighbors, rng)
    }
}

/// Neighborhood expansion: maps a partition key to its adjacent keys.
pub(crate) type AdjacencyFn = Arc<dyn Fn(&Value) -> Vec<Value> + Send + Sync>;

/// An ABS engine whose step is a neighborhood-partitioned self-join.
pub struct SelfJoinSim {
    key_column: String,
    adjacency: AdjacencyFn,
    transition: Arc<dyn AgentTransition>,
}

impl SelfJoinSim {
    /// Create a simulator.
    ///
    /// * `key_column` — the partition-key column of the agent table;
    /// * `adjacency` — maps a partition key to the *other* partition keys
    ///   whose agents are also neighbors (the agent's own partition is
    ///   always included automatically);
    /// * `transition` — the per-agent stochastic update.
    pub fn new(
        key_column: impl Into<String>,
        adjacency: impl Fn(&Value) -> Vec<Value> + Send + Sync + 'static,
        transition: Arc<dyn AgentTransition>,
    ) -> Self {
        SelfJoinSim {
            key_column: key_column.into(),
            adjacency: Arc::new(adjacency),
            transition,
        }
    }

    /// Execute one simulation step: the self-join plus transition, one
    /// partition at a time. Row order of the output matches the input.
    pub(crate) fn step(&self, agents: &Table, seed: u64) -> crate::Result<Table> {
        let key_idx = agents.schema().index_of(&self.key_column)?;

        // Partition agents: key -> row indices, remembering encounter order
        // of partitions so RNG stream assignment is deterministic.
        let mut partitions: HashMap<GroupKey, usize> = HashMap::new();
        let mut part_rows: Vec<Vec<usize>> = Vec::new();
        let mut part_key_values: Vec<Value> = Vec::new();
        for (i, row) in agents.rows().iter().enumerate() {
            let k = row[key_idx].group_key();
            let pid = *partitions.entry(k).or_insert_with(|| {
                part_rows.push(Vec::new());
                part_key_values.push(row[key_idx].clone());
                part_rows.len() - 1
            });
            part_rows[pid].push(i);
        }

        // Resolve each partition's neighbor row set: own rows plus rows of
        // adjacent partitions that exist.
        let neighbor_rows_of = |pid: usize| -> Vec<&Row> {
            let mut rows: Vec<&Row> = part_rows[pid].iter().map(|&i| &agents.rows()[i]).collect();
            for adj in (self.adjacency)(&part_key_values[pid]) {
                if let Some(&apid) = partitions.get(&adj.group_key()) {
                    if apid != pid {
                        rows.extend(part_rows[apid].iter().map(|&i| &agents.rows()[i]));
                    }
                }
            }
            rows
        };

        // Every agent is in exactly one partition, so every slot is filled.
        let factory = StreamFactory::new(seed);
        let mut next: Vec<Row> = vec![Vec::new(); agents.len()];
        for (pid, rows) in part_rows.iter().enumerate() {
            let neighbors = neighbor_rows_of(pid);
            // Partition `pid` (first-seen order) draws from stream `pid`.
            let mut rng = factory.stream(pid as u64);
            for &i in rows {
                let agent = &agents.rows()[i];
                next[i] = self.transition.transition(agent, &neighbors, &mut rng)?;
            }
        }

        let mut out = Table::new(agents.name().to_string(), agents.schema().clone());
        for row in next {
            out.push_row(row)?;
        }
        Ok(out)
    }

    /// Run `steps` consecutive steps, returning every intermediate state
    /// (`steps + 1` tables including the input).
    pub fn run(&self, agents: Table, steps: usize, seed: u64) -> crate::Result<Vec<Table>> {
        let factory = StreamFactory::new(seed);
        let mut states = vec![agents];
        for s in 0..steps {
            let next = self.step(
                states.last().expect("seeded with initial state"),
                factory.seed_of(s as u64),
            )?;
            states.push(next);
        }
        Ok(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    /// A 1-D "infection" model: agents live in integer cells; an agent
    /// becomes infected if any neighbor (same or adjacent cell) is
    /// infected. Deterministic, so the spread front is checkable.
    fn contagion_sim() -> SelfJoinSim {
        let transition = |agent: &Row, neighbors: &[&Row], _rng: &mut Rng| {
            let infected = agent[2].as_bool()?;
            let any_near = neighbors.iter().any(|n| n[2].as_bool().unwrap_or(false));
            Ok(vec![
                agent[0].clone(),
                agent[1].clone(),
                Value::Bool(infected || any_near),
            ])
        };
        SelfJoinSim::new(
            "cell",
            |k: &Value| {
                let c = k.as_i64().expect("int cell key");
                vec![Value::Int(c - 1), Value::Int(c + 1)]
            },
            Arc::new(transition),
        )
    }

    fn line_of_agents(n: i64) -> Table {
        Table::build(
            "agents",
            &[
                ("id", DataType::Int),
                ("cell", DataType::Int),
                ("infected", DataType::Bool),
            ],
        )
        .rows((0..n).map(|i| {
            vec![
                Value::from(i),
                Value::from(i), // one agent per cell
                Value::from(i == 0),
            ]
        }))
        .finish()
        .unwrap()
    }

    fn count_infected(t: &Table) -> usize {
        t.rows().iter().filter(|r| r[2].as_bool().unwrap()).count()
    }

    #[test]
    fn contagion_front_advances_one_cell_per_step() {
        let sim = contagion_sim();
        let states = sim.run(line_of_agents(10), 4, 9).unwrap();
        for (t, s) in states.iter().enumerate() {
            assert_eq!(count_infected(s), (t + 1).min(10), "at step {t}");
        }
    }

    #[test]
    fn stochastic_transition_depends_on_the_seed() {
        // Transition flips a coin.
        let sim = SelfJoinSim::new(
            "cell",
            |_k: &Value| vec![],
            Arc::new(|agent: &Row, _n: &[&Row], rng: &mut Rng| {
                Ok(vec![
                    agent[0].clone(),
                    agent[1].clone(),
                    Value::Bool(rng.gen::<f64>() < 0.5),
                ])
            }),
        );
        let t0 = line_of_agents(40);
        let a = sim.step(&t0, 123).unwrap();
        let d = sim.step(&t0, 124).unwrap();
        assert_ne!(a.rows(), d.rows());
    }

    /// A digest of every state of a 5-step stochastic run of 40 agents that
    /// move between 10 cells: partitions are met out of key order and change
    /// from step to step, and every draw lands in the output. The constant
    /// pins the partition streams, their order and the row scatter.
    #[test]
    fn stochastic_five_step_run_matches_its_golden_digest() {
        use mde_numeric::codec::{fnv1a, FNV_OFFSET};
        let sim = SelfJoinSim::new(
            "cell",
            |k: &Value| {
                let c = k.as_i64().unwrap();
                vec![Value::Int((c + 9) % 10), Value::Int((c + 1) % 10)]
            },
            Arc::new(|agent: &Row, neighbors: &[&Row], rng: &mut Rng| {
                let sick = neighbors.iter().filter(|n| n[2].as_bool().unwrap()).count();
                let u = rng.gen::<f64>();
                let cell = agent[1].as_i64()? + i64::from(rng.gen::<f64>() < 0.3);
                Ok(vec![
                    agent[0].clone(),
                    Value::Int(cell % 10),
                    Value::Bool(agent[2].as_bool()? || u < 1.0 - 0.8f64.powi(sick as i32)),
                    Value::Float(agent[3].as_f64()? * 0.5 + u),
                ])
            }),
        );
        let t0 = Table::build(
            "agents",
            &[
                ("id", DataType::Int),
                ("cell", DataType::Int),
                ("infected", DataType::Bool),
                ("load", DataType::Float),
            ],
        )
        .rows((0..40i64).map(|i| {
            vec![
                Value::from(i),
                Value::from(i * 7 % 10),
                Value::from(i % 13 == 0),
                Value::from(i as f64 * 0.25),
            ]
        }))
        .finish()
        .unwrap();
        let states = sim.run(t0, 5, 0x5EED).unwrap();
        let digest = states
            .iter()
            .flat_map(|s| s.rows().iter())
            .fold(FNV_OFFSET, |h, r| {
                let h = fnv1a(h, &r[0].as_i64().unwrap().to_le_bytes());
                let h = fnv1a(h, &r[1].as_i64().unwrap().to_le_bytes());
                let h = fnv1a(h, &[r[2].as_bool().unwrap() as u8]);
                fnv1a(h, &r[3].as_f64().unwrap().to_bits().to_le_bytes())
            });
        assert_eq!(digest, 0x2740_4ac6_9714_0d3c);
    }

    #[test]
    fn neighbors_include_own_partition_and_adjacent_only() {
        // Agent counts its neighbors into its own state.
        let sim = SelfJoinSim::new(
            "cell",
            |k: &Value| {
                let c = k.as_i64().unwrap();
                vec![Value::Int(c - 1), Value::Int(c + 1)]
            },
            Arc::new(|agent: &Row, neighbors: &[&Row], _rng: &mut Rng| {
                Ok(vec![
                    agent[0].clone(),
                    agent[1].clone(),
                    Value::Int(neighbors.len() as i64),
                ])
            }),
        );
        // Three agents in cell 0, two in cell 1, one in cell 5 (isolated).
        let t = Table::build(
            "a",
            &[
                ("id", DataType::Int),
                ("cell", DataType::Int),
                ("n", DataType::Int),
            ],
        )
        .rows(vec![
            vec![Value::from(0), Value::from(0), Value::from(0)],
            vec![Value::from(1), Value::from(0), Value::from(0)],
            vec![Value::from(2), Value::from(0), Value::from(0)],
            vec![Value::from(3), Value::from(1), Value::from(0)],
            vec![Value::from(4), Value::from(1), Value::from(0)],
            vec![Value::from(5), Value::from(5), Value::from(0)],
        ])
        .finish()
        .unwrap();
        let out = sim.step(&t, 1).unwrap();
        let n: Vec<i64> = out.rows().iter().map(|r| r[2].as_i64().unwrap()).collect();
        // Cells 0 and 1 are mutually adjacent: everyone there sees 5.
        // The isolated agent sees only itself.
        assert_eq!(n, vec![5, 5, 5, 5, 5, 1]);
    }

    #[test]
    fn bad_transition_row_is_rejected() {
        let sim = SelfJoinSim::new(
            "cell",
            |_k: &Value| vec![],
            Arc::new(|_a: &Row, _n: &[&Row], _rng: &mut Rng| Ok(vec![Value::from("wrong schema")])),
        );
        assert!(sim.step(&line_of_agents(3), 1).is_err());
    }

    #[test]
    fn missing_key_column_is_an_error() {
        let sim = contagion_sim();
        let t = Table::build("a", &[("id", DataType::Int)])
            .row(vec![Value::from(1)])
            .finish()
            .unwrap();
        assert!(sim.step(&t, 1).is_err());
    }
}
