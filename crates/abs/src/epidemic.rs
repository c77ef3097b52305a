//! An Indemics-style network epidemic engine (paper §2.4).
//!
//! Indemics "uses a network model of disease transmission, where nodes
//! represent individuals and edges represent social contacts … nodes have
//! attributes representing the health and behavioral state of an
//! individual, along with static demographic information, and the edges
//! have attributes that specify, e.g., contact duration and type. The
//! model also comprises transition functions that modify nodes and/or
//! edges … The HPC updates the state of the network in between observation
//! times. At an observation time, the experimenter can issue SQL queries
//! to assess the state of the network … SQL queries can be used to specify
//! complex interventions by specifying subsets of individuals together
//! with the actions to be performed."
//!
//! The division of labor is reproduced exactly: [`EpidemicModel::step`] is
//! the compute-intensive transition engine ("HPC"); [`EpidemicModel::
//! export_tables`] publishes `Person` / `InfectedPerson` / `Contact`
//! tables into an `mde-mcdb` [`Catalog`], against which observation and
//! intervention queries run; and [`Intervention`]s (vaccinate, quarantine,
//! fear shock) are the actions applied to query-selected subsets —
//! Algorithm 1 of the paper is a loop over exactly these pieces (see the
//! `indemics_intervention` experiment binary and the integration tests).

use mde_mcdb::prelude::*;
use mde_numeric::dist::Poisson;
use mde_numeric::rng::{rng_from_seed, Rng};

/// Health state of an individual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Never infected, not vaccinated.
    Susceptible,
    /// Infectious; the field counts days since infection.
    Infected {
        /// Days since infection.
        days: u32,
    },
    /// Recovered with immunity.
    Recovered,
    /// Vaccinated (immune).
    Vaccinated,
}

impl HealthState {
    /// Short SQL-friendly code: `S`, `I`, `R`, `V`.
    pub fn code(&self) -> &'static str {
        match self {
            HealthState::Susceptible => "S",
            HealthState::Infected { .. } => "I",
            HealthState::Recovered => "R",
            HealthState::Vaccinated => "V",
        }
    }
}

/// An individual: demographics (static) + health and behavioral state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Person {
    /// Person id.
    pub pid: i64,
    /// Age in years.
    pub age: i64,
    /// Household id.
    pub household: i64,
    /// Health state.
    pub state: HealthState,
    /// Behavioral fear level in `[0, 1]`; fearful people reduce contact.
    pub fear: f64,
}

/// Contact-edge types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactKind {
    /// Within-household contact.
    Household,
    /// School contact.
    School,
    /// Workplace contact.
    Work,
    /// Community (random) contact.
    Community,
}

impl ContactKind {
    /// SQL-friendly label.
    pub fn code(&self) -> &'static str {
        match self {
            ContactKind::Household => "household",
            ContactKind::School => "school",
            ContactKind::Work => "work",
            ContactKind::Community => "community",
        }
    }
}

/// An undirected contact edge with attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contact {
    /// First endpoint (index into the person vector).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// Contact duration in hours/day.
    pub duration: f64,
    /// Edge type.
    pub kind: ContactKind,
    /// Active flag; quarantine interventions deactivate edges.
    pub active: bool,
}

/// Epidemic dynamics parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpidemicConfig {
    /// Transmission probability per contact-hour.
    pub transmission_rate: f64,
    /// Days an infection lasts before recovery.
    pub infectious_days: u32,
    /// Fear added to both endpoints when transmission occurs nearby.
    pub fear_increment: f64,
    /// Maximum contact reduction from full fear (0 = none, 1 = total).
    pub fear_damping: f64,
    /// Number of index cases at day 0.
    pub initial_infected: usize,
}

impl Default for EpidemicConfig {
    fn default() -> Self {
        EpidemicConfig {
            transmission_rate: 0.02,
            infectious_days: 5,
            fear_increment: 0.05,
            fear_damping: 0.5,
            initial_infected: 5,
        }
    }
}

/// Interventions — the "actions to be performed on each subset".
#[derive(Debug, Clone, PartialEq)]
pub enum Intervention {
    /// Vaccinate the listed (susceptible) individuals.
    Vaccinate(Vec<i64>),
    /// Quarantine the listed individuals: deactivate all their non-household
    /// edges (edge deletion, per the paper).
    Quarantine(Vec<i64>),
    /// Behavioral shock: raise fear of the listed individuals to at least
    /// the given level.
    FearShock(Vec<i64>, f64),
}

/// The network epidemic model.
#[derive(Debug, Clone)]
pub struct EpidemicModel {
    cfg: EpidemicConfig,
    people: Vec<Person>,
    contacts: Vec<Contact>,
    /// Adjacency: person index → contact indices.
    adjacency: Vec<Vec<usize>>,
    day: u32,
    /// pid → person index.
    pid_index: std::collections::HashMap<i64, usize>,
}

impl EpidemicModel {
    /// Build from explicit people and contacts.
    pub fn new(cfg: EpidemicConfig, people: Vec<Person>, contacts: Vec<Contact>) -> Self {
        let mut adjacency = vec![Vec::new(); people.len()];
        for (ci, c) in contacts.iter().enumerate() {
            adjacency[c.a].push(ci);
            adjacency[c.b].push(ci);
        }
        let pid_index = people.iter().enumerate().map(|(i, p)| (p.pid, i)).collect();
        EpidemicModel {
            cfg,
            people,
            contacts,
            adjacency,
            day: 0,
            pid_index,
        }
    }

    /// Generate a synthetic population of `n` individuals with households,
    /// age-banded schools, workplaces, and random community contacts, then
    /// seed the configured number of index cases.
    pub fn synthetic(cfg: EpidemicConfig, n: usize, seed: u64) -> Self {
        assert!(n >= 10, "population too small");
        let mut rng = rng_from_seed(seed);
        let mut people = Vec::with_capacity(n);
        let mut contacts = Vec::new();

        // Households of size 1..=6.
        let mut household = 0i64;
        while people.len() < n {
            let size = rng.gen_range(1..=6).min(n - people.len());
            let first = people.len();
            for k in 0..size {
                // One adult guaranteed per household; others any age.
                let age = if k == 0 {
                    rng.gen_range(19..=65)
                } else {
                    rng.gen_range(0..=90)
                };
                people.push(Person {
                    pid: people.len() as i64,
                    age,
                    household,
                    state: HealthState::Susceptible,
                    fear: 0.0,
                });
            }
            // Dense household contacts.
            for i in first..first + size {
                for j in i + 1..first + size {
                    contacts.push(Contact {
                        a: i,
                        b: j,
                        duration: 8.0,
                        kind: ContactKind::Household,
                        active: true,
                    });
                }
            }
            household += 1;
        }

        // Schools: children grouped into classrooms of ~15 by age band.
        let mut by_band: std::collections::HashMap<i64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, p) in people.iter().enumerate() {
            if p.age <= 18 {
                by_band.entry(p.age / 5).or_default().push(i);
            }
        }
        let mut bands: Vec<_> = by_band.into_iter().collect();
        bands.sort_by_key(|(k, _)| *k);
        for (_, members) in bands {
            for class in members.chunks(15) {
                for (x, &i) in class.iter().enumerate() {
                    for &j in class.iter().skip(x + 1) {
                        contacts.push(Contact {
                            a: i,
                            b: j,
                            duration: 5.0,
                            kind: ContactKind::School,
                            active: true,
                        });
                    }
                }
            }
        }

        // Workplaces: adults grouped into offices of ~8.
        let workers: Vec<usize> = people
            .iter()
            .enumerate()
            .filter(|(_, p)| (19..=65).contains(&p.age))
            .map(|(i, _)| i)
            .collect();
        for office in workers.chunks(8) {
            for (x, &i) in office.iter().enumerate() {
                for &j in office.iter().skip(x + 1) {
                    contacts.push(Contact {
                        a: i,
                        b: j,
                        duration: 6.0,
                        kind: ContactKind::Work,
                        active: true,
                    });
                }
            }
        }

        // Community: Poisson(2) random contacts per person.
        let pois = Poisson::new(2.0).expect("static lambda");
        for i in 0..n {
            for _ in 0..pois.sample_count(&mut rng) {
                let j = rng.gen_range(0..n);
                if j != i {
                    contacts.push(Contact {
                        a: i,
                        b: j,
                        duration: 1.0,
                        kind: ContactKind::Community,
                        active: true,
                    });
                }
            }
        }

        let mut model = EpidemicModel::new(cfg, people, contacts);
        // Index cases.
        for _ in 0..cfg.initial_infected {
            let i = rng.gen_range(0..n);
            model.people[i].state = HealthState::Infected { days: 0 };
        }
        model
    }

    /// Current simulated day.
    pub fn day(&self) -> u32 {
        self.day
    }

    /// The individuals.
    pub fn people(&self) -> &[Person] {
        &self.people
    }

    /// The contact edges.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Count of currently infected individuals.
    pub fn infected_count(&self) -> usize {
        self.people
            .iter()
            .filter(|p| matches!(p.state, HealthState::Infected { .. }))
            .count()
    }

    /// Attack rate: fraction ever infected (infected + recovered).
    pub fn attack_rate(&self) -> f64 {
        let ever = self
            .people
            .iter()
            .filter(|p| {
                matches!(
                    p.state,
                    HealthState::Infected { .. } | HealthState::Recovered
                )
            })
            .count();
        ever as f64 / self.people.len() as f64
    }

    /// One day of disease dynamics (the "HPC" transition engine).
    pub fn step(&mut self, rng: &mut Rng) {
        // Transmission pass over active edges with an infectious endpoint.
        let mut newly_infected = Vec::new();
        let mut fear_bumps = Vec::new();
        for c in &self.contacts {
            if !c.active {
                continue;
            }
            let (ia, ib) = (c.a, c.b);
            let a_inf = matches!(self.people[ia].state, HealthState::Infected { .. });
            let b_inf = matches!(self.people[ib].state, HealthState::Infected { .. });
            if a_inf == b_inf {
                continue; // no discordant pair
            }
            let (src, dst) = if a_inf { (ia, ib) } else { (ib, ia) };
            if self.people[dst].state != HealthState::Susceptible {
                continue;
            }
            // Fearful people curtail contact (behavioral damping).
            let damp =
                1.0 - self.cfg.fear_damping * 0.5 * (self.people[src].fear + self.people[dst].fear);
            let p = 1.0 - (-self.cfg.transmission_rate * c.duration * damp.max(0.0)).exp();
            if rng.gen::<f64>() < p {
                newly_infected.push(dst);
                fear_bumps.push(src);
                fear_bumps.push(dst);
            }
        }

        // Progression: advance infection clocks, recover.
        for p in &mut self.people {
            if let HealthState::Infected { days } = p.state {
                if days + 1 >= self.cfg.infectious_days {
                    p.state = HealthState::Recovered;
                } else {
                    p.state = HealthState::Infected { days: days + 1 };
                }
            }
        }
        for i in newly_infected {
            if self.people[i].state == HealthState::Susceptible {
                self.people[i].state = HealthState::Infected { days: 0 };
            }
        }
        for i in fear_bumps {
            let f = &mut self.people[i].fear;
            *f = (*f + self.cfg.fear_increment).min(1.0);
        }
        self.day += 1;
    }

    /// Apply an intervention to a query-selected subset.
    pub fn apply(&mut self, intervention: &Intervention) {
        match intervention {
            Intervention::Vaccinate(pids) => {
                for pid in pids {
                    if let Some(&i) = self.pid_index.get(pid) {
                        if self.people[i].state == HealthState::Susceptible {
                            self.people[i].state = HealthState::Vaccinated;
                        }
                    }
                }
            }
            Intervention::Quarantine(pids) => {
                let set: std::collections::HashSet<usize> = pids
                    .iter()
                    .filter_map(|pid| self.pid_index.get(pid).copied())
                    .collect();
                for &i in &set {
                    for &ci in &self.adjacency[i] {
                        if self.contacts[ci].kind != ContactKind::Household {
                            self.contacts[ci].active = false;
                        }
                    }
                }
            }
            Intervention::FearShock(pids, level) => {
                for pid in pids {
                    if let Some(&i) = self.pid_index.get(pid) {
                        let f = &mut self.people[i].fear;
                        *f = f.max(*level).min(1.0);
                    }
                }
            }
        }
    }

    /// Export the observation tables into a catalog: `Person(pid, age,
    /// household, state, fear)`, `InfectedPerson(pid)`, and
    /// `Contact(a, b, duration, kind, active)` — the RDBMS half of the
    /// Indemics architecture.
    pub fn export_tables(&self, catalog: &mut Catalog) -> mde_mcdb::Result<()> {
        let mut person = Table::build(
            "Person",
            &[
                ("pid", DataType::Int),
                ("age", DataType::Int),
                ("household", DataType::Int),
                ("state", DataType::Str),
                ("fear", DataType::Float),
            ],
        );
        let mut infected = Table::build("InfectedPerson", &[("pid", DataType::Int)]);
        for p in &self.people {
            person = person.row(vec![
                Value::from(p.pid),
                Value::from(p.age),
                Value::from(p.household),
                Value::from(p.state.code()),
                Value::from(p.fear),
            ]);
            if matches!(p.state, HealthState::Infected { .. }) {
                infected = infected.row(vec![Value::from(p.pid)]);
            }
        }
        let mut contact = Table::build(
            "Contact",
            &[
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("duration", DataType::Float),
                ("kind", DataType::Str),
                ("active", DataType::Bool),
            ],
        );
        for c in &self.contacts {
            contact = contact.row(vec![
                Value::from(self.people[c.a].pid),
                Value::from(self.people[c.b].pid),
                Value::from(c.duration),
                Value::from(c.kind.code()),
                Value::from(c.active),
            ]);
        }
        catalog.insert(person.finish()?);
        catalog.insert(infected.finish()?);
        catalog.insert(contact.finish()?);
        Ok(())
    }
}

/// Run an epidemic for `days`, consulting a query-driven `policy` at every
/// observation time — the Algorithm 1 control loop. The policy receives
/// the freshly exported catalog and the day number and returns the
/// interventions to apply before the next step.
pub fn run_with_policy(
    model: &mut EpidemicModel,
    days: u32,
    seed: u64,
    mut policy: impl FnMut(&Catalog, u32) -> Vec<Intervention>,
) -> mde_mcdb::Result<Vec<(u32, usize, f64)>> {
    let mut rng = rng_from_seed(seed);
    let mut history = Vec::with_capacity(days as usize);
    for day in 0..days {
        let mut catalog = Catalog::new();
        model.export_tables(&mut catalog)?;
        for iv in policy(&catalog, day) {
            model.apply(&iv);
        }
        model.step(&mut rng);
        history.push((day, model.infected_count(), model.attack_rate()));
    }
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_mcdb::expr::Expr;
    use mde_mcdb::query::{AggSpec, Plan};

    fn small_model(seed: u64) -> EpidemicModel {
        EpidemicModel::synthetic(EpidemicConfig::default(), 500, seed)
    }

    #[test]
    fn synthetic_population_structure() {
        let m = small_model(1);
        assert_eq!(m.people().len(), 500);
        assert_eq!(
            m.infected_count(),
            EpidemicConfig::default().initial_infected
        );
        // Households exist and are dense.
        assert!(m
            .contacts()
            .iter()
            .any(|c| c.kind == ContactKind::Household));
        assert!(m.contacts().iter().any(|c| c.kind == ContactKind::School));
        assert!(m.contacts().iter().any(|c| c.kind == ContactKind::Work));
        assert!(m
            .contacts()
            .iter()
            .any(|c| c.kind == ContactKind::Community));
        // Everyone's pid resolves.
        for p in m.people() {
            assert_eq!(m.pid_index[&p.pid], p.pid as usize);
        }
    }

    #[test]
    fn epidemic_spreads_and_burns_out() {
        let mut m = small_model(2);
        let mut rng = rng_from_seed(3);
        let mut peak = 0;
        for _ in 0..200 {
            m.step(&mut rng);
            peak = peak.max(m.infected_count());
        }
        assert!(peak > 25, "no outbreak: peak {peak}");
        assert_eq!(m.infected_count(), 0, "epidemic should burn out");
        assert!(m.attack_rate() > 0.1);
        assert!(m.day() == 200);
    }

    #[test]
    fn vaccination_blocks_infection() {
        let mut m = small_model(4);
        let all: Vec<i64> = m.people().iter().map(|p| p.pid).collect();
        m.apply(&Intervention::Vaccinate(all));
        let mut rng = rng_from_seed(5);
        let before = m.attack_rate();
        for _ in 0..50 {
            m.step(&mut rng);
        }
        // Only the index cases ever get sick.
        assert!((m.attack_rate() - before).abs() < 1e-12);
    }

    #[test]
    fn quarantine_deactivates_non_household_edges() {
        let mut m = small_model(6);
        let pids: Vec<i64> = m.people().iter().map(|p| p.pid).collect();
        let active_before = m.contacts().iter().filter(|c| c.active).count();
        m.apply(&Intervention::Quarantine(pids));
        let active_after = m.contacts().iter().filter(|c| c.active).count();
        assert!(active_after < active_before);
        assert!(m
            .contacts()
            .iter()
            .filter(|c| c.active)
            .all(|c| c.kind == ContactKind::Household));
    }

    #[test]
    fn fear_reduces_transmission() {
        let attack = |fear_level: f64, seed: u64| {
            let mut m = EpidemicModel::synthetic(
                EpidemicConfig {
                    fear_damping: 0.95,
                    ..EpidemicConfig::default()
                },
                800,
                seed,
            );
            let pids: Vec<i64> = m.people().iter().map(|p| p.pid).collect();
            m.apply(&Intervention::FearShock(pids, fear_level));
            let mut rng = rng_from_seed(seed ^ 0xf00d);
            for _ in 0..120 {
                m.step(&mut rng);
            }
            m.attack_rate()
        };
        let mut fearless = 0.0;
        let mut fearful = 0.0;
        for s in 0..5 {
            fearless += attack(0.0, 100 + s);
            fearful += attack(1.0, 100 + s);
        }
        assert!(
            fearful < fearless * 0.8,
            "fear did not damp spread: {fearless} vs {fearful}"
        );
    }

    #[test]
    fn exported_tables_answer_observation_queries() {
        let m = small_model(7);
        let mut catalog = Catalog::new();
        m.export_tables(&mut catalog).unwrap();
        // "Percent infected" — a subpopulation aggregate like the paper's.
        let infected = catalog
            .query(&Plan::scan("InfectedPerson").aggregate(&[], vec![AggSpec::count_star("n")]))
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(infected as usize, m.infected_count());
        // Preschooler selection — the Algorithm 1 subpopulation.
        let preschool = catalog
            .query(
                &Plan::scan("Person")
                    .filter(
                        Expr::col("age")
                            .ge(Expr::lit(0))
                            .and(Expr::col("age").le(Expr::lit(4))),
                    )
                    .aggregate(&[], vec![AggSpec::count_star("n")]),
            )
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap();
        let truth = m
            .people()
            .iter()
            .filter(|p| (0..=4).contains(&p.age))
            .count();
        assert_eq!(preschool as usize, truth);
        // Contact table is complete.
        let contacts = catalog
            .query(&Plan::scan("Contact").aggregate(&[], vec![AggSpec::count_star("n")]))
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(contacts as usize, m.contacts().len());
    }

    #[test]
    fn algorithm_1_vaccinate_preschoolers() {
        // The paper's Algorithm 1, verbatim as a query-driven policy:
        // vaccinate all preschoolers once >1% of them are infected.
        let cfg = EpidemicConfig {
            transmission_rate: 0.05,
            initial_infected: 10,
            ..EpidemicConfig::default()
        };
        let run = |with_policy: bool, seed: u64| {
            let mut m = EpidemicModel::synthetic(cfg, 600, seed);
            let hist = run_with_policy(&mut m, 100, seed ^ 1, |catalog, _day| {
                if !with_policy {
                    return vec![];
                }
                let preschool = Plan::scan("Person").filter(
                    Expr::col("age")
                        .ge(Expr::lit(0))
                        .and(Expr::col("age").le(Expr::lit(4))),
                );
                let n_preschool = catalog
                    .query(
                        &preschool
                            .clone()
                            .aggregate(&[], vec![AggSpec::count_star("n")]),
                    )
                    .unwrap()
                    .scalar()
                    .unwrap()
                    .as_i64()
                    .unwrap();
                let n_infected_preschool = catalog
                    .query(
                        &preschool
                            .clone()
                            .join(Plan::scan("InfectedPerson"), &[("pid", "pid")])
                            .aggregate(&[], vec![AggSpec::count_star("n")]),
                    )
                    .unwrap()
                    .scalar()
                    .unwrap()
                    .as_i64()
                    .unwrap();
                if n_preschool > 0 && n_infected_preschool * 100 > n_preschool {
                    let pids = catalog
                        .query(&preschool.project(&[("pid", Expr::col("pid"))]))
                        .unwrap()
                        .column("pid")
                        .unwrap()
                        .iter()
                        .map(|v| v.as_i64().unwrap())
                        .collect();
                    vec![Intervention::Vaccinate(pids)]
                } else {
                    vec![]
                }
            })
            .unwrap();
            (m, hist)
        };
        let mut protected_better = 0;
        for s in 0..3 {
            let (m_base, _) = run(false, 40 + s);
            let (m_pol, _) = run(true, 40 + s);
            let preschool_attack = |m: &EpidemicModel| {
                let kids: Vec<&Person> = m
                    .people()
                    .iter()
                    .filter(|p| (0..=4).contains(&p.age))
                    .collect();
                kids.iter()
                    .filter(|p| {
                        matches!(
                            p.state,
                            HealthState::Infected { .. } | HealthState::Recovered
                        )
                    })
                    .count() as f64
                    / kids.len().max(1) as f64
            };
            if preschool_attack(&m_pol) <= preschool_attack(&m_base) {
                protected_better += 1;
            }
        }
        assert!(
            protected_better >= 2,
            "vaccination policy failed to protect preschoolers in most runs"
        );
    }
}
