//! The experiment battery: one module per paper artifact. Each public
//! `*_report` function regenerates its figure/table/claim and returns a
//! printable report. Index in DESIGN.md §4.

mod calibration;
mod doe;
mod dsgd;
mod fig1;
mod fig2;
mod gridfield;
mod indemics;
mod intro;
mod kriging;
mod mcdb;
mod predrange;
mod rangequery;
mod screening;
mod simsql;
mod wildfire;

pub(crate) use calibration::calibration_contest_report;
pub(crate) use doe::{fig3_report, fig4_report, fig5_report};
pub(crate) use dsgd::dsgd_spline_report;
pub(crate) use fig1::fig1_report;
pub(crate) use fig2::fig2_report;
pub(crate) use gridfield::gridfield_rewrite_report;
pub(crate) use indemics::indemics_report;
pub(crate) use intro::intro_abs_report;
pub(crate) use kriging::kriging_accuracy_report;
pub(crate) use mcdb::{mcdb_plan_once_report, mcdb_risk_report};
pub(crate) use predrange::prediction_range_report;
pub(crate) use rangequery::rangequery_report;
pub(crate) use screening::factor_screening_report;
pub(crate) use simsql::simsql_markov_report;
pub(crate) use wildfire::wildfire_assimilation_report;

/// One experiment: `(id, title, runner)`.
pub(crate) type Experiment = (&'static str, &'static str, fn() -> String);

/// Every experiment as `(id, title, runner)` — the run-all battery.
pub fn all() -> Vec<Experiment> {
    vec![
        (
            "E0",
            "§1: traffic jams and segregation from simple agents",
            intro_abs_report as fn() -> String,
        ),
        ("E1", "Figure 1: the dangers of extrapolation", fig1_report),
        (
            "E2",
            "Figure 2 / §2.3: result caching and g(alpha)",
            fig2_report,
        ),
        (
            "E3",
            "§2.1 MCDB: plan once, execute per replicate",
            mcdb_plan_once_report,
        ),
        (
            "E4",
            "§2.1 SimSQL: database-valued Markov chains",
            simsql_markov_report,
        ),
        (
            "E5",
            "§2.2: cubic-spline DSGD vs Thomas",
            dsgd_spline_report,
        ),
        (
            "E6",
            "§2.2: gridfield restrict/regrid rewrite",
            gridfield_rewrite_report,
        ),
        (
            "E7",
            "§2.4 Algorithm 1: Indemics intervention",
            indemics_report,
        ),
        ("E8", "§2.4 PDES-MAS: range queries", rangequery_report),
        (
            "E9",
            "§3.1: ABS calibration contest",
            calibration_contest_report,
        ),
        (
            "E10",
            "§3.2 Algorithm 2: wildfire assimilation",
            wildfire_assimilation_report,
        ),
        (
            "E11",
            "Figure 3: resolution III fractional factorial",
            fig3_report,
        ),
        ("E12", "Figure 4: main-effects plot", fig4_report),
        ("E13", "Figure 5: Latin hypercube designs", fig5_report),
        (
            "E14",
            "§4.3: sequential bifurcation screening",
            factor_screening_report,
        ),
        (
            "E15",
            "§4.1: kriging and stochastic kriging",
            kriging_accuracy_report,
        ),
        (
            "E16",
            "§2.1 MCDB-R: risk and threshold queries",
            mcdb_risk_report,
        ),
        (
            "E17",
            "§3.1 open problem: the range of predictions [51]",
            prediction_range_report,
        ),
    ]
}

#[cfg(test)]
mod smoke_tests {
    //! Every experiment runs to completion and mentions its key artifacts.
    //! (Full numeric validation lives in the per-crate unit tests; these
    //! guard the harness itself.)

    use super::*;

    #[test]
    fn fig1_runs() {
        let r = fig1_report();
        assert!(r.contains("extrapolat"), "{r}");
        assert!(r.contains("2011"));
    }

    #[test]
    fn fig2_runs() {
        let r = fig2_report();
        assert!(r.contains("alpha"));
        assert!(r.contains("g(alpha)"));
    }

    #[test]
    fn doe_reports_run() {
        assert!(fig3_report().contains("x7"));
        assert!(fig4_report().contains("effect"));
        assert!(fig5_report().contains("Latin"));
    }

    #[test]
    fn mcdb_reports_run() {
        assert!(mcdb_plan_once_report().contains("realize share"));
        assert!(mcdb_risk_report().contains("quantile"));
    }

    #[test]
    fn screening_runs() {
        let r = factor_screening_report();
        assert!(r.contains("128"));
    }
}
