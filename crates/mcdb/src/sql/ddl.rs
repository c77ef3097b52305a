//! The MCDB stochastic-table DDL — the paper's own syntax, parsed.
//!
//! §2.1 introduces random tables with:
//!
//! ```sql
//! CREATE TABLE SBP_DATA(PID, GENDER, SBP) AS
//!   FOR EACH p IN PATIENTS
//!   WITH SBP AS Normal (SELECT s.MEAN, s.STD FROM SBP_PARAM s)
//!   SELECT p.PID, p.GENDER, b.VALUE FROM SBP b
//! ```
//!
//! [`parse_create_random_table`] accepts that statement shape, minus the
//! purely decorative row aliases and trailing `FROM` of the inner select
//! (this engine's columns are unambiguous without them):
//!
//! ```sql
//! CREATE TABLE SBP_DATA(PID, GENDER, SBP) AS
//!   FOR EACH PATIENTS
//!   WITH Normal(SELECT MEAN, STD FROM SBP_PARAM)
//!   SELECT PID, GENDER, VALUE
//! ```
//!
//! The grammar is a set of methods on the SELECT parser's cursor: the
//! subquery is read by the SELECT grammar, the arguments and the projection
//! by its expression rule, in place on one token stream.
//!
//! The column list after the table name is optional. When present it names
//! the output columns by position — above, the third column is `SBP`, not
//! `VALUE` — and must name as many columns as the SELECT projects; a count
//! that differs is an error stating both counts. Without it, a column is
//! named by its `AS` alias, else by the column it reads, else `col_<i>`.
//!
//! `WITH <vg>(…)` parametrizes the VG function either with a bare subquery
//! (evaluated once per realization, its single row prefixing the VG
//! parameters — the paper's form), with a comma-separated expression list
//! over the driver row, or with both: `WITH Vg((SELECT …), expr, …)`.
//! VG functions resolve by name through a [`VgRegistry`], so user-defined
//! VG functions plug in exactly like the paper's "user- and system-defined
//! libraries".

use super::lexer::{SqlError, TokenKind};
use super::parser::Parser;
use crate::expr::Expr;
use crate::query::Plan;
use crate::random_table::RandomTableSpec;
use crate::vg::{
    BackwardWalkVg, BayesianDemandVg, ExponentialVg, NormalVg, PoissonVg, StockOptionVg, UniformVg,
    VgFunction,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A registry of VG functions addressable by name from DDL text.
#[derive(Clone, Default)]
pub struct VgRegistry {
    entries: HashMap<String, Arc<dyn VgFunction>>,
}

impl VgRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        VgRegistry::default()
    }

    /// The built-in library: `Normal`, `Uniform`, `Poisson`, `Exponential`,
    /// `BackwardWalk`, `StockOption`, `BayesianDemand`.
    pub fn standard() -> Self {
        let mut r = VgRegistry::new();
        r.register(Arc::new(NormalVg));
        r.register(Arc::new(UniformVg));
        r.register(Arc::new(PoissonVg));
        r.register(Arc::new(ExponentialVg));
        r.register(Arc::new(BackwardWalkVg));
        r.register(Arc::new(StockOptionVg));
        r.register(Arc::new(BayesianDemandVg));
        r
    }

    /// Register a VG function under its own name.
    pub fn register(&mut self, vg: Arc<dyn VgFunction>) {
        self.entries.insert(vg.name().to_string(), vg);
    }

    /// Look up by name (case-sensitive, like identifiers).
    pub fn get(&self, name: &str) -> Option<&Arc<dyn VgFunction>> {
        self.entries.get(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.entries.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }
}

impl std::fmt::Debug for VgRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VgRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// Parse a `CREATE TABLE … AS FOR EACH … WITH … SELECT …` statement into a
/// [`RandomTableSpec`].
pub fn parse_create_random_table(
    sql: &str,
    registry: &VgRegistry,
) -> Result<RandomTableSpec, SqlError> {
    Parser::parse_all(sql, |p| p.create_random_table(registry))
}

impl Parser {
    /// `CREATE TABLE name [(column, …)] AS FOR EACH driver WITH vg(args)
    /// SELECT item, …`, read in place: the subquery with
    /// [`Parser::select_statement`], the arguments and the projection with
    /// [`Parser::expression`].
    pub(super) fn create_random_table(
        &mut self,
        registry: &VgRegistry,
    ) -> Result<RandomTableSpec, SqlError> {
        // CREATE TABLE name [(cols…)] AS FOR EACH driver
        self.expect_word("CREATE")?;
        self.expect_word("TABLE")?;
        let table_name = self.expect_ident("table name")?;
        let mut columns: Option<(usize, Vec<String>)> = None;
        if self.next_is_sym("(") {
            let at = self.bump().pos;
            let mut names = Vec::new();
            loop {
                names.push(self.expect_ident("column name")?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            columns = Some((at, names));
        }
        self.expect_word("AS")?;
        self.expect_word("FOR")?;
        self.expect_word("EACH")?;
        let driver = self.expect_ident("driver table name")?;

        // WITH Vg( params )
        self.expect_word("WITH")?;
        let vg_name = self.expect_ident("VG function name")?;
        let vg = registry
            .get(&vg_name)
            .ok_or_else(|| {
                self.error_here(format!(
                    "unknown VG function `{vg_name}` (registered: {})",
                    registry.names().join(", ")
                ))
            })?
            .clone();
        self.expect_sym("(")?;
        let args_close = self.matching_close()?;
        let mut params_query: Option<Plan> = None;
        let mut param_exprs: Vec<Expr> = Vec::new();
        if self.next_is_kw("SELECT") {
            // Bare subquery fills the whole argument list (the paper's form).
            params_query = Some(self.select_statement()?);
        } else {
            // Optional parenthesized subquery as the first argument.
            if self.next_is_sym("(")
                && matches!(self.tokens[self.pos + 1].kind, TokenKind::Keyword("SELECT"))
            {
                self.bump();
                params_query = Some(self.select_statement()?);
                self.expect_sym(")")?;
                self.eat_sym(",");
            }
            while self.pos < args_close {
                param_exprs.push(self.expression()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.pos != args_close {
            return Err(self.error_here(format!("unexpected {} in VG arguments", self.peek().kind)));
        }
        self.bump();

        // SELECT projection over driver ++ VG columns.
        if !self.next_is_kw("SELECT") {
            return Err(self.error_here(format!(
                "expected SELECT projection, found {}",
                self.peek().kind
            )));
        }
        self.bump();
        let mut select: Vec<(String, Expr)> = Vec::new();
        loop {
            let expr = self.expression()?;
            let name = match (self.optional_alias()?, &expr) {
                (Some(alias), _) => alias,
                (None, Expr::Col(c)) => c.clone(),
                (None, _) => format!("col_{}", select.len() + 1),
            };
            select.push((name, expr));
            if !self.eat_sym(",") {
                break;
            }
        }
        // A column list names the output columns by position.
        if let Some((at, names)) = columns {
            if names.len() != select.len() {
                return Err(SqlError::new(
                    format!(
                        "column list names {} columns but the SELECT projects {}",
                        names.len(),
                        select.len()
                    ),
                    Some(at),
                ));
            }
            for ((name, _), column) in select.iter_mut().zip(names) {
                *name = column;
            }
        }

        let mut builder = RandomTableSpec::builder(table_name)
            .for_each(Plan::scan(driver))
            .with_vg(vg);
        if let Some(q) = params_query {
            builder = builder.vg_params_query(q);
        }
        if !param_exprs.is_empty() {
            builder = builder.vg_params_exprs(&param_exprs);
        }
        let refs: Vec<(&str, Expr)> = select
            .iter()
            .map(|(n, e)| (n.as_str(), e.clone()))
            .collect();
        builder
            .select(&refs)
            .build()
            .map_err(|e| SqlError::new(e.to_string(), None))
    }

    /// Index of the `)` closing the paren just consumed, by a depth scan
    /// over the tokens ahead.
    fn matching_close(&self) -> Result<usize, SqlError> {
        let mut depth = 0usize;
        for (i, token) in self.tokens.iter().enumerate().skip(self.pos) {
            match token.kind {
                TokenKind::Symbol("(") => depth += 1,
                TokenKind::Symbol(")") if depth == 0 => return Ok(i),
                TokenKind::Symbol(")") => depth -= 1,
                _ => {}
            }
        }
        let eof = self.tokens.last().map(|t| t.pos);
        Err(SqlError::new("unbalanced parentheses", eof))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Catalog;
    use crate::schema::DataType;
    use crate::table::Table;
    use crate::value::Value;
    use mde_numeric::rng::rng_from_seed;

    fn catalog() -> Catalog {
        let mut db = Catalog::new();
        db.insert(
            Table::build(
                "PATIENTS",
                &[("PID", DataType::Int), ("GENDER", DataType::Str)],
            )
            .row(vec![Value::from(1), Value::from("F")])
            .row(vec![Value::from(2), Value::from("M")])
            .finish()
            .unwrap(),
        );
        db.insert(
            Table::build(
                "SBP_PARAM",
                &[("MEAN", DataType::Float), ("STD", DataType::Float)],
            )
            .row(vec![Value::from(120.0), Value::from(15.0)])
            .finish()
            .unwrap(),
        );
        db
    }

    #[test]
    fn paper_sbp_statement_round_trips() {
        let spec = parse_create_random_table(
            "CREATE TABLE SBP_DATA(PID, GENDER, SBP) AS \
             FOR EACH PATIENTS \
             WITH Normal(SELECT MEAN, STD FROM SBP_PARAM) \
             SELECT PID, GENDER, VALUE AS SBP",
            &VgRegistry::standard(),
        )
        .unwrap();
        assert_eq!(spec.name(), "SBP_DATA");
        let db = catalog();
        let t = spec.realize(&db, &mut rng_from_seed(1)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().names(), vec!["PID", "GENDER", "SBP"]);
        for v in t.column_f64("SBP").unwrap() {
            assert!((30.0..210.0).contains(&v), "implausible SBP {v}");
        }
    }

    #[test]
    fn column_list_names_the_output_columns() {
        // The paper's form: the list, not the projection, names `SBP`.
        let spec = parse_create_random_table(
            "CREATE TABLE SBP_DATA(PID, GENDER, SBP) AS \
             FOR EACH PATIENTS \
             WITH Normal(SELECT MEAN, STD FROM SBP_PARAM) \
             SELECT PID, GENDER, VALUE",
            &VgRegistry::standard(),
        )
        .unwrap();
        let t = spec.realize(&catalog(), &mut rng_from_seed(1)).unwrap();
        assert_eq!(t.schema().names(), vec!["PID", "GENDER", "SBP"]);
    }

    #[test]
    fn column_list_of_another_length_is_an_error() {
        let err = parse_create_random_table(
            "CREATE TABLE SBP_DATA(PID, SBP) AS \
             FOR EACH PATIENTS \
             WITH Normal(SELECT MEAN, STD FROM SBP_PARAM) \
             SELECT PID, GENDER, VALUE",
            &VgRegistry::standard(),
        )
        .unwrap_err();
        assert_eq!(err.pos, Some(21), "{err}");
        assert!(
            err.message.contains('2') && err.message.contains('3'),
            "{err}"
        );
    }

    #[test]
    fn expression_parameters_per_driver_row() {
        let spec = parse_create_random_table(
            "CREATE TABLE X AS FOR EACH PATIENTS \
             WITH Normal(PID * 100, 0.5) \
             SELECT PID, VALUE",
            &VgRegistry::standard(),
        )
        .unwrap();
        let db = catalog();
        let t = spec.realize(&db, &mut rng_from_seed(2)).unwrap();
        // Means 100 and 200 with sd 0.5.
        assert!((t.rows()[0][1].as_f64().unwrap() - 100.0).abs() < 3.0);
        assert!((t.rows()[1][1].as_f64().unwrap() - 200.0).abs() < 3.0);
    }

    #[test]
    fn subquery_plus_expressions() {
        // Mean from the param table, std per-row from an expression.
        let spec = parse_create_random_table(
            "CREATE TABLE X AS FOR EACH PATIENTS \
             WITH Normal((SELECT MEAN FROM SBP_PARAM), 0.001) \
             SELECT PID, VALUE AS V",
            &VgRegistry::standard(),
        )
        .unwrap();
        let db = catalog();
        let t = spec.realize(&db, &mut rng_from_seed(3)).unwrap();
        for v in t.column_f64("V").unwrap() {
            assert!((v - 120.0).abs() < 0.1, "V = {v}");
        }
    }

    #[test]
    fn unknown_vg_lists_registered_names() {
        let err = parse_create_random_table(
            "CREATE TABLE X AS FOR EACH T WITH Zeta(1) SELECT VALUE",
            &VgRegistry::standard(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("Zeta"));
        assert!(err.to_string().contains("Normal"));
    }

    #[test]
    fn registry_accepts_user_defined_vg() {
        #[derive(Debug)]
        struct ConstVg;
        impl VgFunction for ConstVg {
            fn name(&self) -> &str {
                "ConstSeven"
            }
            fn output_schema(&self) -> crate::schema::Schema {
                crate::schema::Schema::from_pairs(&[("VALUE", DataType::Float)]).unwrap()
            }
            fn arity(&self) -> Option<usize> {
                Some(0)
            }
            fn generate(
                &self,
                _params: &[Value],
                _rng: &mut mde_numeric::rng::Rng,
            ) -> crate::Result<Vec<Vec<Value>>> {
                Ok(vec![vec![Value::from(7.0)]])
            }
        }
        let mut reg = VgRegistry::standard();
        reg.register(Arc::new(ConstVg));
        let spec = parse_create_random_table(
            "CREATE TABLE X AS FOR EACH PATIENTS WITH ConstSeven() SELECT PID, VALUE",
            &reg,
        )
        .unwrap();
        let t = spec.realize(&catalog(), &mut rng_from_seed(4)).unwrap();
        assert_eq!(t.rows()[0][1], Value::from(7.0));
    }

    #[test]
    fn syntax_errors_are_located() {
        let reg = VgRegistry::standard();
        for (sql, needle) in [
            ("CREATE TULIP X AS", "TABLE"),
            ("CREATE TABLE X AS FOR EVERY T", "EACH"),
            (
                "CREATE TABLE X AS FOR EACH T WITH Normal(1, 2 SELECT VALUE",
                "unbalanced",
            ),
            (
                "CREATE TABLE X AS FOR EACH T WITH Normal(1,2) SELECT VALUE extra",
                "trailing",
            ),
        ] {
            let err = parse_create_random_table(sql, &reg)
                .unwrap_err()
                .to_string();
            assert!(
                err.to_lowercase().contains(&needle.to_lowercase()),
                "for {sql:?}: {err}"
            );
        }
    }

    #[test]
    fn ddl_plus_dql_end_to_end() {
        // The full MCDB loop in SQL text: declare the stochastic table,
        // realize it, query it.
        let reg = VgRegistry::standard();
        let spec = parse_create_random_table(
            "CREATE TABLE SBP_DATA AS FOR EACH PATIENTS \
             WITH Normal(SELECT MEAN, STD FROM SBP_PARAM) \
             SELECT PID, GENDER, VALUE AS SBP",
            &reg,
        )
        .unwrap();
        let mut db = catalog();
        let t = spec.realize(&db, &mut rng_from_seed(5)).unwrap();
        db.insert(t);
        let result = db
            .sql("SELECT COUNT(*) AS n FROM SBP_DATA WHERE SBP > 0")
            .unwrap();
        assert_eq!(result.scalar().unwrap(), Value::from(2));
    }
}
