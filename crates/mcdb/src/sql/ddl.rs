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
//! CREATE TABLE SBP_DATA AS
//!   FOR EACH PATIENTS
//!   WITH Normal(SELECT MEAN, STD FROM SBP_PARAM)
//!   SELECT PID, GENDER, VALUE AS SBP
//! ```
//!
//! `WITH <vg>(…)` parametrizes the VG function either with a bare subquery
//! (evaluated once per realization, its single row prefixing the VG
//! parameters — the paper's form), with a comma-separated expression list
//! over the driver row, or with both: `WITH Vg((SELECT …), expr, …)`.
//! VG functions resolve by name through a [`VgRegistry`], so user-defined
//! VG functions plug in exactly like the paper's "user- and system-defined
//! libraries".

use super::lexer::{tokenize, SqlError, Token, TokenKind};
use super::parser::{parse_expression_at, parse_select_tokens};
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
    let tokens = tokenize(sql)?;
    let mut pos = 0usize;

    let err_at = |tokens: &[Token], pos: usize, msg: String| -> SqlError {
        SqlError::new(msg, Some(tokens[pos.min(tokens.len() - 1)].pos))
    };
    let word_at = |tokens: &[Token], pos: usize, word: &str| -> bool {
        match &tokens[pos].kind {
            TokenKind::Ident(s) => s.eq_ignore_ascii_case(word),
            TokenKind::Keyword(k) => k.eq_ignore_ascii_case(word),
            _ => false,
        }
    };
    let expect_word = |tokens: &[Token], pos: &mut usize, word: &str| -> Result<(), SqlError> {
        if word_at(tokens, *pos, word) {
            *pos += 1;
            Ok(())
        } else {
            Err(err_at(
                tokens,
                *pos,
                format!("expected {word}, found {}", tokens[*pos].kind),
            ))
        }
    };
    let expect_ident =
        |tokens: &[Token], pos: &mut usize, what: &str| -> Result<String, SqlError> {
            match &tokens[*pos].kind {
                TokenKind::Ident(s) => {
                    let s = s.clone();
                    *pos += 1;
                    Ok(s)
                }
                other => Err(err_at(
                    tokens,
                    *pos,
                    format!("expected {what}, found {other}"),
                )),
            }
        };
    let is_sym = |tokens: &[Token], pos: usize, sym: &str| -> bool {
        matches!(&tokens[pos].kind, TokenKind::Symbol(s) if *s == sym)
    };
    let expect_sym = |tokens: &[Token], pos: &mut usize, sym: &str| -> Result<(), SqlError> {
        if is_sym(tokens, *pos, sym) {
            *pos += 1;
            Ok(())
        } else {
            Err(err_at(
                tokens,
                *pos,
                format!("expected `{sym}`, found {}", tokens[*pos].kind),
            ))
        }
    };
    /// Index of the symbol closing the paren that was opened just before
    /// `start` (depth accounting over the token stream).
    fn matching_close(tokens: &[Token], start: usize) -> Result<usize, SqlError> {
        let mut depth = 1usize;
        let mut i = start;
        loop {
            match &tokens[i].kind {
                TokenKind::Eof => {
                    return Err(SqlError::new("unbalanced parentheses", Some(tokens[i].pos)))
                }
                TokenKind::Symbol("(") => depth += 1,
                TokenKind::Symbol(")") => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(i);
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    // CREATE TABLE name [(cols…)] AS FOR EACH driver
    expect_word(&tokens, &mut pos, "CREATE")?;
    expect_word(&tokens, &mut pos, "TABLE")?;
    let table_name = expect_ident(&tokens, &mut pos, "table name")?;
    if is_sym(&tokens, pos, "(") {
        pos += 1;
        loop {
            let _ = expect_ident(&tokens, &mut pos, "column name")?;
            if is_sym(&tokens, pos, ",") {
                pos += 1;
            } else {
                break;
            }
        }
        expect_sym(&tokens, &mut pos, ")")?;
    }
    expect_word(&tokens, &mut pos, "AS")?;
    expect_word(&tokens, &mut pos, "FOR")?;
    expect_word(&tokens, &mut pos, "EACH")?;
    let driver = expect_ident(&tokens, &mut pos, "driver table name")?;

    // WITH Vg( params )
    expect_word(&tokens, &mut pos, "WITH")?;
    let vg_name = expect_ident(&tokens, &mut pos, "VG function name")?;
    let vg = registry
        .get(&vg_name)
        .ok_or_else(|| {
            err_at(
                &tokens,
                pos,
                format!(
                    "unknown VG function `{vg_name}` (registered: {})",
                    registry.names().join(", ")
                ),
            )
        })?
        .clone();
    expect_sym(&tokens, &mut pos, "(")?;
    let args_close = matching_close(&tokens, pos)?;

    let mut params_query: Option<Plan> = None;
    let mut param_exprs: Vec<Expr> = Vec::new();
    if matches!(tokens[pos].kind, TokenKind::Keyword("SELECT")) {
        // Bare subquery fills the whole argument list (the paper's form).
        params_query = Some(parse_select_tokens(&tokens, pos, args_close)?);
        pos = args_close + 1;
    } else if pos == args_close {
        // Empty argument list.
        pos = args_close + 1;
    } else {
        // Optional parenthesized subquery as the first argument.
        if is_sym(&tokens, pos, "(") && matches!(tokens[pos + 1].kind, TokenKind::Keyword("SELECT"))
        {
            let sub_close = matching_close(&tokens, pos + 1)?;
            params_query = Some(parse_select_tokens(&tokens, pos + 1, sub_close)?);
            pos = sub_close + 1;
            if is_sym(&tokens, pos, ",") {
                pos += 1;
            }
        }
        while pos < args_close {
            let (e, next) = parse_expression_at(&tokens, pos)?;
            param_exprs.push(e);
            pos = next;
            if is_sym(&tokens, pos, ",") {
                pos += 1;
            } else {
                break;
            }
        }
        if pos != args_close {
            return Err(err_at(
                &tokens,
                pos,
                format!("unexpected {} in VG arguments", tokens[pos].kind),
            ));
        }
        pos = args_close + 1;
    }

    // SELECT projection over driver ++ VG columns.
    if !matches!(tokens[pos].kind, TokenKind::Keyword("SELECT")) {
        return Err(err_at(
            &tokens,
            pos,
            format!("expected SELECT projection, found {}", tokens[pos].kind),
        ));
    }
    pos += 1;
    let mut select: Vec<(String, Expr)> = Vec::new();
    loop {
        let (expr, next) = parse_expression_at(&tokens, pos)?;
        pos = next;
        let name = if word_at(&tokens, pos, "AS") {
            pos += 1;
            expect_ident(&tokens, &mut pos, "alias")?
        } else {
            match &expr {
                Expr::Col(c) => c.clone(),
                _ => format!("col_{}", select.len() + 1),
            }
        };
        select.push((name, expr));
        if is_sym(&tokens, pos, ",") {
            pos += 1;
        } else {
            break;
        }
    }
    if !matches!(tokens[pos].kind, TokenKind::Eof) {
        return Err(err_at(
            &tokens,
            pos,
            format!("unexpected trailing {}", tokens[pos].kind),
        ));
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
