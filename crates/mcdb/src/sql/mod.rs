//! A SQL text interface for the engine.
//!
//! Every query the paper shows — the SBP stochastic-table parametrization,
//! the Indemics observation and intervention queries of Algorithm 1, the
//! "revenue from East Coast customers" what-if — is written in SQL. This
//! module provides the textual front end: a hand-written lexer and one
//! recursive-descent parser for the two statements the engine runs, told
//! apart by their first word:
//!
//! - a `SELECT` query, translated into the engine's logical [`Plan`]:
//!
//!   ```sql
//!   SELECT region, SUM(amount * 1.1) AS taxed
//!   FROM sales JOIN regions ON region = name
//!   WHERE amount > 10 AND NOT region = 'north'
//!   GROUP BY region
//!   ORDER BY taxed DESC
//!   LIMIT 10
//!   ```
//!
//! - MCDB's stochastic-table declaration `CREATE TABLE … AS FOR EACH … WITH
//!   Vg(…) SELECT …`, into a [`RandomTableSpec`] (grammar and rules in
//!   `ddl.rs`).
//!
//! [`parse_statement`] takes either and returns a [`Statement`];
//! [`plan_from_sql`] and [`parse_create_random_table`] are its typed entry
//! points for a caller that knows which one it holds. All three run the
//! same token cursor, and the DDL reads its subquery, arguments and
//! projection with the SELECT grammar's own rules.
//!
//! Supported in a SELECT: lists with expressions, aliases, `*`, and the
//! aggregates `COUNT(*) | COUNT | SUM | AVG | MIN | MAX`; `FROM` with any
//! number of `JOIN … ON a = b [AND c = d]` equi-joins; `WHERE` with full
//! boolean/comparison/arithmetic expressions, `IS [NOT] NULL`, and the
//! scalar functions `ABS/SQRT/EXP/LN/FLOOR/CEIL`; `GROUP BY`; `ORDER BY …
//! [ASC|DESC]`; `LIMIT`. Identifiers are case-sensitive; keywords are not.
//!
//! The translation targets the same [`Plan`] API programmatic callers use,
//! so the optimizer and the Monte Carlo estimators apply to parsed queries
//! unchanged.

mod ddl;
mod lexer;
mod parser;

pub use ddl::{parse_create_random_table, VgRegistry};
pub use lexer::{tokenize, SqlError, Token, TokenKind};

use crate::query::{Catalog, Plan};
use crate::random_table::RandomTableSpec;
use crate::table::Table;
use parser::Parser;

/// One parsed SQL statement.
#[derive(Debug)]
pub enum Statement {
    /// A `SELECT` query.
    Select(Plan),
    /// A `CREATE TABLE … AS FOR EACH …` stochastic-table declaration.
    CreateRandomTable(RandomTableSpec),
}

/// Parse one statement of either kind: `CREATE` opens a stochastic-table
/// declaration, anything else is read as a SELECT.
pub fn parse_statement(sql: &str, registry: &VgRegistry) -> Result<Statement, SqlError> {
    Parser::parse_all(sql, |p| {
        if p.next_is_word("CREATE") {
            p.create_random_table(registry)
                .map(Statement::CreateRandomTable)
        } else {
            p.select_statement().map(Statement::Select)
        }
    })
}

/// Parse a SQL SELECT into a logical plan.
pub fn plan_from_sql(sql: &str) -> Result<Plan, SqlError> {
    Parser::parse_all(sql, Parser::select_statement)
}

impl Catalog {
    /// Parse and execute a SQL SELECT against this catalog.
    pub fn sql(&self, sql: &str) -> crate::Result<Table> {
        let plan = plan_from_sql(sql).map_err(|e| crate::McdbError::invalid_plan(e.to_string()))?;
        self.query(&plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::{AggFunc, AggSpec, SortKey};
    use crate::schema::DataType;
    use crate::value::Value;

    fn catalog() -> Catalog {
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
            .row(vec![Value::from(4), Value::from("north"), Value::Null])
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
            .row(vec![Value::from("north"), Value::from(0.0)])
            .finish()
            .unwrap(),
        );
        c
    }

    #[test]
    fn select_star() {
        let t = catalog().sql("SELECT * FROM sales").unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.schema().names(), vec!["id", "region", "amount"]);
    }

    #[test]
    fn projection_with_expressions_and_aliases() {
        let t = catalog()
            .sql("SELECT id, amount * 1.5 AS scaled FROM sales WHERE amount >= 20")
            .unwrap();
        assert_eq!(t.schema().names(), vec!["id", "scaled"]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][1], Value::from(30.0));
    }

    #[test]
    fn where_clause_full_boolean_logic() {
        let t = catalog()
            .sql("SELECT id FROM sales WHERE (amount > 15 OR region = 'east') AND NOT id = 3")
            .unwrap();
        let ids = t.column("id").unwrap();
        assert_eq!(ids, vec![Value::from(1), Value::from(2)]);
    }

    #[test]
    fn is_null_and_is_not_null() {
        let t = catalog()
            .sql("SELECT id FROM sales WHERE amount IS NULL")
            .unwrap();
        assert_eq!(t.column("id").unwrap(), vec![Value::from(4)]);
        let t = catalog()
            .sql("SELECT id FROM sales WHERE amount IS NOT NULL")
            .unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn group_by_with_aggregates() {
        let t = catalog()
            .sql(
                "SELECT region, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS mean \
                 FROM sales GROUP BY region ORDER BY region",
            )
            .unwrap();
        assert_eq!(t.len(), 3);
        let east = &t.rows()[0];
        assert_eq!(east[0], Value::from("east"));
        assert_eq!(east[1], Value::from(2));
        assert_eq!(east[2], Value::from(40.0));
        assert_eq!(east[3], Value::from(20.0));
        // north has a NULL amount: COUNT(*)=1, SUM=NULL.
        let north = &t.rows()[1];
        assert_eq!(north[1], Value::from(1));
        assert!(north[2].is_null());
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let t = catalog()
            .sql("SELECT COUNT(*) AS n, MAX(amount) AS hi FROM sales")
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::from(4));
        assert_eq!(t.rows()[0][1], Value::from(30.0));
    }

    #[test]
    fn join_with_on_clause() {
        let t = catalog()
            .sql(
                "SELECT id, tax FROM sales JOIN regions ON region = name \
                 WHERE amount > 5 ORDER BY id",
            )
            .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows()[0][1], Value::from(0.1));
        assert_eq!(t.rows()[1][1], Value::from(0.2));
    }

    #[test]
    fn order_by_directions_and_limit() {
        let t = catalog()
            .sql("SELECT id FROM sales ORDER BY amount DESC LIMIT 2")
            .unwrap();
        // Nulls sort first ascending, hence last descending — top two are
        // 30 and 20.
        assert_eq!(
            t.column("id").unwrap(),
            vec![Value::from(3), Value::from(2)]
        );
    }

    #[test]
    fn scalar_functions() {
        let t = catalog()
            .sql("SELECT ABS(0 - amount) AS a, SQRT(amount) AS s FROM sales WHERE id = 1")
            .unwrap();
        assert_eq!(t.rows()[0][0], Value::from(10.0));
        assert!((t.rows()[0][1].as_f64().unwrap() - 10.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn parse_errors_are_informative() {
        let c = catalog();
        for (sql, needle) in [
            ("SELEC * FROM sales", "expected SELECT"),
            ("SELECT * FROM", "table name"),
            ("SELECT FROM sales", "select item"),
            ("SELECT * FROM sales WHERE", "expression"),
            ("SELECT * FROM sales LIMIT x", "LIMIT"),
            ("SELECT id FROM sales ORDER", "BY"),
            ("SELECT 'unterminated FROM sales", "string"),
        ] {
            let err = c.sql(sql).unwrap_err().to_string();
            assert!(
                err.to_lowercase().contains(&needle.to_lowercase()),
                "for {sql:?}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn parsed_plan_equals_hand_built_plan() {
        let sql = "SELECT region, SUM(amount) AS total FROM sales \
                   WHERE amount > 5 GROUP BY region";
        let parsed = plan_from_sql(sql).unwrap();
        let hand = Plan::scan("sales")
            .filter(Expr::col("amount").gt(Expr::lit(5)))
            .aggregate(
                &["region"],
                vec![AggSpec::new("total", AggFunc::Sum, Expr::col("amount"))],
            );
        assert_eq!(parsed, hand);
    }

    #[test]
    fn parsed_order_by_matches_hand_built() {
        let parsed =
            plan_from_sql("SELECT * FROM sales ORDER BY amount DESC, id ASC LIMIT 3").unwrap();
        let hand = Plan::scan("sales")
            .sort(vec![
                SortKey::desc(Expr::col("amount")),
                SortKey::asc(Expr::col("id")),
            ])
            .limit(3);
        assert_eq!(parsed, hand);
    }

    #[test]
    fn keywords_case_insensitive_identifiers_not() {
        let t = catalog()
            .sql(
                "select ID from SALES where AMOUNT > 5"
                    .replace("ID", "id")
                    .replace("SALES", "sales")
                    .replace("AMOUNT", "amount")
                    .as_str(),
            )
            .unwrap();
        assert_eq!(t.len(), 3);
        // Wrong-case table name fails (identifiers are case-sensitive).
        assert!(catalog().sql("SELECT * FROM SALES").is_err());
    }

    #[test]
    fn algorithm_1_queries_in_sql() {
        // The paper's Algorithm 1 observation queries, textually.
        let mut c = Catalog::new();
        c.insert(
            Table::build("Person", &[("pid", DataType::Int), ("age", DataType::Int)])
                .rows((0..100).map(|i| vec![Value::from(i), Value::from(i % 50)]))
                .finish()
                .unwrap(),
        );
        c.insert(
            Table::build("InfectedPerson", &[("pid", DataType::Int)])
                .rows((0..10).map(|i| vec![Value::from(i * 7)]))
                .finish()
                .unwrap(),
        );
        let n_preschool = c
            .sql("SELECT COUNT(*) AS n FROM Person WHERE age >= 0 AND age <= 4")
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(n_preschool, Value::from(10));
        let n_infected_preschool = c
            .sql(
                "SELECT COUNT(*) AS n FROM Person JOIN InfectedPerson ON pid = pid \
                 WHERE age >= 0 AND age <= 4",
            )
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(n_infected_preschool, Value::from(1)); // pid 0 only
    }
}
