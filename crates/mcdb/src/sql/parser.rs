//! The recursive-descent SQL parser: one token cursor ([`Parser`]) and the
//! SELECT grammar that produces logical [`Plan`]s. The stochastic-table
//! DDL's grammar is a further set of cursor methods in `ddl.rs`.

use super::lexer::{tokenize, SqlError, Token, TokenKind};
use crate::expr::{Expr, ScalarFunc};
use crate::query::{AggFunc, AggSpec, Plan, SortKey};
use crate::value::Value;

/// One parsed select item.
enum SelectItem {
    Star,
    Agg {
        func: AggFunc,
        arg: Option<Expr>,
        alias: Option<String>,
    },
    Expr {
        expr: Expr,
        alias: Option<String>,
    },
}

/// A cursor over one statement's tokens. Both grammars are its methods:
/// the SELECT grammar here, the stochastic-table DDL in `ddl.rs`.
pub(super) struct Parser {
    pub(super) tokens: Vec<Token>,
    pub(super) pos: usize,
}

impl Parser {
    /// Lex `sql` and parse all of it with `rule`: trailing tokens are an
    /// error.
    pub(super) fn parse_all<T>(
        sql: &str,
        rule: impl FnOnce(&mut Parser) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        let mut p = Parser {
            tokens: tokenize(sql)?,
            pos: 0,
        };
        let parsed = rule(&mut p)?;
        p.expect_eof()?;
        Ok(parsed)
    }

    pub(super) fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    pub(super) fn next_is_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Keyword(k) if *k == kw)
    }

    pub(super) fn next_is_sym(&self, sym: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Symbol(s) if *s == sym)
    }

    pub(super) fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.next_is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(super) fn eat_sym(&mut self, sym: &str) -> bool {
        if self.next_is_sym(sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected {kw}, found {}", self.peek().kind)))
        }
    }

    pub(super) fn expect_sym(&mut self, sym: &str) -> Result<(), SqlError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected `{sym}`, found {}", self.peek().kind)))
        }
    }

    pub(super) fn expect_ident(&mut self, what: &str) -> Result<String, SqlError> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                self.bump();
                Ok(name)
            }
            other => Err(self.error_here(format!("expected {what}, found {other}"))),
        }
    }

    /// Whether the next token spells `word`, case-insensitively, as a
    /// keyword or an identifier: the DDL's words are not keywords.
    pub(super) fn next_is_word(&self, word: &str) -> bool {
        match &self.peek().kind {
            TokenKind::Ident(s) => s.eq_ignore_ascii_case(word),
            TokenKind::Keyword(k) => k.eq_ignore_ascii_case(word),
            _ => false,
        }
    }

    pub(super) fn expect_word(&mut self, word: &str) -> Result<(), SqlError> {
        if self.next_is_word(word) {
            self.bump();
            Ok(())
        } else {
            Err(self.error_here(format!("expected {word}, found {}", self.peek().kind)))
        }
    }

    fn expect_eof(&mut self) -> Result<(), SqlError> {
        if matches!(self.peek().kind, TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error_here(format!("unexpected trailing {}", self.peek().kind)))
        }
    }

    pub(super) fn error_here(&self, message: String) -> SqlError {
        SqlError::new(message, Some(self.peek().pos))
    }

    // ---- statement structure ----

    pub(super) fn select_statement(&mut self) -> Result<Plan, SqlError> {
        self.expect_kw("SELECT")?;
        let items = self.select_list()?;

        self.expect_kw("FROM")?;
        let table = self.expect_ident("table name")?;
        let mut plan = Plan::scan(table);

        while self.eat_kw("JOIN") {
            let right = self.expect_ident("table name")?;
            self.expect_kw("ON")?;
            let mut on: Vec<(String, String)> = Vec::new();
            loop {
                let l = self.expect_ident("join column")?;
                self.expect_sym("=")?;
                let r = self.expect_ident("join column")?;
                on.push((l, r));
                if !self.eat_kw("AND") {
                    break;
                }
            }
            let pairs: Vec<(&str, &str)> =
                on.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect();
            plan = plan.join(Plan::scan(right), &pairs);
        }

        if self.eat_kw("WHERE") {
            let pred = self.expression()?;
            plan = plan.filter(pred);
        }

        let mut group_by: Vec<String> = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expect_ident("grouping column")?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }

        let mut order_keys: Vec<SortKey> = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let e = self.expression()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_keys.push(if asc {
                    SortKey::asc(e)
                } else {
                    SortKey::desc(e)
                });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }

        let mut limit: Option<usize> = None;
        if self.eat_kw("LIMIT") {
            match self.peek().kind.clone() {
                TokenKind::Number(n) if n >= 0.0 && n.fract() == 0.0 => {
                    self.bump(); // number
                    self.bump(); // float flag
                    limit = Some(n as usize);
                }
                other => {
                    return Err(self.error_here(format!(
                        "LIMIT expects a non-negative integer, found {other}"
                    )))
                }
            }
        }

        // ORDER BY placement, per SQL semantics: keys may reference either
        // output names (aliases, aggregate columns) or — for plain selects —
        // source columns that the projection drops. If every referenced
        // column is among the select output names, sort above the
        // projection; otherwise sort below it (only possible on the
        // non-aggregate path).
        let output_names = select_output_names(&items);
        let keys_fit_output = order_keys.iter().all(|k| {
            k.expr
                .referenced_columns()
                .iter()
                .all(|c| output_names.as_ref().is_none_or(|names| names.contains(c)))
        });
        let has_agg =
            items.iter().any(|i| matches!(i, SelectItem::Agg { .. })) || !group_by.is_empty();
        if !order_keys.is_empty() && !keys_fit_output && !has_agg {
            plan = plan.sort(order_keys);
            plan = self.apply_select(plan, items, group_by)?;
        } else {
            plan = self.apply_select(plan, items, group_by)?;
            if !order_keys.is_empty() {
                plan = plan.sort(order_keys);
            }
        }
        if let Some(n) = limit {
            plan = plan.limit(n);
        }
        Ok(plan)
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>, SqlError> {
        if self.eat_sym("*") {
            return Ok(vec![SelectItem::Star]);
        }
        let mut items = Vec::new();
        loop {
            let item = self.select_item()?;
            items.push(item);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        // Aggregates are only legal at the top of a select item.
        let agg = match &self.peek().kind {
            TokenKind::Keyword("COUNT") => Some(AggFunc::Count),
            TokenKind::Keyword("SUM") => Some(AggFunc::Sum),
            TokenKind::Keyword("AVG") => Some(AggFunc::Avg),
            TokenKind::Keyword("MIN") => Some(AggFunc::Min),
            TokenKind::Keyword("MAX") => Some(AggFunc::Max),
            TokenKind::Eof | TokenKind::Keyword("FROM") => {
                return Err(self.error_here("expected select item".to_string()))
            }
            _ => None,
        };
        if let Some(func) = agg {
            self.bump();
            self.expect_sym("(")?;
            let arg = if func == AggFunc::Count && self.eat_sym("*") {
                None
            } else {
                Some(self.expression()?)
            };
            self.expect_sym(")")?;
            let alias = self.optional_alias()?;
            return Ok(SelectItem::Agg { func, arg, alias });
        }
        let expr = self.expression()?;
        let alias = self.optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    pub(super) fn optional_alias(&mut self) -> Result<Option<String>, SqlError> {
        if self.eat_kw("AS") {
            Ok(Some(self.expect_ident("alias")?))
        } else {
            Ok(None)
        }
    }

    /// Apply the select list (and GROUP BY) on top of the source plan.
    fn apply_select(
        &self,
        plan: Plan,
        items: Vec<SelectItem>,
        group_by: Vec<String>,
    ) -> Result<Plan, SqlError> {
        let has_agg = items.iter().any(|i| matches!(i, SelectItem::Agg { .. }));
        if !has_agg && group_by.is_empty() {
            // Plain projection (or pass-through for SELECT *).
            if items.len() == 1 && matches!(items[0], SelectItem::Star) {
                return Ok(plan);
            }
            let mut cols: Vec<(String, Expr)> = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                match item {
                    SelectItem::Star => {
                        return Err(SqlError::new(
                            "`*` cannot be combined with other select items",
                            None,
                        ))
                    }
                    SelectItem::Expr { expr, alias } => {
                        cols.push((derive_name(expr, alias.as_deref(), i), expr.clone()))
                    }
                    SelectItem::Agg { .. } => unreachable!("no aggregates on this path"),
                }
            }
            let refs: Vec<(&str, Expr)> =
                cols.iter().map(|(n, e)| (n.as_str(), e.clone())).collect();
            return Ok(plan.project(&refs));
        }

        // Aggregation path. Non-aggregate select items must be bare columns
        // listed in GROUP BY.
        let mut aggs = Vec::new();
        let mut output: Vec<(String, bool)> = Vec::new(); // (name, is_group_col)
        for (i, item) in items.iter().enumerate() {
            match item {
                SelectItem::Star => {
                    return Err(SqlError::new(
                        "`*` is not valid with GROUP BY/aggregates",
                        None,
                    ))
                }
                SelectItem::Agg { func, arg, alias } => {
                    let name = alias.clone().unwrap_or_else(|| default_agg_name(*func, i));
                    aggs.push(match arg {
                        None => AggSpec::count_star(name.clone()),
                        Some(e) => AggSpec::new(name.clone(), *func, e.clone()),
                    });
                    output.push((name, false));
                }
                SelectItem::Expr { expr, alias } => match expr {
                    Expr::Col(col) if group_by.iter().any(|g| g == col) => {
                        let name = alias.clone().unwrap_or_else(|| col.clone());
                        output.push((name, true));
                        if alias.is_some() && alias.as_deref() != Some(col.as_str()) {
                            return Err(SqlError::new(
                                "aliasing GROUP BY columns is not supported",
                                None,
                            ));
                        }
                    }
                    _ => {
                        return Err(SqlError::new(
                            format!(
                                "select item {} must be an aggregate or a GROUP BY column",
                                i + 1
                            ),
                            None,
                        ))
                    }
                },
            }
        }
        let group_refs: Vec<&str> = group_by.iter().map(|s| s.as_str()).collect();
        let mut plan = plan.aggregate(&group_refs, aggs);
        // Reorder/prune to the select-list order when it differs from
        // (group_by ++ aggs).
        let natural: Vec<String> = group_by
            .iter()
            .cloned()
            .chain(output.iter().filter(|(_, g)| !g).map(|(n, _)| n.clone()))
            .collect();
        let wanted: Vec<String> = output.iter().map(|(n, _)| n.clone()).collect();
        if wanted != natural {
            let refs: Vec<(&str, Expr)> = wanted
                .iter()
                .map(|n| (n.as_str(), Expr::col(n.clone())))
                .collect();
            plan = plan.project(&refs);
        }
        Ok(plan)
    }

    // ---- expressions (precedence climbing) ----

    pub(super) fn expression(&mut self) -> Result<Expr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("NOT") {
            Ok(self.not_expr()?.not())
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.additive()?;
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            let e = left.is_null();
            return Ok(if negated { e.not() } else { e });
        }
        for (sym, build) in [
            ("=", Expr::eq as fn(Expr, Expr) -> Expr),
            ("<>", Expr::ne),
            ("<=", Expr::le),
            (">=", Expr::ge),
            ("<", Expr::lt),
            (">", Expr::gt),
        ] {
            if self.eat_sym(sym) {
                let right = self.additive()?;
                return Ok(build(left, right));
            }
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.multiplicative()?;
        loop {
            if self.eat_sym("+") {
                left = left.add(self.multiplicative()?);
            } else if self.eat_sym("-") {
                left = left.sub(self.multiplicative()?);
            } else {
                return Ok(left);
            }
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.unary()?;
        loop {
            if self.eat_sym("*") {
                left = left.mul(self.unary()?);
            } else if self.eat_sym("/") {
                left = left.div(self.unary()?);
            } else {
                return Ok(left);
            }
        }
    }

    fn unary(&mut self) -> Result<Expr, SqlError> {
        if self.eat_sym("-") {
            Ok(self.unary()?.neg())
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        let token = self.peek().kind.clone();
        match token {
            TokenKind::Number(n) => {
                self.bump();
                let is_float = match self.peek().kind {
                    TokenKind::NumberIsFloat(f) => {
                        self.bump();
                        f
                    }
                    _ => true,
                };
                Ok(if is_float {
                    Expr::lit(n)
                } else {
                    Expr::lit(Value::Int(n as i64))
                })
            }
            TokenKind::StringLit(s) => {
                self.bump();
                Ok(Expr::lit(Value::str(s)))
            }
            TokenKind::Keyword("TRUE") => {
                self.bump();
                Ok(Expr::lit(true))
            }
            TokenKind::Keyword("FALSE") => {
                self.bump();
                Ok(Expr::lit(false))
            }
            TokenKind::Keyword("NULL") => {
                self.bump();
                Ok(Expr::lit(Value::Null))
            }
            TokenKind::Keyword(k @ ("ABS" | "SQRT" | "EXP" | "LN" | "FLOOR" | "CEIL")) => {
                self.bump();
                self.expect_sym("(")?;
                let arg = self.expression()?;
                self.expect_sym(")")?;
                let func = match k {
                    "ABS" => ScalarFunc::Abs,
                    "SQRT" => ScalarFunc::Sqrt,
                    "EXP" => ScalarFunc::Exp,
                    "LN" => ScalarFunc::Ln,
                    "FLOOR" => ScalarFunc::Floor,
                    _ => ScalarFunc::Ceil,
                };
                Ok(arg.func(func))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr::col(name))
            }
            TokenKind::Symbol("(") => {
                self.bump();
                let e = self.expression()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            other => Err(self.error_here(format!("expected expression, found {other}"))),
        }
    }
}

/// The output column names of a select list; `None` for `SELECT *` (every
/// source column flows through).
fn select_output_names(items: &[SelectItem]) -> Option<Vec<String>> {
    if items.iter().any(|i| matches!(i, SelectItem::Star)) {
        return None;
    }
    Some(
        items
            .iter()
            .enumerate()
            .map(|(i, item)| match item {
                SelectItem::Star => unreachable!("filtered above"),
                SelectItem::Agg { func, alias, .. } => {
                    alias.clone().unwrap_or_else(|| default_agg_name(*func, i))
                }
                SelectItem::Expr { expr, alias } => derive_name(expr, alias.as_deref(), i),
            })
            .collect(),
    )
}

fn derive_name(expr: &Expr, alias: Option<&str>, index: usize) -> String {
    match (alias, expr) {
        (Some(a), _) => a.to_string(),
        (None, Expr::Col(c)) => c.clone(),
        (None, _) => format!("expr_{}", index + 1),
    }
}

fn default_agg_name(func: AggFunc, index: usize) -> String {
    let base = match func {
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Avg => "avg",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
    };
    format!("{base}_{}", index + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::plan_from_sql;

    #[test]
    fn literal_typing_int_vs_float() {
        let p = plan_from_sql("SELECT * FROM t WHERE a = 5").unwrap();
        let Plan::Filter { predicate, .. } = p else {
            panic!()
        };
        assert_eq!(predicate, Expr::col("a").eq(Expr::lit(Value::Int(5))));
        let p = plan_from_sql("SELECT * FROM t WHERE a = 5.0").unwrap();
        let Plan::Filter { predicate, .. } = p else {
            panic!()
        };
        assert_eq!(predicate, Expr::col("a").eq(Expr::lit(5.0)));
    }

    #[test]
    fn operator_precedence() {
        // a + b * 2 parses as a + (b * 2).
        let p = plan_from_sql("SELECT a + b * 2 AS x FROM t").unwrap();
        let Plan::Project { exprs, .. } = p else {
            panic!()
        };
        assert_eq!(
            exprs[0].1,
            Expr::col("a").add(Expr::col("b").mul(Expr::lit(Value::Int(2))))
        );
        // NOT binds tighter than AND; AND tighter than OR.
        let p = plan_from_sql("SELECT * FROM t WHERE NOT a = 1 AND b = 2 OR c = 3").unwrap();
        let Plan::Filter { predicate, .. } = p else {
            panic!()
        };
        let expected = Expr::col("a")
            .eq(Expr::lit(Value::Int(1)))
            .not()
            .and(Expr::col("b").eq(Expr::lit(Value::Int(2))))
            .or(Expr::col("c").eq(Expr::lit(Value::Int(3))));
        assert_eq!(predicate, expected);
    }

    #[test]
    fn unary_minus_and_parens() {
        let p = plan_from_sql("SELECT -(a + 1) AS x FROM t").unwrap();
        let Plan::Project { exprs, .. } = p else {
            panic!()
        };
        assert_eq!(
            exprs[0].1,
            Expr::col("a").add(Expr::lit(Value::Int(1))).neg()
        );
    }

    #[test]
    fn non_group_arithmetic_in_aggregate_select_rejected() {
        // a + 1 is neither an aggregate nor a bare GROUP BY column.
        let e = plan_from_sql("SELECT a, a + 1, COUNT(*) FROM t GROUP BY a").unwrap_err();
        assert!(e.to_string().contains("GROUP BY"), "{e}");
    }

    #[test]
    fn non_group_expression_rejected() {
        let e = plan_from_sql("SELECT b FROM t GROUP BY a").unwrap_err();
        assert!(e.to_string().contains("GROUP BY"));
    }

    #[test]
    fn derived_names() {
        let p = plan_from_sql("SELECT a, a + 1 FROM t").unwrap();
        let Plan::Project { exprs, .. } = p else {
            panic!()
        };
        assert_eq!(exprs[0].0, "a");
        assert_eq!(exprs[1].0, "expr_2");
        let p = plan_from_sql("SELECT COUNT(*), SUM(a) FROM t").unwrap();
        let Plan::Aggregate { aggs, .. } = p else {
            panic!()
        };
        assert_eq!(aggs[0].name, "count_1");
        assert_eq!(aggs[1].name, "sum_2");
    }

    #[test]
    fn select_order_reorders_group_output() {
        // SUM first, group col second: a projection restores select order.
        let p = plan_from_sql("SELECT SUM(b) AS s, a FROM t GROUP BY a").unwrap();
        let Plan::Project { exprs, input } = p else {
            panic!("expected projection on top")
        };
        assert_eq!(exprs[0].0, "s");
        assert_eq!(exprs[1].0, "a");
        assert!(matches!(*input, Plan::Aggregate { .. }));
    }

    #[test]
    fn multi_join_chain() {
        let p = plan_from_sql("SELECT * FROM a JOIN b ON x = y JOIN c ON u = v AND w = z").unwrap();
        let Plan::Join { on, left, .. } = p else {
            panic!()
        };
        assert_eq!(on.len(), 2);
        assert!(matches!(*left, Plan::Join { .. }));
    }
}
