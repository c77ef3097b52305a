//! SQL tokenizer.

use std::fmt;

/// A lexed token with its source position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind/payload.
    pub kind: TokenKind,
    /// Byte offset in the input.
    pub pos: usize,
}

/// Token kinds. Keywords are recognized case-insensitively at the lexer
/// level; identifiers keep their original case.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A keyword (stored uppercase).
    Keyword(&'static str),
    /// An identifier (case preserved). Dotted names like `r.id` lex as a
    /// single identifier, matching the engine's collision-prefixed columns.
    Ident(String),
    /// A numeric literal.
    Number(f64),
    /// Whether the numeric literal had a decimal point or exponent.
    /// (Carried beside `Number` via `NumberIsFloat`; see `tokenize`.)
    NumberIsFloat(bool),
    /// A string literal (quotes stripped, `''` unescaped).
    StringLit(String),
    /// An operator or punctuation symbol.
    Symbol(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k}"),
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Number(n) => write!(f, "number {n}"),
            TokenKind::NumberIsFloat(_) => write!(f, "number flag"),
            TokenKind::StringLit(s) => write!(f, "string '{s}'"),
            TokenKind::Symbol(s) => write!(f, "`{s}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A SQL front-end error with position context.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the input, if known.
    pub pos: Option<usize>,
}

impl SqlError {
    pub(crate) fn new(message: impl Into<String>, pos: Option<usize>) -> Self {
        SqlError {
            message: message.into(),
            pos,
        }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "SQL error at byte {p}: {}", self.message),
            None => write!(f, "SQL error: {}", self.message),
        }
    }
}

impl std::error::Error for SqlError {}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT", "JOIN", "ON", "AND",
    "OR", "NOT", "AS", "COUNT", "SUM", "AVG", "MIN", "MAX", "TRUE", "FALSE", "NULL", "IS", "ABS",
    "SQRT", "EXP", "LN", "FLOOR", "CEIL",
];

/// Tokenize a SQL string. Numbers carry an `is_float` flag in a paired
/// `NumberIsFloat` token immediately following the `Number` token — an
/// implementation detail consumed by the parser (integer literals become
/// `Value::Int`, floats `Value::Float`, matching SQL semantics).
pub fn tokenize(input: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        if c.is_ascii_alphabetic() || c == '_' {
            // Identifier or keyword; allow dots for prefixed columns.
            let mut j = i + 1;
            while j < bytes.len() {
                let cj = bytes[j] as char;
                if cj.is_ascii_alphanumeric() || cj == '_' || cj == '.' {
                    j += 1;
                } else {
                    break;
                }
            }
            let word = &input[i..j];
            let upper = word.to_ascii_uppercase();
            match KEYWORDS.iter().find(|k| **k == upper) {
                Some(k) if !word.contains('.') => out.push(Token {
                    kind: TokenKind::Keyword(k),
                    pos: start,
                }),
                _ => out.push(Token {
                    kind: TokenKind::Ident(word.to_string()),
                    pos: start,
                }),
            }
            i = j;
        } else if c.is_ascii_digit()
            || (c == '.' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit())
        {
            let mut j = i;
            let mut is_float = false;
            while j < bytes.len() {
                let cj = bytes[j] as char;
                if cj.is_ascii_digit() {
                    j += 1;
                } else if cj == '.' && !is_float {
                    is_float = true;
                    j += 1;
                } else if (cj == 'e' || cj == 'E')
                    && j + 1 < bytes.len()
                    && ((bytes[j + 1] as char).is_ascii_digit()
                        || bytes[j + 1] == b'+'
                        || bytes[j + 1] == b'-')
                {
                    is_float = true;
                    j += 2;
                    while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        j += 1;
                    }
                    break;
                } else {
                    break;
                }
            }
            let text = &input[i..j];
            let value: f64 = text
                .parse()
                .map_err(|_| SqlError::new(format!("invalid number `{text}`"), Some(start)))?;
            out.push(Token {
                kind: TokenKind::Number(value),
                pos: start,
            });
            out.push(Token {
                kind: TokenKind::NumberIsFloat(is_float),
                pos: start,
            });
            i = j;
        } else if c == '\'' {
            // String literal with '' escaping, sliced from the `&str` a
            // quote-delimited piece at a time: `'` is ASCII, so every cut
            // is on a character boundary whatever the literal holds.
            let mut j = i + 1;
            let mut s = String::new();
            loop {
                let Some(quote) = bytes[j..].iter().position(|&b| b == b'\'') else {
                    return Err(SqlError::new("unterminated string literal", Some(start)));
                };
                s.push_str(&input[j..j + quote]);
                j += quote + 1;
                if bytes.get(j) != Some(&b'\'') {
                    break;
                }
                s.push('\'');
                j += 1;
            }
            out.push(Token {
                kind: TokenKind::StringLit(s),
                pos: start,
            });
            i = j;
        } else {
            // Symbols, longest first.
            // Compared as bytes: the second byte may open a multi-byte
            // character, where a `&str` slice would panic.
            let two = bytes.get(i..i + 2);
            let sym2 = ["<>", "<=", ">=", "!="]
                .iter()
                .find(|s| Some(s.as_bytes()) == two);
            if let Some(&s) = sym2 {
                out.push(Token {
                    kind: TokenKind::Symbol(if s == "!=" { "<>" } else { s }),
                    pos: start,
                });
                i += 2;
                continue;
            }
            let sym1 = ["=", "<", ">", "+", "-", "*", "/", "(", ")", ","]
                .iter()
                .find(|s| s.as_bytes()[0] == bytes[i]);
            match sym1 {
                Some(&s) => {
                    out.push(Token {
                        kind: TokenKind::Symbol(s),
                        pos: start,
                    });
                    i += 1;
                }
                None => {
                    // Every token consumed so far ended on an ASCII byte,
                    // so `i` is a character boundary.
                    let c = input[i..].chars().next().unwrap_or(c);
                    return Err(SqlError::new(
                        format!("unexpected character `{c}`"),
                        Some(start),
                    ));
                }
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        pos: input.len(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            kinds("select FROM WhErE")[..3],
            [
                TokenKind::Keyword("SELECT"),
                TokenKind::Keyword("FROM"),
                TokenKind::Keyword("WHERE"),
            ]
        );
    }

    #[test]
    fn identifiers_preserve_case_and_dots() {
        let k = kinds("Sales r.id _x");
        assert_eq!(k[0], TokenKind::Ident("Sales".into()));
        assert_eq!(k[1], TokenKind::Ident("r.id".into()));
        assert_eq!(k[2], TokenKind::Ident("_x".into()));
    }

    #[test]
    fn numbers_int_vs_float() {
        let k = kinds("42 4.5 1e3 .5");
        assert_eq!(k[0], TokenKind::Number(42.0));
        assert_eq!(k[1], TokenKind::NumberIsFloat(false));
        assert_eq!(k[2], TokenKind::Number(4.5));
        assert_eq!(k[3], TokenKind::NumberIsFloat(true));
        assert_eq!(k[4], TokenKind::Number(1000.0));
        assert_eq!(k[5], TokenKind::NumberIsFloat(true));
        assert_eq!(k[6], TokenKind::Number(0.5));
    }

    #[test]
    fn strings_with_escapes() {
        let k = kinds("'east' 'o''brien'");
        assert_eq!(k[0], TokenKind::StringLit("east".into()));
        assert_eq!(k[1], TokenKind::StringLit("o'brien".into()));
        assert!(tokenize("'open").is_err());
    }

    #[test]
    fn non_ascii_input_is_lexed_by_character_not_by_byte() {
        let k = kinds("'héllo' '日本''語' '🦀'");
        assert_eq!(k[0], TokenKind::StringLit("héllo".into()));
        assert_eq!(k[1], TokenKind::StringLit("日本'語".into()));
        assert_eq!(k[2], TokenKind::StringLit("🦀".into()));
        // Typed errors, never a slice panic: an unterminated literal that
        // ends inside a multi-byte sequence, a multi-byte character right
        // after a one-byte symbol, and one where a token should start.
        assert!(tokenize("'abc é").is_err());
        assert!(tokenize("x <é").is_err());
        let e = tokenize("SELECT é").unwrap_err();
        assert!(e.message.contains('é'), "{e}");
    }

    #[test]
    fn symbols_including_two_char() {
        let k = kinds("<= >= <> != = < > ( ) , + - * /");
        assert_eq!(k[0], TokenKind::Symbol("<="));
        assert_eq!(k[1], TokenKind::Symbol(">="));
        assert_eq!(k[2], TokenKind::Symbol("<>"));
        assert_eq!(k[3], TokenKind::Symbol("<>")); // != normalizes
        assert_eq!(k[4], TokenKind::Symbol("="));
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("SELECT #").is_err());
    }

    #[test]
    fn positions_recorded() {
        let toks = tokenize("SELECT x").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 7);
    }
}
