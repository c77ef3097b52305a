//! Length-prefixed wire protocol over the SQL + Monte Carlo surface.
//!
//! # Framing
//!
//! Every message — request or reply — is one frame: a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 text. Frames are
//! bounded by [`MAX_FRAME_LEN`]; a zero-length or oversized header, a
//! mid-frame EOF, or non-UTF-8 payload is a typed [`FrameError`], never
//! a panic or a hang — the read deadline on the socket bounds how long a
//! slow-loris client can dribble one frame.
//!
//! # Requests
//!
//! The payload's first line is the command with `key=value` arguments;
//! everything after the first newline is the body (SQL text, DDL, rows):
//!
//! ```text
//! HELLO tenant=acme
//! SQL deadline_ms=500
//! SELECT COUNT(*) AS n FROM t
//! MC n=500 seed=7 policy=besteffort min=0.5 checkpoint=c1
//! SELECT AVG(AMT) AS v FROM SALES
//! CAMPAIGN n=2000 seed=7 priority=interactive cost=2 deadline_ms=2000
//! SELECT SUM(AMT) AS v FROM SALES
//! ```
//!
//! # Parse-time budget validation
//!
//! Wire-supplied deadlines and replicate budgets are validated *here*,
//! when the frame is parsed — zero, non-numeric, and past-the-ceiling
//! values are typed protocol errors ([`WireCode::BadDeadline`] /
//! [`WireCode::BadBudget`]) — rather than silently saturating inside
//! [`Deadline`](mde_numeric::resilience::Deadline). A client that asks
//! for a nonsense budget learns so immediately, instead of discovering
//! that "0 ms" meant "forever".

use crate::error::{WireCode, WireError};
use mde_mcdb::prelude::{DataType, Table, Value};
use mde_mcdb::query::column::ColumnVec;
use mde_numeric::resilience::RunPolicy;
use mde_numeric::Priority;
use std::io::{Read, Write};

/// Upper bound on one frame's payload, request or reply.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Protocol ceiling for wire-supplied deadlines: 24 hours. Anything
/// above is almost certainly an overflow or a unit mistake.
pub const MAX_DEADLINE_MS: u64 = 24 * 60 * 60 * 1000;

/// Protocol ceiling for wire-supplied replicate budgets.
pub const MAX_REPLICATES: u64 = 100_000_000;

/// How reading one frame can fail.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error (includes read-deadline expiry).
    Io(std::io::Error),
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    TooLarge {
        /// Declared length.
        len: usize,
    },
    /// A zero-length payload.
    Empty,
    /// The peer closed the connection mid-frame (torn frame).
    Torn,
    /// The payload was not UTF-8.
    NotUtf8,
}

impl FrameError {
    /// The typed wire error a server sends back (best-effort) before
    /// closing a connection whose framing failed.
    pub fn to_wire(&self) -> WireError {
        let msg = match self {
            FrameError::Io(e) => format!("frame read failed: {e}"),
            FrameError::TooLarge { len } => {
                format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte bound")
            }
            FrameError::Empty => "zero-length frame".to_string(),
            FrameError::Torn => "connection closed mid-frame".to_string(),
            FrameError::NotUtf8 => "frame payload is not UTF-8".to_string(),
        };
        WireError::fatal(WireCode::BadFrame, msg)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_wire().message)
    }
}

/// One read from the frame layer: a complete frame, or a clean close
/// (EOF exactly between frames).
#[derive(Debug)]
pub enum ReadFrame {
    /// A complete frame payload.
    Frame(String),
    /// The peer closed the connection between frames.
    Closed,
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    debug_assert!(bytes.len() <= MAX_FRAME_LEN);
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame. EOF before any header byte is a clean
/// [`ReadFrame::Closed`]; EOF anywhere inside a frame is
/// [`FrameError::Torn`].
pub fn read_frame(r: &mut impl Read) -> Result<ReadFrame, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(ReadFrame::Closed),
            Ok(0) => return Err(FrameError::Torn),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { len });
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::Torn),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    match String::from_utf8(payload) {
        Ok(s) => Ok(ReadFrame::Frame(s)),
        Err(_) => Err(FrameError::NotUtf8),
    }
}

/// Per-request options shared by the executing commands.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestOpts {
    /// Validated wall-clock budget, milliseconds (`1..=MAX_DEADLINE_MS`).
    pub deadline_ms: Option<u64>,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session for `tenant`.
    Hello {
        /// Tenant name for admission accounting.
        tenant: String,
    },
    /// Liveness probe.
    Ping,
    /// Execute one SQL statement: a SELECT against the current catalog
    /// snapshot, or a stochastic-table declaration (`CREATE TABLE … AS FOR
    /// EACH …`) registered in this session. `VG` is an alias of `SQL`.
    Sql {
        /// Statement text (frame body).
        sql: String,
        /// Request options.
        opts: RequestOpts,
    },
    /// Create an ordinary table (catalog snapshot swap).
    Create {
        /// Table name.
        name: String,
        /// Column name/type pairs.
        columns: Vec<(String, DataType)>,
    },
    /// Append rows to an ordinary table (catalog snapshot swap). Body:
    /// one row per line, tab-separated values.
    Insert {
        /// Target table.
        name: String,
        /// Raw row text (parsed against the table's schema).
        rows: String,
    },
    /// Run a Monte Carlo estimation inline on this session's worker.
    Mc {
        /// Replicate budget (validated, `1..=MAX_REPLICATES`).
        n: u64,
        /// Master seed.
        seed: u64,
        /// Recovery policy.
        policy: RunPolicy,
        /// Query text (frame body).
        sql: String,
        /// Request options.
        opts: RequestOpts,
        /// Checkpoint name (sanitized; resolved under the server's
        /// checkpoint directory). Resumes if the file already exists.
        checkpoint: Option<String>,
    },
    /// Submit a durable campaign through the shared scheduler and wait
    /// for its terminal report.
    Campaign {
        /// Replicate budget (validated).
        n: u64,
        /// Master seed.
        seed: u64,
        /// Recovery policy.
        policy: RunPolicy,
        /// Dispatch priority.
        priority: Priority,
        /// Admission cost.
        cost: u64,
        /// Query text (frame body).
        sql: String,
        /// Request options.
        opts: RequestOpts,
        /// Checkpoint name, as for [`Request::Mc`].
        checkpoint: Option<String>,
    },
    /// Server counters snapshot.
    Stats,
    /// Begin graceful drain.
    Shutdown,
}

/// Parse one request payload. Every failure is a typed [`WireError`]
/// with a protocol-level code — never a panic, never a silent default
/// for a malformed budget.
pub fn parse_request(payload: &str) -> Result<Request, WireError> {
    let (header, body) = match payload.split_once('\n') {
        Some((h, b)) => (h.trim_end_matches('\r'), b),
        None => (payload, ""),
    };
    let mut tokens = header.split_whitespace();
    let cmd = tokens
        .next()
        .ok_or_else(|| WireError::fatal(WireCode::BadRequest, "empty request line"))?;
    let args: Vec<&str> = tokens.collect();

    let get = |key: &str| -> Option<&str> {
        args.iter()
            .find_map(|a| a.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
    };
    let require = |key: &str| -> Result<&str, WireError> {
        get(key).ok_or_else(|| {
            WireError::fatal(
                WireCode::BadRequest,
                format!("{cmd} requires {key}=<value>"),
            )
        })
    };
    let body_sql = || -> Result<String, WireError> {
        let sql = body.trim();
        if sql.is_empty() {
            return Err(WireError::fatal(
                WireCode::BadRequest,
                format!("{cmd} requires a SQL body after the request line"),
            ));
        }
        Ok(sql.to_string())
    };
    let opts = || -> Result<RequestOpts, WireError> {
        Ok(RequestOpts {
            deadline_ms: match get("deadline_ms") {
                Some(v) => Some(parse_deadline_ms(v)?),
                None => None,
            },
        })
    };
    let checkpoint = || -> Result<Option<String>, WireError> {
        get("checkpoint").map(parse_checkpoint_name).transpose()
    };
    let policy = || -> Result<RunPolicy, WireError> {
        match get("policy") {
            None => Ok(RunPolicy::Retry {
                max_attempts: 3,
                reseed: true,
            }),
            Some("failfast") => Ok(RunPolicy::FailFast),
            Some("retry") => Ok(RunPolicy::Retry {
                max_attempts: 3,
                reseed: true,
            }),
            Some("besteffort") => {
                let min_fraction = match get("min") {
                    None => 0.5,
                    Some(v) => {
                        let f: f64 = v.parse().map_err(|_| {
                            WireError::fatal(
                                WireCode::BadRequest,
                                format!("bad min fraction `{v}`"),
                            )
                        })?;
                        if !(0.0..=1.0).contains(&f) {
                            return Err(WireError::fatal(
                                WireCode::BadRequest,
                                format!("min fraction {f} outside [0, 1]"),
                            ));
                        }
                        f
                    }
                };
                Ok(RunPolicy::BestEffort { min_fraction })
            }
            Some(other) => Err(WireError::fatal(
                WireCode::BadRequest,
                format!("unknown policy `{other}` (failfast|retry|besteffort)"),
            )),
        }
    };

    match cmd {
        "HELLO" => Ok(Request::Hello {
            tenant: require("tenant")?.to_string(),
        }),
        "PING" => Ok(Request::Ping),
        "SQL" | "VG" => Ok(Request::Sql {
            sql: body_sql()?,
            opts: opts()?,
        }),
        "CREATE" => {
            let name = require("name")?.to_string();
            let cols = require("cols")?;
            let mut columns = Vec::new();
            for part in cols.split(',') {
                let (cname, ctype) = part.split_once(':').ok_or_else(|| {
                    WireError::fatal(
                        WireCode::BadRequest,
                        format!("bad column spec `{part}` (want name:type)"),
                    )
                })?;
                let dtype = match ctype.to_ascii_lowercase().as_str() {
                    "int" => DataType::Int,
                    "float" => DataType::Float,
                    "str" => DataType::Str,
                    "bool" => DataType::Bool,
                    other => {
                        return Err(WireError::fatal(
                            WireCode::BadRequest,
                            format!("unknown column type `{other}` (int|float|str|bool)"),
                        ))
                    }
                };
                columns.push((cname.to_string(), dtype));
            }
            if columns.is_empty() {
                return Err(WireError::fatal(
                    WireCode::BadRequest,
                    "CREATE with no columns",
                ));
            }
            Ok(Request::Create { name, columns })
        }
        "INSERT" => Ok(Request::Insert {
            name: require("name")?.to_string(),
            rows: body.to_string(),
        }),
        "MC" => Ok(Request::Mc {
            n: parse_replicates(require("n")?)?,
            seed: parse_u64("seed", require("seed")?)?,
            policy: policy()?,
            sql: body_sql()?,
            opts: opts()?,
            checkpoint: checkpoint()?,
        }),
        "CAMPAIGN" => Ok(Request::Campaign {
            n: parse_replicates(require("n")?)?,
            seed: parse_u64("seed", require("seed")?)?,
            policy: policy()?,
            priority: match get("priority") {
                None | Some("batch") => Priority::Batch,
                Some("interactive") => Priority::Interactive,
                Some("besteffort") => Priority::BestEffort,
                Some(other) => {
                    return Err(WireError::fatal(
                        WireCode::BadRequest,
                        format!("unknown priority `{other}` (besteffort|batch|interactive)"),
                    ))
                }
            },
            cost: match get("cost") {
                None => 1,
                Some(v) => {
                    let c = parse_u64("cost", v)?;
                    if c == 0 {
                        return Err(WireError::fatal(
                            WireCode::BadBudget,
                            "cost budget of zero admits nothing",
                        ));
                    }
                    c
                }
            },
            sql: body_sql()?,
            opts: opts()?,
            checkpoint: checkpoint()?,
        }),
        "STATS" => Ok(Request::Stats),
        "SHUTDOWN" => Ok(Request::Shutdown),
        other => Err(WireError::fatal(
            WireCode::BadRequest,
            format!("unknown command `{other}`"),
        )),
    }
}

/// Validate a wire-supplied deadline at parse time: numeric, non-zero,
/// and at most [`MAX_DEADLINE_MS`]. This is the protocol boundary that
/// keeps `Deadline`'s saturating arithmetic from ever seeing a nonsense
/// budget.
fn parse_deadline_ms(v: &str) -> Result<u64, WireError> {
    let ms: u64 = v.parse().map_err(|_| {
        WireError::fatal(
            WireCode::BadDeadline,
            format!("deadline_ms `{v}` is not a u64 (overflow or not numeric)"),
        )
    })?;
    if ms == 0 {
        return Err(WireError::fatal(
            WireCode::BadDeadline,
            "deadline_ms of zero expires before any work runs",
        ));
    }
    if ms > MAX_DEADLINE_MS {
        return Err(WireError::fatal(
            WireCode::BadDeadline,
            format!("deadline_ms {ms} exceeds the {MAX_DEADLINE_MS} ms protocol ceiling"),
        ));
    }
    Ok(ms)
}

/// Validate a wire-supplied replicate budget: numeric, non-zero, at most
/// [`MAX_REPLICATES`].
fn parse_replicates(v: &str) -> Result<u64, WireError> {
    let n: u64 = v.parse().map_err(|_| {
        WireError::fatal(
            WireCode::BadBudget,
            format!("replicate budget `{v}` is not a u64 (overflow or not numeric)"),
        )
    })?;
    if n == 0 {
        return Err(WireError::fatal(
            WireCode::BadBudget,
            "replicate budget of zero estimates nothing",
        ));
    }
    if n > MAX_REPLICATES {
        return Err(WireError::fatal(
            WireCode::BadBudget,
            format!("replicate budget {n} exceeds the {MAX_REPLICATES} protocol ceiling"),
        ));
    }
    Ok(n)
}

fn parse_u64(key: &str, v: &str) -> Result<u64, WireError> {
    v.parse()
        .map_err(|_| WireError::fatal(WireCode::BadRequest, format!("{key} `{v}` is not a u64")))
}

/// Checkpoint names travel the wire; confine them to one path component
/// so a client can never write outside the server's checkpoint
/// directory.
fn parse_checkpoint_name(v: &str) -> Result<String, WireError> {
    let ok = !v.is_empty()
        && v.len() <= 128
        && v.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
        && !v.starts_with('.');
    if ok {
        Ok(v.to_string())
    } else {
        Err(WireError::fatal(
            WireCode::BadRequest,
            format!("bad checkpoint name `{v}` (one path component, [A-Za-z0-9_.-])"),
        ))
    }
}

/// Render an `OK` reply line from key/value pairs.
pub fn encode_ok(pairs: &[(&str, String)]) -> String {
    let mut line = "OK".to_string();
    for (k, v) in pairs {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    line
}

/// Render a result table as a `TABLE` reply frame: a header line, a
/// schema line (`name:type`, tab-separated), then one tab-separated row
/// per line. `Null` renders as `NULL`; a string cell renders verbatim
/// unless it holds a backslash, TAB, LF or CR (written `\\`, `\t`, `\n`,
/// `\r`) or is spelled `NULL` (written `\NULL`), so the frame always has
/// the rows and cells its header announces. [`parse_row`] is the typed
/// inverse of one row line.
pub fn encode_table(table: &Table) -> String {
    let schema = table.schema();
    let mut out = format!("TABLE rows={} cols={}\n", table.len(), schema.len());
    let header: Vec<String> = schema
        .columns()
        .iter()
        .map(|c| format!("{}:{}", c.name, c.dtype))
        .collect();
    out.push_str(&header.join("\t"));
    let batch = table.batch();
    for row in 0..batch.len() {
        out.push('\n');
        for (j, col) in batch.columns().iter().enumerate() {
            if j > 0 {
                out.push('\t');
            }
            render_cell(&mut out, col, row);
        }
    }
    out
}

fn render_cell(out: &mut String, col: &ColumnVec, row: usize) {
    use std::fmt::Write as _;
    if col.is_null(row) {
        out.push_str("NULL");
        return;
    }
    // Writing into a `String` cannot fail.
    let _ = match col {
        ColumnVec::Int { data, .. } => write!(out, "{}", data[row]),
        // Round-trippable float rendering.
        ColumnVec::Float { data, .. } => write!(out, "{:?}", data[row]),
        ColumnVec::Bool { data, .. } => write!(out, "{}", data[row]),
        ColumnVec::Str { codes, dict, .. } => {
            escape_cell(out, dict.value(codes[row]));
            Ok(())
        }
        ColumnVec::AllNull { .. } => unreachable!("every lane is null"),
    };
}

/// The escape scheme of string cells: one backslash introduces `\\`,
/// `\t`, `\n`, `\r`, and a cell spelled `NULL` is written `\NULL` so it
/// cannot be read as a null.
fn escape_cell(out: &mut String, s: &str) {
    if s == "NULL" {
        out.push('\\');
    }
    let mut rest = s;
    while let Some(i) = rest.find(['\\', '\t', '\n', '\r']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Undo [`escape_cell`]. Total: a backslash before any other character
/// (or at the end of the cell) stands for that character (or itself).
pub(crate) fn unescape_cell(cell: &str) -> String {
    let mut out = String::with_capacity(cell.len());
    let mut chars = cell.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('t') => '\t',
                Some('n') => '\n',
                Some('r') => '\r',
                Some(other) => other,
                None => '\\',
            },
            c => c,
        });
    }
    out
}

/// Parse one tab-separated row of `INSERT` body text against a column
/// type list. Cells use the escape scheme of [`encode_table`], so a row
/// line of a `TABLE` reply parses back to the values it was rendered from.
pub fn parse_row(line: &str, columns: &[(String, DataType)]) -> Result<Vec<Value>, WireError> {
    let cells: Vec<&str> = line.split('\t').collect();
    if cells.len() != columns.len() {
        return Err(WireError::fatal(
            WireCode::BadRequest,
            format!(
                "row has {} cells, table has {} columns",
                cells.len(),
                columns.len()
            ),
        ));
    }
    cells
        .iter()
        .zip(columns)
        .map(|(cell, (cname, dtype))| {
            if *cell == "NULL" {
                return Ok(Value::Null);
            }
            let bad = |why: &str| {
                WireError::fatal(
                    WireCode::BadRequest,
                    format!("column `{cname}`: `{cell}` is not {why}"),
                )
            };
            match dtype {
                DataType::Int => cell.parse().map(Value::Int).map_err(|_| bad("an int")),
                DataType::Float => cell.parse().map(Value::Float).map_err(|_| bad("a float")),
                DataType::Bool => cell.parse().map(Value::Bool).map_err(|_| bad("a bool")),
                DataType::Str => Ok(Value::str(unescape_cell(cell))),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "HELLO tenant=acme").unwrap();
        write_frame(&mut buf, "PING").unwrap();
        let mut r = &buf[..];
        assert!(
            matches!(read_frame(&mut r).unwrap(), ReadFrame::Frame(s) if s == "HELLO tenant=acme")
        );
        assert!(matches!(read_frame(&mut r).unwrap(), ReadFrame::Frame(s) if s == "PING"));
        assert!(matches!(read_frame(&mut r).unwrap(), ReadFrame::Closed));
    }

    #[test]
    fn torn_and_oversized_frames_are_typed() {
        // Header promises 10 bytes, stream has 3.
        let mut torn: Vec<u8> = 10u32.to_be_bytes().to_vec();
        torn.extend_from_slice(b"abc");
        assert!(matches!(read_frame(&mut &torn[..]), Err(FrameError::Torn)));
        // EOF mid-header is torn too.
        let partial = [0u8, 0u8];
        assert!(matches!(
            read_frame(&mut &partial[..]),
            Err(FrameError::Torn)
        ));
        // Oversized header is rejected without allocating the payload.
        let big = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        assert!(matches!(
            read_frame(&mut &big[..]),
            Err(FrameError::TooLarge { .. })
        ));
        // Zero-length frames are invalid.
        let zero = 0u32.to_be_bytes();
        assert!(matches!(read_frame(&mut &zero[..]), Err(FrameError::Empty)));
        // Non-UTF-8 payloads are typed.
        let mut bad: Vec<u8> = 2u32.to_be_bytes().to_vec();
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::NotUtf8)
        ));
    }

    #[test]
    fn requests_parse() {
        assert_eq!(
            parse_request("HELLO tenant=acme").unwrap(),
            Request::Hello {
                tenant: "acme".into()
            }
        );
        let r = parse_request("SQL deadline_ms=500\nSELECT 1 AS one FROM t").unwrap();
        assert_eq!(
            r,
            Request::Sql {
                sql: "SELECT 1 AS one FROM t".into(),
                opts: RequestOpts {
                    deadline_ms: Some(500)
                }
            }
        );
        let r =
            parse_request("MC n=100 seed=7 policy=besteffort min=0.25\nSELECT AVG(x) AS v FROM t")
                .unwrap();
        match r {
            Request::Mc {
                n, seed, policy, ..
            } => {
                assert_eq!((n, seed), (100, 7));
                assert_eq!(policy, RunPolicy::BestEffort { min_fraction: 0.25 });
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn a_campaign_threads_key_is_ignored_like_any_unknown_key() {
        let body = "\nSELECT AVG(x) AS v FROM t";
        let plain = parse_request(&format!("CAMPAIGN n=4 seed=1{body}")).unwrap();
        for extra in ["threads=1", "threads=8", "threads=abc"] {
            let with = parse_request(&format!("CAMPAIGN n=4 seed=1 {extra}{body}")).unwrap();
            assert_eq!(with, plain, "{extra}");
        }
    }

    #[test]
    fn deadline_validation_rejects_zero_and_overflow_at_parse_time() {
        // Zero: would silently mean "already expired".
        let e = parse_request("SQL deadline_ms=0\nSELECT 1 AS o FROM t").unwrap_err();
        assert_eq!(e.code, WireCode::BadDeadline);
        assert!(!e.retryable);
        // u64 overflow: would saturate to "never expires" inside Deadline.
        let e = parse_request("SQL deadline_ms=99999999999999999999999\nSELECT 1 AS o FROM t")
            .unwrap_err();
        assert_eq!(e.code, WireCode::BadDeadline);
        // Past the protocol ceiling.
        let e = parse_deadline_ms(&(MAX_DEADLINE_MS + 1).to_string()).unwrap_err();
        assert_eq!(e.code, WireCode::BadDeadline);
        // In range passes through exactly.
        assert_eq!(parse_deadline_ms("250").unwrap(), 250);
    }

    #[test]
    fn replicate_budget_validation() {
        let e = parse_request("MC n=0 seed=1\nSELECT AVG(x) AS v FROM t").unwrap_err();
        assert_eq!(e.code, WireCode::BadBudget);
        let e = parse_request("MC n=999999999999999999999 seed=1\nSELECT AVG(x) AS v FROM t")
            .unwrap_err();
        assert_eq!(e.code, WireCode::BadBudget);
        let e =
            parse_request("CAMPAIGN n=10 seed=1 cost=0\nSELECT AVG(x) AS v FROM t").unwrap_err();
        assert_eq!(e.code, WireCode::BadBudget);
    }

    #[test]
    fn checkpoint_names_are_confined() {
        assert!(parse_checkpoint_name("run-7.ckpt").is_ok());
        for bad in ["../etc/passwd", "a/b", "", ".hidden", "a\\b"] {
            assert!(
                parse_checkpoint_name(bad).is_err(),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn table_encoding_is_line_oriented() {
        let t = Table::build("r", &[("id", DataType::Int), ("x", DataType::Float)])
            .row(vec![Value::from(1), Value::from(2.5)])
            .row(vec![Value::from(2), Value::Null])
            .finish()
            .unwrap();
        let s = encode_table(&t);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "TABLE rows=2 cols=2");
        assert_eq!(lines[1], "id:Int\tx:Float");
        assert_eq!(lines[2], "1\t2.5");
        assert_eq!(lines[3], "2\tNULL");
    }
}
