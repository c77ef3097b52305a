//! A small blocking client for the wire protocol, used by the chaos
//! harness, the benchmark, and integration tests — and usable as a
//! reference implementation of the framing and reply grammar.

use crate::error::WireError;
use crate::proto::{read_frame, unescape_cell, write_frame, ReadFrame};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded reply frame.
#[derive(Debug)]
pub enum Reply {
    /// `OK k=v …` — keys in order of appearance.
    Ok(HashMap<String, String>),
    /// A result table: column `name:type` headers plus stringly rows.
    Table {
        /// `name:type` column headers.
        columns: Vec<String>,
        /// Rows as tab-split strings, string cells unescaped. This is the
        /// display form: a null and the string `NULL` both read `NULL`
        /// here; [`parse_row`](crate::proto::parse_row) over a row line of
        /// the payload is the typed inverse.
        rows: Vec<Vec<String>>,
    },
    /// A typed error.
    Err(WireError),
}

impl Reply {
    /// The `OK` map, or a panic with the actual reply (test helper).
    pub fn expect_ok(self, context: &str) -> HashMap<String, String> {
        match self {
            Reply::Ok(map) => map,
            other => panic!("{context}: expected OK, got {other:?}"),
        }
    }

    /// The typed error, or a panic with the actual reply (test helper).
    pub fn expect_err(self, context: &str) -> WireError {
        match self {
            Reply::Err(e) => e,
            other => panic!("{context}: expected ERR, got {other:?}"),
        }
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Bound how long [`Client::send`] waits for a reply.
    pub fn set_reply_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Send one request payload and decode the reply frame.
    pub fn send(&mut self, payload: &str) -> io::Result<Reply> {
        write_frame(&mut self.stream, payload)?;
        self.read_reply()
    }

    /// Read and decode one reply frame without sending anything (for
    /// servers that volunteer a reply, e.g. a refusal at accept time).
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        let payload = match read_frame(&mut self.stream) {
            Ok(ReadFrame::Frame(p)) => p,
            Ok(ReadFrame::Closed) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Err(e) => return Err(io::Error::other(e.to_string())),
        };
        Ok(decode_reply(&payload))
    }

    /// The underlying stream (chaos tests reach for the raw socket).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Convenience: `HELLO`.
    pub fn hello(&mut self, tenant: &str) -> io::Result<Reply> {
        self.send(&format!("HELLO tenant={tenant}"))
    }

    /// Convenience: `SQL` with an optional deadline.
    pub fn sql(&mut self, sql: &str, deadline_ms: Option<u64>) -> io::Result<Reply> {
        match deadline_ms {
            Some(ms) => self.send(&format!("SQL deadline_ms={ms}\n{sql}")),
            None => self.send(&format!("SQL\n{sql}")),
        }
    }
}

/// Decode one reply payload.
pub fn decode_reply(payload: &str) -> Reply {
    if let Some(err) = WireError::decode(payload) {
        return Reply::Err(err);
    }
    if payload.starts_with("TABLE") {
        // `split`, not `lines`: a last row holding one empty string is an
        // empty last line.
        let mut lines = payload.split('\n');
        let _header = lines.next();
        let columns = lines
            .next()
            .map(|l| l.split('\t').map(str::to_string).collect())
            .unwrap_or_default();
        let rows = lines
            .map(|l| l.split('\t').map(unescape_cell).collect())
            .collect();
        return Reply::Table { columns, rows };
    }
    let mut map = HashMap::new();
    for token in payload.split_whitespace().skip(1) {
        if let Some((k, v)) = token.split_once('=') {
            map.insert(k.to_string(), v.to_string());
        }
    }
    Reply::Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_decode() {
        match decode_reply("OK session=3 tenant=acme") {
            Reply::Ok(map) => {
                assert_eq!(map["session"], "3");
                assert_eq!(map["tenant"], "acme");
            }
            other => panic!("{other:?}"),
        }
        match decode_reply("TABLE rows=1 cols=2\nid:Int\tx:Float\n1\t2.5") {
            Reply::Table { columns, rows } => {
                assert_eq!(columns, vec!["id:Int", "x:Float"]);
                assert_eq!(rows, vec![vec!["1".to_string(), "2.5".to_string()]]);
            }
            other => panic!("{other:?}"),
        }
        match decode_reply("ERR code=QUEUE_FULL retryable=1 retry_after_ms=40 msg=queue full") {
            Reply::Err(e) => {
                assert!(e.retryable);
                assert_eq!(e.retry_after_ms, Some(40));
            }
            other => panic!("{other:?}"),
        }
    }
}
