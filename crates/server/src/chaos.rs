//! Wire-level fault injection for the service front-end.
//!
//! Two halves, matching where faults physically originate:
//!
//! * **Server-side** — [`WireFaultPlan`] is installed into the server
//!   config and injects panics *inside* the supervised per-request
//!   region of chosen sessions, exercising the fault-isolation claim:
//!   a panicking request kills one session with a typed `ERR PANIC`
//!   reply, never the server.
//! * **Client-side** — free functions ([`slow_loris`], [`torn_frame`],
//!   [`oversized_header`], [`garbage_bytes`], [`mid_frame_disconnect`])
//!   that misbehave on a raw socket the way real broken clients do.
//!   The chaos harness drives these against a live server and asserts
//!   every fault lands as a typed error or clean disconnect — never a
//!   wrong answer and never a hung accept loop.
//!
//! Injection points are deterministic given the plan: faults are keyed
//! by `(session ordinal, request ordinal)` and named one by one with
//! [`WireFaultPlan::panic_session_at`]. The chaos harness fixes its
//! sites (the first two sessions panic on their second request) and
//! takes only its data seeds from `MDE_CHAOS_SEED`, so a CI failure
//! replays exactly.

use std::collections::HashSet;
use std::io::Write;
use std::sync::Mutex;

/// Deterministic server-side fault plan: which `(session, request)`
/// pairs panic inside the supervised execution region.
#[derive(Debug, Default)]
pub struct WireFaultPlan {
    panics: Mutex<HashSet<(u64, u64)>>,
}

impl WireFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arrange for the `request`-th request (zero-based, counted per
    /// session) of the `session`-th accepted session (zero-based) to
    /// panic inside the supervised region.
    pub fn panic_session_at(self, session: u64, request: u64) -> Self {
        self.panics
            .lock()
            .expect("fault plan lock")
            .insert((session, request));
        self
    }

    /// Whether the given `(session, request)` site should panic. The
    /// site is consumed: a restarted request does not re-fire.
    pub fn should_panic(&self, session: u64, request: u64) -> bool {
        self.panics
            .lock()
            .expect("fault plan lock")
            .remove(&(session, request))
    }
}

/// Dribble a frame one byte at a time with `pause` between bytes — a
/// slow-loris client. Returns early (Ok) if the server gives up on us
/// mid-dribble, which is exactly the behaviour under test: the server's
/// read deadline must bound how long we can hold a session hostage.
pub fn slow_loris(
    sock: &mut impl Write,
    payload: &str,
    pause: std::time::Duration,
) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    let mut frame = (bytes.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(bytes);
    for b in frame {
        if sock.write_all(&[b]).is_err() {
            return Ok(());
        }
        let _ = sock.flush();
        std::thread::sleep(pause);
    }
    Ok(())
}

/// Write a frame header that promises more bytes than will ever
/// arrive, then stop. The server must classify the eventual EOF as a
/// torn frame, not hang waiting.
pub fn torn_frame(sock: &mut impl Write, declared: u32, actual: &[u8]) -> std::io::Result<()> {
    sock.write_all(&declared.to_be_bytes())?;
    sock.write_all(actual)?;
    sock.flush()
}

/// Write a header whose declared length exceeds the protocol bound.
pub fn oversized_header(sock: &mut impl Write, len: u32) -> std::io::Result<()> {
    sock.write_all(&len.to_be_bytes())?;
    sock.flush()
}

/// Write raw non-protocol bytes (e.g. an HTTP request aimed at the
/// wrong port).
pub fn garbage_bytes(sock: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    sock.write_all(bytes)?;
    sock.flush()
}

/// Write exactly the first `keep` bytes of a well-formed frame for
/// `payload`, then return so the caller can drop the socket — a client
/// that died mid-send.
pub fn mid_frame_disconnect(
    sock: &mut impl Write,
    payload: &str,
    keep: usize,
) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    let mut frame = (bytes.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(bytes);
    let keep = keep.min(frame.len());
    sock.write_all(&frame[..keep])?;
    sock.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_sites_fire_once() {
        let plan = WireFaultPlan::new().panic_session_at(0, 2);
        assert!(!plan.should_panic(0, 1));
        assert!(plan.should_panic(0, 2));
        assert!(!plan.should_panic(0, 2), "sites are consumed");
    }

    #[test]
    fn client_faults_write_what_they_promise() {
        let mut buf = Vec::new();
        torn_frame(&mut buf, 100, b"abc").unwrap();
        assert_eq!(buf.len(), 7, "4-byte header + 3 payload bytes");
        assert_eq!(u32::from_be_bytes(buf[..4].try_into().unwrap()), 100);

        let mut buf = Vec::new();
        mid_frame_disconnect(&mut buf, "PING", 5).unwrap();
        assert_eq!(buf.len(), 5, "header + first payload byte only");
    }
}
