//! Client-side wire fault injection for the service front-end.
//!
//! Free functions ([`slow_loris`], [`torn_frame`], [`oversized_header`],
//! [`garbage_bytes`], [`mid_frame_disconnect`]) misbehave on a raw socket
//! the way real broken clients do. The chaos harness drives them against
//! a live server and asserts every fault lands as a typed error or clean
//! disconnect — never a wrong answer and never a hung accept loop.
//!
//! The server-side half is the workspace's one fault plan:
//! [`ServerConfig::faults`](crate::ServerConfig::faults) takes a
//! [`FaultPlan`](mde_numeric::resilience::FaultPlan) whose
//! [`FaultKind::SessionPanic`](mde_numeric::resilience::FaultKind::SessionPanic)
//! sites, named one by one with `panic_session_at(session, request)`,
//! panic inside the supervised per-request region of chosen sessions: a
//! panicking request kills one session with a typed `ERR PANIC` reply,
//! never the server. The chaos harness fixes its sites (the first two
//! sessions panic on their second request) and takes only its data seeds
//! from `MDE_CHAOS_SEED`, so a CI failure replays exactly.

use std::io::Write;

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
