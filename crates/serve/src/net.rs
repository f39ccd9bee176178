//! The framed TCP protocol: one connection is one tenant session.
//!
//! Frame layout: a 1-byte opcode followed by a 4-byte big-endian
//! payload length and the payload. Client→server opcodes: `REGISTER`
//! (tenant name on the first line, one pattern per following line),
//! `CHUNK` (raw input bytes), `FINISH`. Server→client: `ACCEPTED`
//! (`shard=<n>`), `REJECTED` (findings JSON), `ACK` (one status byte:
//! 0 accepted, 1 backpressured, 2 shed) followed by an `EVENTS` frame
//! (12-byte records: u32 pattern, u64 global end offset), and `BYE`
//! after the final `EVENTS`.
//!
//! Chunk handling is synchronous: the server scans to idle before
//! acknowledging, so one connection observes the same semantics as a
//! solo in-process [`Session`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rap_sim::MatchEvent;

use crate::server::{ServeError, Shared};
use crate::session::{SendOutcome, Session};

/// Client→server: register a tenant (name line + pattern lines).
pub const OP_REGISTER: u8 = 0x01;
/// Client→server: stream one input chunk.
pub const OP_CHUNK: u8 = 0x02;
/// Client→server: end of stream; run the final scan.
pub const OP_FINISH: u8 = 0x03;
/// Client→server: hot-swap this connection's tenant for a replacement
/// (same payload shape as `REGISTER`: name line + pattern lines). On
/// certification the server drains the outgoing tenant, replies with
/// its residual `EVENTS` and an `ACCEPTED`
/// (`shard=<n> drain_cycles=<d>`), and the connection continues as the
/// replacement's session. A refusal replies `REJECTED` (Q-rule
/// findings JSON) and leaves the outgoing session streaming.
pub const OP_SWAP: u8 = 0x04;
/// Server→client: registration accepted (`shard=<n>`).
pub const OP_ACCEPTED: u8 = 0x81;
/// Server→client: registration refused (findings JSON payload).
pub const OP_REJECTED: u8 = 0x82;
/// Server→client: demuxed match events (12-byte records).
pub const OP_EVENTS: u8 = 0x83;
/// Server→client: chunk verdict (one status byte).
pub const OP_ACK: u8 = 0x84;
/// Server→client: drain complete; the connection closes next.
pub const OP_BYE: u8 = 0x85;

/// Frame size cap: rejects runaway length prefixes before reading them.
const MAX_FRAME: usize = 64 << 20;

pub(crate) fn write_frame(w: &mut impl Write, op: u8, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&[op])?;
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. The payload buffer grows as its bytes arrive, so a
/// length prefix costs no memory its sender has not sent.
pub(crate) fn read_frame(r: &mut impl Read) -> std::io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame over size cap",
        ));
    }
    let mut payload = Vec::new();
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "frame shorter than its length prefix",
        ));
    }
    Ok((header[0], payload))
}

pub(crate) fn encode_events(events: &[MatchEvent]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(events.len() * 12);
    for event in events {
        payload.extend_from_slice(&(event.pattern as u32).to_be_bytes());
        payload.extend_from_slice(&(event.end as u64).to_be_bytes());
    }
    payload
}

pub(crate) fn decode_events(payload: &[u8]) -> Vec<MatchEvent> {
    payload
        .chunks_exact(12)
        .map(|record| MatchEvent {
            pattern: u32::from_be_bytes([record[0], record[1], record[2], record[3]]) as usize,
            end: u64::from_be_bytes([
                record[4], record[5], record[6], record[7], record[8], record[9], record[10],
                record[11],
            ]) as usize,
        })
        .collect()
}

fn status_byte(outcome: SendOutcome) -> u8 {
    match outcome {
        SendOutcome::Accepted => 0,
        SendOutcome::Backpressured => 1,
        SendOutcome::Shed => 2,
    }
}

/// Serves one connection; the session (if registered) drains on return.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let mut session: Option<Session> = None;
    while let Ok((op, payload)) = read_frame(&mut stream) {
        match op {
            OP_REGISTER if session.is_none() => {
                let text = String::from_utf8_lossy(&payload);
                let mut lines = text.lines();
                let name = lines.next().unwrap_or_default().trim().to_string();
                let sources: Vec<String> = lines
                    .filter(|l| !l.trim().is_empty())
                    .map(str::to_string)
                    .collect();
                let registered = rap_pipeline::PatternSet::parse(&sources)
                    .map_err(|e| ServeError::Pipeline(e.to_string()))
                    .and_then(|patterns| shared.register(&name, &patterns));
                match registered {
                    Ok(s) => {
                        let reply = format!("shard={}", s.shard());
                        session = Some(s);
                        if write_frame(&mut stream, OP_ACCEPTED, reply.as_bytes()).is_err() {
                            break;
                        }
                    }
                    Err(ServeError::Rejected(analysis)) => {
                        let _ = write_frame(
                            &mut stream,
                            OP_REJECTED,
                            analysis.report.to_json().as_bytes(),
                        );
                        break;
                    }
                    Err(error) => {
                        let body = format!("{{\"error\":{:?}}}", error.to_string());
                        let _ = write_frame(&mut stream, OP_REJECTED, body.as_bytes());
                        break;
                    }
                }
            }
            OP_CHUNK => {
                let Some(s) = &session else { break };
                let Ok(outcome) = s.send(&payload) else {
                    break;
                };
                s.wait_idle();
                let events = s.drain();
                if write_frame(&mut stream, OP_ACK, &[status_byte(outcome)]).is_err()
                    || write_frame(&mut stream, OP_EVENTS, &encode_events(&events)).is_err()
                {
                    break;
                }
            }
            OP_SWAP => {
                let Some(s) = session.take() else { break };
                let text = String::from_utf8_lossy(&payload);
                let mut lines = text.lines();
                let name = lines.next().unwrap_or_default().trim().to_string();
                let sources: Vec<String> = lines
                    .filter(|l| !l.trim().is_empty())
                    .map(str::to_string)
                    .collect();
                let swapped = rap_pipeline::PatternSet::parse(&sources)
                    .map_err(|e| ServeError::Pipeline(e.to_string()))
                    .and_then(|patterns| shared.swap_tenant(&s, &name, &patterns));
                match swapped {
                    Ok((replacement, plan)) => {
                        // The outgoing tenant drained inside swap_tenant;
                        // ship its residual events before the handover.
                        let events = s.drain();
                        drop(s);
                        let reply = format!(
                            "shard={} drain_cycles={}",
                            replacement.shard(),
                            plan.drain.cycles
                        );
                        session = Some(replacement);
                        if write_frame(&mut stream, OP_EVENTS, &encode_events(&events)).is_err()
                            || write_frame(&mut stream, OP_ACCEPTED, reply.as_bytes()).is_err()
                        {
                            break;
                        }
                    }
                    Err(error) => {
                        // Refusals leave the outgoing session streaming.
                        session = Some(s);
                        let body = match &error {
                            ServeError::SwapRejected(analysis) => analysis.report.to_json(),
                            ServeError::Rejected(analysis) => analysis.report.to_json(),
                            other => format!("{{\"error\":{:?}}}", other.to_string()),
                        };
                        if write_frame(&mut stream, OP_REJECTED, body.as_bytes()).is_err() {
                            break;
                        }
                    }
                }
            }
            OP_FINISH => {
                if let Some(s) = &session {
                    s.finish();
                    let events = s.drain();
                    let _ = write_frame(&mut stream, OP_EVENTS, &encode_events(&events));
                    let _ = write_frame(&mut stream, OP_BYE, &[]);
                }
                break;
            }
            _ => break,
        }
    }
    // Dropping the session (if any) enqueues the graceful drain.
    drop(session);
}

/// Binds `addr` and spawns the nonblocking accept loop.
pub(crate) fn spawn_acceptor(
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    addr: &str,
) -> std::io::Result<(JoinHandle<()>, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = std::thread::Builder::new()
        .name("rap-serve-accept".to_string())
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        let shared = Arc::clone(&shared);
                        // Detached: a handler blocked in read_frame on a
                        // still-open idle client must not wedge shutdown.
                        // Its session (if any) drains via the Drop path.
                        std::thread::spawn(move || {
                            handle_connection(&shared, stream);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        })?;
    Ok((handle, local))
}

/// A minimal blocking client for the framed protocol, used by the CLI
/// `--connect` mode and the integration tests.
pub struct Client {
    stream: TcpStream,
}

/// The server's answer to a registration frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegisterReply {
    /// Admitted; the payload names the hosting shard.
    Accepted(String),
    /// Refused; the payload is the findings JSON (or an error object).
    Rejected(String),
}

impl Client {
    /// Connects to a serving address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Registers a tenant.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a protocol-level refusal is the `Ok`
    /// [`RegisterReply::Rejected`] variant.
    pub fn register(&mut self, name: &str, patterns: &[String]) -> std::io::Result<RegisterReply> {
        let mut body = String::new();
        body.push_str(name);
        for pattern in patterns {
            body.push('\n');
            body.push_str(pattern);
        }
        write_frame(&mut self.stream, OP_REGISTER, body.as_bytes())?;
        let (op, payload) = read_frame(&mut self.stream)?;
        let text = String::from_utf8_lossy(&payload).to_string();
        Ok(match op {
            OP_ACCEPTED => RegisterReply::Accepted(text),
            _ => RegisterReply::Rejected(text),
        })
    }

    /// Streams one chunk; returns the budget verdict and any match
    /// events delivered by the synchronous scan.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_chunk(&mut self, chunk: &[u8]) -> std::io::Result<(SendOutcome, Vec<MatchEvent>)> {
        write_frame(&mut self.stream, OP_CHUNK, chunk)?;
        let (op, status) = read_frame(&mut self.stream)?;
        if op != OP_ACK || status.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "expected ACK",
            ));
        }
        let outcome = match status[0] {
            0 => SendOutcome::Accepted,
            1 => SendOutcome::Backpressured,
            _ => SendOutcome::Shed,
        };
        let (op, payload) = read_frame(&mut self.stream)?;
        if op != OP_EVENTS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "expected EVENTS",
            ));
        }
        Ok((outcome, decode_events(&payload)))
    }

    /// Hot-swaps this connection's tenant for `name`/`patterns`.
    /// Returns the outgoing tenant's residual match events and the
    /// server's verdict: [`RegisterReply::Accepted`] carries
    /// `shard=<n> drain_cycles=<d>` and the connection continues as the
    /// replacement's session; [`RegisterReply::Rejected`] carries the
    /// Q-rule findings JSON and the outgoing session keeps streaming.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn swap(
        &mut self,
        name: &str,
        patterns: &[String],
    ) -> std::io::Result<(RegisterReply, Vec<MatchEvent>)> {
        let mut body = String::new();
        body.push_str(name);
        for pattern in patterns {
            body.push('\n');
            body.push_str(pattern);
        }
        write_frame(&mut self.stream, OP_SWAP, body.as_bytes())?;
        let (op, payload) = read_frame(&mut self.stream)?;
        if op == OP_REJECTED {
            let text = String::from_utf8_lossy(&payload).to_string();
            return Ok((RegisterReply::Rejected(text), Vec::new()));
        }
        if op != OP_EVENTS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "expected EVENTS or REJECTED",
            ));
        }
        let events = decode_events(&payload);
        let (op, payload) = read_frame(&mut self.stream)?;
        let text = String::from_utf8_lossy(&payload).to_string();
        Ok(match op {
            OP_ACCEPTED => (RegisterReply::Accepted(text), events),
            _ => (RegisterReply::Rejected(text), events),
        })
    }

    /// Ends the stream; returns the final (including `$`-anchored)
    /// match events.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn finish(&mut self) -> std::io::Result<Vec<MatchEvent>> {
        write_frame(&mut self.stream, OP_FINISH, &[])?;
        let (op, payload) = read_frame(&mut self.stream)?;
        if op != OP_EVENTS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "expected EVENTS",
            ));
        }
        let events = decode_events(&payload);
        let _ = read_frame(&mut self.stream); // BYE
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    /// Serves `data` and then end-of-stream, recording the largest buffer
    /// a read asks it to fill.
    struct Recording<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_hostile_length_prefix_allocates_only_what_arrives() {
        let mut wire = vec![OP_CHUNK];
        wire.extend_from_slice(&(MAX_FRAME as u32).to_be_bytes());
        wire.extend_from_slice(&[7; 16]);
        let mut reader = Recording {
            data: &wire,
            largest: 0,
        };
        let error = read_frame(&mut reader).expect_err("a short frame is an error");
        assert_eq!(error.kind(), ErrorKind::UnexpectedEof);
        assert!(
            reader.largest <= 4096,
            "a read asked for {} bytes",
            reader.largest
        );
    }

    #[test]
    fn frames_round_trip_and_oversized_prefixes_are_refused() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_CHUNK, b"hello").expect("writes");
        write_frame(&mut wire, OP_FINISH, &[]).expect("writes");
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r).expect("reads"),
            (OP_CHUNK, b"hello".to_vec())
        );
        assert_eq!(read_frame(&mut r).expect("reads"), (OP_FINISH, Vec::new()));

        let mut over = vec![OP_CHUNK];
        over.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let error = read_frame(&mut over.as_slice()).expect_err("over the cap");
        assert_eq!(error.kind(), ErrorKind::InvalidData);
    }
}
