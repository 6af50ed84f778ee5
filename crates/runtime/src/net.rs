//! Framed wire protocol, deadline-aware connections, and a deterministic
//! fault-injecting transport for the networked daemon.
//!
//! The durability stack built by the storage layer ends at the process
//! boundary; this module extends it across the one boundary a production
//! solver service actually has — the wire. Three rules shape everything
//! here:
//!
//! 1. **Strict decode limits before allocation.** Every frame is length
//!    prefixed, and the declared length is checked against
//!    [`limits::MAX_PAYLOAD`] *before* the payload buffer is allocated —
//!    the same checked-sizes-first discipline as `sgdia::io::limits`. A
//!    malformed or oversized frame is a typed [`WireError`], never a
//!    panic and never an unbounded buffer.
//! 2. **Idempotency keys.** Every submit carries the sequence number it
//!    claims ([`SubmitRequest::key`]), which maps directly onto the
//!    daemon's at-least-once trail: a resubmission of an already-applied
//!    key is answered from the durable decision record with
//!    `duplicate = true`, not re-executed.
//! 3. **Deterministic fault injection.** [`FaultTransport`] runs on the
//!    same op-index schedule as `FaultStorage`
//!    ([`FaultSchedule`]): every frame send/receive ticks
//!    a global operation counter, and a fault scheduled at index `i`
//!    fires exactly there — which is what lets the `nettorture` matrix
//!    kill the connection at *every* frame boundary of a probe run.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::fault::FaultSchedule;
use crate::jitter;

/// Hard ceilings of the wire format, checked before any allocation.
pub mod limits {
    /// Frame header length: magic `u32` + kind `u8` + payload length `u32`.
    pub const HEADER_LEN: usize = 9;
    /// Largest accepted payload. Every frame in the protocol is a small
    /// control record — requests carry parameters, not matrices — so the
    /// bound is deliberately tight; a declared length above it is
    /// rejected before the payload buffer exists.
    pub const MAX_PAYLOAD: u32 = 4096;
    /// Largest accepted label (outcome/profile/reason strings).
    pub const MAX_LABEL: usize = 96;
}

/// Frame magic, `"MGW1"` little-endian. A connection that opens with
/// anything else is not speaking this protocol and is told so typed.
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"MGW1");

/// Typed error codes carried by [`Frame::Error`], so a client can tell a
/// protocol violation from a server-side refusal without string parsing.
pub mod codes {
    /// The connection did not open with [`super::WIRE_MAGIC`].
    pub const BAD_MAGIC: u8 = 1;
    /// Unknown frame kind byte.
    pub const UNKNOWN_KIND: u8 = 2;
    /// Declared payload length above [`super::limits::MAX_PAYLOAD`].
    pub const OVERSIZED: u8 = 3;
    /// The stream ended inside a frame.
    pub const TRUNCATED: u8 = 4;
    /// Payload failed field validation.
    pub const MALFORMED: u8 = 5;
    /// Submit key is ahead of the stream position the server will accept.
    pub const OUT_OF_ORDER: u8 = 6;
    /// The server is draining and no longer accepts work.
    pub const DRAINING: u8 = 7;
    /// A frame kind the server does not expect in this state.
    pub const UNEXPECTED: u8 = 8;
    /// Submit parameters disagree with the server's configured stream.
    pub const STREAM_MISMATCH: u8 = 9;
    /// The durability pipeline failed after execution; the request was
    /// *not* acknowledged and may be resubmitted.
    pub const INTERNAL: u8 = 10;
}

fn code_label(code: u8) -> &'static str {
    match code {
        codes::BAD_MAGIC => "bad-magic",
        codes::UNKNOWN_KIND => "unknown-kind",
        codes::OVERSIZED => "oversized",
        codes::TRUNCATED => "truncated",
        codes::MALFORMED => "malformed",
        codes::OUT_OF_ORDER => "out-of-order",
        codes::DRAINING => "draining",
        codes::UNEXPECTED => "unexpected",
        codes::STREAM_MISMATCH => "stream-mismatch",
        codes::INTERNAL => "internal",
        _ => "unknown-code",
    }
}

/// Everything that can go wrong on the wire, typed. Decode failures are
/// distinguishable from transport failures so the server can answer the
/// former with a [`Frame::Error`] and merely count the latter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame did not open with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes actually read, as a little-endian `u32`.
        got: u32,
    },
    /// Unknown frame kind byte.
    UnknownKind {
        /// The kind byte actually read.
        got: u8,
    },
    /// Declared payload length above [`limits::MAX_PAYLOAD`]. Raised
    /// before any payload allocation.
    Oversized {
        /// The declared payload length.
        got: u32,
        /// The limit it exceeded.
        limit: u32,
    },
    /// The stream ended inside a frame.
    Truncated {
        /// Bytes the frame section needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// Payload failed field validation (`what` names the field).
    Malformed {
        /// The field that failed validation.
        what: &'static str,
    },
    /// A label exceeded [`limits::MAX_LABEL`].
    LabelTooLong {
        /// The declared label length.
        got: usize,
        /// The limit it exceeded.
        limit: usize,
    },
    /// A read or write missed its deadline (slowloris defense tripping,
    /// or a stalled peer).
    Deadline,
    /// The peer closed cleanly at a frame boundary.
    Closed,
    /// The connection failed mid-frame (reset, broken pipe, refused).
    ConnectionLost(String),
}

impl WireError {
    /// Stable label for fault accounting and counters.
    pub fn label(&self) -> &'static str {
        match self {
            WireError::BadMagic { .. } => "bad-magic",
            WireError::UnknownKind { .. } => "unknown-kind",
            WireError::Oversized { .. } => "oversized",
            WireError::Truncated { .. } => "truncated",
            WireError::Malformed { .. } => "malformed",
            WireError::LabelTooLong { .. } => "label-too-long",
            WireError::Deadline => "deadline",
            WireError::Closed => "closed",
            WireError::ConnectionLost(_) => "connection-lost",
        }
    }

    /// The [`codes`] value a server reports this decode failure as.
    pub fn code(&self) -> u8 {
        match self {
            WireError::BadMagic { .. } => codes::BAD_MAGIC,
            WireError::UnknownKind { .. } => codes::UNKNOWN_KIND,
            WireError::Oversized { .. } => codes::OVERSIZED,
            WireError::Truncated { .. } | WireError::Closed => codes::TRUNCATED,
            WireError::Malformed { .. } | WireError::LabelTooLong { .. } => codes::MALFORMED,
            WireError::Deadline | WireError::ConnectionLost(_) => codes::INTERNAL,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => write!(f, "bad magic {got:#010x}"),
            WireError::UnknownKind { got } => write!(f, "unknown frame kind {got}"),
            WireError::Oversized { got, limit } => {
                write!(f, "declared payload {got} exceeds limit {limit}")
            }
            WireError::Truncated { needed, got } => {
                write!(f, "stream ended inside a frame (needed {needed}, got {got})")
            }
            WireError::Malformed { what } => write!(f, "malformed field: {what}"),
            WireError::LabelTooLong { got, limit } => {
                write!(f, "label length {got} exceeds limit {limit}")
            }
            WireError::Deadline => write!(f, "read/write deadline exceeded"),
            WireError::Closed => write!(f, "peer closed at frame boundary"),
            WireError::ConnectionLost(why) => write!(f, "connection lost: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One solve submission: the idempotency key (the sequence number this
/// request claims in the daemon's stream) plus the stream parameters the
/// client believes the server is configured with.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitRequest {
    /// Idempotency key: the claimed sequence number. A key below the
    /// server's position is answered from the durable decision record
    /// with `duplicate = true`; a key above it is a typed
    /// [`codes::OUT_OF_ORDER`] refusal.
    pub key: u64,
    /// Problem base extent the stream was configured with.
    pub size: u32,
    /// Convergence tolerance the stream was configured with.
    pub tol: f64,
    /// Admission priority class: 0 interactive, 1 batch, 2 best-effort.
    pub priority: u8,
}

/// The acknowledgment of an applied (or deduplicated) submission. An ack
/// is only sent after the decision is in the fsynced trail and the
/// checkpoint is rotated — acked implies durable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DoneReply {
    /// The idempotency key being acknowledged.
    pub key: u64,
    /// `true` when this ack was served from the durable decision record
    /// of an earlier application instead of executing again.
    pub duplicate: bool,
    /// Typed outcome label of the application (`converged`, …).
    pub outcome: String,
    /// Degrade profile the request was served under.
    pub profile: String,
    /// Circuit-breaker state of the request's class after application.
    pub breaker: String,
}

/// A protocol frame. The numeric kinds are part of the wire format; kind 3
/// is unassigned and decodes to [`WireError::UnknownKind`].
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Kind 1: submit one solve (client → server).
    Submit(SubmitRequest),
    /// Kind 2: durable acknowledgment (server → client).
    Done(DoneReply),
    /// Kind 4: typed refusal or protocol violation report.
    Error {
        /// A [`codes`] value.
        code: u8,
        /// Human-readable detail (diagnostic only, may be clipped).
        detail: String,
    },
    /// Kind 5: liveness probe (client → server).
    Ping,
    /// Kind 6: liveness answer (server → client).
    Pong,
    /// Kind 7: request a graceful drain (client → server).
    Shutdown,
    /// Kind 8: drain finished — trail fsynced, snapshot rotated.
    ShutdownOk {
        /// The stream position the server drained at.
        seq: u64,
    },
}

const KIND_SUBMIT: u8 = 1;
const KIND_DONE: u8 = 2;
const KIND_ERROR: u8 = 4;
const KIND_PING: u8 = 5;
const KIND_PONG: u8 = 6;
const KIND_SHUTDOWN: u8 = 7;
const KIND_SHUTDOWN_OK: u8 = 8;

/// Clips a label to [`limits::MAX_LABEL`] bytes on a char boundary.
/// Labels on the wire are diagnostics; clipping is lossy but total.
fn clip(s: &str) -> &str {
    if s.len() <= limits::MAX_LABEL {
        return s;
    }
    let mut end = limits::MAX_LABEL;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn put_label(out: &mut Vec<u8>, s: &str) {
    let s = clip(s);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl Frame {
    /// The wire kind byte of this frame.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Submit(_) => KIND_SUBMIT,
            Frame::Done(_) => KIND_DONE,
            Frame::Error { .. } => KIND_ERROR,
            Frame::Ping => KIND_PING,
            Frame::Pong => KIND_PONG,
            Frame::Shutdown => KIND_SHUTDOWN,
            Frame::ShutdownOk { .. } => KIND_SHUTDOWN_OK,
        }
    }

    /// Encodes the frame (header + payload). Labels longer than
    /// [`limits::MAX_LABEL`] are clipped, so encoding is total and the
    /// result always decodes.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            Frame::Submit(r) => {
                payload.extend_from_slice(&r.key.to_le_bytes());
                payload.extend_from_slice(&r.size.to_le_bytes());
                payload.extend_from_slice(&r.tol.to_bits().to_le_bytes());
                payload.push(r.priority);
            }
            Frame::Done(d) => {
                payload.extend_from_slice(&d.key.to_le_bytes());
                payload.push(u8::from(d.duplicate));
                put_label(&mut payload, &d.outcome);
                put_label(&mut payload, &d.profile);
                put_label(&mut payload, &d.breaker);
            }
            Frame::Error { code, detail } => {
                payload.push(*code);
                put_label(&mut payload, detail);
            }
            Frame::Ping | Frame::Pong | Frame::Shutdown => {}
            Frame::ShutdownOk { seq } => payload.extend_from_slice(&seq.to_le_bytes()),
        }
        let mut out = Vec::with_capacity(limits::HEADER_LEN + payload.len());
        out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        out.push(self.kind());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// A bounds-checked payload cursor: every read is validated against the
/// remaining bytes, and [`Cur::done`] rejects trailing garbage, so a
/// frame either decodes completely or fails typed.
struct Cur<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.b.len() - self.off < n {
            return Err(WireError::Truncated { needed: n, got: self.b.len() - self.off });
        }
        let s = &self.b[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn label(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        if len > limits::MAX_LABEL {
            return Err(WireError::LabelTooLong { got: len, limit: limits::MAX_LABEL });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed { what: "utf8 label" })
    }

    fn done(&self) -> Result<(), WireError> {
        if self.off != self.b.len() {
            return Err(WireError::Malformed { what: "trailing payload bytes" });
        }
        Ok(())
    }
}

/// Decodes a payload of a known kind. Every field is validated: sizes,
/// priorities, and tolerances outside their domains are typed
/// [`WireError::Malformed`] failures, and trailing bytes are rejected.
fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cur::new(payload);
    let frame = match kind {
        KIND_SUBMIT => {
            let key = c.u64()?;
            let size = c.u32()?;
            if !(2..=4096).contains(&size) {
                return Err(WireError::Malformed { what: "submit size" });
            }
            let tol = f64::from_bits(c.u64()?);
            if !tol.is_finite() || tol <= 0.0 {
                return Err(WireError::Malformed { what: "submit tol" });
            }
            let priority = c.u8()?;
            if priority > 2 {
                return Err(WireError::Malformed { what: "submit priority" });
            }
            Frame::Submit(SubmitRequest { key, size, tol, priority })
        }
        KIND_DONE => {
            let key = c.u64()?;
            let duplicate = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed { what: "done duplicate flag" }),
            };
            let outcome = c.label()?;
            let profile = c.label()?;
            let breaker = c.label()?;
            Frame::Done(DoneReply { key, duplicate, outcome, profile, breaker })
        }
        KIND_ERROR => {
            let code = c.u8()?;
            let detail = c.label()?;
            Frame::Error { code, detail }
        }
        KIND_PING => Frame::Ping,
        KIND_PONG => Frame::Pong,
        KIND_SHUTDOWN => Frame::Shutdown,
        KIND_SHUTDOWN_OK => Frame::ShutdownOk { seq: c.u64()? },
        got => return Err(WireError::UnknownKind { got }),
    };
    c.done()?;
    Ok(frame)
}

/// Validates a frame header, returning `(kind, payload_len)`. The
/// declared length is checked against [`limits::MAX_PAYLOAD`] here,
/// before any payload buffer exists.
fn decode_header(head: &[u8; limits::HEADER_LEN]) -> Result<(u8, usize), WireError> {
    let magic = u32::from_le_bytes(head[0..4].try_into().unwrap());
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let kind = head[4];
    if !(KIND_SUBMIT..=KIND_SHUTDOWN_OK).contains(&kind) {
        return Err(WireError::UnknownKind { got: kind });
    }
    let len = u32::from_le_bytes(head[5..9].try_into().unwrap());
    if len > limits::MAX_PAYLOAD {
        return Err(WireError::Oversized { got: len, limit: limits::MAX_PAYLOAD });
    }
    Ok((kind, len as usize))
}

/// Decodes one frame from a byte slice, returning the frame and the
/// bytes consumed. This is the pure-function face of the decoder the
/// property tests fuzz: any input yields a valid frame or a typed
/// [`WireError`], never a panic, and allocation is bounded by
/// [`limits::MAX_PAYLOAD`].
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.len() < limits::HEADER_LEN {
        return Err(WireError::Truncated { needed: limits::HEADER_LEN, got: buf.len() });
    }
    let head: [u8; limits::HEADER_LEN] = buf[..limits::HEADER_LEN].try_into().unwrap();
    let (kind, len) = decode_header(&head)?;
    let rest = &buf[limits::HEADER_LEN..];
    if rest.len() < len {
        return Err(WireError::Truncated { needed: len, got: rest.len() });
    }
    let frame = decode_payload(kind, &rest[..len])?;
    Ok((frame, limits::HEADER_LEN + len))
}

/// Reads exactly `buf.len()` bytes unless the stream ends first;
/// returns the count actually read. Deadline expiry and transport
/// failures are typed.
fn read_full(r: &mut dyn Read, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(WireError::Deadline)
            }
            Err(e) => return Err(WireError::ConnectionLost(e.to_string())),
        }
    }
    Ok(got)
}

/// Reads one frame from a stream. A clean close at a frame boundary is
/// [`WireError::Closed`]; a close inside a frame is
/// [`WireError::Truncated`]. The payload buffer is only allocated after
/// the declared length passed the limit check.
pub fn read_frame(r: &mut dyn Read) -> Result<Frame, WireError> {
    let mut head = [0u8; limits::HEADER_LEN];
    let got = read_full(r, &mut head)?;
    if got == 0 {
        return Err(WireError::Closed);
    }
    if got < limits::HEADER_LEN {
        return Err(WireError::Truncated { needed: limits::HEADER_LEN, got });
    }
    let (kind, len) = decode_header(&head)?;
    let mut payload = vec![0u8; len];
    let got = read_full(r, &mut payload)?;
    if got < len {
        return Err(WireError::Truncated { needed: len, got });
    }
    decode_payload(kind, &payload)
}

/// Writes one encoded frame. Deadline expiry and transport failures are
/// typed, mirroring [`read_frame`].
pub fn write_frame(w: &mut dyn Write, frame: &Frame) -> Result<(), WireError> {
    write_bytes(w, &frame.encode())
}

fn write_bytes(w: &mut dyn Write, bytes: &[u8]) -> Result<(), WireError> {
    let map = |e: io::Error| {
        if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut {
            WireError::Deadline
        } else {
            WireError::ConnectionLost(e.to_string())
        }
    };
    w.write_all(bytes).map_err(map)?;
    w.flush().map_err(map)
}

/// Where a server listens / a client connects: a Unix socket path or a
/// TCP address, parsed from `unix:<path>` / `tcp:<host>:<port>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix domain socket at a filesystem path.
    Unix(PathBuf),
    /// TCP socket at `host:port`.
    Tcp(String),
}

impl Endpoint {
    /// Parses `unix:<path>` or `tcp:<host>:<port>`.
    ///
    /// # Errors
    /// A message naming the accepted forms when the scheme is missing or
    /// the operand is empty.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".into());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err(format!("tcp endpoint `{addr}` must be host:port"));
            }
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        Err(format!("endpoint `{s}` must be unix:<path> or tcp:<host>:<port>"))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// A bound listening socket over either transport.
pub enum Listener {
    /// Unix domain socket listener (remembers its path for cleanup).
    Unix(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds the endpoint. A stale Unix socket file (left by a killed
    /// process) is detected by a failed probe connect and removed, so a
    /// restarted daemon can rebind the same path.
    ///
    /// # Errors
    /// The underlying bind error when the address is genuinely taken.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Unix(path) => {
                if path.exists() && UnixStream::connect(path).is_err() {
                    let _ = std::fs::remove_file(path);
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
        }
    }

    /// Waits for the next connection. Connections that arrive while the
    /// caller is busy wait in the OS listen backlog.
    ///
    /// # Errors
    /// The underlying `accept` error.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

impl Drop for Listener {
    /// Removes the Unix socket file, so a server leaves no stale path
    /// behind on any exit.
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One accepted or dialed connection over either transport.
pub enum Conn {
    /// Unix domain socket stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// Dials the endpoint (blocking connect).
    ///
    /// # Errors
    /// The underlying connect error (refused, not found, …).
    pub fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
        match endpoint {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Conn::Tcp),
        }
    }

    /// Arms per-connection read/write deadlines — the slowloris defense:
    /// a peer that stalls mid-frame trips [`WireError::Deadline`] instead
    /// of pinning the connection forever.
    ///
    /// # Errors
    /// The underlying `setsockopt` error.
    pub fn set_deadlines(&self, read: Duration, write: Duration) -> io::Result<()> {
        match self {
            Conn::Unix(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
            Conn::Tcp(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
        }
    }

    /// Shuts both directions down, ignoring errors (used to simulate a
    /// hard reset and to close desynchronized streams).
    pub fn shutdown(&self) {
        match self {
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// The six wire fault classes the torture matrix must fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Hard connection reset at a frame boundary (close without I/O; at a
    /// receive op this loses an ack the server already considers durable).
    Reset,
    /// Half a frame written, then the connection closed — the peer sees a
    /// stream that ends inside a frame.
    Torn,
    /// The client goes silent for `ms` milliseconds mid-conversation,
    /// long enough to trip the server's read deadline.
    Stall {
        /// Silence duration in milliseconds (choose it above the server's
        /// connection deadline).
        ms: u64,
    },
    /// `len` deterministic garbage bytes instead of a frame; the server
    /// must answer with a typed bad-magic error.
    Garbage {
        /// Garbage length in bytes (≥ header size to reach the decoder).
        len: u16,
    },
    /// A header declaring a payload above [`limits::MAX_PAYLOAD`]; the
    /// server must reject it before allocating.
    Oversized,
    /// The same frame delivered twice — the at-least-once case the trail
    /// dedup must absorb.
    Duplicate,
}

impl NetFault {
    /// Stable class label for fired-fault accounting.
    pub fn label(&self) -> &'static str {
        match self {
            NetFault::Reset => "reset-mid-frame",
            NetFault::Torn => "torn-frame",
            NetFault::Stall { .. } => "stalled-read",
            NetFault::Garbage { .. } => "garbage-bytes",
            NetFault::Oversized => "oversized-frame",
            NetFault::Duplicate => "duplicate-delivery",
        }
    }

    /// All six class labels, for the all-classes-fired gate.
    pub const LABELS: [&'static str; 6] = [
        "reset-mid-frame",
        "torn-frame",
        "stalled-read",
        "garbage-bytes",
        "oversized-frame",
        "duplicate-delivery",
    ];
}

/// What a transport operation was, for the op log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetOpKind {
    /// A frame send; carries the frame kind byte so the matrix can
    /// schedule send-shaped faults at submit boundaries specifically.
    Send(u8),
    /// A frame receive.
    Recv,
}

/// One logged transport operation.
#[derive(Clone, Copy, Debug)]
pub struct NetOp {
    /// Global operation index (one counter across the connection's life,
    /// ticked at every frame send and receive).
    pub index: u64,
    /// What the operation was.
    pub kind: NetOpKind,
}

/// Deterministic wire-fault injector on the crate's one
/// [`FaultSchedule`]: a global op index ticks at every logical frame
/// send/receive, faults fire at scheduled indices exactly once, and every
/// firing is recorded per class. Cloning shares the underlying state, so
/// a harness keeps a handle while the client injects.
#[derive(Clone)]
pub struct FaultTransport {
    faults: Arc<Mutex<FaultSchedule<NetFault, NetOp>>>,
}

impl Default for FaultTransport {
    fn default() -> Self {
        let mut faults = FaultSchedule::default();
        faults.record_ops();
        FaultTransport { faults: Arc::new(Mutex::new(faults)) }
    }
}

impl FaultTransport {
    /// A transport with an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultSchedule<NetFault, NetOp>> {
        self.faults.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Schedules `fault` to fire at global op index `index`.
    pub fn schedule(&self, index: u64, fault: NetFault) {
        self.lock().schedule(index, fault);
    }

    /// Total operations ticked so far.
    pub fn op_count(&self) -> u64 {
        self.lock().op_count()
    }

    /// The full operation log (probe runs use it to enumerate every
    /// frame boundary a fault can be scheduled at).
    pub fn op_log(&self) -> Vec<NetOp> {
        self.lock().op_log()
    }

    /// How many times each fault class fired, by label.
    pub fn fired(&self) -> BTreeMap<String, u64> {
        self.lock().fired()
    }

    /// Ticks the op counter for one logical frame operation, returning
    /// the fault scheduled at this index and recording the firing per
    /// class.
    pub fn tick(&self, kind: NetOpKind) -> Option<NetFault> {
        let mut g = self.lock();
        let fault = g.tick(|index| NetOp { index, kind });
        if let Some(f) = fault {
            g.fire(f.label());
        }
        fault
    }
}

/// Client configuration: endpoint, retry ladder shape, and per-priority
/// read-deadline classes.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Where the daemon listens.
    pub endpoint: Endpoint,
    /// Attempts per request across reconnects before giving up.
    pub max_attempts: usize,
    /// Base backoff after a failed attempt; it doubles per retry.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed of the client's jitter stream.
    pub seed: u64,
    /// Read deadline per priority class (interactive, batch,
    /// best-effort): how long an ack may take before the attempt is
    /// abandoned and resubmitted.
    pub deadlines: [Duration; 3],
    /// Write deadline for all frames.
    pub write_deadline: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            endpoint: Endpoint::Unix(PathBuf::from("/tmp/fp16mg.sock")),
            max_attempts: 12,
            backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            seed: 0x006e_6574_7769_7265,
            deadlines: [Duration::from_secs(5), Duration::from_secs(30), Duration::from_secs(60)],
            write_deadline: Duration::from_secs(5),
        }
    }
}

/// What the client observed, for harness assertions and the loadgen
/// summary.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Submit frames sent (including resubmissions).
    pub submitted: u64,
    /// Acks received.
    pub acked: u64,
    /// Acks served from the durable decision record (`duplicate = true`).
    pub duplicate_acks: u64,
    /// Retries of a request whose earlier attempt may have reached the
    /// server — the at-least-once deliveries the trail dedup must absorb.
    pub resubmissions: u64,
    /// Always 0: no server sends a `Busy` frame. Kept because the
    /// repository benchmark reports it as `runtime.busy_retries`.
    pub busy_retries: u64,
    /// Reconnects after a lost connection.
    pub reconnects: u64,
    /// Typed resolutions observed per injected fault class: fault label →
    /// the typed error (wire or server) that resolved it.
    pub resolutions: BTreeMap<String, String>,
}

/// Why a request ultimately failed at the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The retry ladder ran out of attempts.
    Exhausted {
        /// Attempts made.
        attempts: usize,
        /// Label of the last failure.
        last: String,
    },
    /// The server refused the request with a terminal typed error.
    Rejected {
        /// The [`codes`] value.
        code: u8,
        /// The server's detail string.
        detail: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts (last: {last})")
            }
            ClientError::Rejected { code, detail } => {
                write!(f, "rejected: {} ({detail})", code_label(*code))
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// The serving client: one connection, reconnected on demand, with a
/// jittered retry/backoff ladder and idempotent resubmission. Requests
/// carry their sequence number as the idempotency key, so a retry after
/// a lost ack is deduplicated by the server's trail, not re-executed.
pub struct Client {
    cfg: ClientConfig,
    conn: Option<Conn>,
    ft: Option<FaultTransport>,
    extra_replies: u32,
    backoff_pos: u64,
    /// Observed counters; the harnesses read these directly.
    pub stats: ClientStats,
}

impl Client {
    /// A client for `cfg.endpoint`, not yet connected.
    pub fn new(cfg: ClientConfig) -> Self {
        Client {
            cfg,
            conn: None,
            ft: None,
            extra_replies: 0,
            backoff_pos: 0,
            stats: ClientStats::default(),
        }
    }

    /// A client whose frame operations tick (and obey) a fault schedule.
    pub fn with_transport(cfg: ClientConfig, ft: FaultTransport) -> Self {
        let mut c = Client::new(cfg);
        c.ft = Some(ft);
        c
    }

    fn drop_conn(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.shutdown();
        }
        self.extra_replies = 0;
    }

    fn ensure_conn(&mut self, read_deadline: Duration) -> Result<(), WireError> {
        if self.conn.is_none() {
            let conn = Conn::connect(&self.cfg.endpoint)
                .map_err(|e| WireError::ConnectionLost(format!("connect: {e}")))?;
            conn.set_deadlines(read_deadline, self.cfg.write_deadline)
                .map_err(|e| WireError::ConnectionLost(format!("deadlines: {e}")))?;
            self.conn = Some(conn);
        } else if let Some(conn) = &self.conn {
            let _ = conn.set_deadlines(read_deadline, self.cfg.write_deadline);
        }
        Ok(())
    }

    /// The jittered exponential backoff for retry `k` of this client's
    /// stream (deterministic in `(seed, position)`): each sleep is scaled
    /// by `1 - JITTER·unit`, decorrelating retry storms.
    fn backoff_for(&mut self, k: usize) -> Duration {
        const BACKOFF_FACTOR: f64 = 2.0;
        const JITTER: f64 = 0.5;
        let base = self.cfg.backoff.as_secs_f64() * BACKOFF_FACTOR.powi(k as i32);
        let capped = base.min(self.cfg.max_backoff.as_secs_f64());
        let pos = jitter::fold_seed(self.cfg.seed, "net-client").wrapping_add(self.backoff_pos);
        self.backoff_pos += 1;
        let scale = 1.0 - JITTER * jitter::unit(pos);
        Duration::from_secs_f64(capped * scale)
    }

    fn resolve(&mut self, class: &'static str, typed: String) {
        self.stats.resolutions.entry(class.to_string()).or_insert(typed);
    }

    /// Sends one frame through the fault schedule. Injected faults
    /// damage the wire exactly as scheduled and surface as the typed
    /// error the production retry ladder must absorb.
    fn faulted_send(&mut self, frame: &Frame) -> Result<(), WireError> {
        let fault = self.ft.as_ref().and_then(|ft| ft.tick(NetOpKind::Send(frame.kind())));
        let conn = self.conn.as_mut().expect("send without connection");
        match fault {
            None => write_frame(conn, frame),
            Some(NetFault::Reset) => {
                self.resolve("reset-mid-frame", "wire:connection-lost".into());
                self.drop_conn();
                Err(WireError::ConnectionLost("injected reset".into()))
            }
            Some(NetFault::Torn) => {
                let bytes = frame.encode();
                let half = (bytes.len() / 2).max(1);
                let _ = write_bytes(conn, &bytes[..half]);
                self.resolve("torn-frame", "wire:connection-lost".into());
                self.drop_conn();
                Err(WireError::ConnectionLost("injected torn frame".into()))
            }
            Some(NetFault::Stall { ms }) => {
                std::thread::sleep(Duration::from_millis(ms));
                // The server's read deadline has tripped and closed the
                // connection; the write may still land in a dead socket
                // buffer, so the failure surfaces typed on the next read.
                let r = write_frame(conn, frame);
                self.resolve("stalled-read", "wire:deadline".into());
                match r {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        self.drop_conn();
                        Err(e)
                    }
                }
            }
            Some(NetFault::Garbage { len }) => {
                let n = (len as usize).max(limits::HEADER_LEN);
                let mut garbage = Vec::with_capacity(n);
                let seed = jitter::fold_seed(self.cfg.seed, "garbage");
                for i in 0..n {
                    garbage.push((jitter::splitmix64(seed.wrapping_add(i as u64)) & 0xff) as u8);
                }
                garbage[0] = 0; // guarantee the magic check fails
                write_bytes(conn, &garbage)?;
                // The server must answer typed (bad magic) and close.
                match read_frame(conn) {
                    Ok(Frame::Error { code, .. }) => {
                        self.resolve("garbage-bytes", format!("error:{}", code_label(code)));
                    }
                    Ok(_) | Err(_) => {
                        self.resolve("garbage-bytes", "wire:connection-lost".into());
                    }
                }
                self.drop_conn();
                Err(WireError::ConnectionLost("stream desynced by garbage".into()))
            }
            Some(NetFault::Oversized) => {
                let mut head = Vec::with_capacity(limits::HEADER_LEN);
                head.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
                head.push(KIND_SUBMIT);
                head.extend_from_slice(&(limits::MAX_PAYLOAD + 1).to_le_bytes());
                write_bytes(conn, &head)?;
                match read_frame(conn) {
                    Ok(Frame::Error { code, .. }) => {
                        self.resolve("oversized-frame", format!("error:{}", code_label(code)));
                    }
                    Ok(_) | Err(_) => {
                        self.resolve("oversized-frame", "wire:connection-lost".into());
                    }
                }
                self.drop_conn();
                Err(WireError::ConnectionLost("oversized header sent".into()))
            }
            Some(NetFault::Duplicate) => {
                let bytes = frame.encode();
                write_bytes(conn, &bytes)?;
                write_bytes(conn, &bytes)?;
                self.extra_replies += 1;
                self.resolve("duplicate-delivery", "ack:duplicate".into());
                Ok(())
            }
        }
    }

    /// Receives one frame through the fault schedule. A receive-side
    /// fault abandons the reply (the lost-ack case): the connection is
    /// dropped before reading, so the attempt fails typed and the retry
    /// ladder resubmits idempotently.
    fn faulted_recv(&mut self) -> Result<Frame, WireError> {
        let fault = self.ft.as_ref().and_then(|ft| ft.tick(NetOpKind::Recv));
        match fault {
            None => {}
            Some(NetFault::Stall { ms }) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.resolve("stalled-read", "wire:deadline".into());
            }
            Some(f) => {
                // Receive-side injection can only model abandonment: the
                // peer's bytes are not ours to damage. Every class
                // degrades to dropping the connection before the read.
                self.resolve(f.label(), "wire:connection-lost".into());
                self.drop_conn();
                return Err(WireError::ConnectionLost("injected receive fault".into()));
            }
        }
        let conn = self.conn.as_mut().expect("recv without connection");
        match read_frame(conn) {
            Ok(f) => Ok(f),
            Err(e) => {
                self.drop_conn();
                Err(e)
            }
        }
    }

    /// Drains replies to duplicated deliveries so the stream stays in
    /// sync. The extra ack must carry `duplicate = true` — the server
    /// applied the first copy and answered the second from the trail.
    fn drain_extras(&mut self) {
        while self.extra_replies > 0 {
            self.extra_replies -= 1;
            let Some(conn) = self.conn.as_mut() else { break };
            match read_frame(conn) {
                Ok(Frame::Done(d)) if d.duplicate => self.stats.duplicate_acks += 1,
                Ok(_) => {}
                Err(_) => {
                    self.drop_conn();
                    break;
                }
            }
        }
    }

    fn try_once(&mut self, frame: &Frame, read_deadline: Duration) -> Result<Frame, WireError> {
        let had_conn = self.conn.is_some();
        self.ensure_conn(read_deadline)?;
        if !had_conn && self.stats.submitted > 0 {
            self.stats.reconnects += 1;
        }
        self.faulted_send(frame)?;
        self.faulted_recv()
    }

    /// Submits one request through the retry ladder: lost connections
    /// reconnect and resubmit the same idempotency key, terminal server
    /// errors surface typed.
    ///
    /// # Errors
    /// [`ClientError::Rejected`] on a terminal server refusal,
    /// [`ClientError::Exhausted`] when the ladder runs out of attempts.
    pub fn submit(&mut self, req: SubmitRequest) -> Result<DoneReply, ClientError> {
        let deadline = self.cfg.deadlines[(req.priority as usize).min(2)];
        let frame = Frame::Submit(req.clone());
        let mut last = String::from("never attempted");
        let mut sent_before = false;
        for attempt in 0..self.cfg.max_attempts {
            if sent_before {
                self.stats.resubmissions += 1;
            }
            self.stats.submitted += 1;
            sent_before = true;
            match self.try_once(&frame, deadline) {
                Ok(Frame::Done(d)) if d.key == req.key => {
                    self.stats.acked += 1;
                    if d.duplicate {
                        self.stats.duplicate_acks += 1;
                    }
                    self.drain_extras();
                    return Ok(d);
                }
                Ok(Frame::Error { code, detail }) => {
                    return Err(ClientError::Rejected { code, detail })
                }
                Ok(other) => {
                    last = format!("unexpected frame kind {}", other.kind());
                    self.drop_conn();
                    std::thread::sleep(self.backoff_for(attempt));
                }
                Err(e) => {
                    last = e.label().to_string();
                    self.drop_conn();
                    std::thread::sleep(self.backoff_for(attempt));
                }
            }
        }
        Err(ClientError::Exhausted { attempts: self.cfg.max_attempts, last })
    }

    /// Pings the server (used to wait for a daemon to come up).
    ///
    /// # Errors
    /// The wire error when the server is not reachable.
    pub fn ping(&mut self) -> Result<(), WireError> {
        self.ensure_conn(self.cfg.deadlines[0])?;
        self.faulted_send(&Frame::Ping)?;
        match self.faulted_recv()? {
            Frame::Pong => Ok(()),
            other => {
                self.drop_conn();
                Err(WireError::Malformed {
                    what: if other.kind() == KIND_PONG { "pong" } else { "ping reply" },
                })
            }
        }
    }

    /// Requests a graceful drain and waits for the durable
    /// acknowledgment.
    ///
    /// # Errors
    /// [`ClientError::Exhausted`] when the server stopped answering — a
    /// reset can lose the `ShutdownOk` after the drain completed, so
    /// callers should treat exhaustion here as "check the server's own
    /// report".
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        let mut last = String::from("never attempted");
        for attempt in 0..self.cfg.max_attempts {
            match self.try_once(&Frame::Shutdown, self.cfg.deadlines[1]) {
                Ok(Frame::ShutdownOk { seq }) => return Ok(seq),
                Ok(Frame::Error { code, detail }) => {
                    return Err(ClientError::Rejected { code, detail })
                }
                Ok(other) => {
                    last = format!("unexpected frame kind {}", other.kind());
                    self.drop_conn();
                    std::thread::sleep(self.backoff_for(attempt));
                }
                Err(e) => {
                    last = e.label().to_string();
                    self.drop_conn();
                    std::thread::sleep(self.backoff_for(attempt));
                }
            }
        }
        Err(ClientError::Exhausted { attempts: self.cfg.max_attempts, last })
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn frame_roundtrip_all_kinds() {
        let frames = [
            Frame::Submit(SubmitRequest { key: 7, size: 12, tol: 1e-7, priority: 1 }),
            Frame::Done(DoneReply {
                key: 7,
                duplicate: true,
                outcome: "converged".into(),
                profile: "full".into(),
                breaker: "closed".into(),
            }),
            Frame::Error { code: codes::OUT_OF_ORDER, detail: "want 3".into() },
            Frame::Ping,
            Frame::Pong,
            Frame::Shutdown,
            Frame::ShutdownOk { seq: 41 },
        ];
        for f in frames {
            let bytes = f.encode();
            let (back, used) = decode_frame(&bytes).expect("roundtrip");
            assert_eq!(back, f);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn oversized_header_rejected_before_payload() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        bytes.push(KIND_SUBMIT);
        bytes.extend_from_slice(&(limits::MAX_PAYLOAD + 1).to_le_bytes());
        // No payload at all: the length check must fire before the
        // decoder ever asks for payload bytes.
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::Oversized { got: limits::MAX_PAYLOAD + 1, limit: limits::MAX_PAYLOAD })
        );
    }

    #[test]
    fn bad_magic_and_unknown_kind_are_typed() {
        let mut bytes = Frame::Ping.encode();
        bytes[0] = 0;
        assert!(matches!(decode_frame(&bytes), Err(WireError::BadMagic { .. })));
        for got in [3, 99] {
            let mut bytes = Frame::Ping.encode();
            bytes[4] = got;
            assert_eq!(decode_frame(&bytes), Err(WireError::UnknownKind { got }));
        }
    }

    #[test]
    fn trailing_payload_bytes_are_malformed() {
        let mut bytes = Frame::ShutdownOk { seq: 1 }.encode();
        bytes.push(0);
        let len = (bytes.len() - limits::HEADER_LEN) as u32;
        bytes[5..9].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::Malformed { what: "trailing payload bytes" })
        );
    }

    #[test]
    fn labels_clip_to_limit_and_still_decode() {
        let long = "x".repeat(limits::MAX_LABEL * 2);
        let f = Frame::Error { code: codes::INTERNAL, detail: long };
        let (back, _) = decode_frame(&f.encode()).expect("clipped label decodes");
        match back {
            Frame::Error { detail, .. } => assert_eq!(detail.len(), limits::MAX_LABEL),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn endpoint_parse_forms() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/s.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/s.sock")))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:8080"),
            Ok(Endpoint::Tcp("127.0.0.1:8080".into()))
        );
        assert!(Endpoint::parse("udp:nope").is_err());
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:noport").is_err());
    }

    #[test]
    fn fault_transport_ticks_and_fires_once() {
        let ft = FaultTransport::new();
        ft.schedule(1, NetFault::Reset);
        assert_eq!(ft.tick(NetOpKind::Send(KIND_SUBMIT)), None);
        assert_eq!(ft.tick(NetOpKind::Recv), Some(NetFault::Reset));
        assert_eq!(ft.tick(NetOpKind::Recv), None);
        assert_eq!(ft.op_count(), 3);
        assert_eq!(ft.fired().get("reset-mid-frame"), Some(&1));
        let log = ft.op_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].index, 0);
        assert!(matches!(log[0].kind, NetOpKind::Send(k) if k == KIND_SUBMIT));
    }
}
