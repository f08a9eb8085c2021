//! The framed wire protocol: layout, verbs, codec and frame I/O.
//!
//! # Frame layout
//!
//! ```text
//! ┌────────────────┬────────┬─────────────────────────┐
//! │ body len (u32) │ opcode │ payload (body len − 1)  │
//! │   big-endian   │  (u8)  │                         │
//! └────────────────┴────────┴─────────────────────────┘
//! ```
//!
//! The length prefix counts the body (opcode + payload), not itself.
//! Bodies larger than the server's configured maximum
//! ([`MAX_FRAME_DEFAULT`] by default) are refused with
//! [`ErrorCode::FrameTooLarge`] *without reading the body*, so a hostile
//! length cannot make the server allocate.
//!
//! Scalars inside payloads are fixed-width big-endian; `f64` travels as
//! its IEEE-754 bit pattern. Variable-length fields carry a `u32` count
//! first; every count is validated against the bytes actually remaining
//! in the frame before anything is allocated, so a forged count of four
//! billion costs the decoder nothing. The encoder is checked the same
//! way: a length or index that does not fit the wire format's 32-bit
//! fields is a typed [`EncodeError`], never a silent truncation.
//!
//! # Verbs
//!
//! | opcode | direction | verb |
//! |---|---|---|
//! | `0x01` | → | [`Request::Hello`] — authenticate the connection |
//! | `0x02` | → | [`Request::Submit`] — one or more MVP programs |
//! | `0x03` | → | [`Request::ApOpen`] — compile patterns into a session |
//! | `0x04`, `0x05` | → | reserved (retired single-lane feed/finish); refused as unknown |
//! | `0x06` | → | [`Request::ApClose`] — drop the session |
//! | `0x07` | → | [`Request::Usage`] — the tenant's accumulated bill |
//! | `0x08` | → | [`Request::Stats`] — service-wide health and load |
//! | `0x09` | → | [`Request::CorrOpen`] — open a correlation session |
//! | `0x0A` | → | [`Request::CorrFeed`] — stream one event window |
//! | `0x0B` | → | [`Request::CorrFinish`] — collect the correlated set |
//! | `0x0C` | → | [`Request::ApFeedMany`] — one chunk per stream lane |
//! | `0x0D` | → | [`Request::ApFinishMany`] — end every lane's stream |
//! | `0x81`–`0x8D` | ← | the matching success responses (`0x84`, `0x85` reserved) |
//! | `0xEE` | ← | [`Response::Error`] with an [`ErrorCode`] |
//!
//! AP sessions have one feed and one finish verb: a single stream is a
//! one-lane `ApFeedMany`. Correlation sessions are closed with the
//! kind-agnostic `ApClose` verb (`0x06`): the session table does not
//! care which workload's state it drops.
//!
//! Each connection is a synchronous request/response stream: the server
//! answers every request frame with exactly one response frame, in
//! order. (Pipelining across *connections* is how the load generator
//! drives overload.)

use crate::{ServeError, SessionId, TenantId, MAX_LANES};
use core::fmt;
use memcim_ap::ApReport;
use memcim_bits::BitVec;
use memcim_mvp::Instruction;
use memcim_units::{Joules, Seconds};
use std::io::{Read, Write};

/// Default cap on a frame body, and the largest body
/// [`read_frame`] will accept unless told otherwise. Large enough for a
/// burst of wide bitmap programs, small enough that a hostile length
/// prefix cannot balloon server memory.
pub const MAX_FRAME_DEFAULT: usize = 1 << 20;

/// Upper bound on patterns per `ApOpen` — a compile is synchronous
/// work, so the count is capped independently of the frame size.
const MAX_PATTERNS: usize = 1024;

// --- Opcodes ----------------------------------------------------------
//
// 0x04/0x05 and their responses 0x84/0x85 carried the retired
// single-lane AP feed/finish verbs. They stay reserved — never reused —
// and decode as unknown opcodes.

const OP_HELLO: u8 = 0x01;
const OP_SUBMIT: u8 = 0x02;
const OP_AP_OPEN: u8 = 0x03;
const OP_AP_CLOSE: u8 = 0x06;
const OP_USAGE: u8 = 0x07;
const OP_STATS: u8 = 0x08;
const OP_CORR_OPEN: u8 = 0x09;
const OP_CORR_FEED: u8 = 0x0A;
const OP_CORR_FINISH: u8 = 0x0B;
const OP_AP_FEED_MANY: u8 = 0x0C;
const OP_AP_FINISH_MANY: u8 = 0x0D;

const OP_HELLO_OK: u8 = 0x81;
const OP_MVP_RESULT: u8 = 0x82;
const OP_AP_OPENED: u8 = 0x83;
const OP_AP_CLOSED: u8 = 0x86;
const OP_USAGE_REPORT: u8 = 0x87;
const OP_STATS_REPORT: u8 = 0x88;
const OP_CORR_OPENED: u8 = 0x89;
const OP_CORR_FEED_OK: u8 = 0x8A;
const OP_CORR_REPORT: u8 = 0x8B;
const OP_AP_FED_MANY: u8 = 0x8C;
const OP_AP_MATCHES_MANY: u8 = 0x8D;
const OP_ERROR: u8 = 0xEE;

// --- Error taxonomy ---------------------------------------------------

/// Typed failure codes carried by [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The frame body could not be decoded (truncated payload, trailing
    /// garbage, invalid UTF-8, nonsense counts).
    BadFrame,
    /// The declared body length exceeds the server's maximum.
    FrameTooLarge,
    /// The opcode is not a known request verb.
    UnknownOpcode,
    /// A request other than `Hello` arrived before authentication.
    Unauthenticated,
    /// `Hello` named an unknown tenant or presented a wrong token.
    BadCredentials,
    /// The connection sent a second `Hello`.
    AlreadyAuthenticated,
    /// Admission control: the tenant's job quota is spent.
    QuotaExceeded,
    /// Admission control: the tenant's token bucket is empty.
    RateLimited,
    /// The bounded queue is at capacity; the submission was refused
    /// *before* it could block the connection (back off and retry).
    OverCapacity,
    /// The service is shutting down.
    ShuttingDown,
    /// A streaming verb referenced a session this tenant does not hold.
    UnknownSession,
    /// The session is busy on another in-flight job.
    SessionBusy,
    /// The session exists but holds a different streaming workload's
    /// state (e.g. an `ApFeedMany` aimed at a correlation session).
    WrongSessionKind,
    /// Pattern compilation failed in `ApOpen`.
    Compile,
    /// The job reached an engine and failed there.
    Engine,
    /// Every engine has been retired; MVP jobs cannot be placed.
    NoHealthyEngine,
    /// Every replica of one shard is dead; sub-queries touching its
    /// records cannot fail over anywhere (other shards keep serving).
    ShardUnavailable,
    /// Static verification refused a submitted program *before*
    /// admission: the engine would provably reject it at runtime. The
    /// message carries the diagnostic (stable code, instruction index);
    /// nothing was billed and nothing was queued.
    InvalidProgram,
    /// An internal server failure (never the client's fault).
    Internal,
}

impl ErrorCode {
    /// The code's wire representation.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::FrameTooLarge => 2,
            ErrorCode::UnknownOpcode => 3,
            ErrorCode::Unauthenticated => 10,
            ErrorCode::BadCredentials => 11,
            ErrorCode::AlreadyAuthenticated => 12,
            ErrorCode::QuotaExceeded => 20,
            ErrorCode::RateLimited => 21,
            ErrorCode::OverCapacity => 22,
            ErrorCode::ShuttingDown => 30,
            ErrorCode::UnknownSession => 31,
            ErrorCode::SessionBusy => 32,
            ErrorCode::Compile => 33,
            ErrorCode::Engine => 34,
            ErrorCode::NoHealthyEngine => 35,
            ErrorCode::ShardUnavailable => 36,
            ErrorCode::InvalidProgram => 37,
            ErrorCode::WrongSessionKind => 38,
            ErrorCode::Internal => 99,
        }
    }

    /// Decodes a wire code; unknown values collapse to
    /// [`ErrorCode::Internal`] so old clients survive new servers.
    pub fn from_u16(raw: u16) -> Self {
        match raw {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::FrameTooLarge,
            3 => ErrorCode::UnknownOpcode,
            10 => ErrorCode::Unauthenticated,
            11 => ErrorCode::BadCredentials,
            12 => ErrorCode::AlreadyAuthenticated,
            20 => ErrorCode::QuotaExceeded,
            21 => ErrorCode::RateLimited,
            22 => ErrorCode::OverCapacity,
            30 => ErrorCode::ShuttingDown,
            31 => ErrorCode::UnknownSession,
            32 => ErrorCode::SessionBusy,
            33 => ErrorCode::Compile,
            34 => ErrorCode::Engine,
            35 => ErrorCode::NoHealthyEngine,
            36 => ErrorCode::ShardUnavailable,
            37 => ErrorCode::InvalidProgram,
            38 => ErrorCode::WrongSessionKind,
            _ => ErrorCode::Internal,
        }
    }

    /// Maps a service-side failure to its wire code.
    pub fn from_serve_error(e: &ServeError) -> Self {
        match e {
            ServeError::QueueFull { .. } => ErrorCode::OverCapacity,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::UnknownSession { .. } => ErrorCode::UnknownSession,
            ServeError::SessionBusy { .. } => ErrorCode::SessionBusy,
            ServeError::WrongSessionKind { .. } => ErrorCode::WrongSessionKind,
            ServeError::Compile { .. } => ErrorCode::Compile,
            ServeError::Mvp(_) | ServeError::Ap(_) => ErrorCode::Engine,
            ServeError::NoHealthyEngine => ErrorCode::NoHealthyEngine,
            ServeError::ShardUnavailable { .. } => ErrorCode::ShardUnavailable,
            ServeError::InvalidProgram { .. } => ErrorCode::InvalidProgram,
            ServeError::RateLimited { .. } => ErrorCode::RateLimited,
            // A cost-bound refusal is a quota-class answer: the tenant's
            // budget, not the program's validity, is what ran out.
            ServeError::CostBoundExceeded { .. } => ErrorCode::QuotaExceeded,
            ServeError::QuotaExceeded { .. } => ErrorCode::QuotaExceeded,
            ServeError::Unauthenticated => ErrorCode::Unauthenticated,
            ServeError::BadCredentials => ErrorCode::BadCredentials,
            ServeError::Internal { .. } => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Why a frame body failed to decode. Local diagnosis only — on the
/// wire it travels as [`ErrorCode::BadFrame`] / `UnknownOpcode`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The payload ended before the field being read.
    Truncated,
    /// Bytes remained after the last field of the verb.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The first body byte is not a known opcode (for the direction
    /// being decoded).
    UnknownOpcode(u8),
    /// A field's value is invalid for its type.
    BadPayload(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame body truncated"),
            FrameError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            FrameError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            FrameError::BadPayload(what) => write!(f, "bad payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// The wire code a server answers this decode failure with.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            FrameError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
            _ => ErrorCode::BadFrame,
        }
    }
}

/// A value that cannot be encoded into a frame: the wire format carries
/// lengths, counts and row indices as `u32`, and this field's value
/// does not fit. Refusing with a typed error beats the silent `as u32`
/// truncation it replaces, which would have framed a *different*
/// payload than the caller asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeError {
    /// Which field overflowed.
    pub field: &'static str,
    /// The value that did not fit.
    pub value: usize,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot encode frame: {} of {} exceeds the wire format's 32-bit fields",
            self.field, self.value
        )
    }
}

impl std::error::Error for EncodeError {}

// --- Cursor-style reader/writer ---------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::BadPayload("boolean out of range")),
        }
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_be_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32` element count and proves the frame can actually
    /// hold `count` elements of at least `min_bytes` each *before* the
    /// caller allocates — the defense against forged counts.
    fn count(&mut self, min_bytes: usize) -> Result<usize, FrameError> {
        let count = self.u32()? as usize;
        if count.checked_mul(min_bytes.max(1)).is_none_or(|need| need > self.remaining()) {
            return Err(FrameError::BadPayload("element count exceeds frame"));
        }
        Ok(count)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let len = self.count(1)?;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, FrameError> {
        String::from_utf8(self.bytes()?).map_err(|_| FrameError::BadPayload("invalid UTF-8"))
    }

    fn bitvec(&mut self) -> Result<BitVec, FrameError> {
        let bits = self.u32()? as usize;
        let words = bits.div_ceil(64);
        if words.checked_mul(8).is_none_or(|need| need > self.remaining()) {
            return Err(FrameError::BadPayload("bit vector exceeds frame"));
        }
        let mut out = BitVec::new(bits);
        for w in 0..words {
            let raw = self.take(8)?;
            let mut word = [0u8; 8];
            word.copy_from_slice(raw);
            let mut word = u64::from_be_bytes(word);
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let index = w * 64 + bit;
                if index >= bits {
                    return Err(FrameError::BadPayload("set bit beyond bit vector length"));
                }
                out.set(index, true);
            }
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), FrameError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(FrameError::Trailing { extra }),
        }
    }
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(opcode: u8) -> Self {
        Self { buf: vec![opcode] }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `usize` into one of the protocol's `u32` fields
    /// (a length prefix, an element count, a row index), checked: a
    /// value that does not fit is a typed [`EncodeError`], not a
    /// truncated frame.
    fn u32_of(&mut self, field: &'static str, value: usize) -> Result<(), EncodeError> {
        match u32::try_from(value) {
            Ok(v) => {
                self.u32(v);
                Ok(())
            }
            Err(_) => Err(EncodeError { field, value }),
        }
    }

    fn bytes(&mut self, field: &'static str, v: &[u8]) -> Result<(), EncodeError> {
        self.u32_of(field, v.len())?;
        self.buf.extend_from_slice(v);
        Ok(())
    }

    fn string(&mut self, field: &'static str, v: &str) -> Result<(), EncodeError> {
        self.bytes(field, v.as_bytes())
    }

    fn bitvec(&mut self, field: &'static str, v: &BitVec) -> Result<(), EncodeError> {
        self.u32_of(field, v.len())?;
        for &word in v.as_words() {
            self.u64(word);
        }
        Ok(())
    }
}

fn encode_instruction(w: &mut Writer, instruction: &Instruction) -> Result<(), EncodeError> {
    match instruction {
        Instruction::Store { row, data } => {
            w.u8(0);
            w.u32_of("store row", *row)?;
            w.bitvec("store data", data)?;
        }
        Instruction::Or { srcs, dst } => {
            w.u8(1);
            w.u32_of("OR source count", srcs.len())?;
            for &s in srcs {
                w.u32_of("OR source row", s)?;
            }
            w.u32_of("OR destination row", *dst)?;
        }
        Instruction::And { srcs, dst } => {
            w.u8(2);
            w.u32_of("AND source count", srcs.len())?;
            for &s in srcs {
                w.u32_of("AND source row", s)?;
            }
            w.u32_of("AND destination row", *dst)?;
        }
        Instruction::Xor { a, b, dst } => {
            w.u8(3);
            w.u32_of("XOR operand row", *a)?;
            w.u32_of("XOR operand row", *b)?;
            w.u32_of("XOR destination row", *dst)?;
        }
        Instruction::Read { row } => {
            w.u8(4);
            w.u32_of("read row", *row)?;
        }
    }
    Ok(())
}

fn decode_instruction(r: &mut Reader<'_>) -> Result<Instruction, FrameError> {
    match r.u8()? {
        0 => {
            let row = r.u32()? as usize;
            let data = r.bitvec()?;
            Ok(Instruction::Store { row, data })
        }
        tag @ (1 | 2) => {
            let n = r.count(4)?;
            let srcs = (0..n).map(|_| Ok(r.u32()? as usize)).collect::<Result<Vec<_>, _>>()?;
            let dst = r.u32()? as usize;
            Ok(if tag == 1 {
                Instruction::Or { srcs, dst }
            } else {
                Instruction::And { srcs, dst }
            })
        }
        3 => Ok(Instruction::Xor {
            a: r.u32()? as usize,
            b: r.u32()? as usize,
            dst: r.u32()? as usize,
        }),
        4 => Ok(Instruction::Read { row: r.u32()? as usize }),
        _ => Err(FrameError::BadPayload("unknown instruction tag")),
    }
}

fn encode_ap_report(w: &mut Writer, report: &ApReport) {
    w.u64(report.cycles);
    w.f64(report.latency.as_seconds());
    w.f64(report.energy.as_joules());
}

fn decode_ap_report(r: &mut Reader<'_>) -> Result<ApReport, FrameError> {
    Ok(ApReport {
        cycles: r.u64()?,
        latency: Seconds::new(r.f64()?),
        energy: Joules::new(r.f64()?),
    })
}

fn encode_ap_matches(w: &mut Writer, run: &crate::ApMatches) -> Result<(), EncodeError> {
    w.u8(u8::from(run.accepted));
    w.u64(run.symbols);
    encode_ap_report(w, &run.report);
    w.u32_of("match count", run.matches.len())?;
    for &(pos, pattern) in &run.matches {
        w.u64(pos as u64);
        w.u64(pattern as u64);
    }
    Ok(())
}

fn decode_ap_matches(r: &mut Reader<'_>) -> Result<crate::ApMatches, FrameError> {
    let accepted = r.bool()?;
    let symbols = r.u64()?;
    let report = decode_ap_report(r)?;
    let n = r.count(16)?;
    let matches = (0..n)
        .map(|_| Ok((r.u64()? as usize, r.u64()? as usize)))
        .collect::<Result<Vec<_>, FrameError>>()?;
    Ok(crate::ApMatches { accepted, matches, symbols, report })
}

// --- Requests ---------------------------------------------------------

/// A client-to-server verb.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Authenticates the connection; must be the first frame.
    Hello {
        /// The tenant this connection will act as.
        tenant: TenantId,
        /// The tenant's secret token.
        token: String,
    },
    /// Submits MVP macro-instruction programs, executed as one
    /// pre-assembled batch like an in-process [`Job::MvpBatch`] — one
    /// job, however many programs.
    ///
    /// [`Job::MvpBatch`]: crate::Job::MvpBatch
    Submit {
        /// The programs; must be non-empty.
        programs: Vec<Vec<Instruction>>,
    },
    /// Compiles patterns into a streaming AP session.
    ApOpen {
        /// The regex patterns (capped at 1024 per request).
        patterns: Vec<String>,
    },
    /// Drops a session — any streaming workload kind, not only AP.
    ApClose {
        /// The session to close.
        session: SessionId,
    },
    /// Requests the authenticated tenant's accumulated usage.
    Usage,
    /// Requests service-wide health and load counters.
    Stats,
    /// Opens a streaming temporal-correlation session.
    CorrOpen {
        /// Event streams the session tracks.
        streams: usize,
        /// Co-activation score above which a stream is reported
        /// correlated.
        threshold: u64,
    },
    /// Streams one time window — one activity bit vector per stream,
    /// all the same width — through an open correlation session.
    CorrFeed {
        /// The session to feed.
        session: SessionId,
        /// Per-stream activity over the window's steps.
        window: Vec<BitVec>,
    },
    /// Ends a correlation session's stream and collects the correlated
    /// set; the session resets and stays open for the next stream.
    CorrFinish {
        /// The session to finish.
        session: SessionId,
    },
    /// Streams one chunk into **each** lane of an AP session:
    /// `chunks[i]` goes to lane `i`, lanes growing on demand (capped at
    /// [`MAX_LANES`] per request). A single stream is one chunk.
    ApFeedMany {
        /// The session to feed.
        session: SessionId,
        /// Per-lane input bytes.
        chunks: Vec<Vec<u8>>,
    },
    /// Ends the current stream of every lane of an AP session and
    /// collects per-lane matches.
    ApFinishMany {
        /// The session to finish.
        session: SessionId,
    },
}

impl Request {
    /// Encodes the verb into a frame body (opcode + payload).
    ///
    /// # Errors
    ///
    /// [`EncodeError`] when a field's length or index does not fit the
    /// wire format's 32-bit fields; nothing is silently truncated.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let body = match self {
            Request::Hello { tenant, token } => {
                let mut w = Writer::new(OP_HELLO);
                w.u64(*tenant);
                w.string("token", token)?;
                w.buf
            }
            Request::Submit { programs } => {
                let mut w = Writer::new(OP_SUBMIT);
                w.u32_of("program count", programs.len())?;
                for program in programs {
                    w.u32_of("instruction count", program.len())?;
                    for instruction in program {
                        encode_instruction(&mut w, instruction)?;
                    }
                }
                w.buf
            }
            Request::ApOpen { patterns } => {
                let mut w = Writer::new(OP_AP_OPEN);
                w.u32_of("pattern count", patterns.len())?;
                for pattern in patterns {
                    w.string("pattern", pattern)?;
                }
                w.buf
            }
            Request::ApClose { session } => {
                let mut w = Writer::new(OP_AP_CLOSE);
                w.u64(*session);
                w.buf
            }
            Request::Usage => Writer::new(OP_USAGE).buf,
            Request::Stats => Writer::new(OP_STATS).buf,
            Request::CorrOpen { streams, threshold } => {
                let mut w = Writer::new(OP_CORR_OPEN);
                w.u32_of("stream count", *streams)?;
                w.u64(*threshold);
                w.buf
            }
            Request::CorrFeed { session, window } => {
                let mut w = Writer::new(OP_CORR_FEED);
                w.u64(*session);
                w.u32_of("window stream count", window.len())?;
                for stream in window {
                    w.bitvec("window stream", stream)?;
                }
                w.buf
            }
            Request::CorrFinish { session } => {
                let mut w = Writer::new(OP_CORR_FINISH);
                w.u64(*session);
                w.buf
            }
            Request::ApFeedMany { session, chunks } => {
                let mut w = Writer::new(OP_AP_FEED_MANY);
                w.u64(*session);
                w.u32_of("stream count", chunks.len())?;
                for chunk in chunks {
                    w.bytes("chunk", chunk)?;
                }
                w.buf
            }
            Request::ApFinishMany { session } => {
                let mut w = Writer::new(OP_AP_FINISH_MANY);
                w.u64(*session);
                w.buf
            }
        };
        Ok(body)
    }

    /// Decodes a frame body into a request verb.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on truncation, trailing bytes, unknown opcodes or
    /// invalid field values; the body is never trusted further than the
    /// bytes it actually contains.
    pub fn decode(body: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(body);
        let request = match r.u8()? {
            OP_HELLO => Request::Hello { tenant: r.u64()?, token: r.string()? },
            OP_SUBMIT => {
                let n = r.count(4)?;
                if n == 0 {
                    return Err(FrameError::BadPayload("empty submission"));
                }
                let mut programs = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = r.count(5)?;
                    let mut program = Vec::with_capacity(len);
                    for _ in 0..len {
                        program.push(decode_instruction(&mut r)?);
                    }
                    programs.push(program);
                }
                Request::Submit { programs }
            }
            OP_AP_OPEN => {
                let n = r.count(4)?;
                if n == 0 || n > MAX_PATTERNS {
                    return Err(FrameError::BadPayload("pattern count out of range"));
                }
                let patterns = (0..n).map(|_| r.string()).collect::<Result<Vec<_>, _>>()?;
                Request::ApOpen { patterns }
            }
            OP_AP_CLOSE => Request::ApClose { session: r.u64()? },
            OP_USAGE => Request::Usage,
            OP_STATS => Request::Stats,
            OP_CORR_OPEN => Request::CorrOpen { streams: r.u32()? as usize, threshold: r.u64()? },
            OP_CORR_FEED => {
                let session = r.u64()?;
                let n = r.count(4)?;
                let window = (0..n).map(|_| r.bitvec()).collect::<Result<Vec<_>, _>>()?;
                Request::CorrFeed { session, window }
            }
            OP_CORR_FINISH => Request::CorrFinish { session: r.u64()? },
            OP_AP_FEED_MANY => {
                let session = r.u64()?;
                let n = r.count(4)?;
                if n == 0 || n > MAX_LANES {
                    return Err(FrameError::BadPayload("stream count out of range"));
                }
                let chunks = (0..n).map(|_| r.bytes()).collect::<Result<Vec<_>, _>>()?;
                Request::ApFeedMany { session, chunks }
            }
            OP_AP_FINISH_MANY => Request::ApFinishMany { session: r.u64()? },
            other => return Err(FrameError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(request)
    }
}

// --- Responses --------------------------------------------------------

/// The wire-visible result of a `Submit`: program outputs plus the
/// submission's cost summary (counts and physical totals; the full
/// [`OpLedger`] breakdown stays server-side in the tenant's bill).
///
/// [`OpLedger`]: memcim_crossbar::OpLedger
#[derive(Debug, Clone, PartialEq)]
pub struct WireMvpResult {
    /// `outputs[i]` holds the `Read` results of the `i`-th submitted
    /// program, in program order.
    pub outputs: Vec<Vec<BitVec>>,
    /// Jobs the submission ran as. Always 1 from this server: every
    /// `Submit` is one batch job. The field keeps the frame layout.
    pub jobs: u64,
    /// Programs the submission executed.
    pub programs: u64,
    /// The submission's dynamic energy, exactly what the tenant was
    /// billed for it.
    pub energy: Joules,
    /// The submission's engine busy time.
    pub busy: Seconds,
}

/// The wire-visible form of a tenant's [`TenantUsage`] bill.
///
/// [`TenantUsage`]: crate::TenantUsage
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireUsage {
    /// MVP jobs completed.
    pub mvp_jobs: u64,
    /// MVP row reads billed.
    pub mvp_reads: u64,
    /// MVP scouting operations billed.
    pub mvp_scouting_ops: u64,
    /// MVP row programs billed.
    pub mvp_programs: u64,
    /// ECC-corrected upsets observed while serving this tenant.
    pub mvp_corrected_errors: u64,
    /// MVP dynamic energy billed.
    pub mvp_energy: Joules,
    /// MVP engine time billed.
    pub mvp_busy: Seconds,
    /// AP jobs (feeds and finishes) completed.
    pub ap_jobs: u64,
    /// Input symbols streamed through the tenant's sessions.
    pub ap_symbols: u64,
    /// AP dynamic energy billed.
    pub ap_energy: Joules,
    /// AP pipeline latency billed.
    pub ap_busy: Seconds,
    /// Correlation jobs (feeds and finishes) completed.
    pub corr_jobs: u64,
    /// Event stream-slots billed through correlation session
    /// watermarks (the engine work itself lands on the MVP ledger).
    pub corr_events: u64,
    /// Jobs the tenant may still admit before its configured quota
    /// refuses with [`ErrorCode::QuotaExceeded`]; `None` when the
    /// tenant is not quota-limited.
    pub quota_remaining: Option<u64>,
    /// The tenant's rate-limit headroom; `None` when the tenant is not
    /// rate-limited.
    pub rate: Option<WireRate>,
}

/// A rate-limited tenant's token-bucket headroom, as reported by the
/// `Usage` verb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireRate {
    /// Tokens currently available (jobs admissible right now without a
    /// [`ErrorCode::RateLimited`] refusal).
    pub tokens: f64,
    /// The bucket's capacity — the largest instantaneous burst the
    /// tenant can ever spend.
    pub burst: u32,
}

/// One tenant's row in a [`WireStats`] report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantStat {
    /// The tenant.
    pub tenant: TenantId,
    /// Jobs completed across both engine kinds.
    pub jobs: u64,
    /// Total dynamic energy billed.
    pub energy: Joules,
    /// Total engine time billed.
    pub busy: Seconds,
}

/// Service-wide health and load, as exposed by the `Stats` verb.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStats {
    /// Worker threads serving the queue.
    pub workers: u64,
    /// Engines still healthy (serving MVP jobs).
    pub live_engines: u64,
    /// Engines retired after fault-fatal errors.
    pub retired_engines: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// The bounded queue's capacity.
    pub queue_capacity: u64,
    /// Open AP sessions.
    pub sessions: u64,
    /// Shards in the placement catalog (0 when unsharded).
    pub shards: u64,
    /// Replicas per shard (0 when unsharded).
    pub replicas: u64,
    /// Shards whose whole replica set is dead — sub-queries touching
    /// them fail with [`ErrorCode::ShardUnavailable`].
    pub unavailable_shards: u64,
    /// AP session opens whose hierarchical routing fell back to a
    /// dense matrix.
    pub routing_fallbacks: u64,
    /// AP session opens served from the compile cache.
    pub ap_cache_hits: u64,
    /// AP session opens that had to compile.
    pub ap_cache_misses: u64,
    /// MVP submissions whose static verification was served from the
    /// verify cache.
    pub mvp_cache_hits: u64,
    /// MVP program verifications that actually ran.
    pub mvp_cache_misses: u64,
    /// Per-tenant usage rows, sorted by tenant id.
    pub tenants: Vec<TenantStat>,
}

/// A server-to-client verb.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// `Hello` accepted; the connection is bound to its tenant.
    HelloOk,
    /// A `Submit` completed.
    Mvp(WireMvpResult),
    /// An `ApOpen` compiled; the session is ready to feed.
    ApOpened {
        /// The new session's id.
        session: SessionId,
        /// Hierarchical routing ran out of global wires and the session
        /// runs on a dense routing matrix (functionally identical,
        /// costlier per symbol).
        routing_fallback: bool,
        /// The compiled automaton came from the server's compile cache.
        cache_hit: bool,
    },
    /// An `ApClose` dropped the session.
    ApClosed,
    /// The tenant's accumulated bill.
    Usage(WireUsage),
    /// Service-wide health and load.
    Stats(WireStats),
    /// A `CorrOpen` registered; the session is ready to feed.
    CorrOpened {
        /// The new session's id.
        session: SessionId,
    },
    /// A `CorrFeed` ran; the report is cumulative for the stream so
    /// far.
    CorrFed(crate::CorrFeedReport),
    /// A `CorrFinish` ran: the thresholded correlated set with its
    /// evidence.
    CorrReport(crate::CorrOutcome),
    /// An `ApFeedMany` ran; per-lane cumulative reports, in lane order.
    ApFedMany(Vec<ApReport>),
    /// An `ApFinishMany` ran; per-lane stream results — anchored
    /// acceptance, `(end position, pattern index)` match events, symbols
    /// and stream cost — in lane order.
    ApFinishedMany(Vec<crate::ApMatches>),
    /// The request failed; `code` is machine-readable, `message` is for
    /// the operator's log.
    Error {
        /// The typed failure code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes the verb into a frame body (opcode + payload).
    ///
    /// # Errors
    ///
    /// [`EncodeError`] exactly as [`Request::encode`].
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let body = match self {
            Response::HelloOk => Writer::new(OP_HELLO_OK).buf,
            Response::Mvp(result) => {
                let mut w = Writer::new(OP_MVP_RESULT);
                w.u64(result.jobs);
                w.u64(result.programs);
                w.f64(result.energy.as_joules());
                w.f64(result.busy.as_seconds());
                w.u32_of("output count", result.outputs.len())?;
                for reads in &result.outputs {
                    w.u32_of("read count", reads.len())?;
                    for read in reads {
                        w.bitvec("read output", read)?;
                    }
                }
                w.buf
            }
            Response::ApOpened { session, routing_fallback, cache_hit } => {
                let mut w = Writer::new(OP_AP_OPENED);
                w.u64(*session);
                w.u8(u8::from(*routing_fallback));
                w.u8(u8::from(*cache_hit));
                w.buf
            }
            Response::ApClosed => Writer::new(OP_AP_CLOSED).buf,
            Response::Usage(usage) => {
                let mut w = Writer::new(OP_USAGE_REPORT);
                w.u64(usage.mvp_jobs);
                w.u64(usage.mvp_reads);
                w.u64(usage.mvp_scouting_ops);
                w.u64(usage.mvp_programs);
                w.u64(usage.mvp_corrected_errors);
                w.f64(usage.mvp_energy.as_joules());
                w.f64(usage.mvp_busy.as_seconds());
                w.u64(usage.ap_jobs);
                w.u64(usage.ap_symbols);
                w.f64(usage.ap_energy.as_joules());
                w.f64(usage.ap_busy.as_seconds());
                w.u64(usage.corr_jobs);
                w.u64(usage.corr_events);
                // `u64::MAX` is the no-quota sentinel: a real limit of
                // u64::MAX admits jobs faster than anyone can count.
                w.u64(usage.quota_remaining.unwrap_or(u64::MAX));
                match usage.rate {
                    Some(rate) => {
                        w.u8(1);
                        w.f64(rate.tokens);
                        w.u32(rate.burst);
                    }
                    None => w.u8(0),
                }
                w.buf
            }
            Response::Stats(stats) => {
                let mut w = Writer::new(OP_STATS_REPORT);
                w.u64(stats.workers);
                w.u64(stats.live_engines);
                w.u64(stats.retired_engines);
                w.u64(stats.queue_depth);
                w.u64(stats.queue_capacity);
                w.u64(stats.sessions);
                w.u64(stats.shards);
                w.u64(stats.replicas);
                w.u64(stats.unavailable_shards);
                w.u64(stats.routing_fallbacks);
                w.u64(stats.ap_cache_hits);
                w.u64(stats.ap_cache_misses);
                w.u64(stats.mvp_cache_hits);
                w.u64(stats.mvp_cache_misses);
                w.u32_of("tenant count", stats.tenants.len())?;
                for row in &stats.tenants {
                    w.u64(row.tenant);
                    w.u64(row.jobs);
                    w.f64(row.energy.as_joules());
                    w.f64(row.busy.as_seconds());
                }
                w.buf
            }
            Response::CorrOpened { session } => {
                let mut w = Writer::new(OP_CORR_OPENED);
                w.u64(*session);
                w.buf
            }
            Response::CorrFed(report) => {
                let mut w = Writer::new(OP_CORR_FEED_OK);
                w.u64(report.events);
                w.f64(report.energy.as_joules());
                w.f64(report.busy.as_seconds());
                w.buf
            }
            Response::CorrReport(outcome) => {
                let mut w = Writer::new(OP_CORR_REPORT);
                w.bitvec("correlated set", &outcome.correlated)?;
                w.u32_of("score count", outcome.scores.len())?;
                for &score in &outcome.scores {
                    w.u64(score);
                }
                w.u64(outcome.events);
                w.u64(outcome.threshold);
                w.buf
            }
            Response::ApFedMany(reports) => {
                let mut w = Writer::new(OP_AP_FED_MANY);
                w.u32_of("lane count", reports.len())?;
                for report in reports {
                    encode_ap_report(&mut w, report);
                }
                w.buf
            }
            Response::ApFinishedMany(runs) => {
                let mut w = Writer::new(OP_AP_MATCHES_MANY);
                w.u32_of("lane count", runs.len())?;
                for run in runs {
                    encode_ap_matches(&mut w, run)?;
                }
                w.buf
            }
            Response::Error { code, message } => {
                let mut w = Writer::new(OP_ERROR);
                w.u16(code.as_u16());
                w.string("error message", message)?;
                w.buf
            }
        };
        Ok(body)
    }

    /// Decodes a frame body into a response verb.
    ///
    /// # Errors
    ///
    /// [`FrameError`] exactly as [`Request::decode`].
    pub fn decode(body: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(body);
        let response = match r.u8()? {
            OP_HELLO_OK => Response::HelloOk,
            OP_MVP_RESULT => {
                let jobs = r.u64()?;
                let programs = r.u64()?;
                let energy = Joules::new(r.f64()?);
                let busy = Seconds::new(r.f64()?);
                let n = r.count(4)?;
                let mut outputs = Vec::with_capacity(n);
                for _ in 0..n {
                    let reads = r.count(4)?;
                    let mut program = Vec::with_capacity(reads);
                    for _ in 0..reads {
                        program.push(r.bitvec()?);
                    }
                    outputs.push(program);
                }
                Response::Mvp(WireMvpResult { outputs, jobs, programs, energy, busy })
            }
            OP_AP_OPENED => Response::ApOpened {
                session: r.u64()?,
                routing_fallback: r.bool()?,
                cache_hit: r.bool()?,
            },
            OP_AP_CLOSED => Response::ApClosed,
            OP_USAGE_REPORT => {
                let mut usage = WireUsage {
                    mvp_jobs: r.u64()?,
                    mvp_reads: r.u64()?,
                    mvp_scouting_ops: r.u64()?,
                    mvp_programs: r.u64()?,
                    mvp_corrected_errors: r.u64()?,
                    mvp_energy: Joules::new(r.f64()?),
                    mvp_busy: Seconds::new(r.f64()?),
                    ap_jobs: r.u64()?,
                    ap_symbols: r.u64()?,
                    ap_energy: Joules::new(r.f64()?),
                    ap_busy: Seconds::new(r.f64()?),
                    corr_jobs: r.u64()?,
                    corr_events: r.u64()?,
                    quota_remaining: None,
                    rate: None,
                };
                usage.quota_remaining = match r.u64()? {
                    u64::MAX => None,
                    limit => Some(limit),
                };
                usage.rate = match r.u8()? {
                    0 => None,
                    1 => Some(WireRate { tokens: r.f64()?, burst: r.u32()? }),
                    _ => return Err(FrameError::BadPayload("boolean out of range")),
                };
                Response::Usage(usage)
            }
            OP_STATS_REPORT => {
                let workers = r.u64()?;
                let live_engines = r.u64()?;
                let retired_engines = r.u64()?;
                let queue_depth = r.u64()?;
                let queue_capacity = r.u64()?;
                let sessions = r.u64()?;
                let shards = r.u64()?;
                let replicas = r.u64()?;
                let unavailable_shards = r.u64()?;
                let routing_fallbacks = r.u64()?;
                let ap_cache_hits = r.u64()?;
                let ap_cache_misses = r.u64()?;
                let mvp_cache_hits = r.u64()?;
                let mvp_cache_misses = r.u64()?;
                let n = r.count(32)?;
                let tenants = (0..n)
                    .map(|_| {
                        Ok(TenantStat {
                            tenant: r.u64()?,
                            jobs: r.u64()?,
                            energy: Joules::new(r.f64()?),
                            busy: Seconds::new(r.f64()?),
                        })
                    })
                    .collect::<Result<Vec<_>, FrameError>>()?;
                Response::Stats(WireStats {
                    workers,
                    live_engines,
                    retired_engines,
                    queue_depth,
                    queue_capacity,
                    sessions,
                    shards,
                    replicas,
                    unavailable_shards,
                    routing_fallbacks,
                    ap_cache_hits,
                    ap_cache_misses,
                    mvp_cache_hits,
                    mvp_cache_misses,
                    tenants,
                })
            }
            OP_CORR_OPENED => Response::CorrOpened { session: r.u64()? },
            OP_CORR_FEED_OK => Response::CorrFed(crate::CorrFeedReport {
                events: r.u64()?,
                energy: Joules::new(r.f64()?),
                busy: Seconds::new(r.f64()?),
            }),
            OP_CORR_REPORT => {
                let correlated = r.bitvec()?;
                let n = r.count(8)?;
                let scores = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
                let events = r.u64()?;
                let threshold = r.u64()?;
                Response::CorrReport(crate::CorrOutcome { correlated, scores, events, threshold })
            }
            OP_AP_FED_MANY => {
                let n = r.count(24)?;
                let reports =
                    (0..n).map(|_| decode_ap_report(&mut r)).collect::<Result<Vec<_>, _>>()?;
                Response::ApFedMany(reports)
            }
            OP_AP_MATCHES_MANY => {
                let n = r.count(33)?;
                let runs =
                    (0..n).map(|_| decode_ap_matches(&mut r)).collect::<Result<Vec<_>, _>>()?;
                Response::ApFinishedMany(runs)
            }
            OP_ERROR => {
                Response::Error { code: ErrorCode::from_u16(r.u16()?), message: r.string()? }
            }
            other => return Err(FrameError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(response)
    }
}

// --- Frame I/O --------------------------------------------------------

/// Why reading a frame off a stream failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameReadError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The stream ended mid-frame (header or body).
    Truncated,
    /// The declared body length exceeds `max` — the body was **not**
    /// read; the caller should answer [`ErrorCode::FrameTooLarge`] and
    /// drop the connection (the stream can no longer be framed).
    TooLarge {
        /// The declared body length.
        declared: usize,
        /// The configured maximum.
        max: usize,
    },
    /// The underlying socket failed.
    Io(std::io::Error),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Closed => write!(f, "connection closed"),
            FrameReadError::Truncated => write!(f, "stream ended mid-frame"),
            FrameReadError::TooLarge { declared, max } => {
                write!(f, "declared frame body of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameReadError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// The most [`read_frame`] allocates ahead of the bytes that arrived,
/// and the largest buffer it offers one `read`.
const READ_CHUNK: usize = 64 * 1024;

/// Reads one length-prefixed frame body (opcode + payload) off `stream`,
/// refusing bodies larger than `max` without reading them. The body is
/// read incrementally, so the allocation tracks the bytes received,
/// not the declared length.
///
/// # Errors
///
/// [`FrameReadError`] — see each variant.
pub fn read_frame(stream: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameReadError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameReadError::Closed),
            Ok(0) => return Err(FrameReadError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let declared = u32::from_be_bytes(header) as usize;
    if declared == 0 {
        // A bodyless frame has no opcode; report it as a truncation so
        // the server answers BadFrame.
        return Err(FrameReadError::Truncated);
    }
    if declared > max {
        return Err(FrameReadError::TooLarge { declared, max });
    }
    // The body grows only as bytes arrive: each step at most doubles
    // what arrived (one chunk at first), never past `declared`, so a
    // peer that declares a large body and stalls pins no more than
    // twice what it sent. No read is offered more than one chunk.
    let mut body = Vec::new();
    let mut filled = 0;
    while filled < declared {
        if filled == body.len() {
            let len = (2 * filled).max(READ_CHUNK).min(declared);
            body.reserve_exact(len - filled);
            body.resize(len, 0);
        }
        let end = body.len().min(filled + READ_CHUNK);
        match stream.read(&mut body[filled..end]) {
            Ok(0) => return Err(FrameReadError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(body)
}

/// Writes one frame: the 4-byte big-endian length of `body`, then
/// `body` itself, assembled first and handed to `stream` in one write,
/// so a `TCP_NODELAY` socket sends one segment instead of a lone
/// header.
///
/// # Errors
///
/// Propagates the socket error. A body whose length does not fit the
/// `u32` prefix is an `InvalidInput` error (carrying an [`EncodeError`]
/// as its source) with nothing written — truncating the prefix would
/// desynchronize the stream for good.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            EncodeError { field: "frame body", value: body.len() },
        )
    })?;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: Request) {
        let body = request.encode().expect("encodes");
        assert_eq!(Request::decode(&body).expect("decodes"), request);
    }

    fn roundtrip_response(response: Response) {
        let body = response.encode().expect("encodes");
        assert_eq!(Response::decode(&body).expect("decodes"), response);
    }

    #[test]
    fn every_request_verb_round_trips() {
        roundtrip_request(Request::Hello { tenant: 7, token: "secret-π".into() });
        roundtrip_request(Request::Submit {
            programs: vec![
                vec![
                    Instruction::Store { row: 0, data: BitVec::from_indices(130, &[0, 64, 129]) },
                    Instruction::Or { srcs: vec![0, 1], dst: 2 },
                    Instruction::And { srcs: vec![2, 0, 1], dst: 3 },
                    Instruction::Xor { a: 3, b: 0, dst: 4 },
                    Instruction::Read { row: 4 },
                ],
                vec![Instruction::Read { row: 0 }],
            ],
        });
        roundtrip_request(Request::ApOpen { patterns: vec!["ab+c".into(), "x[yz]".into()] });
        roundtrip_request(Request::ApClose { session: 9 });
        roundtrip_request(Request::Usage);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::CorrOpen { streams: 24, threshold: 1556 });
        roundtrip_request(Request::CorrFeed {
            session: 4,
            window: vec![BitVec::from_indices(130, &[0, 64, 129]), BitVec::new(130)],
        });
        roundtrip_request(Request::CorrFinish { session: 4 });
        roundtrip_request(Request::ApFeedMany {
            session: 9,
            chunks: vec![b"GET /a".to_vec(), Vec::new(), b"POST /b".to_vec()],
        });
        roundtrip_request(Request::ApFinishMany { session: 9 });
    }

    #[test]
    fn every_response_verb_round_trips() {
        roundtrip_response(Response::HelloOk);
        roundtrip_response(Response::Mvp(WireMvpResult {
            outputs: vec![vec![BitVec::from_indices(65, &[64]), BitVec::new(3)], vec![]],
            jobs: 2,
            programs: 3,
            energy: Joules::from_femtojoules(12.5),
            busy: Seconds::from_nanoseconds(7.25),
        }));
        roundtrip_response(Response::ApOpened {
            session: 3,
            routing_fallback: false,
            cache_hit: false,
        });
        roundtrip_response(Response::ApOpened {
            session: 4,
            routing_fallback: true,
            cache_hit: true,
        });
        roundtrip_response(Response::ApClosed);
        roundtrip_response(Response::Usage(WireUsage {
            mvp_jobs: 1,
            mvp_reads: 2,
            mvp_scouting_ops: 3,
            mvp_programs: 4,
            mvp_corrected_errors: 5,
            mvp_energy: Joules::from_femtojoules(6.0),
            mvp_busy: Seconds::from_nanoseconds(7.0),
            ap_jobs: 8,
            ap_symbols: 9,
            ap_energy: Joules::from_femtojoules(10.0),
            ap_busy: Seconds::from_nanoseconds(11.0),
            corr_jobs: 12,
            corr_events: 3072,
            quota_remaining: Some(12),
            rate: Some(WireRate { tokens: 2.5, burst: 8 }),
        }));
        roundtrip_response(Response::Usage(WireUsage {
            mvp_jobs: 0,
            mvp_reads: 0,
            mvp_scouting_ops: 0,
            mvp_programs: 0,
            mvp_corrected_errors: 0,
            mvp_energy: Joules::from_femtojoules(0.0),
            mvp_busy: Seconds::from_nanoseconds(0.0),
            ap_jobs: 0,
            ap_symbols: 0,
            ap_energy: Joules::from_femtojoules(0.0),
            ap_busy: Seconds::from_nanoseconds(0.0),
            corr_jobs: 0,
            corr_events: 0,
            quota_remaining: None,
            rate: None,
        }));
        roundtrip_response(Response::Stats(WireStats {
            workers: 4,
            live_engines: 3,
            retired_engines: 1,
            queue_depth: 2,
            queue_capacity: 64,
            sessions: 5,
            shards: 8,
            replicas: 2,
            unavailable_shards: 1,
            routing_fallbacks: 2,
            ap_cache_hits: 13,
            ap_cache_misses: 4,
            mvp_cache_hits: 21,
            mvp_cache_misses: 9,
            tenants: vec![TenantStat {
                tenant: 7,
                jobs: 12,
                energy: Joules::from_femtojoules(1.0),
                busy: Seconds::from_nanoseconds(2.0),
            }],
        }));
        roundtrip_response(Response::CorrOpened { session: 11 });
        roundtrip_response(Response::CorrFed(crate::CorrFeedReport {
            events: 3072,
            energy: Joules::from_femtojoules(8.5),
            busy: Seconds::from_nanoseconds(3.25),
        }));
        roundtrip_response(Response::CorrReport(crate::CorrOutcome {
            correlated: BitVec::from_indices(24, &[2, 7, 11]),
            scores: vec![700, 701, 1654, 699],
            events: 18432,
            threshold: 1556,
        }));
        roundtrip_response(Response::ApFedMany(vec![
            ApReport {
                cycles: 11,
                latency: Seconds::from_nanoseconds(2.0),
                energy: Joules::from_femtojoules(4.0),
            },
            ApReport {
                cycles: 0,
                latency: Seconds::from_nanoseconds(0.0),
                energy: Joules::from_femtojoules(0.0),
            },
        ]));
        roundtrip_response(Response::ApFinishedMany(vec![
            crate::ApMatches {
                accepted: true,
                matches: vec![(5, 0), (9, 1)],
                symbols: 15,
                report: ApReport {
                    cycles: 15,
                    latency: Seconds::from_nanoseconds(3.0),
                    energy: Joules::from_femtojoules(6.0),
                },
            },
            crate::ApMatches {
                accepted: false,
                matches: vec![],
                symbols: 2,
                report: ApReport {
                    cycles: 2,
                    latency: Seconds::from_nanoseconds(0.5),
                    energy: Joules::from_femtojoules(1.0),
                },
            },
        ]));
        roundtrip_response(Response::Error {
            code: ErrorCode::RateLimited,
            message: "slow down".into(),
        });
    }

    #[test]
    fn forged_counts_are_refused_before_allocation() {
        // An ApOpen claiming 4 billion patterns in a 16-byte frame.
        let mut body = vec![OP_AP_OPEN];
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        body.extend_from_slice(&[0; 8]);
        assert_eq!(
            Request::decode(&body),
            Err(FrameError::BadPayload("element count exceeds frame"))
        );
        // An ApFeedMany claiming more lanes than the stream cap.
        let mut body = vec![OP_AP_FEED_MANY];
        body.extend_from_slice(&9u64.to_be_bytes());
        body.extend_from_slice(&(MAX_LANES as u32 + 1).to_be_bytes());
        body.extend_from_slice(&[0; 4 * (MAX_LANES + 1)]);
        assert_eq!(
            Request::decode(&body),
            Err(FrameError::BadPayload("stream count out of range"))
        );
        // A bit vector claiming 2^31 bits in a tiny frame.
        let mut body = vec![OP_SUBMIT];
        body.extend_from_slice(&1u32.to_be_bytes()); // one program
        body.extend_from_slice(&1u32.to_be_bytes()); // one instruction
        body.push(0); // Store
        body.extend_from_slice(&0u32.to_be_bytes()); // row 0
        body.extend_from_slice(&(1u32 << 31).to_be_bytes()); // absurd bit length
        assert!(matches!(Request::decode(&body), Err(FrameError::BadPayload(_))));
    }

    #[test]
    fn oversized_fields_are_typed_encode_errors_not_truncations() {
        // A row index beyond u32: the old `as u32` cast would have
        // framed row 3 instead; the checked encoder refuses.
        let request =
            Request::Submit { programs: vec![vec![Instruction::Read { row: (1 << 32) + 3 }]] };
        let err = request.encode().expect_err("does not fit the wire format");
        assert_eq!(err, EncodeError { field: "read row", value: (1 << 32) + 3 });
        assert!(err.to_string().contains("read row"), "{err}");

        // The same guard at the writer level, for length prefixes.
        let mut w = Writer::new(OP_SUBMIT);
        assert_eq!(
            w.u32_of("program count", usize::MAX),
            Err(EncodeError { field: "program count", value: usize::MAX })
        );
        // In-range values still encode untouched.
        let mut w = Writer::new(OP_SUBMIT);
        w.u32_of("program count", 7).expect("fits");
        assert_eq!(w.buf, vec![OP_SUBMIT, 0, 0, 0, 7]);
    }

    #[test]
    fn trailing_and_truncated_bodies_are_typed_errors() {
        let mut body = Request::Usage.encode().expect("encodes");
        body.push(0xAB);
        assert_eq!(Request::decode(&body), Err(FrameError::Trailing { extra: 1 }));
        let body = Request::Hello { tenant: 1, token: "t".into() }.encode().expect("encodes");
        // Cut mid-u64: a plain truncation.
        assert_eq!(Request::decode(&body[..5]), Err(FrameError::Truncated));
        // Cut the token's last byte: the count guard catches it.
        assert_eq!(
            Request::decode(&body[..body.len() - 1]),
            Err(FrameError::BadPayload("element count exceeds frame"))
        );
        assert_eq!(Request::decode(&[0x7F]), Err(FrameError::UnknownOpcode(0x7F)));
        assert_eq!(FrameError::UnknownOpcode(0x7F).error_code(), ErrorCode::UnknownOpcode);
        // The retired single-lane feed/finish opcodes stay reserved.
        for op in [0x04, 0x05] {
            assert_eq!(Request::decode(&[op, 0, 0, 0, 0]), Err(FrameError::UnknownOpcode(op)));
        }
        for op in [0x84, 0x85] {
            assert_eq!(Response::decode(&[op]), Err(FrameError::UnknownOpcode(op)));
        }
        assert_eq!(FrameError::Truncated.error_code(), ErrorCode::BadFrame);
    }

    #[test]
    fn error_codes_survive_the_wire_and_unknowns_collapse_to_internal() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::FrameTooLarge,
            ErrorCode::UnknownOpcode,
            ErrorCode::Unauthenticated,
            ErrorCode::BadCredentials,
            ErrorCode::AlreadyAuthenticated,
            ErrorCode::QuotaExceeded,
            ErrorCode::RateLimited,
            ErrorCode::OverCapacity,
            ErrorCode::ShuttingDown,
            ErrorCode::UnknownSession,
            ErrorCode::SessionBusy,
            ErrorCode::Compile,
            ErrorCode::Engine,
            ErrorCode::NoHealthyEngine,
            ErrorCode::ShardUnavailable,
            ErrorCode::InvalidProgram,
            ErrorCode::WrongSessionKind,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), code);
        }
        assert_eq!(ErrorCode::from_u16(0xBEEF), ErrorCode::Internal);
    }

    #[test]
    fn frame_io_round_trips_and_caps_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).expect("writes");
        let mut cursor = std::io::Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut cursor, 16).expect("reads"), vec![1, 2, 3]);
        // Same bytes under a smaller cap: refused without reading.
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, 2),
            Err(FrameReadError::TooLarge { declared: 3, max: 2 })
        ));
        // Clean close vs mid-frame cut.
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty, 16), Err(FrameReadError::Closed)));
        let mut cut = std::io::Cursor::new(vec![0, 0, 0, 9, 1, 2]);
        assert!(matches!(read_frame(&mut cut, 16), Err(FrameReadError::Truncated)));
        let mut zero = std::io::Cursor::new(vec![0, 0, 0, 0]);
        assert!(matches!(read_frame(&mut zero, 16), Err(FrameReadError::Truncated)));
    }

    /// A peer that hands out `bytes` in reads of at most `step` bytes,
    /// then closes, recording the largest buffer it is offered.
    struct TricklingPeer {
        bytes: Vec<u8>,
        at: usize,
        step: usize,
        largest_offer: usize,
    }

    impl TricklingPeer {
        fn new(bytes: Vec<u8>, step: usize) -> Self {
            Self { bytes, at: 0, step, largest_offer: 0 }
        }
    }

    impl Read for TricklingPeer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_offer = self.largest_offer.max(buf.len());
            let n = buf.len().min(self.step).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_bodies_are_read_incrementally() {
        const MIB: usize = 1 << 20;
        // Declaring 1 MiB and sending 10 bytes must not make the reader
        // allocate (or offer a read) the whole declared body.
        let mut stalled = (MIB as u32).to_be_bytes().to_vec();
        stalled.extend_from_slice(&[7; 10]);
        let mut peer = TricklingPeer::new(stalled, usize::MAX);
        assert!(matches!(read_frame(&mut peer, 4 * MIB), Err(FrameReadError::Truncated)));
        assert!(peer.largest_offer <= READ_CHUNK, "offered {} bytes", peer.largest_offer);
        // A body spanning several chunks, trickled in odd-sized reads,
        // still arrives intact.
        let body: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).expect("writes");
        let mut peer = TricklingPeer::new(framed, 4099);
        assert_eq!(read_frame(&mut peer, MIB).expect("reads"), body);
        assert!(peer.largest_offer <= READ_CHUNK, "offered {} bytes", peer.largest_offer);
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut sink = CountingWriter::default();
        let bodies = [Request::Stats.encode().expect("encodes"), vec![7; 300]];
        for (i, body) in bodies.iter().enumerate() {
            write_frame(&mut sink, body).expect("writes");
            assert_eq!(sink.writes, i + 1, "header and body leave in one write");
        }
        let mut cursor = std::io::Cursor::new(sink.bytes);
        for body in &bodies {
            assert_eq!(&read_frame(&mut cursor, 1024).expect("reads"), body);
        }
        assert!(matches!(read_frame(&mut cursor, 1024), Err(FrameReadError::Closed)));
    }
}
