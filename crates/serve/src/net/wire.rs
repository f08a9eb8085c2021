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
//! fields is a typed [`EncodeError`], never a silent truncation. A gate
//! destination of `u32::MAX` marks a sensed gate (`dst: None`).
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

use crate::{ApMatches, CorrFeedReport, CorrOutcome, ServeError, SessionId, TenantId, MAX_LANES};
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

/// Declares [`ErrorCode`] from one list: each variant next to its wire
/// number, so `as_u16` and `from_u16` cannot disagree.
macro_rules! error_codes {
    ($($(#[$doc:meta])* $code:ident = $n:literal,)*) => {
        /// Typed failure codes carried by [`Response::Error`] frames.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[non_exhaustive]
        #[repr(u16)]
        pub enum ErrorCode {
            $($(#[$doc])* $code = $n,)*
        }

        impl ErrorCode {
            const ALL: &[ErrorCode] = &[$(ErrorCode::$code),*];
        }
    };
}

error_codes! {
    /// The frame body could not be decoded (truncated payload, trailing
    /// garbage, invalid UTF-8, nonsense counts).
    BadFrame = 1,
    /// The declared body length exceeds the server's maximum.
    FrameTooLarge = 2,
    /// The opcode is not a known request verb.
    UnknownOpcode = 3,
    /// A request other than `Hello` arrived before authentication.
    Unauthenticated = 10,
    /// `Hello` named an unknown tenant or presented a wrong token.
    BadCredentials = 11,
    /// The connection sent a second `Hello`.
    AlreadyAuthenticated = 12,
    /// Admission control: the tenant's job quota is spent.
    QuotaExceeded = 20,
    /// Admission control: the tenant's token bucket is empty.
    RateLimited = 21,
    /// The bounded queue is at capacity; the submission was refused
    /// *before* it could block the connection (back off and retry).
    OverCapacity = 22,
    /// The service is shutting down.
    ShuttingDown = 30,
    /// A streaming verb referenced a session this tenant does not hold.
    UnknownSession = 31,
    /// The session is busy on another in-flight job.
    SessionBusy = 32,
    /// The session exists but holds a different streaming workload's
    /// state (e.g. an `ApFeedMany` aimed at a correlation session).
    WrongSessionKind = 38,
    /// Pattern compilation failed in `ApOpen`.
    Compile = 33,
    /// The job reached an engine and failed there.
    Engine = 34,
    /// Every engine has been retired; MVP jobs cannot be placed.
    NoHealthyEngine = 35,
    /// Every replica of one shard is dead; sub-queries touching its
    /// records cannot fail over anywhere (other shards keep serving).
    ShardUnavailable = 36,
    /// Static verification refused a submitted program *before*
    /// admission: the engine would provably reject it at runtime. The
    /// message carries the diagnostic (stable code, instruction index);
    /// nothing was billed and nothing was queued.
    InvalidProgram = 37,
    /// An internal server failure (never the client's fault).
    Internal = 99,
}

impl ErrorCode {
    /// The code's wire representation.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire code; unknown values collapse to
    /// [`ErrorCode::Internal`] so old clients survive new servers.
    pub fn from_u16(raw: u16) -> Self {
        Self::ALL.iter().copied().find(|code| code.as_u16() == raw).unwrap_or(ErrorCode::Internal)
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
/// does not fit (a gate destination must also stay below `u32::MAX`,
/// the sensed-gate sentinel). Refusing with a typed error beats the
/// silent `as u32` truncation it replaces, which would have framed a
/// *different* payload than the caller asked for.
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
            "cannot encode frame: {} of {} does not fit the wire format's 32-bit fields",
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` element count and proves the frame can actually
    /// hold `count` elements of at least `min_bytes` each *before* the
    /// caller allocates — the defense against forged counts.
    fn count(&mut self, min_bytes: usize) -> Result<usize, FrameError> {
        let count = u32::get(self)? as usize;
        if count.checked_mul(min_bytes.max(1)).is_none_or(|need| need > self.remaining()) {
            return Err(FrameError::BadPayload("element count exceeds frame"));
        }
        Ok(count)
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
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `usize` into one of the protocol's `u32` fields
    /// (a length prefix, an element count, a row index), checked: a
    /// value that does not fit is a typed [`EncodeError`], not a
    /// truncated frame.
    fn u32_of(&mut self, field: &'static str, value: usize) -> Result<(), EncodeError> {
        let v = u32::try_from(value).map_err(|_| EncodeError { field, value })?;
        self.buf.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    fn bytes(&mut self, field: &'static str, v: &[u8]) -> Result<(), EncodeError> {
        self.u32_of(field, v.len())?;
        self.buf.extend_from_slice(v);
        Ok(())
    }
}

// --- The codec --------------------------------------------------------
//
// Each field type's encoding is written once, as one `Wire` impl that
// serves both directions. Payload structs (`wire_struct!`) and enums
// (`wire_enum!`: the verbs and `Instruction`) are lists of fields in
// wire order, and both `put` and `get` are generated from that list.

/// A field type's one wire encoding.
trait Wire: Sized {
    /// The fewest bytes one value encodes to: the per-element floor a
    /// decoded count is checked against before anything is allocated.
    const MIN: usize;

    /// Appends the value; `field` names it in an [`EncodeError`].
    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError>;

    /// Reads one value.
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError>;
}

/// Fixed-width big-endian integers.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN: usize = core::mem::size_of::<$t>();

            fn put(&self, w: &mut Writer, _: &'static str) -> Result<(), EncodeError> {
                w.buf.extend_from_slice(&self.to_be_bytes());
                Ok(())
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok(<$t>::from_be_bytes(r.array()?))
            }
        }
    )*};
}

wire_int!(u16, u32, u64);

/// Types that travel as another wire type, converted losslessly each way.
macro_rules! wire_via {
    ($($t:ty => $via:ty: $to:expr, $from:expr;)*) => {$(
        impl Wire for $t {
            const MIN: usize = <$via as Wire>::MIN;

            fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
                ($to)(*self).put(w, field)
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok(($from)(<$via>::get(r)?))
            }
        }
    )*};
}

// `f64` travels as its IEEE-754 bit pattern, so costs (base-SI values)
// round-trip bit-exactly.
wire_via! {
    f64 => u64: f64::to_bits, f64::from_bits;
    Joules => f64: Joules::as_joules, Joules::new;
    Seconds => f64: Seconds::as_seconds, Seconds::new;
    ErrorCode => u16: ErrorCode::as_u16, ErrorCode::from_u16;
}

/// A length, count or row index: a `u32` field, checked on encode.
impl Wire for usize {
    const MIN: usize = 4;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        w.u32_of(field, *self)
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(u32::get(r)? as usize)
    }
}

/// One byte, `0` or `1`.
impl Wire for bool {
    const MIN: usize = 1;

    fn put(&self, w: &mut Writer, _: &'static str) -> Result<(), EncodeError> {
        w.u8(u8::from(*self));
        Ok(())
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::BadPayload("boolean out of range")),
        }
    }
}

/// A `u32` length, then the bytes, copied in bulk.
impl Wire for Vec<u8> {
    const MIN: usize = 4;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        w.bytes(field, self)
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let len = r.count(1)?;
        Ok(r.take(len)?.to_vec())
    }
}

/// UTF-8 bytes, framed as a `Vec<u8>`.
impl Wire for String {
    const MIN: usize = 4;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        w.bytes(field, self.as_bytes())
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        String::from_utf8(Vec::<u8>::get(r)?).map_err(|_| FrameError::BadPayload("invalid UTF-8"))
    }
}

/// A `u32` bit length, then the `u64` words. Decoding proves the frame
/// holds every word before allocating, and refuses set bits past the
/// length.
impl Wire for BitVec {
    const MIN: usize = 4;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        w.u32_of(field, self.len())?;
        self.as_words().iter().try_for_each(|word| word.put(w, field))
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let bits = u32::get(r)? as usize;
        let words = bits.div_ceil(64);
        if words.checked_mul(8).is_none_or(|need| need > r.remaining()) {
            return Err(FrameError::BadPayload("bit vector exceeds frame"));
        }
        let mut out = BitVec::new(bits);
        for w in 0..words {
            let mut word = u64::get(r)?;
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
}

/// A `u32` count, then the elements. The count is proven to fit the
/// frame at `T::MIN` bytes per element before anything is allocated.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        w.u32_of(field, self.len())?;
        self.iter().try_for_each(|item| item.put(w, field))
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let n = r.count(T::MIN)?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

/// An `(end position, pattern index)` match event: two `u64`s.
impl Wire for (usize, usize) {
    const MIN: usize = 16;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        (self.0 as u64).put(w, field)?;
        (self.1 as u64).put(w, field)
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok((u64::get(r)? as usize, u64::get(r)? as usize))
    }
}

/// A remaining quota: `u64::MAX` is the no-quota sentinel (a real limit
/// of `u64::MAX` admits jobs faster than anyone can count).
impl Wire for Option<u64> {
    const MIN: usize = 8;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        self.unwrap_or(u64::MAX).put(w, field)
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Some(u64::get(r)?).filter(|&limit| limit != u64::MAX))
    }
}

/// A gate destination row: `u32::MAX` is the sensed-gate (`None`)
/// sentinel, so every written-back gate keeps its one `u32` row field.
/// `Some(u32::MAX)` would read back as `None`, so it is refused.
impl Wire for Option<usize> {
    const MIN: usize = 4;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        match *self {
            Some(row) if row == u32::MAX as usize => Err(EncodeError { field, value: row }),
            Some(row) => row.put(w, field),
            None => u32::MAX.put(w, field),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Some(u32::get(r)?).filter(|&row| row != u32::MAX).map(|row| row as usize))
    }
}

/// Rate headroom: a presence byte, then the [`WireRate`] when present.
impl Wire for Option<WireRate> {
    const MIN: usize = 1;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        self.is_some().put(w, field)?;
        self.as_ref().map_or(Ok(()), |rate| rate.put(w, field))
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        if bool::get(r)? {
            WireRate::get(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// One field list per payload struct, in wire order: `MIN` is the sum
/// of the fields' `MIN`s, and `put` and `get` walk the same list.
macro_rules! wire_struct {
    ($($ty:ident { $($f:ident: $t:ty),* $(,)? })*) => {$(
        impl Wire for $ty {
            const MIN: usize = 0 $(+ <$t as Wire>::MIN)*;

            fn put(&self, w: &mut Writer, _: &'static str) -> Result<(), EncodeError> {
                $(self.$f.put(w, stringify!($f))?;)*
                Ok(())
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok(Self { $($f: <$t as Wire>::get(r)?),* })
            }
        }
    )*};
}

/// The name an [`EncodeError`] gives a field: its own name unless the
/// table supplies one.
macro_rules! field_name {
    ($f:ident) => {
        stringify!($f)
    };
    ($f:ident, $name:literal) => {
        $name
    };
}

/// One tag table per enum: each line maps a tag byte to a variant and
/// its fields in wire order, and `put` and `get` walk the same table.
/// An unknown tag decodes to the `unknown` error.
macro_rules! wire_enum {
    (
        $ty:ident, min $min:expr, unknown $unknown:expr;
        $($tag:tt => $variant:ident
            $({ $($f:ident $(: $name:literal)?),* })? $(($inner:ident))?,)*
    ) => {
        impl Wire for $ty {
            const MIN: usize = $min;

            fn put(&self, w: &mut Writer, _: &'static str) -> Result<(), EncodeError> {
                match self {
                    $($ty::$variant $({ $($f),* })? $(($inner))? => {
                        w.u8($tag);
                        $($($f.put(w, field_name!($f $(, $name)?))?;)*)?
                        $($inner.put(w, stringify!($inner))?;)?
                    })*
                }
                Ok(())
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok(match r.u8()? {
                    $($tag => {
                        $(let $inner = Wire::get(r)?;)?
                        $ty::$variant $({ $($f: Wire::get(r)?),* })? $(($inner))?
                    })*
                    other => return Err(($unknown)(other)),
                })
            }
        }
    };
}

// `MIN` is the tag and one row: a `Read`.
wire_enum! { Instruction, min 5, unknown |_| FrameError::BadPayload("unknown instruction tag");
    0 => Store { row: "store row", data: "store data" },
    1 => Or { srcs: "OR source row", dst: "OR destination row" },
    2 => And { srcs: "AND source row", dst: "AND destination row" },
    3 => Xor { a: "XOR operand row", b: "XOR operand row", dst: "XOR destination row" },
    4 => Read { row: "read row" },
}

/// Encodes a verb into a frame body: its opcode, then its fields.
fn encode_body(verb: &impl Wire) -> Result<Vec<u8>, EncodeError> {
    let mut w = Writer { buf: Vec::new() };
    verb.put(&mut w, "opcode")?;
    Ok(w.buf)
}

/// Decodes a frame body into a verb, runs `check` on it, then refuses
/// trailing bytes: a decode is exact.
fn decode_body<T: Wire>(
    body: &[u8],
    check: impl FnOnce(&T) -> Result<(), FrameError>,
) -> Result<T, FrameError> {
    let mut r = Reader::new(body);
    let verb = T::get(&mut r)?;
    check(&verb)?;
    r.finish()?;
    Ok(verb)
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

wire_enum! { Request, min 1, unknown FrameError::UnknownOpcode;
    OP_HELLO => Hello { tenant, token },
    OP_SUBMIT => Submit { programs },
    OP_AP_OPEN => ApOpen { patterns },
    OP_AP_CLOSE => ApClose { session },
    OP_USAGE => Usage,
    OP_STATS => Stats,
    OP_CORR_OPEN => CorrOpen { streams, threshold },
    OP_CORR_FEED => CorrFeed { session, window },
    OP_CORR_FINISH => CorrFinish { session },
    OP_AP_FEED_MANY => ApFeedMany { session, chunks },
    OP_AP_FINISH_MANY => ApFinishMany { session },
}

impl Request {
    /// Encodes the verb into a frame body (opcode + payload).
    ///
    /// # Errors
    ///
    /// [`EncodeError`] when a field's length or index does not fit the
    /// wire format's 32-bit fields; nothing is silently truncated.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        encode_body(self)
    }

    /// Decodes a frame body into a request verb.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on truncation, trailing bytes, unknown opcodes or
    /// invalid field values; the body is never trusted further than the
    /// bytes it actually contains.
    pub fn decode(body: &[u8]) -> Result<Self, FrameError> {
        // The count rules run before the trailing-bytes check, so an
        // out-of-range count is refused as such whatever follows it.
        decode_body(body, |request| {
            let refusal = match request {
                Request::Submit { programs } if programs.is_empty() => "empty submission",
                Request::ApOpen { patterns } if !(1..=MAX_PATTERNS).contains(&patterns.len()) => {
                    "pattern count out of range"
                }
                Request::ApFeedMany { chunks, .. } if !(1..=MAX_LANES).contains(&chunks.len()) => {
                    "stream count out of range"
                }
                _ => return Ok(()),
            };
            Err(FrameError::BadPayload(refusal))
        })
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
    CorrFed(CorrFeedReport),
    /// A `CorrFinish` ran: the thresholded correlated set with its
    /// evidence.
    CorrReport(CorrOutcome),
    /// An `ApFeedMany` ran; per-lane cumulative reports, in lane order.
    ApFedMany(Vec<ApReport>),
    /// An `ApFinishMany` ran; per-lane stream results — anchored
    /// acceptance, `(end position, pattern index)` match events, symbols
    /// and stream cost — in lane order.
    ApFinishedMany(Vec<ApMatches>),
    /// The request failed; `code` is machine-readable, `message` is for
    /// the operator's log.
    Error {
        /// The typed failure code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

wire_struct! {
    ApReport { cycles: u64, latency: Seconds, energy: Joules }
    ApMatches { accepted: bool, symbols: u64, report: ApReport, matches: Vec<(usize, usize)> }
    CorrFeedReport { events: u64, energy: Joules, busy: Seconds }
    CorrOutcome { correlated: BitVec, scores: Vec<u64>, events: u64, threshold: u64 }
    WireMvpResult {
        jobs: u64,
        programs: u64,
        energy: Joules,
        busy: Seconds,
        outputs: Vec<Vec<BitVec>>,
    }
    WireRate { tokens: f64, burst: u32 }
    WireUsage {
        mvp_jobs: u64,
        mvp_reads: u64,
        mvp_scouting_ops: u64,
        mvp_programs: u64,
        mvp_corrected_errors: u64,
        mvp_energy: Joules,
        mvp_busy: Seconds,
        ap_jobs: u64,
        ap_symbols: u64,
        ap_energy: Joules,
        ap_busy: Seconds,
        corr_jobs: u64,
        corr_events: u64,
        quota_remaining: Option<u64>,
        rate: Option<WireRate>,
    }
    TenantStat { tenant: u64, jobs: u64, energy: Joules, busy: Seconds }
    WireStats {
        workers: u64,
        live_engines: u64,
        retired_engines: u64,
        queue_depth: u64,
        queue_capacity: u64,
        sessions: u64,
        shards: u64,
        replicas: u64,
        unavailable_shards: u64,
        routing_fallbacks: u64,
        ap_cache_hits: u64,
        ap_cache_misses: u64,
        mvp_cache_hits: u64,
        mvp_cache_misses: u64,
        tenants: Vec<TenantStat>,
    }
}

wire_enum! { Response, min 1, unknown FrameError::UnknownOpcode;
    OP_HELLO_OK => HelloOk,
    OP_MVP_RESULT => Mvp(result),
    OP_AP_OPENED => ApOpened { session, routing_fallback, cache_hit },
    OP_AP_CLOSED => ApClosed,
    OP_USAGE_REPORT => Usage(usage),
    OP_STATS_REPORT => Stats(stats),
    OP_CORR_OPENED => CorrOpened { session },
    OP_CORR_FEED_OK => CorrFed(report),
    OP_CORR_REPORT => CorrReport(outcome),
    OP_AP_FED_MANY => ApFedMany(lanes),
    OP_AP_MATCHES_MANY => ApFinishedMany(lanes),
    OP_ERROR => Error { code, message },
}

impl Response {
    /// Encodes the verb into a frame body (opcode + payload).
    ///
    /// # Errors
    ///
    /// [`EncodeError`] exactly as [`Request::encode`].
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        encode_body(self)
    }

    /// Decodes a frame body into a response verb.
    ///
    /// # Errors
    ///
    /// [`FrameError`] exactly as [`Request::decode`].
    pub fn decode(body: &[u8]) -> Result<Self, FrameError> {
        decode_body(body, |_| Ok(()))
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

    impl Writer {
        /// A writer whose body starts with `opcode`, for hand-built frames.
        fn new(opcode: u8) -> Self {
            Self { buf: vec![opcode] }
        }
    }

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
                    Instruction::Or { srcs: vec![0, 1], dst: Some(2) },
                    Instruction::And { srcs: vec![2, 0, 1], dst: Some(3) },
                    Instruction::Xor { a: 3, b: 0, dst: Some(4) },
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
    fn lane_counts_are_guarded_at_the_encoded_lane_size() {
        // One encoded ApMatches takes at least 37 bytes (flag, symbols,
        // report, match count), so two lanes cannot fit in 70.
        let mut body = vec![OP_AP_MATCHES_MANY];
        body.extend_from_slice(&2u32.to_be_bytes());
        body.extend_from_slice(&[0; 70]);
        assert_eq!(
            Response::decode(&body),
            Err(FrameError::BadPayload("element count exceeds frame"))
        );
    }

    /// Encodes one codec value alone, so its size can be compared with
    /// its `MIN`.
    fn encoded_len<T: Wire>(value: &T) -> usize {
        let mut w = Writer { buf: Vec::new() };
        value.put(&mut w, "value").expect("encodes");
        w.buf.len()
    }

    #[test]
    fn each_minimum_is_the_smallest_encoding() {
        let (energy, busy) = (Joules::new(0.0), Seconds::new(0.0));
        let stats = WireStats {
            workers: 0,
            live_engines: 0,
            retired_engines: 0,
            queue_depth: 0,
            queue_capacity: 0,
            sessions: 0,
            shards: 0,
            replicas: 0,
            unavailable_shards: 0,
            routing_fallbacks: 0,
            ap_cache_hits: 0,
            ap_cache_misses: 0,
            mvp_cache_hits: 0,
            mvp_cache_misses: 0,
            tenants: vec![],
        };
        let matches =
            crate::ApMatches { accepted: false, matches: vec![], symbols: 0, report: report(0) };
        let outcome = crate::CorrOutcome {
            correlated: BitVec::new(0),
            scores: vec![],
            events: 0,
            threshold: 0,
        };
        let result = WireMvpResult { outputs: vec![], jobs: 0, programs: 0, energy, busy };
        assert_eq!(encoded_len(&Instruction::Read { row: 0 }), Instruction::MIN);
        assert_eq!(encoded_len(&report(0)), ApReport::MIN);
        assert_eq!(encoded_len(&matches), crate::ApMatches::MIN);
        assert_eq!(crate::ApMatches::MIN, 37);
        let fed = crate::CorrFeedReport { events: 0, energy, busy };
        assert_eq!(encoded_len(&fed), crate::CorrFeedReport::MIN);
        assert_eq!(encoded_len(&outcome), crate::CorrOutcome::MIN);
        assert_eq!(encoded_len(&result), WireMvpResult::MIN);
        assert_eq!(encoded_len(&WireRate { tokens: 0.0, burst: 0 }), WireRate::MIN);
        assert_eq!(encoded_len(&usage(None, None)), WireUsage::MIN);
        let row = TenantStat { tenant: 0, jobs: 0, energy, busy };
        assert_eq!(encoded_len(&row), TenantStat::MIN);
        assert_eq!(encoded_len(&stats), WireStats::MIN);
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

    /// Lower-case hex of a frame body, for the golden-frame pins.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn report(cycles: u64) -> ApReport {
        ApReport { cycles, latency: Seconds::new(0.5), energy: Joules::new(0.25) }
    }

    fn usage(quota_remaining: Option<u64>, rate: Option<WireRate>) -> WireUsage {
        WireUsage {
            mvp_jobs: 1,
            mvp_reads: 2,
            mvp_scouting_ops: 3,
            mvp_programs: 4,
            mvp_corrected_errors: 5,
            mvp_energy: Joules::new(6.0),
            mvp_busy: Seconds::new(7.0),
            ap_jobs: 8,
            ap_symbols: 9,
            ap_energy: Joules::new(10.0),
            ap_busy: Seconds::new(11.0),
            corr_jobs: 12,
            corr_events: 13,
            quota_remaining,
            rate,
        }
    }

    /// One instance of every verb with its encoded body pinned byte for
    /// byte, so a codec change that moves a single byte fails here.
    #[test]
    fn golden_frames_pin_every_verb() {
        let requests = [
            (Request::Hello { tenant: 7, token: "tö".into() }, "0100000000000000070000000374c3b6"),
            (
                Request::Submit {
                    programs: vec![
                        vec![
                            Instruction::Store { row: 1, data: BitVec::from_indices(65, &[0, 64]) },
                            Instruction::Or { srcs: vec![1, 2], dst: Some(3) },
                            Instruction::And { srcs: vec![1, 2, 3], dst: Some(4) },
                            Instruction::Xor { a: 1, b: 2, dst: Some(5) },
                            Instruction::Read { row: 5 },
                        ],
                        vec![],
                    ],
                },
                concat!(
                    "0200000002000000050000000001000000410000000000000001000000000000",
                    "0001010000000200000001000000020000000302000000030000000100000002",
                    "000000030000000403000000010000000200000005040000000500000000"
                ),
            ),
            (
                Request::ApOpen { patterns: vec!["ab+c".into(), "x".into()] },
                "03000000020000000461622b630000000178",
            ),
            (Request::ApClose { session: 9 }, "060000000000000009"),
            (Request::Usage, "07"),
            (Request::Stats, "08"),
            (Request::CorrOpen { streams: 24, threshold: 1556 }, "09000000180000000000000614"),
            (
                Request::CorrFeed {
                    session: 4,
                    window: vec![BitVec::from_indices(3, &[0, 2]), BitVec::new(0)],
                },
                "0a00000000000000040000000200000003000000000000000500000000",
            ),
            (Request::CorrFinish { session: 4 }, "0b0000000000000004"),
            (
                Request::ApFeedMany { session: 9, chunks: vec![b"GET".to_vec(), vec![]] },
                "0c0000000000000009000000020000000347455400000000",
            ),
            (Request::ApFinishMany { session: 9 }, "0d0000000000000009"),
        ];
        let responses = [
            (Response::HelloOk, "81"),
            (
                Response::Mvp(WireMvpResult {
                    outputs: vec![vec![BitVec::from_indices(3, &[1])], vec![]],
                    jobs: 1,
                    programs: 2,
                    energy: Joules::new(1.5),
                    busy: Seconds::new(2.5),
                }),
                concat!(
                    "82000000000000000100000000000000023ff800000000000040040000000000",
                    "00000000020000000100000003000000000000000200000000"
                ),
            ),
            (
                Response::ApOpened { session: 3, routing_fallback: true, cache_hit: false },
                "8300000000000000030100",
            ),
            (Response::ApClosed, "86"),
            (
                Response::Usage(usage(Some(12), Some(WireRate { tokens: 2.5, burst: 8 }))),
                concat!(
                    "8700000000000000010000000000000002000000000000000300000000000000",
                    "0400000000000000054018000000000000401c00000000000000000000000000",
                    "0800000000000000094024000000000000402600000000000000000000000000",
                    "0c000000000000000d000000000000000c01400400000000000000000008"
                ),
            ),
            (
                Response::Usage(usage(None, None)),
                concat!(
                    "8700000000000000010000000000000002000000000000000300000000000000",
                    "0400000000000000054018000000000000401c00000000000000000000000000",
                    "0800000000000000094024000000000000402600000000000000000000000000",
                    "0c000000000000000dffffffffffffffff00"
                ),
            ),
            (
                Response::Stats(WireStats {
                    workers: 1,
                    live_engines: 2,
                    retired_engines: 3,
                    queue_depth: 4,
                    queue_capacity: 5,
                    sessions: 6,
                    shards: 7,
                    replicas: 8,
                    unavailable_shards: 9,
                    routing_fallbacks: 10,
                    ap_cache_hits: 11,
                    ap_cache_misses: 12,
                    mvp_cache_hits: 13,
                    mvp_cache_misses: 14,
                    tenants: vec![
                        TenantStat {
                            tenant: 7,
                            jobs: 3,
                            energy: Joules::new(1.0),
                            busy: Seconds::new(2.0),
                        },
                        TenantStat {
                            tenant: 9,
                            jobs: 0,
                            energy: Joules::new(0.0),
                            busy: Seconds::new(0.0),
                        },
                    ],
                }),
                concat!(
                    "8800000000000000010000000000000002000000000000000300000000000000",
                    "0400000000000000050000000000000006000000000000000700000000000000",
                    "080000000000000009000000000000000a000000000000000b00000000000000",
                    "0c000000000000000d000000000000000e000000020000000000000007000000",
                    "00000000033ff000000000000040000000000000000000000000000009000000",
                    "000000000000000000000000000000000000000000"
                ),
            ),
            (Response::CorrOpened { session: 11 }, "89000000000000000b"),
            (
                Response::CorrFed(crate::CorrFeedReport {
                    events: 3072,
                    energy: Joules::new(0.5),
                    busy: Seconds::new(0.25),
                }),
                "8a0000000000000c003fe00000000000003fd0000000000000",
            ),
            (
                Response::CorrReport(crate::CorrOutcome {
                    correlated: BitVec::from_indices(5, &[2]),
                    scores: vec![7, 1654],
                    events: 18432,
                    threshold: 1556,
                }),
                concat!(
                    "8b00000005000000000000000400000002000000000000000700000000000006",
                    "7600000000000048000000000000000614"
                ),
            ),
            (
                Response::ApFedMany(vec![report(11)]),
                "8c00000001000000000000000b3fe00000000000003fd0000000000000",
            ),
            (
                Response::ApFinishedMany(vec![crate::ApMatches {
                    accepted: true,
                    matches: vec![(5, 0)],
                    symbols: 15,
                    report: report(15),
                }]),
                concat!(
                    "8d0000000101000000000000000f000000000000000f3fe00000000000003fd0",
                    "0000000000000000000100000000000000050000000000000000"
                ),
            ),
            (
                Response::Error { code: ErrorCode::RateLimited, message: "slow".into() },
                "ee001500000004736c6f77",
            ),
        ];
        for (request, want) in requests {
            let body = request.encode().expect("encodes");
            assert_eq!(hex(&body), want, "{request:?}");
            assert_eq!(Request::decode(&body).expect("decodes"), request);
        }
        for (response, want) in responses {
            let body = response.encode().expect("encodes");
            assert_eq!(hex(&body), want, "{response:?}");
            assert_eq!(Response::decode(&body).expect("decodes"), response);
        }
    }

    /// Sensed gates (`dst: None`) travel as the `u32::MAX` destination
    /// sentinel, in the same field a written-back gate uses.
    #[test]
    fn golden_frame_pins_sensed_gates() {
        let request = Request::Submit {
            programs: vec![vec![
                Instruction::Or { srcs: vec![1, 2], dst: None },
                Instruction::And { srcs: vec![1, 2, 3], dst: None },
                Instruction::Xor { a: 1, b: 2, dst: None },
            ]],
        };
        let want = concat!(
            "02000000010000000301000000020000000100000002ffffffff020000000300",
            "0000010000000200000003ffffffff030000000100000002ffffffff"
        );
        let body = request.encode().expect("encodes");
        assert_eq!(hex(&body), want);
        assert_eq!(Request::decode(&body).expect("decodes"), request);
    }

    #[test]
    fn the_sensed_gate_sentinel_is_no_destination_row() {
        // `Some(u32::MAX)` would decode as a sensed gate: refused.
        for instr in [
            Instruction::Or { srcs: vec![0, 1], dst: Some(u32::MAX as usize) },
            Instruction::And { srcs: vec![0, 1], dst: Some(u32::MAX as usize) },
            Instruction::Xor { a: 0, b: 1, dst: Some(u32::MAX as usize) },
        ] {
            let request = Request::Submit { programs: vec![vec![instr.clone()]] };
            let err = request.encode().expect_err("the sentinel is not a row");
            assert_eq!(err.value, u32::MAX as usize, "{instr:?}");
        }
        // One below the sentinel is an ordinary (out-of-range) row.
        let row = u32::MAX as usize - 1;
        let request = Request::Submit {
            programs: vec![vec![Instruction::Xor { a: 0, b: 1, dst: Some(row) }]],
        };
        let body = request.encode().expect("encodes");
        assert_eq!(Request::decode(&body).expect("decodes"), request);
        // A decoded `u32::MAX` destination is a sensed gate.
        let mut body =
            Request::Submit { programs: vec![vec![Instruction::Xor { a: 0, b: 1, dst: Some(7) }]] }
                .encode()
                .expect("encodes");
        let dst = body.len() - 4;
        body[dst..].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            Request::decode(&body).expect("decodes"),
            Request::Submit { programs: vec![vec![Instruction::Xor { a: 0, b: 1, dst: None }]] }
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn row() -> impl Strategy<Value = usize> {
        any::<u32>().prop_map(|r| r as usize)
    }

    /// A sensed gate, or any destination row below the `u32::MAX`
    /// sentinel.
    fn dst() -> impl Strategy<Value = Option<usize>> {
        prop_oneof![Just(None), any::<u32>().prop_map(|r| Some(r.min(u32::MAX - 1) as usize))]
    }

    /// Any IEEE-754 bit pattern, NaNs and infinities included.
    fn float() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    /// Mostly non-ASCII text, sometimes empty.
    fn text() -> impl Strategy<Value = String> {
        collection::vec(any::<char>(), 0..6).prop_map(String::from_iter)
    }

    /// 0, 64 and 65 bits (an empty vector, one full word, a spilled
    /// word) and other short lengths.
    fn bits() -> impl Strategy<Value = BitVec> {
        prop_oneof![Just(0usize), Just(64usize), Just(65usize), 1usize..130]
            .prop_flat_map(|len| collection::vec(any::<bool>(), len))
            .prop_map(BitVec::from_iter)
    }

    fn instruction() -> impl Strategy<Value = Instruction> {
        prop_oneof![
            (row(), bits()).prop_map(|(row, data)| Instruction::Store { row, data }),
            (collection::vec(row(), 0..4), dst())
                .prop_map(|(srcs, dst)| Instruction::Or { srcs, dst }),
            (collection::vec(row(), 0..4), dst())
                .prop_map(|(srcs, dst)| Instruction::And { srcs, dst }),
            (row(), row(), dst()).prop_map(|(a, b, dst)| Instruction::Xor { a, b, dst }),
            row().prop_map(|row| Instruction::Read { row }),
        ]
    }

    fn ap_report() -> impl Strategy<Value = ApReport> {
        (any::<u64>(), float(), float()).prop_map(|(cycles, latency, energy)| ApReport {
            cycles,
            latency: Seconds::new(latency),
            energy: Joules::new(energy),
        })
    }

    fn finished_lane() -> impl Strategy<Value = crate::ApMatches> {
        let event = (any::<u64>(), any::<u64>())
            .prop_map(|(pos, pattern)| (pos as usize, pattern as usize));
        (any::<bool>(), collection::vec(event, 0..3), any::<u64>(), ap_report()).prop_map(
            |(accepted, matches, symbols, report)| crate::ApMatches {
                accepted,
                matches,
                symbols,
                report,
            },
        )
    }

    /// Fifteen raw words, for the all-scalar payloads.
    fn words() -> impl Strategy<Value = Vec<u64>> {
        collection::vec(any::<u64>(), 15)
    }

    fn usage() -> impl Strategy<Value = WireUsage> {
        let quota = prop_oneof![Just(None), any::<u64>().prop_map(Some)];
        let rate = prop_oneof![
            Just(None),
            (float(), any::<u32>()).prop_map(|(tokens, burst)| Some(WireRate { tokens, burst })),
        ];
        (words(), quota, rate).prop_map(|(w, quota_remaining, rate)| WireUsage {
            mvp_jobs: w[0],
            mvp_reads: w[1],
            mvp_scouting_ops: w[2],
            mvp_programs: w[3],
            mvp_corrected_errors: w[4],
            mvp_energy: Joules::new(f64::from_bits(w[5])),
            mvp_busy: Seconds::new(f64::from_bits(w[6])),
            ap_jobs: w[7],
            ap_symbols: w[8],
            ap_energy: Joules::new(f64::from_bits(w[9])),
            ap_busy: Seconds::new(f64::from_bits(w[10])),
            corr_jobs: w[11],
            corr_events: w[12],
            quota_remaining,
            rate,
        })
    }

    fn stats() -> impl Strategy<Value = WireStats> {
        let tenant = (any::<u64>(), any::<u64>(), float(), float()).prop_map(
            |(tenant, jobs, energy, busy)| TenantStat {
                tenant,
                jobs,
                energy: Joules::new(energy),
                busy: Seconds::new(busy),
            },
        );
        (words(), collection::vec(tenant, 0..3)).prop_map(|(w, tenants)| WireStats {
            workers: w[0],
            live_engines: w[1],
            retired_engines: w[2],
            queue_depth: w[3],
            queue_capacity: w[4],
            sessions: w[5],
            shards: w[6],
            replicas: w[7],
            unavailable_shards: w[8],
            routing_fallbacks: w[9],
            ap_cache_hits: w[10],
            ap_cache_misses: w[11],
            mvp_cache_hits: w[12],
            mvp_cache_misses: w[13],
            tenants,
        })
    }

    /// Every request verb, with counts inside the decoder's rules.
    fn request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (any::<u64>(), text()).prop_map(|(tenant, token)| Request::Hello { tenant, token }),
            collection::vec(collection::vec(instruction(), 0..4), 1..3)
                .prop_map(|programs| Request::Submit { programs }),
            collection::vec(text(), 1..4).prop_map(|patterns| Request::ApOpen { patterns }),
            any::<u64>().prop_map(|session| Request::ApClose { session }),
            Just(Request::Usage),
            Just(Request::Stats),
            (row(), any::<u64>())
                .prop_map(|(streams, threshold)| Request::CorrOpen { streams, threshold }),
            (any::<u64>(), collection::vec(bits(), 0..3))
                .prop_map(|(session, window)| Request::CorrFeed { session, window }),
            any::<u64>().prop_map(|session| Request::CorrFinish { session }),
            (any::<u64>(), collection::vec(collection::vec(any::<u8>(), 0..8), 1..4))
                .prop_map(|(session, chunks)| Request::ApFeedMany { session, chunks }),
            any::<u64>().prop_map(|session| Request::ApFinishMany { session }),
        ]
    }

    /// Every response verb.
    fn response() -> impl Strategy<Value = Response> {
        let code = (0..ErrorCode::ALL.len()).prop_map(|i| ErrorCode::ALL[i]);
        prop_oneof![
            Just(Response::HelloOk),
            (collection::vec(collection::vec(bits(), 0..3), 0..3), words()).prop_map(
                |(outputs, w)| Response::Mvp(WireMvpResult {
                    outputs,
                    jobs: w[0],
                    programs: w[1],
                    energy: Joules::new(f64::from_bits(w[2])),
                    busy: Seconds::new(f64::from_bits(w[3])),
                })
            ),
            (any::<u64>(), any::<bool>(), any::<bool>()).prop_map(
                |(session, routing_fallback, cache_hit)| Response::ApOpened {
                    session,
                    routing_fallback,
                    cache_hit
                }
            ),
            Just(Response::ApClosed),
            usage().prop_map(Response::Usage),
            stats().prop_map(Response::Stats),
            any::<u64>().prop_map(|session| Response::CorrOpened { session }),
            (any::<u64>(), float(), float()).prop_map(|(events, energy, busy)| Response::CorrFed(
                crate::CorrFeedReport {
                    events,
                    energy: Joules::new(energy),
                    busy: Seconds::new(busy)
                }
            )),
            (bits(), collection::vec(any::<u64>(), 0..4), any::<u64>(), any::<u64>()).prop_map(
                |(correlated, scores, events, threshold)| Response::CorrReport(
                    crate::CorrOutcome { correlated, scores, events, threshold }
                )
            ),
            collection::vec(ap_report(), 0..3).prop_map(Response::ApFedMany),
            collection::vec(finished_lane(), 0..3).prop_map(Response::ApFinishedMany),
            (code, text()).prop_map(|(code, message)| Response::Error { code, message }),
        ]
    }

    /// Re-encoding the decoded body gives the same bytes (compared as
    /// bytes, so NaN costs count as equal), and every proper prefix of
    /// the body is refused with an error.
    fn round_trips<T: fmt::Debug>(
        verb: &T,
        encode: impl Fn(&T) -> Result<Vec<u8>, EncodeError>,
        decode: impl Fn(&[u8]) -> Result<T, FrameError>,
    ) -> TestCaseResult {
        let body = encode(verb).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let decoded = decode(&body).map_err(|e| TestCaseError::fail(format!("{verb:?}: {e}")))?;
        prop_assert_eq!(
            encode(&decoded).map_err(|e| TestCaseError::fail(e.to_string()))?,
            body.clone()
        );
        for cut in 0..body.len() {
            prop_assert!(decode(&body[..cut]).is_err(), "{} of {} bytes decoded", cut, body.len());
        }
        Ok(())
    }

    proptest! {
        /// Every verb, empty vectors, 0/64/65-bit vectors, non-ASCII
        /// text, both quota and rate encodings and any float bit
        /// pattern survive the wire byte for byte.
        #[test]
        fn every_verb_round_trips_byte_for_byte(request in request(), response in response()) {
            round_trips(&request, Request::encode, Request::decode)?;
            round_trips(&response, Response::encode, Response::decode)?;
        }
    }
}
