//! A blocking client for the framed protocol — used by the tests, the
//! load generator, and external callers that want a typed API instead
//! of raw frames.
//!
//! The client is deliberately conservative about retries: only
//! *idempotent* verbs (`Usage`, `Stats`) are ever retried on a
//! transport failure, because a cut connection leaves the fate of a
//! `Submit` unknown — the job may have executed and been billed, and
//! replaying it would bill it twice. Connection *establishment* is
//! retried freely ([`NetClient::connect_with_retry`]): no request is in
//! flight yet, so a retry cannot double anything.

use super::wire::{
    read_frame, write_frame, EncodeError, ErrorCode, FrameError, FrameReadError, Request, Response,
    WireMvpResult, WireStats, WireUsage, MAX_FRAME_DEFAULT,
};
use crate::{ApMatches, SessionId, TenantId};
use core::fmt;
use memcim_ap::ApReport;
use memcim_bits::BitVec;
use memcim_mvp::Instruction;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The transport failed: socket error, connection cut, or an
    /// oversized frame from the server.
    Transport(FrameReadError),
    /// The request could not be encoded — a field's length or index
    /// does not fit the wire format. Nothing was sent.
    Encode(EncodeError),
    /// The server's response body did not decode.
    Frame(FrameError),
    /// The server answered with a typed error frame.
    Server {
        /// The typed failure code.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server answered with a well-formed response of the wrong
    /// kind for the request (a protocol bug, not a user error).
    Unexpected {
        /// What arrived instead.
        got: &'static str,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport failed: {e}"),
            ClientError::Encode(e) => write!(f, "unencodable request: {e}"),
            ClientError::Frame(e) => write!(f, "undecodable response: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Unexpected { got } => write!(f, "unexpected response kind: {got}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Transport(FrameReadError::Io(e))
    }
}

impl From<EncodeError> for ClientError {
    fn from(e: EncodeError) -> Self {
        ClientError::Encode(e)
    }
}

impl ClientError {
    /// The server's error code, when the failure was a typed error
    /// frame.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// A blocking connection to a [`NetServer`](super::server::NetServer).
///
/// One request at a time: every method writes one frame and blocks for
/// its one response. See the [module example](super).
pub struct NetClient {
    stream: TcpStream,
    max_frame: usize,
    /// The server's address, kept for idempotent-verb reconnects
    /// (`None` when the OS could not report the peer).
    addr: Option<SocketAddr>,
    /// The credentials of the last successful [`hello`](Self::hello),
    /// replayed after a reconnect so the new connection is bound to the
    /// same tenant.
    auth: Option<(TenantId, String)>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    /// Reconnect attempts for idempotent verbs (0 = never reconnect).
    retry_attempts: u32,
    retry_backoff: Duration,
}

impl NetClient {
    fn from_stream(stream: TcpStream) -> Self {
        // Requests are small: NODELAY keeps Nagle from parking one
        // behind a delayed ACK (each frame leaves in one write).
        let _ = stream.set_nodelay(true);
        let addr = stream.peer_addr().ok();
        Self {
            stream,
            max_frame: MAX_FRAME_DEFAULT,
            addr,
            auth: None,
            read_timeout: None,
            write_timeout: None,
            retry_attempts: 0,
            retry_backoff: Duration::from_millis(10),
        }
    }

    /// Connects, accepting responses up to [`MAX_FRAME_DEFAULT`].
    ///
    /// # Errors
    ///
    /// The socket error, as [`ClientError::Transport`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Ok(Self::from_stream(TcpStream::connect(addr)?))
    }

    /// Connects with a bound on how long the TCP handshake may take —
    /// a plain [`connect`](Self::connect) against a black-holed address
    /// can hang for minutes on the OS default.
    ///
    /// # Errors
    ///
    /// The socket error (including `TimedOut`) as
    /// [`ClientError::Transport`]; an address that resolves to nothing
    /// is an `InvalidInput` I/O error.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            ClientError::Transport(FrameReadError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to no socket address",
            )))
        })?;
        Ok(Self::from_stream(TcpStream::connect_timeout(&addr, timeout)?))
    }

    /// Connects with bounded retry: up to `attempts` tries, sleeping
    /// `backoff` doubled after each failure. Safe to retry freely — no
    /// request is in flight during establishment.
    ///
    /// # Errors
    ///
    /// The *last* attempt's socket error once all attempts are spent.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        attempts: u32,
        backoff: Duration,
    ) -> Result<Self, ClientError> {
        let mut wait = backoff;
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(wait);
                wait = wait.saturating_mul(2);
            }
            match Self::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Transport(FrameReadError::Io(std::io::Error::other(
                "no connect attempt was made",
            )))
        }))
    }

    /// Raises (or lowers) the largest response body this client will
    /// accept.
    #[must_use]
    pub fn with_max_frame(mut self, max_frame: usize) -> Self {
        self.max_frame = max_frame;
        self
    }

    /// Bounds how long a single response read and request write may
    /// block. A server that accepts the connection and then goes silent
    /// surfaces as a `WouldBlock`/`TimedOut` transport error instead of
    /// a hung client. `None` restores the unbounded default.
    #[must_use]
    pub fn with_timeouts(mut self, read: Option<Duration>, write: Option<Duration>) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        let _ = self.stream.set_read_timeout(read);
        let _ = self.stream.set_write_timeout(write);
        self
    }

    /// Lets the *idempotent* verbs ([`usage`](Self::usage) /
    /// [`stats`](Self::stats)) survive a cut connection: on a transport
    /// failure the client reconnects (up to `attempts` times, `backoff`
    /// doubled each try), replays its `hello`, and reissues the
    /// request. Non-idempotent verbs are never retried — a replayed
    /// `Submit` could execute, and bill, twice.
    #[must_use]
    pub fn with_retry(mut self, attempts: u32, backoff: Duration) -> Self {
        self.retry_attempts = attempts;
        self.retry_backoff = backoff;
        self
    }

    /// Sends one request frame and blocks for its response frame.
    /// Typed error frames come back as [`ClientError::Server`].
    ///
    /// This is the raw exchange the typed methods are built on; it is
    /// public so tests and tools can speak verbs directly.
    ///
    /// # Errors
    ///
    /// [`ClientError`] — see each variant.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.encode()?)?;
        let body = read_frame(&mut self.stream, self.max_frame).map_err(ClientError::Transport)?;
        match Response::decode(&body).map_err(ClientError::Frame)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            response => Ok(response),
        }
    }

    /// Authenticates the connection as `tenant`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with
    /// [`ErrorCode::BadCredentials`] when the token is wrong.
    pub fn hello(&mut self, tenant: TenantId, token: &str) -> Result<(), ClientError> {
        match self.request(&Request::Hello { tenant, token: token.to_string() })? {
            Response::HelloOk => {
                self.auth = Some((tenant, token.to_string()));
                Ok(())
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Submits MVP programs and blocks for their outputs.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carrying the admission refusal
    /// (`QuotaExceeded`, `RateLimited`, `OverCapacity`) or the engine
    /// failure.
    pub fn submit_mvp(
        &mut self,
        programs: &[Vec<Instruction>],
    ) -> Result<WireMvpResult, ClientError> {
        match self.request(&Request::Submit { programs: programs.to_vec() })? {
            Response::Mvp(result) => Ok(result),
            other => Err(unexpected(&other)),
        }
    }

    /// Compiles `patterns` into a streaming session.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::Compile`] for
    /// unparsable patterns.
    pub fn ap_open(&mut self, patterns: &[&str]) -> Result<SessionId, ClientError> {
        self.ap_open_info(patterns).map(|(session, _)| session)
    }

    /// Compiles `patterns` into a streaming session, also reporting the
    /// server's compile disposition: whether hierarchical routing fell
    /// back to a dense matrix, and whether the compiled automaton came
    /// from the server's compile cache.
    ///
    /// # Errors
    ///
    /// As [`NetClient::ap_open`].
    pub fn ap_open_info(
        &mut self,
        patterns: &[&str],
    ) -> Result<(SessionId, crate::ApOpenInfo), ClientError> {
        let patterns = patterns.iter().map(|p| p.to_string()).collect();
        match self.request(&Request::ApOpen { patterns })? {
            Response::ApOpened { session, routing_fallback, cache_hit } => {
                Ok((session, crate::ApOpenInfo { routing_fallback, cache_hit }))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Streams one chunk through lane 0 of a session — a one-lane
    /// [`ap_feed_many`](Self::ap_feed_many), not a protocol verb of its
    /// own. The report is cumulative for the stream so far.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::UnknownSession`] for a
    /// session this tenant does not hold.
    pub fn ap_feed(&mut self, session: SessionId, chunk: &[u8]) -> Result<ApReport, ClientError> {
        lane_zero(self.ap_feed_many(session, &[chunk.to_vec()])?)
    }

    /// Ends the session's streams and returns lane 0's matches — the
    /// one-lane [`ap_finish_many`](Self::ap_finish_many) for sessions
    /// driven through [`ap_feed`](Self::ap_feed).
    ///
    /// # Errors
    ///
    /// As [`NetClient::ap_feed`].
    pub fn ap_finish(&mut self, session: SessionId) -> Result<ApMatches, ClientError> {
        lane_zero(self.ap_finish_many(session)?)
    }

    /// Streams one chunk into **each** lane of a multi-stream session:
    /// `chunks[i]` feeds lane `i`, lanes growing on demand. Returns one
    /// cumulative report per lane, in lane order.
    ///
    /// # Errors
    ///
    /// As [`NetClient::ap_feed`].
    pub fn ap_feed_many(
        &mut self,
        session: SessionId,
        chunks: &[Vec<u8>],
    ) -> Result<Vec<ApReport>, ClientError> {
        match self.request(&Request::ApFeedMany { session, chunks: chunks.to_vec() })? {
            Response::ApFedMany(reports) => Ok(reports),
            other => Err(unexpected(&other)),
        }
    }

    /// Ends every lane's stream and collects per-lane matches, in lane
    /// order.
    ///
    /// # Errors
    ///
    /// As [`NetClient::ap_feed`].
    pub fn ap_finish_many(&mut self, session: SessionId) -> Result<Vec<ApMatches>, ClientError> {
        match self.request(&Request::ApFinishMany { session })? {
            Response::ApFinishedMany(runs) => Ok(runs),
            other => Err(unexpected(&other)),
        }
    }

    /// Drops a session — any streaming workload kind.
    ///
    /// # Errors
    ///
    /// As [`NetClient::ap_feed`].
    pub fn ap_close(&mut self, session: SessionId) -> Result<(), ClientError> {
        match self.request(&Request::ApClose { session })? {
            Response::ApClosed => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Opens a streaming temporal-correlation session over `streams`
    /// event streams, thresholding at `threshold`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carrying the admission refusal or the
    /// geometry rejection ([`ErrorCode::Engine`]).
    pub fn corr_open(&mut self, streams: usize, threshold: u64) -> Result<SessionId, ClientError> {
        match self.request(&Request::CorrOpen { streams, threshold })? {
            Response::CorrOpened { session } => Ok(session),
            other => Err(unexpected(&other)),
        }
    }

    /// Streams one time window (one activity bit vector per stream)
    /// through a correlation session; the report is cumulative for the
    /// stream so far.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::UnknownSession`] /
    /// [`ErrorCode::WrongSessionKind`] for session mishaps, or the
    /// engine failure.
    pub fn corr_feed(
        &mut self,
        session: SessionId,
        window: &[BitVec],
    ) -> Result<crate::CorrFeedReport, ClientError> {
        match self.request(&Request::CorrFeed { session, window: window.to_vec() })? {
            Response::CorrFed(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// Ends the correlation session's stream and collects the
    /// correlated set; the session resets and stays open.
    ///
    /// # Errors
    ///
    /// As [`NetClient::corr_feed`].
    pub fn corr_finish(&mut self, session: SessionId) -> Result<crate::CorrOutcome, ClientError> {
        match self.request(&Request::CorrFinish { session })? {
            Response::CorrReport(outcome) => Ok(outcome),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the authenticated tenant's accumulated bill.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::Unauthenticated`]
    /// before a `hello`.
    pub fn usage(&mut self) -> Result<WireUsage, ClientError> {
        match self.request_idempotent(&Request::Usage)? {
            Response::Usage(usage) => Ok(usage),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches service-wide health and load.
    ///
    /// # Errors
    ///
    /// As [`NetClient::usage`].
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.request_idempotent(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// [`request`](Self::request) with the reconnect-and-retry policy
    /// of [`with_retry`](Self::with_retry) — only sound for idempotent
    /// verbs, so it is private and reachable only through
    /// [`usage`](Self::usage) and [`stats`](Self::stats).
    fn request_idempotent(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut wait = self.retry_backoff;
        let mut attempt = 0u32;
        loop {
            let error = match self.request(request) {
                Ok(response) => return Ok(response),
                // Typed server answers and decode failures are real
                // answers, not transport trouble: never retried.
                Err(e @ ClientError::Transport(_)) => e,
                Err(e) => return Err(e),
            };
            if attempt >= self.retry_attempts {
                return Err(error);
            }
            attempt += 1;
            std::thread::sleep(wait);
            wait = wait.saturating_mul(2);
            // Reconnect failures just consume an attempt; the next lap
            // retries from scratch.
            let _ = self.reconnect();
        }
    }

    /// Re-establishes the stream to the remembered address, re-applies
    /// the socket options, and replays the remembered `hello`.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let addr = self.addr.ok_or(ClientError::Unexpected { got: "no address to reconnect" })?;
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(self.read_timeout);
        let _ = stream.set_write_timeout(self.write_timeout);
        self.stream = stream;
        if let Some((tenant, token)) = self.auth.clone() {
            match self.request(&Request::Hello { tenant, token })? {
                Response::HelloOk => {}
                other => return Err(unexpected(&other)),
            }
        }
        Ok(())
    }

    /// Writes raw bytes as one frame, bypassing [`Request`] encoding —
    /// the hook the malformed-input tests feed garbage through.
    ///
    /// # Errors
    ///
    /// The socket error.
    pub fn send_raw(&mut self, body: &[u8]) -> Result<(), ClientError> {
        write_frame(&mut self.stream, body)?;
        Ok(())
    }

    /// Reads one raw response frame (pairs with
    /// [`send_raw`](Self::send_raw)).
    ///
    /// # Errors
    ///
    /// The transport error.
    pub fn recv_raw(&mut self) -> Result<Vec<u8>, ClientError> {
        read_frame(&mut self.stream, self.max_frame).map_err(ClientError::Transport)
    }
}

/// The first lane's entry of a per-lane answer; a session always has at
/// least one lane.
fn lane_zero<T>(lanes: Vec<T>) -> Result<T, ClientError> {
    lanes
        .into_iter()
        .next()
        .ok_or(ClientError::Unexpected { got: "a per-lane answer with no lanes" })
}

fn unexpected(response: &Response) -> ClientError {
    let got = match response {
        Response::HelloOk => "HelloOk",
        Response::Mvp(_) => "Mvp",
        Response::ApOpened { .. } => "ApOpened",
        Response::ApFedMany(_) => "ApFedMany",
        Response::ApFinishedMany(_) => "ApFinishedMany",
        Response::ApClosed => "ApClosed",
        Response::Usage(_) => "Usage",
        Response::Stats(_) => "Stats",
        Response::CorrOpened { .. } => "CorrOpened",
        Response::CorrFed(_) => "CorrFed",
        Response::CorrReport(_) => "CorrReport",
        Response::Error { .. } => "Error",
    };
    ClientError::Unexpected { got }
}
