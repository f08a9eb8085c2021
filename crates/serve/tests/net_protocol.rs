//! Wire-protocol robustness: a live loopback server fed a seeded
//! corpus of malformed, truncated, mutated and oversized frames must
//! never panic, must answer every well-framed body with a typed frame,
//! and must keep serving honest clients afterwards.

use memcim_serve::net::{
    ErrorCode, NetClient, NetConfig, NetServer, Request, Response, TenantPolicy,
};
use memcim_serve::{ServeConfig, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

const SEED: u64 = 2018;
const TOKEN: &str = "fuzz-tenant-token";

fn start_server(net: NetConfig) -> (Arc<Service>, NetServer) {
    let service = Arc::new(
        Service::try_start(ServeConfig::default().with_workers(2).with_mvp_geometry(8, 2, 32))
            .expect("service starts"),
    );
    let server =
        NetServer::start(Arc::clone(&service), net.with_tenant(1, TenantPolicy::new(TOKEN)))
            .expect("server starts");
    (service, server)
}

/// Every well-framed body — random bytes, no structure at all — gets a
/// typed response frame back, and the connection keeps working.
#[test]
fn random_bodies_get_typed_error_frames() {
    let (_service, server) = start_server(NetConfig::default());
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    for _ in 0..300 {
        let len = rng.gen_range(1..=64usize);
        let body: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        client.send_raw(&body).expect("frame written");
        let reply = client.recv_raw().expect("a response frame always comes back");
        let response = Response::decode(&reply).expect("the response itself is well-formed");
        // Unauthenticated connection: random bytes either fail to
        // decode (BadFrame/UnknownOpcode) or decode to a verb that is
        // refused before touching the service.
        match response {
            Response::Error { code, .. } => assert!(
                matches!(
                    code,
                    ErrorCode::BadFrame
                        | ErrorCode::UnknownOpcode
                        | ErrorCode::Unauthenticated
                        | ErrorCode::BadCredentials
                ),
                "pre-auth fuzz may only see decode/auth refusals, got {code:?}"
            ),
            other => panic!("random bytes may not succeed pre-auth: {other:?}"),
        }
    }
    // The same connection still serves an honest exchange.
    client.hello(1, TOKEN).expect("server survived the corpus");
    assert_eq!(client.stats().expect("stats").workers, 2);
    server.shutdown();
}

/// Mutations of valid frames — truncated suffixes, flipped bytes,
/// spliced tails — against an *authenticated* connection, reaching the
/// decoder's deepest paths. The server may refuse or (when the
/// mutation is benign) serve, but must never die.
#[test]
fn mutated_valid_frames_never_kill_the_server() {
    let (_service, server) = start_server(NetConfig::default());
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xDEAD);
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(1, TOKEN).expect("auth");
    let corpus: Vec<Vec<u8>> = vec![
        Request::Submit {
            programs: vec![vec![
                memcim_mvp::Instruction::Store {
                    row: 0,
                    data: memcim_bits::BitVec::from_indices(64, &[1, 5, 63]),
                },
                memcim_mvp::Instruction::Or { srcs: vec![0, 0], dst: Some(2) },
                memcim_mvp::Instruction::Read { row: 2 },
            ]],
        }
        .encode()
        .expect("encodes"),
        Request::ApOpen { patterns: vec!["ab+c".into()] }.encode().expect("encodes"),
        Request::ApFeedMany { session: 0, chunks: vec![b"abbbc".to_vec(), b"ab".to_vec()] }
            .encode()
            .expect("encodes"),
        Request::ApFinishMany { session: 0 }.encode().expect("encodes"),
        Request::ApClose { session: 9 }.encode().expect("encodes"),
        Request::CorrOpen { streams: 3, threshold: 17 }.encode().expect("encodes"),
        Request::CorrFeed {
            session: 0,
            window: vec![
                memcim_bits::BitVec::from_indices(48, &[0, 7, 31, 47]),
                memcim_bits::BitVec::new(48),
                memcim_bits::BitVec::from_indices(48, &[7]),
            ],
        }
        .encode()
        .expect("encodes"),
        Request::CorrFinish { session: 0 }.encode().expect("encodes"),
        Request::Usage.encode().expect("encodes"),
        Request::Stats.encode().expect("encodes"),
    ];
    for round in 0..300 {
        let mut body = corpus[round % corpus.len()].clone();
        match rng.gen_range(0..4u8) {
            // Truncate to a random prefix (keep at least the opcode).
            0 => body.truncate(rng.gen_range(1..=body.len())),
            // Flip one byte anywhere.
            1 => {
                let at = rng.gen_range(0..body.len());
                body[at] ^= 1 << rng.gen_range(0..8u8);
            }
            // Append garbage the decoder must flag as trailing.
            2 => body.extend((0..rng.gen_range(1..=8usize)).map(|_| rng.gen_range(0u8..=255))),
            // Splice two corpus entries together.
            _ => {
                let other = &corpus[rng.gen_range(0..corpus.len())];
                let cut = rng.gen_range(0..=other.len());
                body.extend_from_slice(&other[..cut]);
            }
        }
        client.send_raw(&body).expect("frame written");
        let reply = client.recv_raw().expect("a response frame always comes back");
        // Any well-formed frame is acceptable — a refusal for damaged
        // bodies, a real response when the mutation stayed valid. The
        // invariant is that decoding never fails and the server never
        // stops answering.
        Response::decode(&reply).expect("every response is well-formed");
    }
    assert_eq!(client.stats().expect("server survived the corpus").workers, 2);
    server.shutdown();
}

/// The retired single-lane feed/finish opcodes (0x04/0x05) stay
/// reserved: a live server answers each with a typed `UnknownOpcode`
/// frame — well-formed old payload or not — and keeps serving the
/// connection.
#[test]
fn retired_opcodes_are_refused_typed_and_the_server_keeps_serving() {
    let (_service, server) = start_server(NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(1, TOKEN).expect("auth");
    let session = client.ap_open(&["ab+c"]).expect("opens");
    let mut feed = vec![0x04];
    feed.extend_from_slice(&session.to_be_bytes());
    feed.extend_from_slice(&3u32.to_be_bytes());
    feed.extend_from_slice(b"abc");
    let mut finish = vec![0x05];
    finish.extend_from_slice(&session.to_be_bytes());
    for body in [feed, finish] {
        client.send_raw(&body).expect("frame written");
        let reply = client.recv_raw().expect("a response frame comes back");
        match Response::decode(&reply).expect("well-formed") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOpcode),
            other => panic!("retired opcode {:#04x} was served: {other:?}", body[0]),
        }
    }
    // Nothing reached the session, and the connection still serves.
    let report = client.ap_feed(session, b"abbc").expect("feeds");
    assert_eq!(report.cycles, 4, "the refused frames streamed nothing");
    assert_eq!(client.ap_finish(session).expect("finishes").matches, vec![(3, 0)]);
    server.shutdown();
}

/// An oversized length prefix is refused with `FrameTooLarge` *without
/// the body being read*, and the connection is closed — but the server
/// itself keeps accepting.
#[test]
fn oversized_frames_are_refused_and_the_listener_survives() {
    let (_service, server) = start_server(NetConfig::default().with_max_frame(1024));
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(1, TOKEN).expect("auth");
    // Declare a 1 MiB body on a 1 KiB server. The refusal must arrive
    // without us sending a single body byte.
    let mut stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    stream.write_all(&(1u32 << 20).to_be_bytes()).expect("header written");
    let mut raw = NetClient::connect(server.local_addr()).expect("helper");
    drop(raw.hello(1, TOKEN)); // unrelated connection, proves liveness below
    let reply = {
        use std::io::Read;
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).expect("refusal then close");
        buf
    };
    // 4-byte length prefix + body: decode the body as a frame.
    assert!(reply.len() > 4, "the refusal frame arrived before the close");
    let body = &reply[4..];
    match Response::decode(body).expect("typed refusal") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // The first client's connection (which never misbehaved) still works.
    assert_eq!(client.stats().expect("listener survived").workers, 2);
    server.shutdown();
}

/// A connection cut mid-frame is dropped quietly; the accept loop keeps
/// serving everyone else.
#[test]
fn truncated_streams_are_dropped_quietly() {
    let (_service, server) = start_server(NetConfig::default());
    for _ in 0..8 {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
        // Declare 10 bytes, send 3, vanish.
        stream.write_all(&10u32.to_be_bytes()).expect("header");
        stream.write_all(&[1, 2, 3]).expect("partial body");
        drop(stream);
    }
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(1, TOKEN).expect("server unscathed");
    assert_eq!(client.stats().expect("stats").live_engines, 2);
    server.shutdown();
}

/// Admission refusals of correlation opens consume nothing: a
/// quota-refused or rate-refused `CorrOpen` is a typed error frame that
/// opens no session and leaves the tenant's remaining tokens intact —
/// the gate only debits on success.
#[test]
fn refused_correlation_opens_charge_nothing() {
    let service = Arc::new(
        Service::try_start(ServeConfig::default().with_workers(2).with_mvp_geometry(8, 2, 32))
            .expect("service starts"),
    );
    let server = NetServer::start(
        Arc::clone(&service),
        NetConfig::default()
            .with_tenant(3, TenantPolicy::new("corr-quota").with_quota(2))
            // Rate 0: the bucket never refills, so refusals are
            // deterministic.
            .with_tenant(4, TenantPolicy::new("corr-rate").with_rate(1, 0.0)),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Quota tenant: an open and a feed spend the two-job quota, the
    // next open is refused — typed, sessionless, uncharged (3 streams
    // fit the 8-row engines).
    let mut quota_client = NetClient::connect(addr).expect("connects");
    quota_client.hello(3, "corr-quota").expect("auth");
    let first = quota_client.corr_open(3, 17).expect("1/2");
    let report = quota_client
        .corr_feed(first, &vec![memcim_bits::BitVec::from_indices(8, &[1]); 3])
        .expect("2/2");
    assert_eq!(report.events, 24, "3 streams × 8 steps");
    let refused = quota_client.corr_open(3, 17).expect_err("3/2 over quota");
    assert_eq!(refused.server_code(), Some(ErrorCode::QuotaExceeded));
    assert_eq!(service.session_count(), 1, "the refusal opened nothing");
    let usage = quota_client.usage().expect("usage");
    assert_eq!(usage.corr_jobs, 1, "the completed feed is the only billed job");
    assert_eq!(usage.corr_events, 24);
    assert_eq!(usage.quota_remaining, Some(0), "the refusal debited nothing — 0, not wrapped");

    // The refusal poisoned nothing: closing is admission-free and the
    // connection keeps serving.
    quota_client.ap_close(first).expect("closes the correlation session");
    assert_eq!(service.session_count(), 0);

    // Rate tenant: a one-token bucket that never refills — the second
    // open is refused and the bucket stays at zero, not negative.
    let mut rate_client = NetClient::connect(addr).expect("connects");
    rate_client.hello(4, "corr-rate").expect("auth");
    rate_client.corr_open(3, 17).expect("burst 1/1");
    let limited = rate_client.corr_open(3, 17).expect_err("bucket dry");
    assert_eq!(limited.server_code(), Some(ErrorCode::RateLimited));
    assert_eq!(service.session_count(), 1, "no session leaked from the refusal");
    let tokens = rate_client.usage().expect("usage").rate.expect("rate-limited").tokens;
    assert!((0.0..1.0).contains(&tokens), "refusals never drive the bucket negative");

    server.shutdown();
}

/// The auth state machine over the wire: no verb before `Hello`, no
/// second `Hello`, wrong tokens and unknown tenants indistinguishable.
#[test]
fn auth_state_machine_is_enforced_per_connection() {
    let (_service, server) = start_server(NetConfig::default());
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).expect("connects");
    let refused = client.usage().expect_err("usage before hello");
    assert_eq!(refused.server_code(), Some(ErrorCode::Unauthenticated));

    let bad_token = client.hello(1, "wrong").expect_err("bad token");
    assert_eq!(bad_token.server_code(), Some(ErrorCode::BadCredentials));
    let bad_tenant = client.hello(999, TOKEN).expect_err("unknown tenant");
    assert_eq!(bad_tenant.server_code(), Some(ErrorCode::BadCredentials));

    client.hello(1, TOKEN).expect("right token");
    let again = client.hello(1, TOKEN).expect_err("second hello");
    assert_eq!(again.server_code(), Some(ErrorCode::AlreadyAuthenticated));

    // A failed hello does not poison the connection's later auth.
    let usage = client.usage().expect("authenticated now");
    assert_eq!(usage.mvp_jobs, 0);
    server.shutdown();
}
