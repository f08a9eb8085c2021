//! Client robustness and the operator-facing wire surface: socket
//! timeouts, bounded connect retry, idempotent-verb reconnects, the
//! budget headroom in `Usage`, the placement counters in `Stats`, and
//! a graceful drain driven through the network front door.

use memcim_serve::net::wire::{read_frame, write_frame};
use memcim_serve::net::{
    ClientError, ErrorCode, NetClient, NetConfig, NetServer, Response, TenantPolicy, WireRate,
    WireUsage, MAX_FRAME_DEFAULT,
};
use memcim_serve::{ServeConfig, Service};
use memcim_units::{Joules, Seconds};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN: &str = "robustness-token";

fn start_server(serve: ServeConfig, net: NetConfig) -> (Arc<Service>, NetServer) {
    let service = Arc::new(Service::try_start(serve).expect("service starts"));
    let server = NetServer::start(Arc::clone(&service), net).expect("server starts");
    (service, server)
}

/// `Usage` reports the tenant's remaining quota and rate headroom, and
/// refusals leave the reported budget unchanged.
#[test]
fn usage_reports_quota_and_rate_headroom() {
    let (_service, server) = start_server(
        ServeConfig::default().with_workers(2).with_mvp_geometry(8, 2, 32),
        NetConfig::default()
            .with_tenant(1, TenantPolicy::new(TOKEN).with_quota(10).with_rate(5, 0.0))
            .with_tenant(2, TenantPolicy::new("free")),
    );
    let width = 64;
    let program = vec![
        memcim_mvp::Instruction::Store {
            row: 0,
            data: memcim_bits::BitVec::from_indices(width, &[3]),
        },
        memcim_mvp::Instruction::Read { row: 0 },
    ];

    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(1, TOKEN).expect("auth");
    for _ in 0..3 {
        client.submit_mvp(std::slice::from_ref(&program)).expect("within quota and burst");
    }
    let usage = client.usage().expect("usage");
    assert_eq!(usage.mvp_jobs, 3);
    assert_eq!(usage.quota_remaining, Some(7), "10-job quota minus 3 admitted");
    let rate = usage.rate.expect("tenant 1 is rate-limited");
    assert_eq!(rate.burst, 5);
    assert!(
        (rate.tokens - 2.0).abs() < 1e-6,
        "burst of 5, 3 spent, zero refill: {} tokens",
        rate.tokens
    );

    // Exhaust the burst; the refusal charges nothing.
    for _ in 0..2 {
        client.submit_mvp(std::slice::from_ref(&program)).expect("burst lasts exactly 5");
    }
    let refused = client.submit_mvp(std::slice::from_ref(&program)).expect_err("bucket dry");
    assert_eq!(refused.server_code(), Some(ErrorCode::RateLimited));
    let usage = client.usage().expect("usage");
    assert_eq!(usage.quota_remaining, Some(5), "refusals do not charge the quota");
    assert!(usage.rate.expect("rate-limited").tokens < 1.0);

    // An unlimited tenant reports open headroom.
    let mut free = NetClient::connect(server.local_addr()).expect("connects");
    free.hello(2, "free").expect("auth");
    let usage = free.usage().expect("usage");
    assert_eq!(usage.quota_remaining, None);
    assert_eq!(usage.rate, None);
    server.shutdown();
}

/// `Stats` carries the placement shape: shard count, replication
/// factor, and how many shards have lost their whole replica set.
#[test]
fn stats_reports_the_placement_counters() {
    let (_service, server) = start_server(
        ServeConfig::default().with_workers(4).with_mvp_geometry(8, 2, 32).with_placement(4, 2),
        NetConfig::default().with_tenant(1, TenantPolicy::new(TOKEN)),
    );
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(1, TOKEN).expect("auth");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.replicas, 2);
    assert_eq!(stats.unavailable_shards, 0);
    server.shutdown();

    // An unsharded service reports zeros, distinguishing "no placement"
    // from "placement with nothing lost".
    let (_service, server) = start_server(
        ServeConfig::default().with_workers(2).with_mvp_geometry(8, 2, 32),
        NetConfig::default().with_tenant(1, TenantPolicy::new(TOKEN)),
    );
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(1, TOKEN).expect("auth");
    let stats = client.stats().expect("stats");
    assert_eq!((stats.shards, stats.replicas, stats.unavailable_shards), (0, 0, 0));
    server.shutdown();
}

/// A `CorrOpen` wider than one frame could ever feed is refused at the
/// front door with a typed error, before the accumulator allocates per
/// stream: the refusal opens no session and charges no admission. A
/// nonempty window stream costs at least 12 wire bytes, so a 1 200-byte
/// frame feeds at most 100 streams.
#[test]
fn corr_open_wider_than_a_frame_can_feed_is_refused_for_free() {
    let (_service, server) = start_server(
        ServeConfig::default().with_workers(2).with_mvp_geometry(128, 2, 32),
        NetConfig::default()
            .with_max_frame(1_200)
            .with_tenant(1, TenantPolicy::new(TOKEN).with_quota(2)),
    );
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(1, TOKEN).expect("auth");
    // 128 rows fit the planes of even `u32::MAX` streams, so only the
    // frame bound stands between this request and a ~34 GB allocation.
    for streams in [u32::MAX as usize, 101] {
        let refused = client.corr_open(streams, 0).expect_err("wider than a frame can feed");
        assert_eq!(refused.server_code(), Some(ErrorCode::Engine), "{streams} streams");
        assert!(refused.to_string().contains("streams"), "{refused}");
    }
    assert_eq!(client.stats().expect("stats").sessions, 0, "no session opened");
    assert_eq!(client.usage().expect("usage").quota_remaining, Some(2), "nothing charged");

    client.corr_open(100, 0).expect("exactly as wide as a frame can feed");
    assert_eq!(client.stats().expect("stats").sessions, 1);
    assert_eq!(client.usage().expect("usage").quota_remaining, Some(1));
    server.shutdown();
}

/// `NetServer::drain` refuses new submissions and session opens with
/// typed `ShuttingDown` frames while read-only verbs — and the final
/// bill — keep serving on the same connections.
#[test]
fn drain_over_the_wire_refuses_new_work_but_serves_the_bill() {
    let (_service, server) = start_server(
        ServeConfig::default().with_workers(2).with_mvp_geometry(8, 2, 32),
        NetConfig::default().with_tenant(1, TenantPolicy::new(TOKEN)),
    );
    let width = 64;
    let program = vec![
        memcim_mvp::Instruction::Store {
            row: 0,
            data: memcim_bits::BitVec::from_indices(width, &[5]),
        },
        memcim_mvp::Instruction::Read { row: 0 },
    ];
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.hello(1, TOKEN).expect("auth");
    client.submit_mvp(std::slice::from_ref(&program)).expect("served before the drain");

    assert!(!server.is_draining());
    server.drain();
    assert!(server.is_draining());

    let refused = client.submit_mvp(std::slice::from_ref(&program)).expect_err("draining");
    assert_eq!(refused.server_code(), Some(ErrorCode::ShuttingDown));
    let refused = client.ap_open(&["ab+c"]).expect_err("draining");
    assert_eq!(refused.server_code(), Some(ErrorCode::ShuttingDown));

    // The books remain readable: exactly the pre-drain job is billed.
    let usage = client.usage().expect("usage still serves");
    assert_eq!(usage.mvp_jobs, 1, "billed exactly what completed");
    assert!(client.stats().is_ok(), "stats still serves");
    server.shutdown();
}

/// A server that accepts the connection and then goes silent surfaces
/// as a timed-out transport error, not a hung client.
#[test]
fn read_timeout_unsticks_a_silent_server() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || {
        // Accept and hold the stream open, answering nothing.
        let (stream, _) = listener.accept().expect("accepts");
        std::thread::sleep(Duration::from_millis(500));
        drop(stream);
    });
    let mut client = NetClient::connect_timeout(addr, Duration::from_secs(1))
        .expect("connects")
        .with_timeouts(Some(Duration::from_millis(50)), Some(Duration::from_millis(50)));
    let started = Instant::now();
    let err = client.usage().expect_err("nobody will answer");
    assert!(matches!(err, ClientError::Transport(_)), "a timeout is transport trouble: {err}");
    assert!(started.elapsed() < Duration::from_millis(400), "the timeout bounded the wait");
    hold.join().expect("joins");
}

/// Connecting to a dead port with bounded retry fails after its
/// attempts — it neither hangs nor spins forever.
#[test]
fn connect_with_retry_is_bounded() {
    // Bind, learn the port, drop the listener: the port now refuses.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        listener.local_addr().expect("addr")
    };
    let started = Instant::now();
    let err = NetClient::connect_with_retry(addr, 3, Duration::from_millis(5))
        .err()
        .expect("nobody listens");
    assert!(matches!(err, ClientError::Transport(_)));
    // 3 attempts with 5 ms doubling backoff: well under a second.
    assert!(started.elapsed() < Duration::from_secs(2));
}

/// The idempotent-verb retry: a connection cut mid-`Usage` reconnects,
/// replays the `hello`, reissues the request, and the caller never sees
/// the cut. The stand-in server also proves the new budget fields
/// survive a real socket.
#[test]
fn idempotent_usage_survives_a_cut_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    let answered_usage = WireUsage {
        mvp_jobs: 42,
        mvp_reads: 1,
        mvp_scouting_ops: 2,
        mvp_programs: 3,
        mvp_corrected_errors: 0,
        mvp_energy: Joules::from_femtojoules(5.0),
        mvp_busy: Seconds::from_nanoseconds(6.0),
        ap_jobs: 0,
        ap_symbols: 0,
        ap_energy: Joules::from_femtojoules(0.0),
        ap_busy: Seconds::from_nanoseconds(0.0),
        corr_jobs: 8,
        corr_events: 9,
        quota_remaining: Some(7),
        rate: Some(WireRate { tokens: 1.5, burst: 4 }),
    };
    let expected = answered_usage;
    let server = std::thread::spawn(move || {
        // Connection 1: accept the hello, then cut mid-request.
        let (mut first, _) = listener.accept().expect("accepts");
        let _hello = read_frame(&mut first, MAX_FRAME_DEFAULT).expect("hello frame");
        write_frame(&mut first, &Response::HelloOk.encode().expect("encodes")).expect("answers");
        let _usage_request = read_frame(&mut first, MAX_FRAME_DEFAULT);
        drop(first);
        // Connection 2: the client's reconnect — it must replay the
        // hello before reissuing the usage request.
        let (mut second, _) = listener.accept().expect("reconnect arrives");
        let _hello = read_frame(&mut second, MAX_FRAME_DEFAULT).expect("replayed hello");
        write_frame(&mut second, &Response::HelloOk.encode().expect("encodes")).expect("answers");
        let _usage_request = read_frame(&mut second, MAX_FRAME_DEFAULT).expect("reissued usage");
        write_frame(&mut second, &Response::Usage(answered_usage).encode().expect("encodes"))
            .expect("answers");
    });

    let mut client = NetClient::connect(addr)
        .expect("connects")
        .with_retry(3, Duration::from_millis(5))
        .with_timeouts(Some(Duration::from_secs(2)), Some(Duration::from_secs(2)));
    client.hello(9, "tok").expect("first connection authenticates");
    let usage = client.usage().expect("the retry hides the cut");
    assert_eq!(usage, expected, "budget fields included, bit-for-bit");
    server.join().expect("joins");
}
