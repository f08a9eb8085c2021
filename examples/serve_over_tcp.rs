//! The network front door end to end: a `NetServer` on a real loopback
//! socket, tenants authenticating with tokens and speaking the framed
//! wire protocol — bitmap queries, a streaming AP session, usage and
//! stats verbs — plus the admission path refusing an over-quota tenant
//! and a rate-limited one with typed error frames *before* the queue.
//!
//! Run with: `cargo run --release --example serve_over_tcp`

use memcim::serve::net::{ClientError, ErrorCode, NetClient, NetConfig, NetServer, TenantPolicy};
use memcim::serve::{ServeConfig, Service};
use memcim_bits::BitVec;
use memcim_mvp::Instruction;
use std::sync::Arc;

const ALICE: u64 = 1;
const BOB: u64 = 2;
const MALLORY: u64 = 3;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let config = ServeConfig::default().with_workers(2).with_mvp_geometry(16, 8, 128);
    let width = config.mvp_width();
    let service = Arc::new(Service::try_start(config)?);

    // Provision three tenants: Alice unconstrained, Bob with a lifetime
    // quota of 4 jobs, Mallory with a 2-job burst that never refills.
    let server = NetServer::start(
        Arc::clone(&service),
        NetConfig::default()
            .with_tenant(ALICE, TenantPolicy::new("alice-token"))
            .with_tenant(BOB, TenantPolicy::new("bob-token").with_quota(4))
            .with_tenant(MALLORY, TenantPolicy::new("mallory-token").with_rate(2, 0.0)),
    )?;
    let addr = server.local_addr();
    println!("serving on {addr}\n");

    // --- Alice: the full happy path over TCP ---------------------------
    let mut alice = NetClient::connect(addr)?;
    alice.hello(ALICE, "alice-token")?;
    let result = alice.submit_mvp(&[vec![
        Instruction::Store { row: 0, data: BitVec::from_indices(width, &[1, 5, 9]) },
        Instruction::Store { row: 1, data: BitVec::from_indices(width, &[5, 9, 13]) },
        Instruction::And { srcs: vec![0, 1], dst: Some(2) },
        Instruction::Read { row: 2 },
    ]])?;
    let hits: Vec<usize> = result.outputs[0][0].ones().collect();
    println!("alice: bitmap intersection -> rows {hits:?}, {} burst energy", result.energy);

    let session = alice.ap_open(&["GET /[a-z]+", "EVIL[a-z]*"])?;
    for chunk in [&b"GET /inde"[..], b"x then EV", b"ILpayload"] {
        alice.ap_feed(session, chunk)?;
    }
    let run = alice.ap_finish(session)?;
    alice.ap_close(session)?;
    println!("alice: {} rule events over {} streamed bytes", run.matches.len(), run.symbols);
    let bill = alice.usage()?;
    println!(
        "alice: billed {} MVP + {} AP jobs, {} total energy\n",
        bill.mvp_jobs,
        bill.ap_jobs,
        bill.mvp_energy + bill.ap_energy
    );

    // --- Bob: the fifth job crosses his lifetime quota -----------------
    let mut bob = NetClient::connect(addr)?;
    bob.hello(BOB, "bob-token")?;
    let program = || vec![vec![Instruction::Store { row: 0, data: BitVec::new(width) }]];
    for _ in 0..4 {
        bob.submit_mvp(&program())?;
    }
    match bob.submit_mvp(&program()) {
        Err(ClientError::Server { code: ErrorCode::QuotaExceeded, message }) => {
            println!("bob: refused before the queue -- {message}");
        }
        other => panic!("expected a quota refusal, got {other:?}"),
    }

    // --- Mallory: two-job burst, then the bucket is dry ----------------
    let mut mallory = NetClient::connect(addr)?;
    mallory.hello(MALLORY, "mallory-token")?;
    for _ in 0..2 {
        mallory.submit_mvp(&program())?;
    }
    match mallory.submit_mvp(&program()) {
        Err(ClientError::Server { code: ErrorCode::RateLimited, message }) => {
            println!("mallory: refused before the queue -- {message}");
        }
        other => panic!("expected a rate refusal, got {other:?}"),
    }

    // --- Service-wide health, over the wire ----------------------------
    let stats = alice.stats()?;
    println!(
        "\nstats: {} workers, {}/{} engines live, queue {}/{}, {} open sessions",
        stats.workers,
        stats.live_engines,
        stats.live_engines + stats.retired_engines,
        stats.queue_depth,
        stats.queue_capacity,
        stats.sessions
    );
    for row in &stats.tenants {
        println!("  tenant {}: {} jobs, {}", row.tenant, row.jobs, row.energy);
    }

    server.shutdown();
    Arc::try_unwrap(service).expect("server released its handle").shutdown();
    Ok(())
}
