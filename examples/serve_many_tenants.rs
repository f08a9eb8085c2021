//! The serving layer end to end: eight tenants sharing one pool of
//! banked engines — bitmap-index queries on the MVP side, streaming
//! pattern matching on the AP side — with per-tenant energy/latency
//! billing printed at the end.
//!
//! Run with: `cargo run --release --example serve_many_tenants`

use memcim::serve::{Job, ServeConfig, Service};
use memcim_bits::BitVec;
use memcim_mvp::Instruction;

const TENANTS: u64 = 8;
const QUERIES_PER_TENANT: usize = 16;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let config = ServeConfig::default().with_workers(4).with_mvp_geometry(16, 8, 128);
    let width = config.mvp_width();
    println!(
        "service: {} workers, queue depth {}, MVP {}x{} ({} banks)",
        config.workers, config.queue_depth, config.mvp_rows, width, config.mvp_banks
    );
    let service = Service::start(config);

    std::thread::scope(|scope| {
        for tenant in 0..TENANTS {
            let service = &service;
            scope.spawn(move || {
                // Every tenant fires a burst of bitmap intersections…
                let tickets: Vec<_> = (0..QUERIES_PER_TENANT)
                    .map(|i| {
                        let salt = tenant as usize * 131 + i * 17;
                        let lhs: Vec<usize> = (0..12).map(|j| (salt + j * 83) % width).collect();
                        let rhs: Vec<usize> = (0..12).map(|j| (salt + j * 59) % width).collect();
                        service
                            .submit(
                                tenant,
                                Job::MvpProgram(vec![
                                    Instruction::Store {
                                        row: 0,
                                        data: BitVec::from_indices(width, &lhs),
                                    },
                                    Instruction::Store {
                                        row: 1,
                                        data: BitVec::from_indices(width, &rhs),
                                    },
                                    Instruction::And { srcs: vec![0, 1], dst: Some(2) },
                                    Instruction::Read { row: 2 },
                                ]),
                            )
                            .expect("service is running")
                    })
                    .collect();
                let hits: usize = tickets
                    .into_iter()
                    .map(|t| {
                        let out = t.wait().expect("query runs").into_mvp().expect("mvp");
                        out.outputs[0][0].count_ones()
                    })
                    .sum();

                // …and odd tenants additionally stream a rule scan.
                if tenant % 2 == 1 {
                    let session = service
                        .open_session(tenant, &["GET /[a-z]+", "EVIL[a-z]*"])
                        .expect("rules compile");
                    for chunk in [&b"GET /inde"[..], b"x then EV", b"ILpayload"] {
                        let chunks = vec![chunk.to_vec()];
                        service
                            .submit(tenant, Job::ApFeedMany { session, chunks })
                            .expect("running")
                            .wait()
                            .expect("feed runs");
                    }
                    let run = service
                        .submit(tenant, Job::ApFinishMany { session })
                        .expect("running")
                        .wait()
                        .expect("finish runs")
                        .into_ap_finish_many()
                        .expect("finish")
                        .remove(0);
                    println!(
                        "tenant {tenant}: {hits:4} bitmap hits, {} rule events over {} bytes",
                        run.matches.len(),
                        run.symbols
                    );
                } else {
                    println!("tenant {tenant}: {hits:4} bitmap hits");
                }
            });
        }
    });

    println!("\nper-tenant bill (accounting settled before each ticket resolved):");
    println!(
        "{:>6} {:>6} {:>14} {:>14} {:>12}",
        "tenant", "jobs", "energy", "engine time", "scout ops"
    );
    for (tenant, usage) in service.shutdown() {
        println!(
            "{tenant:>6} {:>6} {:>14} {:>14} {:>12}",
            usage.jobs(),
            format!("{}", usage.total_energy()),
            format!("{}", usage.total_busy()),
            usage.mvp.scouting_ops(),
        );
    }
    Ok(())
}
