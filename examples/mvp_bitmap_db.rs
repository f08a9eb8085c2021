//! FastBit-style bitmap-index query acceleration on the MVP (the
//! paper's database use case [17]), plus k-mer filtering and BFS — the
//! three workloads of Section III.B — each checked against a scalar
//! reference.
//!
//! Run with: `cargo run --release --example mvp_bitmap_db`

use memcim::prelude::*;
use memcim_automata::dna;
use memcim_mvp::workloads::{bfs::Graph, bitmap::BitmapTable, kmer::ShiftedBaseIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let mut rng = SmallRng::seed_from_u64(7);

    // --- Bitmap-index selection ---------------------------------------
    let records = 16_384;
    let col_region: Vec<u8> = (0..records).map(|_| rng.gen_range(0..16)).collect();
    let col_status: Vec<u8> = (0..records).map(|_| rng.gen_range(0..8)).collect();
    let table = BitmapTable::new(col_region, col_status, 16)?;
    let mut mvp = MvpSimulator::new(32, records);
    // SELECT * WHERE region IN (1, 4, 9) AND status IN (0, 3)
    let fast = table.query_mvp(&mut mvp, &[1, 4, 9], &[0, 3])?;
    let slow = table.query_reference(&[1, 4, 9], &[0, 3]);
    assert_eq!(fast, slow);
    println!(
        "bitmap query over {records} records: {} hits; MVP cost: {} scouting ops, {}",
        fast.count_ones(),
        mvp.ledger().scouting_ops(),
        mvp.ledger().energy()
    );

    // The same query on a banked substrate: 64 parallel subarrays, one
    // batch — bit-identical answer, wall clock of one bank cycle.
    let mut banked = MvpSimulator::banked(32, 64, records / 64);
    let report = banked.run_batch(&[table.query_plan(&[1, 4, 9], &[0, 3])])?;
    assert_eq!(report.outputs[0][0], slow);
    println!(
        "same query on 64 banks: {} scouting ops across banks, busy {} (vs {} monolithic)",
        report.ledger.scouting_ops(),
        report.ledger.busy_time(),
        mvp.ledger().busy_time()
    );

    // --- k-mer filtering ------------------------------------------------
    let mut genome = dna::random_genome(&mut rng, 8_192);
    dna::plant(&mut genome, b"ACGTACGT", &[512, 4_096, 8_000]);
    let index = ShiftedBaseIndex::build(&genome, 8)?;
    let mut mvp_k = MvpSimulator::new(16, index.positions());
    let kmer = b"ACGTACGT";
    let fast_k = index.find_mvp(&mut mvp_k, kmer)?;
    let slow_k = index.find_reference(kmer)?;
    assert_eq!(fast_k, slow_k);
    println!(
        "k-mer {} over {} positions: {} hits in ONE in-memory 8-way AND",
        String::from_utf8_lossy(kmer),
        index.positions(),
        fast_k.count_ones()
    );

    // --- BFS frontier expansion -----------------------------------------
    let n = 512;
    let mut g = Graph::new(n)?;
    for _ in 0..n * 8 {
        g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n))?;
    }
    let mut mvp_g = MvpSimulator::new(16, n);
    let fast_levels = g.bfs_mvp(&mut mvp_g, 0, 8)?;
    let slow_levels = g.bfs_reference(0);
    assert_eq!(fast_levels, slow_levels);
    let reached = fast_levels.iter().filter(|&&l| l != usize::MAX).count();
    let depth = fast_levels.iter().filter(|&&l| l != usize::MAX).max().copied().unwrap_or(0);
    println!(
        "BFS over {n} vertices: {reached} reached, depth {depth}; frontier ORs ran in memory ({} scouting ops)",
        mvp_g.ledger().scouting_ops()
    );

    // --- Architecture context (Fig. 4 reference point) -------------------
    let c = evaluate(&SystemConfig::paper_defaults(), MissRates::new(0.2, 0.2));
    println!(
        "\nFig. 4 context at 20 %/20 % miss rates: ηPE gain {:.1}×, ηE gain {:.1}×, ηPA gain {:.2}×",
        c.eta_pe_gain(),
        c.eta_e_gain(),
        c.eta_pa_gain()
    );
    Ok(())
}
