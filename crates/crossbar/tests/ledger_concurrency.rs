//! Ledger accounting under concurrency: the invariants a serving layer
//! leans on when multiple workers report interleaved `OpLedger` deltas.
//!
//! The contract under test:
//!
//! * **Partition** — cutting one array's activity into segments with
//!   [`OpLedger::delta_since`] and re-folding them serially
//!   ([`OpLedger::merge_serial`]) reconstructs the total, wherever the
//!   cuts fall (counts exactly; energy/busy to float tolerance).
//! * **Order independence** — folding per-worker deltas with
//!   [`OpLedger::merge_parallel`] gives the same aggregate in any
//!   arrival order: counts and energy sum, busy time is the max.
//! * **Threaded end-to-end** — real worker threads driving real
//!   crossbars and reporting deltas through a channel account exactly
//!   the same totals as a deterministic single-threaded replay.

use memcim_bits::BitVec;
use memcim_crossbar::{Crossbar, CrossbarBackend, OpLedger, ScoutingKind};
use memcim_units::{approx_eq, RelTol};
use proptest::prelude::*;

/// One array operation a synthetic worker may perform.
#[derive(Debug, Clone, Copy)]
enum Op {
    Program(u8),
    Read(u8),
    Scout(ScoutingKind),
}

const ROWS: usize = 4;
const COLS: usize = 64;

fn apply(xbar: &mut Crossbar, op: Op, salt: usize) {
    match op {
        Op::Program(row) => {
            let row = row as usize % ROWS;
            let data = BitVec::from_indices(COLS, &[salt % COLS, (salt * 7 + 3) % COLS]);
            xbar.program_row(row, &data).expect("program");
        }
        Op::Read(row) => {
            xbar.read_row(row as usize % ROWS).expect("read");
        }
        Op::Scout(kind) => {
            xbar.scouting(kind, &[0, 1]).expect("scout");
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Program),
        any::<u8>().prop_map(Op::Read),
        Just(Op::Scout(ScoutingKind::Or)),
        Just(Op::Scout(ScoutingKind::And)),
        Just(Op::Scout(ScoutingKind::Xor)),
    ]
}

fn counts(l: &OpLedger) -> (u64, u64, u64, u64) {
    (l.reads(), l.scouting_ops(), l.programs(), l.bits_programmed())
}

fn assert_float_close(a: &OpLedger, b: &OpLedger) -> Result<(), TestCaseError> {
    let tol = RelTol::new(1e-9);
    prop_assert!(approx_eq(a.energy().as_joules(), b.energy().as_joules(), tol));
    prop_assert!(approx_eq(a.busy_time().as_seconds(), b.busy_time().as_seconds(), tol));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Segment deltas re-folded serially reconstruct the total delta,
    /// for any placement of the snapshot cuts.
    #[test]
    fn segment_deltas_partition_the_total(
        ops in proptest::collection::vec(op_strategy(), 1..16),
        cuts in proptest::collection::vec(0usize..16, 0..4),
    ) {
        let mut xbar = Crossbar::rram(ROWS, COLS);
        let fresh = *xbar.ledger();
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (ops.len() + 1)).collect();
        cuts.sort_unstable();
        let mut snapshots = vec![fresh];
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut xbar, op, i);
            if cuts.contains(&(i + 1)) {
                snapshots.push(*xbar.ledger());
            }
        }
        snapshots.push(*xbar.ledger());

        let total = xbar.ledger().delta_since(&fresh);
        let mut refolded = OpLedger::new();
        for pair in snapshots.windows(2) {
            refolded.merge_serial(&pair[1].delta_since(&pair[0]));
        }
        prop_assert_eq!(counts(&refolded), counts(&total));
        assert_float_close(&refolded, &total)?;
        // A delta against the fresh snapshot is the ledger itself.
        prop_assert_eq!(total, *xbar.ledger());
    }

    /// Folding worker deltas with `merge_parallel` is order-independent:
    /// counts and energy sum over workers, busy time is the max.
    #[test]
    fn parallel_merge_is_order_independent(
        workers in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..12),
            1..5,
        ),
    ) {
        let deltas: Vec<OpLedger> = workers
            .iter()
            .enumerate()
            .map(|(w, ops)| {
                let mut xbar = Crossbar::rram(ROWS, COLS);
                let before = *xbar.ledger();
                for (i, &op) in ops.iter().enumerate() {
                    apply(&mut xbar, op, w * 31 + i);
                }
                xbar.ledger().delta_since(&before)
            })
            .collect();

        let fold = |order: &[usize]| {
            let mut agg = OpLedger::new();
            for &i in order {
                agg.merge_parallel(&deltas[i]);
            }
            agg
        };
        let forward: Vec<usize> = (0..deltas.len()).collect();
        let reverse: Vec<usize> = forward.iter().rev().copied().collect();
        let a = fold(&forward);
        let b = fold(&reverse);
        prop_assert_eq!(counts(&a), counts(&b));
        assert_float_close(&a, &b)?;

        // The aggregate is what the model says: sums and a max.
        let reads: u64 = deltas.iter().map(OpLedger::reads).sum();
        prop_assert_eq!(a.reads(), reads);
        let busy = deltas
            .iter()
            .map(|d| d.busy_time().as_seconds())
            .fold(0.0f64, f64::max);
        prop_assert_eq!(a.busy_time().as_seconds(), busy);
    }
}

/// Real threads, real crossbars, interleaved delta reports through a
/// channel: per-worker serial refolds and the cross-worker parallel
/// aggregate both match a deterministic single-threaded replay.
#[test]
fn threaded_workers_account_exactly() {
    use std::sync::mpsc;
    use std::thread;

    const WORKERS: usize = 8;
    const SEGMENTS: usize = 5;
    const OPS_PER_SEGMENT: usize = 6;

    // The deterministic op schedule for one worker.
    fn schedule(worker: usize) -> Vec<Op> {
        (0..SEGMENTS * OPS_PER_SEGMENT)
            .map(|i| match (worker + i) % 4 {
                0 => Op::Program((i % ROWS) as u8),
                1 => Op::Read((i % ROWS) as u8),
                2 => Op::Scout(ScoutingKind::Or),
                _ => Op::Scout(ScoutingKind::And),
            })
            .collect()
    }

    let (tx, rx) = mpsc::channel::<(usize, OpLedger)>();
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let tx = tx.clone();
            thread::spawn(move || {
                let mut xbar = Crossbar::rram(ROWS, COLS);
                let mut last = *xbar.ledger();
                for (i, &op) in schedule(w).iter().enumerate() {
                    apply(&mut xbar, op, w * 131 + i);
                    if (i + 1) % OPS_PER_SEGMENT == 0 {
                        let now = *xbar.ledger();
                        tx.send((w, now.delta_since(&last))).expect("report");
                        last = now;
                    }
                }
            })
        })
        .collect();
    drop(tx);

    // Fold deltas in arrival order — the interleaving is whatever the
    // scheduler produced.
    let mut per_worker = vec![OpLedger::new(); WORKERS];
    for (w, delta) in rx {
        per_worker[w].merge_serial(&delta);
    }
    for handle in handles {
        handle.join().expect("worker finishes");
    }

    // Replay each worker single-threaded and compare exactly: a
    // worker's serial refold sums floats in segment order, which the
    // arrival-order fold preserves per worker.
    let tol = RelTol::new(1e-9);
    let mut aggregate = OpLedger::new();
    for (w, folded) in per_worker.iter().enumerate() {
        let mut xbar = Crossbar::rram(ROWS, COLS);
        let before = *xbar.ledger();
        for (i, &op) in schedule(w).iter().enumerate() {
            apply(&mut xbar, op, w * 131 + i);
        }
        let expected = xbar.ledger().delta_since(&before);
        assert_eq!(
            (folded.reads(), folded.scouting_ops(), folded.programs(), folded.bits_programmed()),
            (
                expected.reads(),
                expected.scouting_ops(),
                expected.programs(),
                expected.bits_programmed()
            ),
            "worker {w} counts"
        );
        assert!(
            approx_eq(folded.energy().as_joules(), expected.energy().as_joules(), tol),
            "worker {w} energy"
        );
        assert!(
            approx_eq(folded.busy_time().as_seconds(), expected.busy_time().as_seconds(), tol),
            "worker {w} busy time"
        );
        aggregate.merge_parallel(folded);
    }

    // Across workers: energy sums, busy is the slowest worker.
    let total_reads: u64 = per_worker.iter().map(OpLedger::reads).sum();
    assert_eq!(aggregate.reads(), total_reads);
    let slowest = per_worker.iter().map(|l| l.busy_time().as_seconds()).fold(0.0f64, f64::max);
    assert_eq!(aggregate.busy_time().as_seconds(), slowest);
}
