//! Batched MVP execution: many independent programs against one
//! substrate, with aggregate cost reporting.
//!
//! The MVP serves its host as a shared vector engine: the interesting
//! unit of accounting is rarely one instruction but a *request stream* —
//! e.g. a burst of bitmap-index queries hitting the same banked
//! crossbar. [`MvpSimulator::run_batch`] executes a slice of independent
//! [`Instruction`] programs back-to-back on the simulator's backend and
//! returns a [`BatchReport`] with every program's outputs plus the
//! ledger delta the batch actually cost (computed via
//! [`OpLedger::delta_since`], so a reused simulator reports only the
//! batch's own activity).

use crate::{Instruction, MvpError, MvpSimulator};
use memcim_bits::BitVec;
use memcim_crossbar::{CrossbarBackend, OpLedger};

/// The result of [`MvpSimulator::run_batch`]: per-program outputs plus
/// the aggregate activity the batch cost.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// `outputs[i]` holds program `i`'s outputs (its `Read`s and sensed
    /// gates) in program order.
    pub outputs: Vec<Vec<BitVec>>,
    /// Ledger delta over the whole batch (banked backends: energy/ops
    /// summed over banks, busy time max-over-banks).
    pub ledger: OpLedger,
}

impl BatchReport {
    /// Number of programs executed.
    pub fn programs_run(&self) -> usize {
        self.outputs.len()
    }
}

impl<B: CrossbarBackend> MvpSimulator<B> {
    /// Executes every program of `programs` in order on this
    /// simulator's backend, returning all outputs and the aggregate
    /// ledger delta. Programs are independent requests: each may freely
    /// reuse the rows of its predecessors.
    ///
    /// # Errors
    ///
    /// Stops at the first failing program and returns its error; the
    /// activity of already-executed programs remains on the ledger.
    ///
    /// # Examples
    ///
    /// ```
    /// use memcim_bits::BitVec;
    /// use memcim_mvp::{Instruction, MvpSimulator};
    ///
    /// # fn main() -> Result<(), memcim_mvp::MvpError> {
    /// let programs = [3usize, 5].map(|bit| {
    ///     vec![
    ///         Instruction::Store { row: 0, data: BitVec::from_indices(64, &[bit, bit + 1]) },
    ///         Instruction::Store { row: 1, data: BitVec::from_indices(64, &[bit]) },
    ///         Instruction::Or { srcs: vec![0, 1], dst: Some(2) },
    ///         Instruction::Read { row: 2 },
    ///     ]
    /// });
    /// let mut mvp = MvpSimulator::banked(4, 2, 32);
    /// let report = mvp.run_batch(&programs)?;
    /// assert_eq!(report.programs_run(), 2);
    /// assert_eq!(report.outputs[0][0].ones().collect::<Vec<_>>(), vec![3, 4]);
    /// assert_eq!(report.outputs[1][0].ones().collect::<Vec<_>>(), vec![5, 6]);
    /// // The delta covers exactly this batch, not the simulator's past.
    /// assert_eq!(report.ledger.reads(), 2 * 2, "one read per program, per bank");
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_batch(&mut self, programs: &[Vec<Instruction>]) -> Result<BatchReport, MvpError> {
        let before = self.crossbar_mut().ledger_parts();
        let mut outputs = Vec::with_capacity(programs.len());
        for program in programs {
            outputs.push(self.run_program(program)?);
        }
        // Diff per subarray, then re-aggregate: the busy time of the
        // *aggregate* is a max over banks, which is not monotone in the
        // batch's own work (a quiet bank's activity would vanish behind
        // an already-busy one), so only part-wise deltas are exact.
        let mut ledger = OpLedger::new();
        for (after, before) in self.crossbar_mut().ledger_parts().iter().zip(&before) {
            ledger.merge_parallel(&after.delta_since(before));
        }
        Ok(BatchReport { outputs, ledger })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;

    fn query(shift: usize, width: usize) -> Vec<Instruction> {
        vec![
            Instruction::Store { row: 0, data: BitVec::from_indices(width, &[shift, shift + 8]) },
            Instruction::Store { row: 1, data: BitVec::from_indices(width, &[shift]) },
            Instruction::And { srcs: vec![0, 1], dst: Some(2) },
            Instruction::Read { row: 2 },
        ]
    }

    #[test]
    fn batch_outputs_match_individual_runs() {
        let width = 96;
        let batch = [query(0, width), query(3, width), query(7, width)];
        let mut batched = MvpSimulator::new(4, width);
        let report = batched.run_batch(&batch).expect("batch runs");
        assert_eq!(report.programs_run(), 3);
        for (i, program) in batch.iter().enumerate() {
            let mut solo = MvpSimulator::new(4, width);
            assert_eq!(solo.run_program(program).expect("solo"), report.outputs[i]);
        }
    }

    #[test]
    fn ledger_delta_covers_only_the_batch() {
        let width = 64;
        let mut mvp = MvpSimulator::new(4, width);
        // Pre-batch activity must not leak into the report.
        mvp.run_program(&query(1, width)).expect("warm-up");
        let report = mvp.run_batch(&[query(2, width)]).expect("batch");
        assert_eq!(report.ledger.scouting_ops(), 1);
        assert_eq!(report.ledger.reads(), 1);
        assert!(report.ledger.energy().as_joules() > 0.0);
        assert!(report.ledger.energy() < mvp.ledger().energy());
    }

    #[test]
    fn banked_batch_agrees_with_monolithic_batch() {
        let width = 90;
        let batch = [query(0, width), query(11, width), query(40, width)];
        let mut mono = MvpSimulator::new(4, width);
        let mut banked = MvpSimulator::banked(4, 3, 30);
        let rm = mono.run_batch(&batch).expect("mono");
        let rb = banked.run_batch(&batch).expect("banked");
        assert_eq!(rm.outputs, rb.outputs);
        // Energy sums over banks; wall clock does not.
        assert!(rb.ledger.busy_time().as_seconds() <= rm.ledger.busy_time().as_seconds());
    }

    #[test]
    fn banked_busy_delta_counts_work_hidden_behind_a_busier_bank() {
        // Warm up bank 0 only: a store whose bits all land in the first
        // bank records programming latency there and nowhere else.
        let mut warmed = MvpSimulator::banked(4, 2, 32);
        warmed
            .run_program(&[Instruction::Store {
                row: 0,
                data: BitVec::from_indices(64, &[0, 5, 20]),
            }])
            .expect("warm bank 0");
        // The batch then works only in bank 1 (plus a read that touches
        // both banks equally).
        let batch = [vec![
            Instruction::Store { row: 1, data: BitVec::from_indices(64, &[40, 50]) },
            Instruction::Read { row: 1 },
        ]];
        let report = warmed.run_batch(&batch).expect("batch");
        // A fresh simulator running the same batch measures the true
        // cost; the warmed simulator must report the same delta even
        // though bank 0's earlier busy time still dominates the maximum.
        let fresh = MvpSimulator::banked(4, 2, 32).run_batch(&batch).expect("fresh");
        assert_eq!(report.ledger.busy_time(), fresh.ledger.busy_time());
        assert_eq!(report.ledger.bits_programmed(), fresh.ledger.bits_programmed());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut mvp = MvpSimulator::new(2, 32);
        let report = mvp.run_batch(&[]).expect("empty");
        assert_eq!(report.programs_run(), 0);
        assert_eq!(report.ledger.energy().as_joules(), 0.0);
    }

    #[test]
    fn a_failing_program_stops_the_batch() {
        let mut mvp = MvpSimulator::new(2, 32);
        let batch = [vec![Instruction::Read { row: 99 }], query(0, 32)];
        assert!(matches!(
            mvp.run_batch(&batch),
            Err(MvpError::Invalid(Violation::RowOutOfRange { row: 99, .. }))
        ));
    }
}
