//! `bitmap_wire`: each client `Submit`s one bitmap query plan at a time,
//! round-robin over the four plans `perf_report` and `serve_load` use,
//! against a seeded 2 048-record table.

use crate::live::{self, Recorder, Script, Stack, Tally, SERVE_TENANT, WIRE_TENANT, WORKERS};
use crate::trace::{self, Ladder, Rung, SharedLog, TimingBackend};
use crate::Workload;
use memcim_bits::BitVec;
use memcim_mvp::workloads::bitmap::BitmapTable;
use memcim_mvp::{Instruction, MvpSimulator};
use memcim_serve::net::{NetClient, WireStats, WireUsage};
use memcim_serve::{Job, ServeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RECORDS: usize = 2_048;
/// Serve geometry: 32 rows × 64 banks × 32 columns = one record per
/// column.
const ROWS: usize = 32;
const BANKS: usize = 64;
const BANK_COLS: usize = RECORDS / BANKS;
const QUERIES: [(&[u8], &[u8]); 4] =
    [(&[1, 4, 9], &[0, 3]), (&[2, 5], &[1, 6]), (&[11], &[2, 4, 7]), (&[0, 8, 14], &[5])];
/// Requests replayed down the ladder and in the simulated-cost replay.
const LADDER_REQUESTS: usize = 400;
const SIM_REQUESTS: usize = 64;

/// The generated table's query plans and their reference answers.
pub struct Bitmap {
    plans: Vec<Vec<Instruction>>,
    expected: Vec<BitVec>,
}

impl Bitmap {
    /// Draws the table from `seed`.
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let col1: Vec<u8> = (0..RECORDS).map(|_| rng.gen_range(0..16)).collect();
        let col2: Vec<u8> = (0..RECORDS).map(|_| rng.gen_range(0..8)).collect();
        let table = BitmapTable::new(col1, col2, 16).map_err(|e| e.to_string())?;
        Ok(Self {
            plans: QUERIES.iter().map(|(s1, s2)| table.query_plan(s1, s2)).collect(),
            expected: QUERIES.iter().map(|(s1, s2)| table.query_reference(s1, s2)).collect(),
        })
    }

    /// Checks one answer: the plan's single `Read` is the result row.
    fn check(&self, i: usize, outputs: &[Vec<BitVec>]) -> Result<(), String> {
        match outputs {
            [reads] if reads.len() == 1 && reads[0] == self.expected[i] => Ok(()),
            _ => Err(format!("query {i}: answer differs from BitmapTable::query_reference")),
        }
    }
}

struct Client<'a> {
    w: &'a Bitmap,
    next: usize,
}

impl Script for Client<'_> {
    fn cycle(&mut self, client: &mut NetClient, rec: &mut Recorder) -> Result<(), String> {
        let i = self.next % self.w.plans.len();
        self.next += 1;
        let out = rec.call(|| client.submit_mvp(std::slice::from_ref(&self.w.plans[i])))?;
        rec.bursts.push(out.jobs);
        rec.tally.submits += 1;
        self.w.check(i, &out.outputs).map_err(|e| rec.wrong(e))?;
        rec.work(1);
        Ok(())
    }
}

impl Workload for Bitmap {
    fn config(&self) -> ServeConfig {
        ServeConfig::default()
            .with_workers(WORKERS)
            .with_queue_depth(64)
            .with_max_burst(8)
            .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
    }

    fn script(&self, client: usize) -> Box<dyn Script + '_> {
        // Clients start at different plans so concurrent bursts mix.
        Box::new(Client { w: self, next: client })
    }

    fn check_books(
        &self,
        tallies: &[Tally],
        usages: &[WireUsage],
        stats: &WireStats,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        for (t, u) in tallies.iter().zip(usages) {
            live::expect_eq(&mut problems, "MVP jobs", t.submits, u.mvp_jobs);
        }
        // Each Submit is looked up in the verify cache twice: once by the
        // front door before admission, once by the submit path.
        let submits: u64 = tallies.iter().map(|t| t.submits).sum();
        live::expect_eq(
            &mut problems,
            "verify-cache lookups",
            2 * submits,
            stats.mvp_cache_hits + stats.mvp_cache_misses,
        );
        problems
    }

    fn sim(&self) -> Result<(f64, f64), String> {
        let mut engine = MvpSimulator::banked(ROWS, BANKS, BANK_COLS);
        for k in 0..SIM_REQUESTS {
            let i = k % self.plans.len();
            let reads = engine.run_program(&self.plans[i]).map_err(|e| e.to_string())?;
            self.check(i, &[reads])?;
        }
        let ledger = engine.ledger();
        let n = SIM_REQUESTS as f64;
        Ok((ledger.energy().as_picojoules() / 1e3 / n, ledger.busy_time().as_nanoseconds() / n))
    }

    fn ladder(&self, stack: &Stack, log: &SharedLog, ladder: &mut Ladder) -> Result<(), String> {
        let mut wire = stack.connect(WIRE_TENANT)?;
        let service = &stack.service;
        let mut engine =
            MvpSimulator::with_backend(TimingBackend::new(ROWS, BANKS, BANK_COLS, log.clone()));
        let mut verified = [false; QUERIES.len()];
        for k in 0..LADDER_REQUESTS {
            let i = k % self.plans.len();
            let plan = &self.plans[i];
            let (wire_ns, out) = trace::time(|| wire.submit_mvp(std::slice::from_ref(plan)));
            self.check(i, &out.map_err(|e| e.to_string())?.outputs)?;
            let (serve_ns, out) = trace::time(|| {
                service.verify_program_cached(SERVE_TENANT, plan)?;
                service.try_submit(SERVE_TENANT, Job::MvpProgram(plan.clone()))?.wait()
            });
            let out = out
                .map_err(|e| e.to_string())?
                .into_mvp()
                .ok_or("Submit answered a non-MVP output")?;
            self.check(i, &out.outputs)?;

            // Engine level: what the worker does for the request, with
            // the verification the service's cache lets through.
            let mut engine_ns = 0;
            if !std::mem::replace(&mut verified[i], true) {
                let (ns, diagnostics) =
                    trace::time(|| memcim_verify::verify_program(plan, ROWS, RECORDS));
                if memcim_verify::first_error(&diagnostics).is_some() {
                    return Err(format!("query {i}: the verifier refuses the plan"));
                }
                ladder.span("verify.program", ns);
                ladder.count("verify.calls", 1);
                engine_ns += ns;
            }
            let before = trace::lock(log).total_ns;
            let (run_ns, reads) = trace::time(|| engine.run_program(plan));
            self.check(i, &[reads.map_err(|e| e.to_string())?])?;
            let crossbar = trace::lock(log).total_ns - before;
            ladder.span("mvp.run_program", run_ns);
            ladder.span("mvp.self", run_ns.saturating_sub(crossbar));
            ladder.count("mvp.instructions", plan.len() as u64);
            engine_ns += run_ns;
            ladder.rungs.push(Rung { wire: wire_ns, serve: serve_ns, engine: engine_ns, crossbar });
        }
        Ok(())
    }
}
