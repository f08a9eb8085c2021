//! Golden pins for the crossbar kernel: seeded mixed sequences of row
//! programs, cell programs, row reads, cell reads, all six scouting
//! gates and scouting write-backs, run on every substrate, must
//! reproduce the same outputs, errors and ledgers bit for bit.
//!
//! Each run folds every operation's result (output bits or error) and
//! the full `OpLedger` after the operation (counts, and `to_bits()` of
//! energy and busy time) into one FNV-1a digest, and pins the final
//! ledger field by field. Any change to sensing, references, the
//! per-cell commit, fault handling, retirement or cost accounting moves
//! a pin.

use memcim_bits::BitVec;
use memcim_crossbar::{
    BankedCrossbar, Crossbar, CrossbarBackend, CrossbarError, EccCrossbar, OpLedger, ScoutingKind,
};
use memcim_device::{EnduranceModel, VariabilityModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KINDS: [ScoutingKind; 6] = [
    ScoutingKind::Or,
    ScoutingKind::And,
    ScoutingKind::Xor,
    ScoutingKind::Nor,
    ScoutingKind::Nand,
    ScoutingKind::Xnor,
];

/// A single-cell operation, routed by each substrate to its cell-level
/// API (`Crossbar::program_bit` / `read_bit`).
#[derive(Debug, Clone, Copy)]
enum Cell {
    Program { row: usize, col: usize, value: bool },
    Read { row: usize, col: usize },
}

/// FNV-1a over a stream of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for byte in s.bytes() {
            self.word(u64::from(byte));
        }
    }

    fn bits(&mut self, v: &BitVec) {
        self.word(v.len() as u64);
        for &w in v.as_words() {
            self.word(w);
        }
    }

    fn error(&mut self, e: &CrossbarError) {
        self.word(u64::MAX);
        self.text(&format!("{e:?}"));
    }

    fn ledger(&mut self, l: &OpLedger) {
        for w in fields(l) {
            self.word(w);
        }
    }
}

/// Every `OpLedger` field, floats as their bit patterns.
fn fields(l: &OpLedger) -> [u64; 7] {
    [
        l.reads(),
        l.scouting_ops(),
        l.programs(),
        l.bits_programmed(),
        l.corrected_errors(),
        l.energy().as_joules().to_bits(),
        l.busy_time().as_seconds().to_bits(),
    ]
}

/// A random selection for `kind`: usually valid, sometimes too short,
/// repeated, too long for a window gate, or out of bounds, so the
/// error paths are pinned too.
fn selection(rng: &mut SmallRng, kind: ScoutingKind, rows: usize) -> Vec<usize> {
    let k = match rng.gen_range(0..16) {
        0 => 1,
        1 => 3,
        _ if kind.is_window_gate() => 2,
        _ => rng.gen_range(2..=4usize),
    };
    let mut picked = Vec::with_capacity(k);
    while picked.len() < k {
        let r = rng.gen_range(0..rows);
        if !picked.contains(&r) {
            picked.push(r);
        }
    }
    match rng.gen_range(0..24) {
        0 => picked.push(picked[0]),
        1 => picked[0] = rows,
        _ => {}
    }
    picked
}

/// Runs `steps` seeded mixed operations on `xbar` and returns the
/// digest of every result and ledger, plus the final ledger's fields.
fn drive<B: CrossbarBackend>(
    xbar: &mut B,
    seed: u64,
    steps: usize,
    cell: impl Fn(&mut B, Cell) -> Result<bool, CrossbarError>,
) -> (u64, [u64; 7]) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut digest = Digest::new();
    let (rows, cols) = (xbar.rows(), xbar.cols());
    for _ in 0..steps {
        // One row in 32 is out of bounds.
        let row = if rng.gen_range(0..32) == 0 { rows } else { rng.gen_range(0..rows) };
        let op = rng.gen_range(0..10);
        digest.word(op);
        let outcome = match op {
            0..=2 => {
                let density = rng.gen_range(0.0..1.0);
                let bits: Vec<bool> = (0..cols).map(|_| rng.gen_bool(density)).collect();
                xbar.program_row(row, &BitVec::from_bools(&bits)).map(|n| {
                    digest.word(n);
                })
            }
            3 => xbar.read_row(row).map(|v| digest.bits(&v)),
            4 => {
                let c =
                    Cell::Program { row, col: rng.gen_range(0..cols), value: rng.gen_bool(0.5) };
                cell(xbar, c).map(|b| digest.word(u64::from(b)))
            }
            5 => {
                let c = Cell::Read { row, col: rng.gen_range(0..cols) };
                cell(xbar, c).map(|b| digest.word(u64::from(b)))
            }
            6..=7 => {
                let kind = KINDS[rng.gen_range(0..KINDS.len())];
                let picked = selection(&mut rng, kind, rows);
                xbar.scouting(kind, &picked).map(|v| digest.bits(&v))
            }
            _ => {
                let kind = KINDS[rng.gen_range(0..KINDS.len())];
                let picked = selection(&mut rng, kind, rows);
                xbar.scouting_write(kind, &picked, row).map(|v| digest.bits(&v))
            }
        };
        if let Err(e) = outcome {
            digest.error(&e);
        }
        digest.ledger(&xbar.ledger_totals());
    }
    for entry in xbar.remap_table() {
        digest.word(entry.bank as u64);
        digest.word(entry.logical as u64);
        digest.word(entry.physical as u64);
    }
    (digest.0, fields(&xbar.ledger_totals()))
}

/// Cell operations on a monolithic array.
fn crossbar_cell(x: &mut Crossbar, c: Cell) -> Result<bool, CrossbarError> {
    match c {
        Cell::Program { row, col, value } => x.program_bit(row, col, value).map(|()| value),
        Cell::Read { row, col } => x.read_bit(row, col),
    }
}

/// Cell operations on a banked array, routed to the bank holding `col`.
fn banked_cell(x: &mut BankedCrossbar, c: Cell) -> Result<bool, CrossbarError> {
    let width = x.bank_cols();
    let (Cell::Program { col, .. } | Cell::Read { col, .. }) = c;
    let bank = x.bank_mut(col / width).expect("col < cols");
    let local = col % width;
    match c {
        Cell::Program { row, value, .. } => bank.program_bit(row, local, value).map(|()| value),
        Cell::Read { row, .. } => bank.read_bit(row, local),
    }
}

/// Injects `count` seeded stuck-at faults into `x`'s physical rows.
fn inject(x: &mut Crossbar, seed: u64, count: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (rows, cols) = (x.rows() + x.spare_rows(), x.cols());
    for _ in 0..count {
        let (r, c, v) = (rng.gen_range(0..rows), rng.gen_range(0..cols), rng.gen_bool(0.5));
        x.faults_mut().inject_stuck_at(r, c, v);
    }
}

#[test]
fn plain_crossbar_is_pinned_bit_for_bit() {
    let mut x = Crossbar::rram(12, 100);
    let got = drive(&mut x, 2018, 600, crossbar_cell);
    assert_eq!(
        got,
        (
            0xf9d9_8fe5_79b1_41ea,
            [109, 190, 307, 13687, 0, 0x3e5d_6531_5503_414e, 0x3eca_6468_71b8_e0ba]
        ),
        "{got:#x?}"
    );
}

#[test]
fn faulty_crossbar_with_spares_is_pinned_bit_for_bit() {
    let mut x = Crossbar::rram(20, 96)
        .with_variability(VariabilityModel::typical(), 7)
        .with_endurance(EnduranceModel::new(9))
        .with_spare_rows(4, 3);
    inject(&mut x, 11, 10);
    x.audit().expect("ten faults over twenty rows leave spares");
    let got = drive(&mut x, 2019, 600, crossbar_cell);
    assert!(x.retired_rows() > 0, "the run must exercise retirement");
    assert!(x.endurance_failures() > 0, "the run must exercise wear-out");
    assert_eq!(
        got,
        (
            0x090b_8172_8cf2_dd74,
            [123, 176, 309, 13746, 0, 0x3e5d_8600_3e33_3b94, 0x3eca_916e_204c_eb17]
        ),
        "{got:#x?}"
    );
}

#[test]
fn banked_crossbar_with_spares_is_pinned_bit_for_bit() {
    let mut x = BankedCrossbar::rram_with_spares(10, 3, 40, 2, 2);
    for b in 0..3 {
        inject(x.bank_mut(b).expect("bank"), 20 + b as u64, 3);
    }
    let got = drive(&mut x, 2020, 600, banked_cell);
    assert_eq!(
        got,
        (
            0x7ea2_4c4d_ab93_d7a1,
            [234, 616, 868, 16379, 0, 0x3e61_96a5_ee72_24e7, 0x3ec9_2d5c_b7c5_48e6]
        ),
        "{got:#x?}"
    );
}

#[test]
fn ecc_over_banked_crossbar_is_pinned_bit_for_bit() {
    let mut x = EccCrossbar::over(BankedCrossbar::rram_with_spares(10, 3, 32, 2, 2))
        .expect("96 columns host a codeword");
    for b in 0..3 {
        inject(x.inner_mut().bank_mut(b).expect("bank"), 30 + b as u64, 2);
    }
    let got = drive(&mut x, 2021, 600, |x, c| banked_cell(x.inner_mut(), c));
    assert_eq!(
        got,
        (
            0x196f_4510_61b4_8d88,
            [1711, 0, 799, 12558, 141, 0x3e5a_f941_9e2d_58ea, 0x3ec7_cd0d_5144_ec26]
        ),
        "{got:#x?}"
    );
}
