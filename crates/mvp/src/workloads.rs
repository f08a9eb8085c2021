//! Paper-motivated MVP workloads with scalar reference implementations.
//!
//! Section III.B names database management \[17\], DNA sequencing \[18–20\]
//! and graph processing \[21\] as the target applications. Each workload
//! here has (a) an MVP execution path built from macro-instructions and
//! (b) a plain software reference, so tests can assert bit-identical
//! results while the ledger shows what the in-memory execution cost.
//!
//! Every MVP path is generic over [`CrossbarBackend`]: the same workload
//! runs unchanged on a monolithic [`MvpSimulator`] or a banked one
//! ([`MvpSimulator::banked`]), producing bit-identical results — the
//! banked substrate only changes the cost model (energy sums over banks,
//! wall clock is one bank cycle).
//!
//! [`CrossbarBackend`]: memcim_crossbar::CrossbarBackend

use crate::{Instruction, MvpError, MvpSimulator};
use memcim_bits::BitVec;
use memcim_crossbar::CrossbarBackend;

/// FastBit-style bitmap-index selection (database management).
pub mod bitmap {
    use super::*;

    /// A two-column categorical table indexed by per-value bitmaps.
    ///
    /// Queries of the form `col1 ∈ set1 AND col2 ∈ set2` become
    /// OR-reductions over value bitmaps followed by one AND — exactly
    /// the bulk bitwise work MVP executes in memory.
    #[derive(Debug, Clone)]
    pub struct BitmapTable {
        rows: usize,
        col1: Vec<u8>,
        col2: Vec<u8>,
        cardinality: usize,
    }

    impl BitmapTable {
        /// Builds a table from two categorical columns.
        ///
        /// # Errors
        ///
        /// Returns [`MvpError::BadInput`] if the columns differ in
        /// length, are empty, or contain values ≥ `cardinality`.
        pub fn new(col1: Vec<u8>, col2: Vec<u8>, cardinality: usize) -> Result<Self, MvpError> {
            if col1.len() != col2.len() {
                return Err(MvpError::BadInput {
                    reason: format!("columns must align: {} vs {} records", col1.len(), col2.len()),
                });
            }
            if col1.is_empty() {
                return Err(MvpError::BadInput { reason: "table must not be empty".into() });
            }
            if let Some(&v) = col1.iter().chain(&col2).find(|&&v| (v as usize) >= cardinality) {
                return Err(MvpError::BadInput {
                    reason: format!("value {v} is not below the cardinality {cardinality}"),
                });
            }
            Ok(Self { rows: col1.len(), col1, col2, cardinality })
        }

        /// Number of records.
        pub fn len(&self) -> usize {
            self.rows
        }

        /// `true` when the table has no records (cannot occur via
        /// [`new`](Self::new)).
        pub fn is_empty(&self) -> bool {
            self.rows == 0
        }

        /// The bitmap of records whose column equals `value`.
        fn bitmap(col: &[u8], value: u8, rows: usize) -> BitVec {
            let mut v = BitVec::new(rows);
            for (i, &c) in col.iter().enumerate() {
                if c == value {
                    v.set(i, true);
                }
            }
            v
        }

        /// Scalar reference: records with `col1 ∈ set1 && col2 ∈ set2`.
        pub fn query_reference(&self, set1: &[u8], set2: &[u8]) -> BitVec {
            let mut out = BitVec::new(self.rows);
            for i in 0..self.rows {
                if set1.contains(&self.col1[i]) && set2.contains(&self.col2[i]) {
                    out.set(i, true);
                }
            }
            out
        }

        /// The macro-instruction program for one query — the unit that
        /// [`query_mvp`](Self::query_mvp) executes and that
        /// [`MvpSimulator::run_batch`](crate::MvpSimulator::run_batch)
        /// runs many of.
        /// The program ends with a sensed `AND`: the result goes to the
        /// host straight off the sense amplifiers, never to a row.
        ///
        /// Row layout: `[set1 bitmaps…][set2 bitmaps…][tmp1][tmp2]`.
        pub fn query_plan(&self, set1: &[u8], set2: &[u8]) -> Vec<Instruction> {
            self.plan(set1, set2, 0..self.rows, self.rows)
        }

        /// The shard-local program for records `range` of the same
        /// query, padded to an engine of `width` columns.
        ///
        /// The program has the same `[set1…][set2…][tmp1][tmp2]` shape
        /// as [`query_plan`](Self::query_plan), but every stored
        /// bitmap carries only the records in `range` (in its low
        /// `range.len()` bits, zero-padded above). Executing one such
        /// program per shard of a [`ShardMap`](crate::ShardMap) and
        /// stitching the outputs reproduces the unsharded answer
        /// bit for bit — the differential contract the serve layer's
        /// scatter-gather path is tested against.
        ///
        /// # Errors
        ///
        /// Returns [`MvpError::BadInput`] when `range` escapes the
        /// table or does not fit an engine of `width` columns.
        pub fn shard_query_plan(
            &self,
            set1: &[u8],
            set2: &[u8],
            range: std::ops::Range<usize>,
            width: usize,
        ) -> Result<Vec<Instruction>, MvpError> {
            if range.end > self.rows || range.start > range.end {
                return Err(MvpError::BadInput {
                    reason: format!(
                        "shard range {}..{} escapes the {}-record table",
                        range.start, range.end, self.rows
                    ),
                });
            }
            if range.len() > width {
                return Err(MvpError::BadInput {
                    reason: format!(
                        "{}-record shard does not fit a {width}-column engine",
                        range.len()
                    ),
                });
            }
            Ok(self.plan(set1, set2, range, width))
        }

        /// The query program over records `range`, each stored bitmap
        /// `width` bits wide. Row layout:
        /// `[set1 bitmaps…][set2 bitmaps…][tmp1][tmp2]`.
        fn plan(
            &self,
            set1: &[u8],
            set2: &[u8],
            range: std::ops::Range<usize>,
            width: usize,
        ) -> Vec<Instruction> {
            let mut program = Vec::new();
            let mut row = 0;
            let mut rows1 = Vec::new();
            for &v in set1 {
                program.push(Instruction::Store {
                    row,
                    data: Self::bitmap(&self.col1[range.clone()], v, width),
                });
                rows1.push(row);
                row += 1;
            }
            let mut rows2 = Vec::new();
            for &v in set2 {
                program.push(Instruction::Store {
                    row,
                    data: Self::bitmap(&self.col2[range.clone()], v, width),
                });
                rows2.push(row);
                row += 1;
            }
            let (tmp1, tmp2) = (row, row + 1);
            // Single-value sets need no OR reduction.
            let lhs = if rows1.len() == 1 {
                rows1[0]
            } else {
                program.push(Instruction::Or { srcs: rows1, dst: Some(tmp1) });
                tmp1
            };
            let rhs = if rows2.len() == 1 {
                rows2[0]
            } else {
                program.push(Instruction::Or { srcs: rows2, dst: Some(tmp2) });
                tmp2
            };
            program.push(Instruction::And { srcs: vec![lhs, rhs], dst: None });
            program
        }

        /// MVP execution: loads the value bitmaps and runs the
        /// OR/OR/AND plan in memory.
        ///
        /// # Errors
        ///
        /// Propagates [`MvpError`] from program execution (a geometry
        /// mismatch between the table and the simulator, for instance).
        pub fn query_mvp<B: CrossbarBackend>(
            &self,
            mvp: &mut MvpSimulator<B>,
            set1: &[u8],
            set2: &[u8],
        ) -> Result<BitVec, MvpError> {
            let mut outputs = mvp.run_program(&self.query_plan(set1, set2))?;
            Ok(outputs.pop().expect("program ends with a sensed gate"))
        }

        /// Value cardinality per column.
        pub fn cardinality(&self) -> usize {
            self.cardinality
        }
    }
}

/// Bit-parallel k-mer filtering (DNA sequencing).
pub mod kmer {
    use super::*;

    /// Per-base occurrence bitmaps of a genome, pre-shifted so that a
    /// k-mer match test is a single k-way AND (the bit-parallelism of
    /// \[18, 19\] mapped onto scouting logic).
    #[derive(Debug, Clone)]
    pub struct ShiftedBaseIndex {
        len: usize,
        k: usize,
        /// `layers[j]` = bitmap of positions `p` where
        /// `genome[p + j] == kmer[j]` will be tested; stored per (offset,
        /// base) pair: `layers[j][base]`.
        layers: Vec<[BitVec; 4]>,
    }

    fn base_index(b: u8, position: usize) -> Result<usize, MvpError> {
        match b {
            b'A' => Ok(0),
            b'C' => Ok(1),
            b'G' => Ok(2),
            b'T' => Ok(3),
            other => Err(MvpError::BadInput {
                reason: format!("non-ACGT base {:?} at position {position}", char::from(other)),
            }),
        }
    }

    impl ShiftedBaseIndex {
        /// Indexes a genome for k-mers of length `k`.
        ///
        /// # Errors
        ///
        /// Returns [`MvpError::BadInput`] if `k` is zero, the genome is
        /// shorter than `k`, or the genome contains non-ACGT bytes.
        pub fn build(genome: &[u8], k: usize) -> Result<Self, MvpError> {
            if k == 0 {
                return Err(MvpError::BadInput { reason: "k must be positive".into() });
            }
            if genome.len() < k {
                return Err(MvpError::BadInput {
                    reason: format!("genome of {} bases is shorter than k = {k}", genome.len()),
                });
            }
            let positions = genome.len() - k + 1;
            let mut layers = Vec::with_capacity(k);
            for j in 0..k {
                let mut maps = [
                    BitVec::new(positions),
                    BitVec::new(positions),
                    BitVec::new(positions),
                    BitVec::new(positions),
                ];
                for p in 0..positions {
                    maps[base_index(genome[p + j], p + j)?].set(p, true);
                }
                layers.push(maps);
            }
            Ok(Self { len: positions, k, layers })
        }

        /// Number of candidate positions.
        pub fn positions(&self) -> usize {
            self.len
        }

        fn check_kmer(&self, kmer: &[u8]) -> Result<(), MvpError> {
            if kmer.len() != self.k {
                return Err(MvpError::BadInput {
                    reason: format!(
                        "k-mer of {} bases does not match the index's k = {}",
                        kmer.len(),
                        self.k
                    ),
                });
            }
            Ok(())
        }

        /// Scalar reference: match positions of `kmer`.
        ///
        /// # Errors
        ///
        /// Returns [`MvpError::BadInput`] if `kmer.len() != k` or the
        /// k-mer contains non-ACGT bytes.
        pub fn find_reference(&self, kmer: &[u8]) -> Result<BitVec, MvpError> {
            self.check_kmer(kmer)?;
            let mut out = self.layers[0][base_index(kmer[0], 0)?].clone();
            for (j, &b) in kmer.iter().enumerate().skip(1) {
                out.and_assign(&self.layers[j][base_index(b, j)?]);
            }
            Ok(out)
        }

        /// MVP execution: stores the k relevant layers and AND-reduces
        /// them in one sensed scouting operation.
        ///
        /// # Errors
        ///
        /// Returns [`MvpError::BadInput`] for a malformed k-mer and
        /// propagates [`MvpError`] from program execution.
        pub fn find_mvp<B: CrossbarBackend>(
            &self,
            mvp: &mut MvpSimulator<B>,
            kmer: &[u8],
        ) -> Result<BitVec, MvpError> {
            let program = self.shard_find_plan(kmer, 0..self.len, self.len)?;
            let mut outputs = mvp.run_program(&program)?;
            Ok(outputs.pop().expect("program ends with a sensed gate"))
        }

        /// The shard-local program testing only candidate positions
        /// `range`, padded to an engine of `width` columns — the k-mer
        /// counterpart of
        /// [`BitmapTable::shard_query_plan`](super::bitmap::BitmapTable::shard_query_plan).
        /// Stitching the per-shard outputs over a
        /// [`ShardMap`](crate::ShardMap) of [`positions`](Self::positions)
        /// reproduces [`find_reference`](Self::find_reference) bit for
        /// bit.
        ///
        /// # Errors
        ///
        /// Returns [`MvpError::BadInput`] for a malformed k-mer or a
        /// range that escapes the index or the engine width.
        pub fn shard_find_plan(
            &self,
            kmer: &[u8],
            range: std::ops::Range<usize>,
            width: usize,
        ) -> Result<Vec<Instruction>, MvpError> {
            self.check_kmer(kmer)?;
            let mut program = Vec::new();
            for (j, &b) in kmer.iter().enumerate() {
                let layer = &self.layers[j][base_index(b, j)?];
                program.push(Instruction::Store {
                    row: j,
                    data: crate::sharded::slice_to_width(layer, range.clone(), width)?,
                });
            }
            program.push(Instruction::And { srcs: (0..self.k).collect(), dst: None });
            Ok(program)
        }
    }
}

/// Frontier-expansion BFS (graph processing, direction-optimizing style
/// \[21\]).
pub mod bfs {
    use super::*;

    /// An unweighted directed graph as adjacency bitmaps.
    #[derive(Debug, Clone)]
    pub struct Graph {
        n: usize,
        adjacency: Vec<BitVec>,
    }

    impl Graph {
        /// Creates an edgeless graph on `n` vertices.
        ///
        /// # Errors
        ///
        /// Returns [`MvpError::BadInput`] if `n` is zero.
        pub fn new(n: usize) -> Result<Self, MvpError> {
            if n == 0 {
                return Err(MvpError::BadInput {
                    reason: "graph needs at least one vertex".into(),
                });
            }
            Ok(Self { n, adjacency: vec![BitVec::new(n); n] })
        }

        /// Adds a directed edge.
        ///
        /// # Errors
        ///
        /// Returns [`MvpError::BadInput`] if either endpoint is out of
        /// range.
        pub fn add_edge(&mut self, from: usize, to: usize) -> Result<(), MvpError> {
            if from >= self.n || to >= self.n {
                return Err(MvpError::BadInput {
                    reason: format!("edge {from} → {to} escapes the {}-vertex graph", self.n),
                });
            }
            self.adjacency[from].set(to, true);
            Ok(())
        }

        /// Vertex count.
        pub fn len(&self) -> usize {
            self.n
        }

        /// `true` for an empty graph (cannot occur via
        /// [`new`](Self::new)).
        pub fn is_empty(&self) -> bool {
            self.n == 0
        }

        /// Scalar reference BFS: per-vertex levels (`usize::MAX` =
        /// unreachable).
        pub fn bfs_reference(&self, src: usize) -> Vec<usize> {
            let mut level = vec![usize::MAX; self.n];
            level[src] = 0;
            let mut frontier = vec![src];
            let mut depth = 0;
            while !frontier.is_empty() {
                depth += 1;
                let mut next = Vec::new();
                for &v in &frontier {
                    for u in self.adjacency[v].ones() {
                        if level[u] == usize::MAX {
                            level[u] = depth;
                            next.push(u);
                        }
                    }
                }
                frontier = next;
            }
            level
        }

        /// MVP BFS: each level's frontier expansion is a multi-way OR of
        /// adjacency rows executed in memory (chunked at `max_fanin` rows
        /// per scouting operation); visited-set subtraction stays on the
        /// host, mirroring the bottom-up/top-down split of \[21\].
        ///
        /// # Errors
        ///
        /// Returns [`MvpError::BadInput`] if `src` is out of range or
        /// `max_fanin < 2`, and propagates [`MvpError`] from program
        /// execution.
        pub fn bfs_mvp<B: CrossbarBackend>(
            &self,
            mvp: &mut MvpSimulator<B>,
            src: usize,
            max_fanin: usize,
        ) -> Result<Vec<usize>, MvpError> {
            if src >= self.n {
                return Err(MvpError::BadInput {
                    reason: format!("source vertex {src} outside the {}-vertex graph", self.n),
                });
            }
            if max_fanin < 2 {
                return Err(MvpError::BadInput {
                    reason: format!("scouting needs a fan-in of at least 2, got {max_fanin}"),
                });
            }
            let mut level = vec![usize::MAX; self.n];
            level[src] = 0;
            let mut frontier: Vec<usize> = vec![src];
            let mut depth = 0;
            while !frontier.is_empty() {
                depth += 1;
                // Expand the whole frontier with chunked in-memory ORs.
                let mut reached = BitVec::new(self.n);
                for chunk in frontier.chunks(max_fanin) {
                    if chunk.len() == 1 {
                        reached.or_assign(&self.adjacency[chunk[0]]);
                        continue;
                    }
                    let mut program = Vec::new();
                    for (i, &v) in chunk.iter().enumerate() {
                        program
                            .push(Instruction::Store { row: i, data: self.adjacency[v].clone() });
                    }
                    program.push(Instruction::Or { srcs: (0..chunk.len()).collect(), dst: None });
                    let mut outputs = mvp.run_program(&program)?;
                    reached.or_assign(&outputs.pop().expect("sensed output"));
                }
                let mut next = Vec::new();
                for u in reached.ones() {
                    if level[u] == usize::MAX {
                        level[u] = depth;
                        next.push(u);
                    }
                }
                frontier = next;
            }
            Ok(level)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bitmap_query_matches_reference() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 512;
        let col1: Vec<u8> = (0..n).map(|_| rng.gen_range(0..8)).collect();
        let col2: Vec<u8> = (0..n).map(|_| rng.gen_range(0..8)).collect();
        let table = bitmap::BitmapTable::new(col1, col2, 8).expect("well-formed");
        let mut mvp = MvpSimulator::new(24, n);
        for (s1, s2) in [(&[1u8, 3][..], &[0u8, 2, 5][..]), (&[7], &[7]), (&[0, 1, 2], &[3])] {
            let fast = table.query_mvp(&mut mvp, s1, s2).expect("mvp query");
            let slow = table.query_reference(s1, s2);
            assert_eq!(fast, slow, "sets {s1:?} / {s2:?}");
        }
        assert!(mvp.ledger().scouting_ops() >= 3);
    }

    #[test]
    fn bitmap_query_runs_banked() {
        let mut rng = SmallRng::seed_from_u64(13);
        let n = 384;
        let col1: Vec<u8> = (0..n).map(|_| rng.gen_range(0..8)).collect();
        let col2: Vec<u8> = (0..n).map(|_| rng.gen_range(0..8)).collect();
        let table = bitmap::BitmapTable::new(col1, col2, 8).expect("well-formed");
        // Three banks, non-power-of-two bank width.
        let mut banked = MvpSimulator::banked(24, 3, 128);
        let fast = table.query_mvp(&mut banked, &[1, 3], &[0, 2]).expect("banked query");
        assert_eq!(fast, table.query_reference(&[1, 3], &[0, 2]));
    }

    #[test]
    fn sharded_bitmap_query_stitches_to_the_reference() {
        let mut rng = SmallRng::seed_from_u64(2018);
        let n = 500; // deliberately not a multiple of the shard counts
        let col1: Vec<u8> = (0..n).map(|_| rng.gen_range(0..8)).collect();
        let col2: Vec<u8> = (0..n).map(|_| rng.gen_range(0..8)).collect();
        let table = bitmap::BitmapTable::new(col1, col2, 8).expect("well-formed");
        let width = 512; // engine width exceeds every shard's record count
        for shards in [1usize, 2, 3, 4] {
            let map = crate::ShardMap::new(n, shards).expect("valid geometry");
            for (s1, s2) in [(&[1u8, 3][..], &[0u8, 2, 5][..]), (&[7], &[7])] {
                let partials: Vec<BitVec> = map
                    .ranges()
                    .map(|r| {
                        let plan = table.shard_query_plan(s1, s2, r, width).expect("plan compiles");
                        let mut engine = MvpSimulator::new(16, width);
                        engine.run_program(&plan).expect("shard runs").pop().expect("read")
                    })
                    .collect();
                let stitched = map.stitch(&partials).expect("aligned");
                assert_eq!(stitched, table.query_reference(s1, s2), "{shards} shards");
            }
        }
    }

    #[test]
    fn full_table_query_plan_is_the_one_shard_plan() {
        // The 2 048-record table and the four queries of the served
        // bitmap benchmark: the whole-table plan is the shard plan over
        // every record at the table's own width.
        let mut rng = SmallRng::seed_from_u64(2018);
        let n = 2_048;
        let col1: Vec<u8> = (0..n).map(|_| rng.gen_range(0..16)).collect();
        let col2: Vec<u8> = (0..n).map(|_| rng.gen_range(0..8)).collect();
        let table = bitmap::BitmapTable::new(col1, col2, 16).expect("well-formed");
        let queries: [(&[u8], &[u8]); 4] =
            [(&[1, 4, 9], &[0, 3]), (&[2, 5], &[1, 6]), (&[11], &[2, 4, 7]), (&[0, 8, 14], &[5])];
        for (s1, s2) in queries {
            let shard = table.shard_query_plan(s1, s2, 0..n, n).expect("plan compiles");
            assert_eq!(table.query_plan(s1, s2), shard, "{s1:?} × {s2:?}");
        }
    }

    #[test]
    fn shard_query_plan_validates_geometry() {
        let table =
            bitmap::BitmapTable::new(vec![0, 1, 2, 3], vec![0, 1, 2, 3], 4).expect("well-formed");
        assert!(matches!(
            table.shard_query_plan(&[1], &[2], 2..6, 64),
            Err(MvpError::BadInput { .. })
        ));
        assert!(matches!(
            table.shard_query_plan(&[1], &[2], 0..4, 2),
            Err(MvpError::BadInput { .. })
        ));
    }

    #[test]
    fn sharded_kmer_search_stitches_to_the_reference() {
        let mut rng = SmallRng::seed_from_u64(2018);
        let bases = [b'A', b'C', b'G', b'T'];
        let mut genome: Vec<u8> = (0..700).map(|_| bases[rng.gen_range(0..4usize)]).collect();
        for at in [50usize, 340, 650] {
            genome[at..at + 5].copy_from_slice(b"GATTA");
        }
        let index = kmer::ShiftedBaseIndex::build(&genome, 5).expect("clean genome");
        let map = crate::ShardMap::new(index.positions(), 3).expect("valid geometry");
        let width = 256;
        let partials: Vec<BitVec> = map
            .ranges()
            .map(|r| {
                let plan = index.shard_find_plan(b"GATTA", r, width).expect("plan compiles");
                let mut engine = MvpSimulator::new(8, width);
                engine.run_program(&plan).expect("shard runs").pop().expect("read")
            })
            .collect();
        let stitched = map.stitch(&partials).expect("aligned");
        assert_eq!(stitched, index.find_reference(b"GATTA").expect("reference"));
        assert!(matches!(
            index.shard_find_plan(b"GAT", 0..4, width),
            Err(MvpError::BadInput { .. })
        ));
    }

    #[test]
    fn kmer_search_matches_reference() {
        let mut rng = SmallRng::seed_from_u64(23);
        let bases = [b'A', b'C', b'G', b'T'];
        let mut genome: Vec<u8> = (0..2000).map(|_| bases[rng.gen_range(0..4usize)]).collect();
        // Plant a motif to guarantee hits.
        for at in [100usize, 900, 1500] {
            genome[at..at + 6].copy_from_slice(b"ACGTAC");
        }
        let index = kmer::ShiftedBaseIndex::build(&genome, 6).expect("clean genome");
        let mut mvp = MvpSimulator::new(8, index.positions());
        let fast = index.find_mvp(&mut mvp, b"ACGTAC").expect("mvp find");
        let slow = index.find_reference(b"ACGTAC").expect("reference find");
        assert_eq!(fast, slow);
        for at in [100usize, 900, 1500] {
            assert!(fast.get(at), "planted hit at {at}");
        }
        // The whole k-way AND costs exactly one scouting cycle.
        assert_eq!(mvp.ledger().scouting_ops(), 1);
    }

    #[test]
    fn kmer_index_rejects_bad_bases_as_errors() {
        let err = kmer::ShiftedBaseIndex::build(b"ACGN", 2).expect_err("N is not a base");
        match err {
            MvpError::BadInput { reason } => {
                assert!(reason.contains("non-ACGT base 'N' at position 3"), "got: {reason}");
            }
            other => panic!("expected BadInput, got {other:?}"),
        }
        // Degenerate shapes are errors too, not aborts.
        assert!(matches!(kmer::ShiftedBaseIndex::build(b"ACG", 0), Err(MvpError::BadInput { .. })));
        assert!(matches!(kmer::ShiftedBaseIndex::build(b"AC", 3), Err(MvpError::BadInput { .. })));
    }

    #[test]
    fn kmer_lookup_rejects_bad_queries_as_errors() {
        let index = kmer::ShiftedBaseIndex::build(b"ACGTACGT", 4).expect("clean genome");
        let mut mvp = MvpSimulator::new(8, index.positions());
        assert!(matches!(index.find_reference(b"ACG"), Err(MvpError::BadInput { .. })));
        assert!(matches!(index.find_mvp(&mut mvp, b"ACGTT"), Err(MvpError::BadInput { .. })));
        assert!(matches!(index.find_reference(b"ACNT"), Err(MvpError::BadInput { .. })));
        assert!(matches!(index.find_mvp(&mut mvp, b"ACNT"), Err(MvpError::BadInput { .. })));
    }

    #[test]
    fn bfs_levels_match_reference_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(37);
        for trial in 0..5 {
            let n = 64;
            let mut g = bfs::Graph::new(n).expect("nonempty");
            for _ in 0..300 {
                g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n)).expect("in range");
            }
            let mut mvp = MvpSimulator::new(16, n);
            let fast = g.bfs_mvp(&mut mvp, 0, 8).expect("mvp bfs");
            let slow = g.bfs_reference(0);
            assert_eq!(fast, slow, "trial {trial}");
        }
    }

    #[test]
    fn bfs_on_a_path_visits_levels_in_order() {
        let mut g = bfs::Graph::new(5).expect("nonempty");
        for i in 0..4 {
            g.add_edge(i, i + 1).expect("in range");
        }
        let mut mvp = MvpSimulator::new(8, 5);
        // A path frontier has single vertices: exercises the chunk == 1
        // host path.
        let levels = g.bfs_mvp(&mut mvp, 0, 4).expect("bfs");
        assert_eq!(levels, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_rejects_bad_arguments_as_errors() {
        let g = bfs::Graph::new(4).expect("nonempty");
        let mut mvp = MvpSimulator::new(8, 4);
        assert!(matches!(g.bfs_mvp(&mut mvp, 9, 4), Err(MvpError::BadInput { .. })));
        assert!(matches!(g.bfs_mvp(&mut mvp, 0, 1), Err(MvpError::BadInput { .. })));
    }

    #[test]
    fn bitmap_table_validates_its_inputs_as_errors() {
        assert!(matches!(
            bitmap::BitmapTable::new(vec![0, 1], vec![0], 4),
            Err(MvpError::BadInput { .. })
        ));
        assert!(matches!(
            bitmap::BitmapTable::new(vec![], vec![], 4),
            Err(MvpError::BadInput { .. })
        ));
        assert!(matches!(
            bitmap::BitmapTable::new(vec![5], vec![0], 4),
            Err(MvpError::BadInput { .. })
        ));
        // Degenerate graphs and edges are errors too, not aborts.
        assert!(matches!(bfs::Graph::new(0), Err(MvpError::BadInput { .. })));
        let mut g = bfs::Graph::new(2).expect("nonempty");
        assert!(matches!(g.add_edge(0, 2), Err(MvpError::BadInput { .. })));
    }
}
