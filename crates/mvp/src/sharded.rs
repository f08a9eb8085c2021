//! Shard-local planning support for scatter-gather execution.
//!
//! The paper's scale framing — a 2 GB crossbar is "millions of
//! subarrays" — assumes data spread over many engines, yet one
//! [`MvpSimulator`](crate::MvpSimulator) holds a single (banked) array.
//! This module supplies the geometry half of the bridge: a [`ShardMap`]
//! partitions a record space `0..total` into contiguous near-equal
//! ranges, one per shard, and stitches per-shard partial answers back
//! into the full-width result. The placement half (which worker owns
//! which replica of which shard) lives in the serve layer; keeping the
//! slicing arithmetic here means both layers and the tests agree on the
//! same ranges by construction.
//!
//! Shard-local *programs* (the per-shard `Store`/`Or`/`And` sequences,
//! ending in a sensed gate) are produced by the workloads themselves —
//! see [`bitmap::BitmapTable::shard_query_plan`] and
//! [`kmer::ShiftedBaseIndex::shard_find_plan`] — because only the
//! workload knows how to slice its own bitmaps. The contract tying it
//! together is differential: for any map, OR-stitching the shard
//! partials must be bit-for-bit identical to the unsharded answer.
//!
//! [`bitmap::BitmapTable::shard_query_plan`]: crate::workloads::bitmap::BitmapTable::shard_query_plan
//! [`kmer::ShiftedBaseIndex::shard_find_plan`]: crate::workloads::kmer::ShiftedBaseIndex::shard_find_plan

use crate::MvpError;
use memcim_bits::BitVec;
use std::ops::Range;

/// A partition of the record space `0..total` into `shards` contiguous
/// ranges of near-equal size (sizes differ by at most one bit).
///
/// The map is pure geometry: it knows nothing about workers, replicas
/// or engines. The serve layer's catalog maps each of these shards onto
/// R distinct workers; this type decides only *which records* each
/// shard owns and how to reassemble partial answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    total: usize,
    ranges: Vec<Range<usize>>,
}

impl ShardMap {
    /// Partitions `0..total` into `shards` contiguous ranges. The first
    /// `total % shards` ranges are one record longer, so sizes are as
    /// equal as integer division allows and every record is owned by
    /// exactly one shard.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] when `shards` is zero or exceeds
    /// `total` (an empty shard could never hold a record).
    pub fn new(total: usize, shards: usize) -> Result<Self, MvpError> {
        if shards == 0 {
            return Err(MvpError::BadInput { reason: "shard count must be positive".into() });
        }
        if shards > total {
            return Err(MvpError::BadInput {
                reason: format!("{shards} shards cannot partition {total} records"),
            });
        }
        let base = total / shards;
        let extra = total % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut lo = 0;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            ranges.push(lo..lo + len);
            lo += len;
        }
        Ok(Self { total, ranges })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Total records across all shards.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The record range owned by `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn range(&self, shard: usize) -> Range<usize> {
        self.ranges[shard].clone()
    }

    /// All ranges, in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.ranges.iter().cloned()
    }

    /// Reassembles the full-width answer from per-shard partials.
    ///
    /// `partials[s]` carries shard `s`'s answer in its low
    /// `range(s).len()` bits (the padding an engine-width program adds
    /// above them is ignored). The result places each slice back at its
    /// record offset — the inverse of the slicing that built the shard
    /// programs.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] when the partial count does not
    /// match the shard count or a partial is narrower than its range.
    pub fn stitch(&self, partials: &[BitVec]) -> Result<BitVec, MvpError> {
        if partials.len() != self.ranges.len() {
            return Err(MvpError::BadInput {
                reason: format!(
                    "{} partials cannot cover {} shards",
                    partials.len(),
                    self.ranges.len()
                ),
            });
        }
        let mut out = BitVec::new(self.total);
        for (range, partial) in self.ranges.iter().zip(partials) {
            if partial.len() < range.len() {
                return Err(MvpError::BadInput {
                    reason: format!(
                        "partial of {} bits is narrower than its {}-record shard",
                        partial.len(),
                        range.len()
                    ),
                });
            }
            // Mask to exactly the owned records: engine-width partials
            // are padded with zeros by construction, but a defensive
            // copy keeps a stray high bit in one shard from corrupting
            // its neighbour's records.
            let mut slice = BitVec::new(range.len());
            partial.extract_range_into(0, range.len(), &mut slice);
            out.or_shifted(&slice, range.start);
        }
        Ok(out)
    }
}

/// Copies `src[range]` into the low bits of a fresh `width`-bit vector
/// (the padding the engine's full-width `Store` contract requires).
///
/// # Errors
///
/// Returns [`MvpError::BadInput`] when the range escapes `src` or is
/// wider than `width`.
pub fn slice_to_width(src: &BitVec, range: Range<usize>, width: usize) -> Result<BitVec, MvpError> {
    if range.end > src.len() || range.start > range.end {
        return Err(MvpError::BadInput {
            reason: format!(
                "range {}..{} escapes the {}-bit source",
                range.start,
                range.end,
                src.len()
            ),
        });
    }
    if range.len() > width {
        return Err(MvpError::BadInput {
            reason: format!("{}-record shard does not fit a {width}-bit engine", range.len()),
        });
    }
    let mut out = BitVec::new(width);
    src.extract_range_into(range.start, range.len(), &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_every_record_exactly_once() {
        for total in [1usize, 7, 64, 100, 2048] {
            for shards in [1usize, 2, 3, 5, 8] {
                if shards > total {
                    continue;
                }
                let map = ShardMap::new(total, shards).expect("valid geometry");
                assert_eq!(map.shards(), shards);
                let mut covered = 0;
                let mut next = 0;
                for range in map.ranges() {
                    assert_eq!(range.start, next, "ranges are contiguous");
                    assert!(!range.is_empty(), "no shard is empty");
                    covered += range.len();
                    next = range.end;
                }
                assert_eq!(covered, total, "every record owned exactly once");
                // Near-equal: sizes differ by at most one.
                let sizes: Vec<usize> = map.ranges().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "sizes {sizes:?} are near-equal");
            }
        }
    }

    #[test]
    fn degenerate_geometries_are_refused() {
        assert!(matches!(ShardMap::new(8, 0), Err(MvpError::BadInput { .. })));
        assert!(matches!(ShardMap::new(3, 4), Err(MvpError::BadInput { .. })));
    }

    #[test]
    fn stitch_inverts_slicing_even_with_padding() {
        let total = 100;
        let src = BitVec::from_indices(total, &[0, 13, 31, 32, 63, 64, 77, 99]);
        for shards in [1usize, 2, 3, 7] {
            let map = ShardMap::new(total, shards).expect("valid geometry");
            let partials: Vec<BitVec> = map
                .ranges()
                .map(|r| slice_to_width(&src, r, 128).expect("fits the engine"))
                .collect();
            assert_eq!(map.stitch(&partials).expect("aligned"), src);
        }
    }

    #[test]
    fn stitch_masks_stray_padding_bits() {
        let map = ShardMap::new(8, 2).expect("valid geometry");
        // Shard 0 owns records 0..4 but reports a stray bit at 5 in its
        // padding; the stitch must not let it leak into shard 1's range.
        let mut dirty = BitVec::new(16);
        dirty.set(1, true);
        dirty.set(5, true);
        let clean = slice_to_width(&BitVec::from_indices(8, &[6]), 4..8, 16).expect("fits");
        let out = map.stitch(&[dirty, clean]).expect("aligned");
        assert_eq!(out.ones().collect::<Vec<_>>(), vec![1, 6]);
    }

    #[test]
    fn stitch_refuses_misaligned_partials() {
        let map = ShardMap::new(8, 2).expect("valid geometry");
        assert!(matches!(map.stitch(&[BitVec::new(16)]), Err(MvpError::BadInput { .. })));
        assert!(matches!(
            map.stitch(&[BitVec::new(2), BitVec::new(16)]),
            Err(MvpError::BadInput { .. })
        ));
    }

    #[test]
    fn slice_to_width_validates_geometry() {
        let src = BitVec::from_indices(8, &[7]);
        assert!(matches!(slice_to_width(&src, 4..9, 16), Err(MvpError::BadInput { .. })));
        assert!(matches!(slice_to_width(&src, 0..8, 4), Err(MvpError::BadInput { .. })));
        let ok = slice_to_width(&src, 4..8, 16).expect("fits");
        assert_eq!(ok.len(), 16);
        assert_eq!(ok.ones().collect::<Vec<_>>(), vec![3]);
    }
}
