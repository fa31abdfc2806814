// cellshard: shard-range arithmetic shared by the planner, the engine and
// the tests.
//
// A shard is a contiguous slice of one kernel's iteration space: output
// rows for CH/CC/EH, 16-input-row Haar tiles for TX (kernels/messages.h
// explains why TX partials are per tile), and a contiguous model block
// for concept detection. Splits are deterministic functions of the image
// shape and the shard count, so the PPE reducer, the SPE kernels and the
// PPE fault fallbacks always agree on who owns what.
#pragma once

#include <cstddef>
#include <vector>

#include "kernels/messages.h"

namespace cellport::shard {

/// Half-open range a shard covers. Empty ranges (begin >= end) happen
/// when the image is smaller than the shard count; the engine simply
/// skips dispatching them (their partial contribution is zero).
struct Range {
  int begin = 0;
  int end = 0;
  bool empty() const { return begin >= end; }
  int count() const { return end - begin; }
};

/// Splits [0, total) into `n` near-equal contiguous ranges (the first
/// `total % n` ranges get one extra element). Used for CH/CC/EH output
/// rows and for detection model blocks.
std::vector<Range> split_rows(int total, int n);

/// TX splits: tile-aligned INPUT-row ranges over the even-height region
/// [0, 2*(h/2)). Every range starts on a kTxTileRows boundary and ends on
/// one (or at the region end), as tx_run requires.
std::vector<Range> split_tiles(int h, int n);

/// Number of doubles a TX shard covering input rows [r.begin, r.end)
/// emits (kTxTileDoubles per tile).
int tx_partial_doubles(const Range& r);

/// Bytes of extraction slot `slot`'s raw shard partial over `r`: fixed
/// for the counting kernels, tile-count dependent for TX.
std::size_t shard_part_bytes(int slot, const Range& r);

/// Byte offset of slot `slot`'s section inside a fused partial
/// (kernels/messages.h kFused* layout). A section is laid out exactly as
/// the slot's shard partial over the same rows.
std::size_t fused_section_offset(int slot);

/// cellfuse splits: one row range per fused lane, covering ALL image rows
/// with every range tile-aligned at its start (a fused lane computes TX
/// tiles alongside the row-granular features, so it inherits tx_run's
/// boundary rule). The ranges are split_tiles' with the last non-empty
/// range extended to `h`, so the odd bottom row (and everything past the
/// even-height region) lands on the final lane.
std::vector<Range> split_fused(int h, int n);

}  // namespace cellport::shard
