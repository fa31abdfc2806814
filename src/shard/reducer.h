// cellshard PPE-side reduction: merge raw shard partials into the exact
// output the unsharded kernel would have produced.
//
// Bit-exactness contract: every merge is either integer (CH/CC/EH bin
// counts) or replays the unsharded kernel's floating-point expressions in
// the same order (TX's tile-ordered double sum, the shared normalization
// formulas). A sharded AnalysisResult therefore compares bitwise equal to
// an unsharded one — the property tests/test_shard.cpp and the cellcheck
// oracle enforce.
#pragma once

#include <cstdint>
#include <vector>

#include "shard/partials.h"
#include "sim/scalar_context.h"
#include "support/aligned.h"

namespace cellport::shard {

/// CH: sums n raw kShardChWords count partials and applies the kernel's
/// normalization (out[i] = float(count) * (1/(w*h))). `out` gets
/// kShardChWords floats (pads stay 0.0f).
void reduce_ch(const std::uint32_t* const* parts, int n, int w, int h,
               float* out, sim::ScalarContext* ctx);

/// CC: sums n raw kShardCcWords partials (same[168] then possible[168])
/// and emits the double-precision ratio per bin. `out` gets
/// kShardCcWords/2 floats.
void reduce_cc(const std::uint32_t* const* parts, int n, float* out,
               sim::ScalarContext* ctx);

/// EH: sums n raw kShardEhWords count partials, normalized like CH.
void reduce_eh(const std::uint32_t* const* parts, int n, int w, int h,
               float* out, sim::ScalarContext* ctx);

/// TX: concatenates per-tile 12-double partials in shard order (== tile
/// order), accumulates the tile-ordered energy sum the unsharded kernel
/// computes, and applies the log1p normalization. `doubles[i]` is the
/// length of `parts[i]` (a kTxTileDoubles multiple); `out` gets 16
/// floats.
void reduce_tx(const double* const* parts, const int* doubles, int n,
               int w, int h, float* out, sim::ScalarContext* ctx);

/// Merges extraction slot `slot`'s shard partials — parts[k] covers
/// rows[k]; empty ranges were never dispatched and are skipped — into
/// the slot's normalized output `out` for a `w` x `h` image.
void reduce_shards(int slot, const std::vector<Range>& rows,
                   const std::vector<AlignedBuffer<std::uint8_t>>& parts,
                   int w, int h, float* out, sim::ScalarContext* ctx);

/// Same for fused-kernel blobs: merges slot `slot`'s section of each
/// blob (kernels/messages.h kFused* layout), blobs[k] covering rows[k].
void reduce_fused(int slot, const std::vector<Range>& rows,
                  const std::vector<AlignedBuffer<std::uint8_t>>& blobs,
                  int w, int h, float* out, sim::ScalarContext* ctx);

/// CD: concatenates per-block staging scores (each block padded to an
/// even count by the kernel) into the slot's score array. `counts[i]`
/// is block i's real model count.
void concat_scores(const double* const* parts, const int* counts, int n,
                   double* out, sim::ScalarContext* ctx);

}  // namespace cellport::shard
