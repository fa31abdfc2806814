// cellshard PPE fallback mirrors.
//
// When a guarded shard exhausts its retries, the engine computes that
// shard's RAW PARTIAL on the PPE and feeds it to the normal reduction —
// the other shards' SPE work is kept, only the faulted slice is redone.
// SPE kernel code cannot run on the PPE (the LS allocator and MFC stubs
// are SPE-thread-only), so these are scalar re-implementations that
// replay the kernels' arithmetic exactly:
//
//  - CH/CC/EH partials are integer bin counts — any faithful scalar
//    count matches bit for bit.
//  - TX emulates the kernel's 4-lane float accumulators (lane = column
//    mod 4 in the SIMD region, lane 0 for the scalar tail) and the
//    reduce4 double sum, so a PPE-computed tile partial is bitwise the
//    SPE's.
//  - Detection emulates dist2_simd/dot_simd's 4 float partial sums and
//    the double kernel/accumulate chain.
//
// Costs are charged to the PPE context like the reference extractors.
#pragma once

#include <cstdint>

#include "img/image.h"
#include "learn/model_store.h"
#include "shard/partials.h"
#include "shard/plan.h"
#include "sim/scalar_context.h"

namespace cellport::shard {

/// CH raw partial for output rows [rows.begin, rows.end):
/// kShardChWords counts (zeroed first).
void ppe_partial_ch(const img::RgbImage& image, const Range& rows,
                    std::uint32_t* hist, sim::ScalarContext* ctx);

/// CC raw partial: kShardCcWords counts, same[168] then possible[168].
void ppe_partial_cc(const img::RgbImage& image, const Range& rows,
                    std::uint32_t* counts, sim::ScalarContext* ctx);

/// EH raw partial: kShardEhWords counts.
void ppe_partial_eh(const img::RgbImage& image, const Range& rows,
                    std::uint32_t* counts, sim::ScalarContext* ctx);

/// TX raw partial for the tile range under input rows [in_rows.begin,
/// in_rows.end): kTxTileDoubles doubles per tile, bit-exact with tx_run.
void ppe_partial_tx(const img::RgbImage& image, const Range& in_rows,
                    double* partials, sim::ScalarContext* ctx);

/// The raw partial of extraction slot `slot` (kSlotCh..kSlotEh) for
/// `range` into `part`: the PPE fallback for one faulted shard.
void ppe_partial(int slot, const img::RgbImage& image, const Range& range,
                 void* part, sim::ScalarContext* ctx);

/// All four raw partials of the fused-kernel row range `range`, written
/// into the blob's sections (kernels/messages.h kFused* layout): the PPE
/// fallback for one faulted fused lane or balanced task.
void ppe_partial_fused(const img::RgbImage& image, const Range& range,
                       std::uint8_t* blob, sim::ScalarContext* ctx);

/// Detection scores for the model block [models.begin, models.end) of
/// `set`, written to scores[0..count): bit-exact with cd_run.
void ppe_detect_block(const float* x, int dim,
                      const learn::ConceptModelSet& set,
                      const Range& models, double* scores,
                      sim::ScalarContext* ctx);

}  // namespace cellport::shard
