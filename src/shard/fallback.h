// cellshard PPE fallbacks.
//
// When a guarded range task exhausts its retries, the engine computes
// that task's RAW PARTIAL on the PPE and feeds it to the normal reduction
// — the other tasks' SPE work is kept, only the faulted slice is redone.
// The partial comes from the SPE kernel's own range code run on host
// memory (kernels::fused_partial_host, kernels::cd_accumulate), so it is
// bit-identical to the SPE's by construction.
//
// The PPE is charged by a model of its own, which depends only on the
// range's geometry: per pixel rgb_to_bin's op mix (CH, and the rows CC
// quantizes), the clipped correlogram window areas (CC), fixed counts per
// pixel and per tile (EH, TX), and a fixed count per model (detection).
#pragma once

#include <cstdint>

#include "img/image.h"
#include "learn/model_store.h"
#include "shard/partials.h"
#include "sim/scalar_context.h"

namespace cellport::shard {

/// The raw partial of extraction slot `slot` (kSlotCh..kSlotEh) for
/// `range` into `part` (its kShard* layout): the PPE fallback for one
/// faulted shard. A TX range must be tile-aligned, as tx_run requires.
void ppe_partial(int slot, const img::RgbImage& image, const Range& range,
                 void* part, sim::ScalarContext* ctx);

/// All four raw partials of the fused row range `range`, written as the
/// kernels/messages.h kFused* blob: the PPE fallback for one faulted
/// fused lane or balanced task.
void ppe_partial_fused(const img::RgbImage& image, const Range& range,
                       std::uint8_t* blob, sim::ScalarContext* ctx);

/// Detection scores for the model block [models.begin, models.end) of
/// `set`, written to scores[0..count); `x` is 16-byte aligned.
void ppe_detect_block(const float* x, int dim,
                      const learn::ConceptModelSet& set,
                      const Range& models, double* scores,
                      sim::ScalarContext* ctx);

}  // namespace cellport::shard
