// cellfuse: single-pass fused extraction (SPU_Run_Fused).
//
// One triple-buffered pass over a row range computes ALL FOUR features'
// raw partials in a single kernel invocation: the RGB rows are fetched
// once, quantized to HSV bins once (feeding the color histogram and the
// correlogram window), and converted to gray once (feeding the Sobel edge
// binning and the Haar texture pyramid). The per-feature production
// functions are the EXACT ones the standalone kernels run (row_convert.h,
// cc_window.h, eh_edge.h, tx_haar.h), so the fused partial is bit-exact
// with four standalone shard partials by construction.
//
// Output layout: the kFused* block of messages.h — CH/CC/EH count words,
// then the per-16-row-tile TX moment doubles — emitted with ONE DMA.
//
// The range pass is separate from its SPE driver (message, local store,
// DMA), so the PPE runs the same pass over host memory: a faulted range
// task's fallback partial is then the kernel's own, bit for bit.
#pragma once

#include <cstdint>

#include "img/image.h"
#include "port/dispatcher.h"

namespace cellport::kernels {

/// Registers the fused extraction entry point under SPU_Run_Fused, so
/// fused lanes ride whichever extract SPEs the scenario already scheduled.
void register_fused(port::KernelModule& module);

/// Runs the fused pass on the calling (PPE) thread over rows
/// [row_begin, row_end) of a host image and writes the kFused* blob to
/// `blob`: fused_partial_bytes(...) bytes, or just kFusedCountBytes
/// without `texture`. Without `texture` the range need not be
/// tile-aligned. Charges nothing: the caller charges its own model.
void fused_partial_host(const img::RgbImage& image, int row_begin,
                        int row_end, bool texture, std::uint8_t* blob);

}  // namespace cellport::kernels
