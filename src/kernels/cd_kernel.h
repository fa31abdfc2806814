// ConceptDetect on the SPE: SVM scoring of one feature vector against a
// set of concept models.
//
// The support vectors of a model set (up to ~150 KB) are streamed from
// main memory through double-buffered DMA while the SPU computes the
// previous chunk's RBF terms with 4-way fused multiply-adds. The
// per-support-vector exp() is software-emulated (the SPU has no scalar
// unit, and the accumulation is kept in double precision to match the
// reference decision function) — which is why the paper's ConceptDet
// shows the smallest optimized speed-up of the five kernels (10.80x).
#pragma once

#include "port/dispatcher.h"

namespace cellport::kernels {

port::KernelModule& cd_module();

/// One support vector's step of a decision value, as the kernel runs it:
/// K(x, sv) by the 4-lane dot product (`linear`) or squared distance and
/// a software exp(-gamma * d2), then acc + coef * K in double. Outside an
/// SPE thread its charges are no-ops, so the PPE fallback scores a model
/// block with it over the models' rows in host memory. `x` and `sv` must
/// be 16-byte aligned.
double cd_accumulate(double acc, const float* x, const float* sv, int dim,
                     bool linear, float gamma, float coef);

}  // namespace cellport::kernels
