#include "shard/fallback.h"

#include <algorithm>
#include <cstring>

#include "features/color_correlogram.h"
#include "img/color.h"
#include "kernels/cd_kernel.h"
#include "kernels/fused_kernel.h"
#include "kernels/messages.h"
#include "shard/plan.h"
#include "support/aligned.h"
#include "support/error.h"

namespace cellport::shard {

namespace {

using sim::OpClass;

// ---- the PPE charge model: a scalar pass's op mix per range ----

/// rgb_to_bin's op mix for each pixel of `rows` rows.
void charge_bins(int w, int rows, sim::ScalarContext* ctx) {
  const auto px = static_cast<std::uint64_t>(std::max(0, rows)) *
                  static_cast<std::uint64_t>(w);
  for (std::uint64_t i = 0; i < px; ++i) img::charge_rgb_to_bin(ctx);
}

/// CH: bin every pixel, then 4 loads and a store each.
void charge_ch(int w, const Range& rows, sim::ScalarContext* ctx) {
  charge_bins(w, rows.count(), ctx);
  const auto px = static_cast<std::uint64_t>(std::max(0, rows.count()) * w);
  ctx->charge(OpClass::kLoad, 4 * px);
  ctx->charge(OpClass::kStore, px);
}

/// CC: bin the rows the windows touch, then a load and a compare per
/// window pixel (the clipped window areas summed over the range).
void charge_cc(int w, int h, const Range& rows, sim::ScalarContext* ctx) {
  if (rows.empty()) return;
  constexpr int kR = features::kCorrWindowRadius;
  charge_bins(w, std::min(h, rows.end + kR) - std::max(0, rows.begin - kR),
              ctx);
  std::uint64_t window_rows = 0;
  for (int y = rows.begin; y < rows.end; ++y) {
    window_rows += static_cast<std::uint64_t>(
        std::min(h - 1, y + kR) - std::max(0, y - kR) + 1);
  }
  std::uint64_t window_cols = 0;
  for (int x = 0; x < w; ++x) {
    window_cols += static_cast<std::uint64_t>(
        std::min(w - 1, x + kR) - std::max(0, x - kR) + 1);
  }
  const std::uint64_t window_ops = window_rows * window_cols;
  ctx->charge(OpClass::kLoad, window_ops);
  ctx->charge(OpClass::kIntAlu, window_ops);
}

/// EH: the Sobel taps, the float magnitude and angle, one sqrt per pixel.
void charge_eh(int w, const Range& rows, sim::ScalarContext* ctx) {
  if (rows.empty()) return;
  const auto px = static_cast<std::uint64_t>(rows.count()) * w;
  ctx->charge(OpClass::kLoad, 12 * px);
  ctx->charge(OpClass::kIntAlu, 12 * px);
  ctx->charge(OpClass::kFloatAlu, 6 * px);
  ctx->charge(OpClass::kSqrt, px);
}

/// TX: luma and the Haar steps per input pixel of the even-height region,
/// the moment sums per tile.
void charge_tx(int w, int h, const Range& rows, sim::ScalarContext* ctx) {
  const int in_end = std::min(rows.end, 2 * (h / 2));
  if (rows.begin >= in_end) return;
  const int tiles = (in_end + kernels::kTxTileRows - 1) / kernels::kTxTileRows -
                    rows.begin / kernels::kTxTileRows;
  const auto px = static_cast<std::uint64_t>(in_end - rows.begin) * w;
  ctx->charge(OpClass::kLoad, 4 * px);
  ctx->charge(OpClass::kIntAlu, 4 * px);
  ctx->charge(OpClass::kFloatAlu, 8 * px);
  ctx->charge(OpClass::kDoubleAlu, static_cast<std::uint64_t>(tiles) * 3 *
                                       kernels::kTxTileDoubles);
}

}  // namespace

void ppe_partial(int slot, const img::RgbImage& image, const Range& range,
                 void* part, sim::ScalarContext* ctx) {
  const int w = image.width();
  const int h = image.height();
  const bool texture = slot == kSlotTx;
  const int tx_doubles =
      texture ? kernels::fused_tx_doubles(w, h, range.begin, range.end) : 0;
  if (texture && tx_doubles == 0) {
    throw cellport::ConfigError(
        "image too small for the 4-level wavelet texture");
  }
  // One host path for every slot: the fused pass over the range, then
  // this slot's section of its blob (the kShard* layouts).
  cellport::AlignedBuffer<std::uint8_t> blob(
      static_cast<std::size_t>(kernels::kFusedCountBytes + tx_doubles * 8));
  kernels::fused_partial_host(image, range.begin, range.end, texture,
                              blob.data());
  std::memcpy(part, blob.data() + fused_section_offset(slot),
              shard_part_bytes(slot, range));
  if (ctx == nullptr) return;
  switch (slot) {
    case kSlotCh:
      charge_ch(w, range, ctx);
      break;
    case kSlotCc:
      charge_cc(w, h, range, ctx);
      break;
    case kSlotTx:
      charge_tx(w, h, range, ctx);
      break;
    default:
      charge_eh(w, range, ctx);
      break;
  }
}

void ppe_partial_fused(const img::RgbImage& image, const Range& range,
                       std::uint8_t* blob, sim::ScalarContext* ctx) {
  kernels::fused_partial_host(image, range.begin, range.end, true, blob);
  if (ctx == nullptr) return;
  const int w = image.width();
  const int h = image.height();
  charge_ch(w, range, ctx);
  charge_cc(w, h, range, ctx);
  charge_eh(w, range, ctx);
  charge_tx(w, h, range, ctx);
}

void ppe_detect_block(const float* x, int dim,
                      const learn::ConceptModelSet& set,
                      const Range& models, double* scores,
                      sim::ScalarContext* ctx) {
  for (int m = models.begin; m < models.end; ++m) {
    const learn::SvmModel& model = set.models[static_cast<std::size_t>(m)];
    const std::span<const float> coef = model.coef();
    const bool linear = model.kernel() == learn::SvmKernelType::kLinear;
    double acc = 0.0;
    for (int i = 0; i < model.num_sv(); ++i) {
      acc = kernels::cd_accumulate(acc, x, model.sv_row(i), dim, linear,
                                   model.gamma(),
                                   coef[static_cast<std::size_t>(i)]);
    }
    scores[m - models.begin] = acc - model.rho();
    if (ctx != nullptr) {
      const auto svops = static_cast<std::uint64_t>(model.num_sv()) * dim;
      ctx->charge(OpClass::kLoad, 2 * svops);
      ctx->charge(OpClass::kFloatAlu, 3 * svops);
      ctx->charge(OpClass::kDoubleAlu,
                  22 * static_cast<std::uint64_t>(model.num_sv()));
    }
  }
}

}  // namespace cellport::shard
