#include "kernels/eh_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "features/edge_histogram.h"
#include "img/slice.h"
#include "kernels/common.h"
#include "kernels/eh_edge.h"
#include "kernels/feed_kernel.h"
#include "kernels/fused_kernel.h"
#include "kernels/messages.h"
#include "kernels/row_convert.h"
#include "spu/spu.h"
#include "support/aligned.h"

namespace cellport::kernels {

namespace {

using namespace cellport::sim;
using namespace cellport::spu;

// The gray converter, ring state, and the Sobel/binning production
// (eh_border_row, eh_produce_row_simd) live in eh_edge.h /
// row_convert.h, shared verbatim with the cellfuse single-pass kernel.
constexpr int kBlockRows = kEhBlockRows;
constexpr int kRingRows = kEhRingRows;
constexpr int kRowOrigin = kRingOrigin;
constexpr float kTwoPi = kEhTwoPi;

int eh_run(std::uint64_t ea) {
  auto* msg = static_cast<ImageMsg*>(spu_ls_alloc(sizeof(ImageMsg)));
  fetch_msg(msg, ea);

  EhState st;
  st.w = msg->width;
  st.h = msg->height;
  const int row_bytes = static_cast<int>(cellport::round_up(
      static_cast<std::size_t>(kRowOrigin + st.w + 24), 16));
  for (auto& r : st.ring) {
    r = static_cast<std::uint8_t*>(
        spu_ls_alloc(static_cast<std::size_t>(row_bytes), 16));
    std::memset(r, 0, static_cast<std::size_t>(row_bytes));
  }
  constexpr std::size_t kBins =
      features::kEdgeAngleBins * features::kEdgeMagBins;
  st.counts = spu_ls_alloc_array<std::uint32_t>(kBins);
  std::memset(st.counts, 0, kBins * sizeof(std::uint32_t));

  // cellshard: a shard bins gradient rows [out_begin, out_end) and
  // fetches a one-row halo on each side (the Sobel window); clamping in
  // scalar_pixel/produce_row_simd still uses the true image edges, so a
  // shard's counts are exactly its slice of the full-image counts.
  const bool shard = msg->row_end > 0;
  const int out_begin = shard ? msg->row_begin : 0;
  const int out_end = shard ? msg->row_end : st.h;
  const int fetch_begin = std::max(0, out_begin - 1);
  const int fetch_end = std::min(st.h, out_end + 1);

  const EhConstants eh_c = EhConstants::load();
  RowStreamer stream(msg->pixels_ea,
                     static_cast<std::uint32_t>(msg->stride), fetch_begin,
                     fetch_end, kBlockRows, msg->buffering);
  int computed_to = fetch_begin;  // gray rows finished (absolute, excl.)
  int produced = out_begin;
  while (stream.has_next()) {
    RowStreamer::Block blk = stream.next();
    for (int r = 0; r < blk.rows; ++r) {
      gray_row_simd(blk.data + static_cast<std::size_t>(r) * msg->stride,
                    st.w,
                    st.ring[(blk.first_row + r) % kRingRows] + kRowOrigin);
      ++computed_to;
    }
    while (produced < out_end &&
           (produced + 1 < computed_to || computed_to == fetch_end)) {
      if (produced == 0 || produced == st.h - 1) {
        eh_border_row(st, produced);
      } else {
        eh_produce_row_simd(st, produced, eh_c);
      }
      ++produced;
    }
  }
  while (produced < out_end) {
    if (produced == 0 || produced == st.h - 1) {
      eh_border_row(st, produced);
    } else {
      eh_produce_row_simd(st, produced, eh_c);
    }
    ++produced;
  }

  if (shard) {
    emit_result(st.counts, msg->out_ea,
                static_cast<std::uint32_t>(kBins * sizeof(std::uint32_t)));
    return 0;
  }

  auto* out = spu_ls_alloc_array<float>(kBins);
  float inv = 1.0f / (static_cast<float>(st.w) * static_cast<float>(st.h));
  sop(8);
  vec_float4 vinv = spu_splats<vec_float4>(inv);
  for (std::size_t i = 0; i < kBins; i += 4) {
    vst(&out[i], spu_mul(spu_convtf(vld<vec_int4>(&st.counts[i])), vinv));
    spu_loop(1);
  }
  emit_result(out, msg->out_ea,
              static_cast<std::uint32_t>(kBins * sizeof(float)));
  return 0;
}

// ---- the pre-optimization straight C port (Section 5.3: 3.85x) ----

int eh_run_naive(std::uint64_t ea) {
  auto* msg = static_cast<ImageMsg*>(spu_ls_alloc(sizeof(ImageMsg)));
  fetch_msg(msg, ea);
  const int w = msg->width;
  const int h = msg->height;

  constexpr std::size_t kBins =
      features::kEdgeAngleBins * features::kEdgeMagBins;
  auto* counts = spu_ls_alloc_array<std::uint32_t>(kBins);
  std::memset(counts, 0, kBins * sizeof(std::uint32_t));

  const int gray_stride =
      static_cast<int>(cellport::round_up(static_cast<std::size_t>(w), 16));
  const int fetch_budget = 64;
  img::SlicePlan plan(h, fetch_budget, 1);
  auto* gray = spu_ls_alloc_array<std::uint8_t>(
      static_cast<std::size_t>(fetch_budget) * gray_stride);

  for (std::size_t si = 0; si < plan.count(); ++si) {
    const img::Slice& s = plan[si];
    RowStreamer stream(msg->pixels_ea,
                       static_cast<std::uint32_t>(msg->stride),
                       s.fetch_begin, s.fetch_end, kBlockRows,
                       kSingleBuffer);
    while (stream.has_next()) {
      RowStreamer::Block blk = stream.next();
      for (int r = 0; r < blk.rows; ++r) {
        const std::uint8_t* rgb =
            blk.data + static_cast<std::size_t>(r) * msg->stride;
        std::uint8_t* dst =
            gray + static_cast<std::size_t>(blk.first_row + r -
                                            s.fetch_begin) *
                       gray_stride;
        for (int x = 0; x < w; ++x) {
          std::uint8_t pr = sload(&rgb[x * 3]);
          std::uint8_t pg = sload(&rgb[x * 3 + 1]);
          std::uint8_t pb = sload(&rgb[x * 3 + 2]);
          sop(8);
          unsigned luma = 77u * pr + 150u * pg + 29u * pb;
          dst[x] = static_cast<std::uint8_t>(luma >> 8);
          charge_odd(3);
          spu_loop(1);
        }
      }
    }
    auto sample = [&](int x, int y) -> int {
      x = std::clamp(x, 0, w - 1);
      y = std::clamp(y, 0, h - 1);
      y = std::clamp(y, s.fetch_begin, s.fetch_end - 1);
      return sload(
          &gray[static_cast<std::size_t>(y - s.fetch_begin) * gray_stride +
                static_cast<std::size_t>(x)]);
    };
    for (int y = s.y_begin; y < s.y_end; ++y) {
      for (int x = 0; x < w; ++x) {
        // 12 distinct scalar taps (each load+rotate), scalar arithmetic,
        // software sqrt and atan2 (no SPU scalar unit, no libm).
        sop(30);
        int gx = -sample(x - 1, y - 1) + sample(x + 1, y - 1) -
                 2 * sample(x - 1, y) + 2 * sample(x + 1, y) -
                 sample(x - 1, y + 1) + sample(x + 1, y + 1);
        int gy = -sample(x - 1, y - 1) - 2 * sample(x, y - 1) -
                 sample(x + 1, y - 1) + sample(x - 1, y + 1) +
                 2 * sample(x, y + 1) + sample(x + 1, y + 1);
        sop(40);  // software float sqrt
        float mag = std::sqrt(
            static_cast<float>(gx) * static_cast<float>(gx) +
            static_cast<float>(gy) * static_cast<float>(gy));
        // Data-dependent flat/edge branch; the straight port has no
        // branch hint, so roughly half the transitions flush.
        spu_branch(mag < features::kEdgeMagThreshold, ((x ^ y) & 1) != 0);
        if (mag < features::kEdgeMagThreshold) continue;
        // Software double atan2: argument reduction, a long polynomial,
        // and a division, all through the 2-per-7-cycles DP pipe — the
        // reason the straight EH port gains so little (Section 5.3).
        sop(30);
        charge_double_op(24);
        charge_branch_miss(2.5);
        float angle = std::atan2(static_cast<float>(gy),
                                 static_cast<float>(gx));
        if (angle < 0.0f) angle += kTwoPi;
        int abin = static_cast<int>((angle + kTwoPi / 16.0f) *
                                    (features::kEdgeAngleBins / kTwoPi));
        if (abin >= features::kEdgeAngleBins) abin = 0;
        int mbin = static_cast<int>(
            mag * (features::kEdgeMagBins / features::kEdgeMagMax));
        if (mbin >= features::kEdgeMagBins) {
          mbin = features::kEdgeMagBins - 1;
        }
        sop(6);
        auto bin = static_cast<std::uint32_t>(
            abin * features::kEdgeMagBins + mbin);
        sstore(&counts[bin], sload(&counts[bin]) + 1);
        spu_loop(1);
      }
    }
  }

  auto* out = spu_ls_alloc_array<float>(kBins);
  float inv = 1.0f / (static_cast<float>(w) * static_cast<float>(h));
  sop(20);
  for (std::size_t i = 0; i < kBins; ++i) {
    sop(2);
    charge_odd(3);
    out[i] = static_cast<float>(counts[i]) * inv;
  }
  emit_result(out, msg->out_ea,
              static_cast<std::uint32_t>(kBins * sizeof(float)));
  return 0;
}

}  // namespace

port::KernelModule& eh_module() {
  // ~28 KiB code image plus ~8 KiB for the fused body.
  static port::KernelModule module("EHExtract", 36 * 1024);
  static bool registered =
      (module.add_function(SPU_Run, &eh_run)
           .add_function(SPU_Run_Naive, &eh_run_naive),
       register_feed(module), register_fused(module),
       true);
  (void)registered;
  return module;
}

}  // namespace cellport::kernels
