#include "kernels/cc_kernel.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "features/color_correlogram.h"
#include "img/color.h"
#include "img/slice.h"
#include "kernels/cc_window.h"
#include "kernels/common.h"
#include "kernels/feed_kernel.h"
#include "kernels/fused_kernel.h"
#include "kernels/hsv_simd.h"
#include "kernels/messages.h"
#include "kernels/row_convert.h"
#include "spu/spu.h"
#include "support/aligned.h"

namespace cellport::kernels {

namespace {

using namespace cellport::sim;
using namespace cellport::spu;

// The window machinery (CcState, shift patterns, cc_produce_row) and the
// row quantizer live in cc_window.h / row_convert.h, shared verbatim with
// the cellfuse single-pass kernel.
constexpr int kR = kCcRadius;  // 8
constexpr int kBlockRows = kCcBlockRows;
constexpr int kRowOrigin = kRingOrigin;
constexpr std::uint8_t kSentinel = kCcSentinel;

int cc_run(std::uint64_t ea) {
  auto* msg = static_cast<ImageMsg*>(spu_ls_alloc(sizeof(ImageMsg)));
  fetch_msg(msg, ea);
  const int w = msg->width;
  const int h = msg->height;

  CcState st;
  st.row_bytes = static_cast<int>(
      cellport::round_up(static_cast<std::size_t>(kRowOrigin + w + 24),
                         16));
  for (auto& r : st.ring) {
    r = static_cast<std::uint8_t*>(
        spu_ls_alloc(static_cast<std::size_t>(st.row_bytes), 16));
    // Sentinel bands: left columns 8..15, right columns w..end. 0xFF can
    // never equal a real bin (bins are 0..165), so border windows simply
    // fail to match — no branches in the SIMD loop.
    std::memset(r, kSentinel, static_cast<std::size_t>(st.row_bytes));
  }
  // same/possible live in ONE contiguous allocation so a shard partial
  // (both raw count arrays) is a single output DMA.
  const std::size_t hist_len =
      cellport::round_up(std::size_t{img::kHsvBins}, 4);
  auto* counts = spu_ls_alloc_array<std::uint32_t>(2 * hist_len);
  st.same = counts;
  st.possible = counts + hist_len;
  std::memset(counts, 0, 2 * hist_len * sizeof(std::uint32_t));
  st.cols_clamped = spu_ls_alloc_array<std::uint16_t>(
      cellport::round_up(static_cast<std::size_t>(w), 8));
  for (int x = 0; x < w; ++x) {
    sop(4);
    st.cols_clamped[x] = static_cast<std::uint16_t>(
        std::min(w - 1, x + kR) - std::max(0, x - kR) + 1);
  }

  // cellshard: a shard produces output rows [out_begin, out_end) and
  // fetches those rows plus the kR-row halo on each side; the window math
  // in produce_row already clamps to the true image edges, so a shard's
  // per-bin counts are exactly its slice of the full-image counts once
  // the state knows which rows are its own.
  const bool shard = msg->row_end > 0;
  const int out_begin = shard ? msg->row_begin : 0;
  const int out_end = shard ? msg->row_end : h;
  st.own_begin = out_begin;
  st.own_end = out_end;
  const int fetch_begin = std::max(0, out_begin - kR);
  const int fetch_end = std::min(h, out_end + kR);

  const HsvConstants hsv_c = HsvConstants::load();
  RowStreamer stream(msg->pixels_ea,
                     static_cast<std::uint32_t>(msg->stride), fetch_begin,
                     fetch_end, kBlockRows, msg->buffering);
  int computed_to = fetch_begin;  // bin rows finished (absolute, excl.)
  int produced = out_begin;       // next output row
  while (stream.has_next()) {
    RowStreamer::Block blk = stream.next();
    for (int r = 0; r < blk.rows; ++r) {
      int row_idx = blk.first_row + r;
      quantize_row_simd(
          blk.data + static_cast<std::size_t>(r) * msg->stride, w,
          st.ring[row_idx % kCcRingRows] + kRowOrigin, hsv_c);
      ++computed_to;
    }
    while (produced < out_end &&
           (produced + kR < computed_to || computed_to == fetch_end)) {
      cc_produce_row(st, produced, w, h);
      ++produced;
    }
  }
  while (produced < out_end) {
    cc_produce_row(st, produced, w, h);
    ++produced;
  }

  if (shard) {
    // Raw partial: same[hist_len] then possible[hist_len], one DMA.
    emit_result(counts, msg->out_ea,
                static_cast<std::uint32_t>(2 * hist_len *
                                           sizeof(std::uint32_t)));
    return 0;
  }

  // Ratios in double precision, exactly like the reference (166 divides
  // on the even pipe at the SPU's double-precision rate).
  auto* out = spu_ls_alloc_array<float>(hist_len);
  for (std::size_t i = 0; i < hist_len; ++i) {
    charge_double_op(8);  // dp divide sequence
    charge_odd(5);
    out[i] = st.possible[i] > 0
                 ? static_cast<float>(static_cast<double>(st.same[i]) /
                                      static_cast<double>(st.possible[i]))
                 : 0.0f;
  }
  emit_result(out, msg->out_ea,
              static_cast<std::uint32_t>(hist_len * sizeof(float)));
  return 0;
}

// ---- the pre-optimization straight C port (Section 5.3: 0.43x) ----

int cc_run_naive(std::uint64_t ea) {
  auto* msg = static_cast<ImageMsg*>(spu_ls_alloc(sizeof(ImageMsg)));
  fetch_msg(msg, ea);
  const int w = msg->width;
  const int h = msg->height;

  const std::size_t hist_len =
      cellport::round_up(std::size_t{img::kHsvBins}, 4);
  auto* same = spu_ls_alloc_array<std::uint32_t>(hist_len);
  auto* possible = spu_ls_alloc_array<std::uint32_t>(hist_len);
  std::memset(same, 0, hist_len * sizeof(std::uint32_t));
  std::memset(possible, 0, hist_len * sizeof(std::uint32_t));

  // Slice with a halo of kR rows; single-buffered fetches (the straight
  // port keeps the original's whole-image loop structure per slice).
  const int bin_stride =
      static_cast<int>(cellport::round_up(static_cast<std::size_t>(w), 16));
  const int fetch_budget = 64;
  img::SlicePlan plan(h, fetch_budget, kR);
  auto* bins = spu_ls_alloc_array<std::uint8_t>(
      static_cast<std::size_t>(fetch_budget) * bin_stride);

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
            bins + static_cast<std::size_t>(blk.first_row + r -
                                            s.fetch_begin) *
                       bin_stride;
        for (int x = 0; x < w; ++x) {
          std::uint8_t pr = sload(&rgb[x * 3]);
          std::uint8_t pg = sload(&rgb[x * 3 + 1]);
          std::uint8_t pb = sload(&rgb[x * 3 + 2]);
          sop(52);  // scalar HSV conversion incl. two software divisions
          charge_odd(5);
          charge_branch_miss(2.5);
          dst[x] = static_cast<std::uint8_t>(img::rgb_to_bin(pr, pg, pb));
          charge_odd(3);
          spu_loop(1);
        }
      }
    }
    for (int y = s.y_begin; y < s.y_end; ++y) {
      const int y0 = std::max(0, y - kR);
      const int y1 = std::min(h - 1, y + kR);
      const std::uint8_t* crow =
          bins + static_cast<std::size_t>(y - s.fetch_begin) * bin_stride;
      for (int x = 0; x < w; ++x) {
        const int x0 = std::max(0, x - kR);
        const int x1 = std::min(w - 1, x + kR);
        std::uint8_t center = sload(&crow[x]);
        std::uint32_t count = 0;
        for (int yy = y0; yy <= y1; ++yy) {
          const std::uint8_t* nrow =
              bins +
              static_cast<std::size_t>(yy - s.fetch_begin) * bin_stride;
          for (int xx = x0; xx <= x1; ++xx) {
            // The straight port keeps the original's branchy inner
            // compare; a taken branch (a match) flushes the unhinted
            // SPU pipeline.
            bool match = sload(&nrow[xx]) == center;
            spu_branch(match, /*hint_correct=*/!match);
            if (match) {
              ++count;
              sop(1);
            }
          }
          spu_loop(1);
        }
        auto window = static_cast<std::uint32_t>((y1 - y0 + 1) *
                                                 (x1 - x0 + 1));
        sop(6);
        sstore(&same[center], sload(&same[center]) + count - 1);
        sstore(&possible[center], sload(&possible[center]) + window - 1);
        spu_loop(1);
      }
    }
  }

  auto* out = spu_ls_alloc_array<float>(hist_len);
  for (std::size_t i = 0; i < hist_len; ++i) {
    sop(22);  // scalar software division
    charge_odd(5);
    out[i] = possible[i] > 0 ? static_cast<float>(
                                   static_cast<double>(same[i]) /
                                   static_cast<double>(possible[i]))
                             : 0.0f;
  }
  emit_result(out, msg->out_ea,
              static_cast<std::uint32_t>(hist_len * sizeof(float)));
  return 0;
}

}  // namespace

port::KernelModule& cc_module() {
  // ~30 KiB code image (dispatcher + SIMD quantizer + two versions) plus
  // ~8 KiB for the fused body.
  static port::KernelModule module("CCExtract", 38 * 1024);
  static bool registered =
      (module.add_function(SPU_Run, &cc_run)
           .add_function(SPU_Run_Naive, &cc_run_naive),
       register_feed(module), register_fused(module),
       true);
  (void)registered;
  return module;
}

}  // namespace cellport::kernels
