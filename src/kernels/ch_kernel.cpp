#include "kernels/ch_kernel.h"

#include <cstring>

#include "img/color.h"
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

// The HSV quantizer and the CH row (ch_count_row) live in hsv_simd.h and
// row_convert.h, shared with CC and the cellfuse single-pass kernel.

int ch_run(std::uint64_t ea) {
  auto* msg = static_cast<ImageMsg*>(spu_ls_alloc(sizeof(ImageMsg)));
  fetch_msg(msg, ea);

  const int w = msg->width;
  const int h = msg->height;
  const std::size_t hist_len =
      cellport::round_up(std::size_t{img::kHsvBins}, 4);
  auto* hist = spu_ls_alloc_array<std::uint32_t>(hist_len);
  std::memset(hist, 0, sizeof(std::uint32_t) * hist_len);

  charge_even(kChCallEven);
  const HsvConstants hsv_c = HsvConstants::load();

  // cellshard: a shard invocation (row_end > 0) counts only its row range
  // and emits the raw integer histogram; the PPE reducer sums shard
  // counts and applies the shared 1/(w*h) normalization.
  const bool shard = msg->row_end > 0;
  const int r0 = shard ? msg->row_begin : 0;
  const int r1 = shard ? msg->row_end : h;

  RowStreamer stream(msg->pixels_ea,
                     static_cast<std::uint32_t>(msg->stride), r0, r1,
                     msg->block_rows > 0 ? msg->block_rows : 12,
                     msg->buffering);
  while (stream.has_next()) {
    RowStreamer::Block blk = stream.next();
    for (int r = 0; r < blk.rows; ++r) {
      ch_count_row(blk.data + static_cast<std::size_t>(r) * msg->stride,
                   w, hist, hsv_c);
    }
  }

  if (shard) {
    emit_result(hist, msg->out_ea,
                static_cast<std::uint32_t>(hist_len *
                                           sizeof(std::uint32_t)));
    return 0;
  }

  // Normalize into the output buffer and DMA it back (Section 3.5
  // step 5). The reciprocal uses the full-precision SPU division
  // sequence so the result matches the reference's float division.
  auto* out = spu_ls_alloc_array<float>(
      cellport::round_up(std::size_t{img::kHsvBins}, 4));
  float inv = 1.0f / (static_cast<float>(w) * static_cast<float>(h));
  sop(8);  // scalar reciprocal sequence
  vec_float4 vinv = spu_splats<vec_float4>(inv);
  for (int i = 0; i < img::kHsvBins; i += 4) {
    vec_int4 c = vld<vec_int4>(&hist[i]);
    vst(&out[i], spu_mul(spu_convtf(c), vinv));
    spu_loop(1);
  }
  emit_result(out, msg->out_ea,
              static_cast<std::uint32_t>(
                  cellport::round_up(std::size_t{img::kHsvBins}, 4) *
                  sizeof(float)));
  return 0;
}

// The pre-optimization port of Section 5.3: the C++ code transplanted to
// C with local buffers, single-buffered DMA, and no SIMD. Every scalar
// byte access pays the SPU's load-rotate cost and the data-dependent
// branches of the HSV conversion are unhinted (~50% flushed).
int ch_run_naive(std::uint64_t ea) {
  auto* msg = static_cast<ImageMsg*>(spu_ls_alloc(sizeof(ImageMsg)));
  fetch_msg(msg, ea);

  const int w = msg->width;
  const int h = msg->height;
  const std::size_t hist_len =
      cellport::round_up(std::size_t{img::kHsvBins}, 4);
  auto* hist = spu_ls_alloc_array<std::uint32_t>(hist_len);
  std::memset(hist, 0, sizeof(std::uint32_t) * hist_len);

  RowStreamer stream(msg->pixels_ea,
                     static_cast<std::uint32_t>(msg->stride), 0, h,
                     /*rows_per_block=*/12, kSingleBuffer);
  while (stream.has_next()) {
    RowStreamer::Block blk = stream.next();
    for (int r = 0; r < blk.rows; ++r) {
      const std::uint8_t* row =
          blk.data + static_cast<std::size_t>(r) * msg->stride;
      for (int x = 0; x < w; ++x) {
        // Scalar byte loads (load + rotate each).
        std::uint8_t pr = sload(&row[x * 3]);
        std::uint8_t pg = sload(&row[x * 3 + 1]);
        std::uint8_t pb = sload(&row[x * 3 + 2]);
        // The reference conversion's op mix on the SPU: float arithmetic
        // in scalar slots, two software divisions, and the min/max +
        // hue-sector branches. The compiler's static branch layout keeps
        // the common paths on the fall-through, so only ~1 branch per
        // pixel flushes — the histogram's regular arithmetic is why its
        // straight port already gains well (Section 5.3).
        sop(12);
        sop(30);  // two software float divisions (no divide instruction)
        charge_odd(5);
        charge_branch_miss(1.0);
        int bin = img::rgb_to_bin(pr, pg, pb);
        sstore(&hist[static_cast<std::uint32_t>(bin)],
               sload(&hist[static_cast<std::uint32_t>(bin)]) + 1);
        spu_loop(1);
      }
    }
  }

  auto* out = spu_ls_alloc_array<float>(
      cellport::round_up(std::size_t{img::kHsvBins}, 4));
  float inv = 1.0f / (static_cast<float>(w) * static_cast<float>(h));
  sop(20);
  for (int i = 0; i < img::kHsvBins; ++i) {
    sop(2);
    charge_odd(3);
    out[i] = static_cast<float>(hist[i]) * inv;
  }
  out[166] = out[167] = 0.0f;
  emit_result(out, msg->out_ea,
              static_cast<std::uint32_t>(
                  cellport::round_up(std::size_t{img::kHsvBins}, 4) *
                  sizeof(float)));
  return 0;
}

// ---- the lookup-table variant ----

/// 15-bit RGB -> bin table, sampled from the reference quantizer at
/// 5 bits per channel (each 5-bit value expanded back to 8 bits the
/// standard way). Precomputed at build time on real hardware (static
/// data in the kernel image; the module's code_bytes accounts for it).
const std::uint8_t* ch_lut() {
  static const std::uint8_t* table = [] {
    auto* t = new std::uint8_t[1 << 15];
    auto expand = [](int v5) {
      return static_cast<std::uint8_t>((v5 << 3) | (v5 >> 2));
    };
    for (int r = 0; r < 32; ++r) {
      for (int g = 0; g < 32; ++g) {
        for (int b = 0; b < 32; ++b) {
          t[(r << 10) | (g << 5) | b] = static_cast<std::uint8_t>(
              img::rgb_to_bin(expand(r), expand(g), expand(b)));
        }
      }
    }
    return t;
  }();
  return table;
}

int ch_run_lut(std::uint64_t ea) {
  auto* msg = static_cast<ImageMsg*>(spu_ls_alloc(sizeof(ImageMsg)));
  fetch_msg(msg, ea);

  const int w = msg->width;
  const int h = msg->height;
  const std::size_t hist_len =
      cellport::round_up(std::size_t{img::kHsvBins}, 4);
  auto* hist = spu_ls_alloc_array<std::uint32_t>(hist_len);
  std::memset(hist, 0, sizeof(std::uint32_t) * hist_len);
  const std::uint8_t* lut = ch_lut();

  RowStreamer stream(msg->pixels_ea,
                     static_cast<std::uint32_t>(msg->stride), 0, h,
                     /*rows_per_block=*/12, msg->buffering);
  while (stream.has_next()) {
    RowStreamer::Block blk = stream.next();
    for (int r = 0; r < blk.rows; ++r) {
      const std::uint8_t* row =
          blk.data + static_cast<std::size_t>(r) * msg->stride;
      for (int x = 0; x < w; ++x) {
        // Index assembly is cheap integer math; the table access and
        // histogram update are scalar LS loads.
        sop(4);
        charge_odd(6);  // 3 byte loads + LUT load (load+rotate each...
                        // amortized: bytes arrive in registers from the
                        // vectorized row load in real code)
        unsigned idx = (static_cast<unsigned>(row[x * 3] >> 3) << 10) |
                       (static_cast<unsigned>(row[x * 3 + 1] >> 3) << 5) |
                       static_cast<unsigned>(row[x * 3 + 2] >> 3);
        std::uint8_t bin = lut[idx];
        sstore(&hist[bin], sload(&hist[bin]) + 1);
        spu_loop(0.25);  // 4x unrolled
      }
    }
  }

  auto* out = spu_ls_alloc_array<float>(hist_len);
  float inv = 1.0f / (static_cast<float>(w) * static_cast<float>(h));
  sop(8);
  vec_float4 vinv = spu_splats<vec_float4>(inv);
  for (int i = 0; i < img::kHsvBins; i += 4) {
    vec_int4 c = vld<vec_int4>(&hist[i]);
    vst(&out[i], spu_mul(spu_convtf(c), vinv));
    spu_loop(1);
  }
  emit_result(out, msg->out_ea,
              static_cast<std::uint32_t>(hist_len * sizeof(float)));
  return 0;
}

}  // namespace

port::KernelModule& ch_module() {
  // ~24 KiB of code (dispatcher + three kernel versions) plus the 32 KiB
  // static bin table of the LUT variant, plus ~8 KiB for the fused body.
  static port::KernelModule module("CHExtract", 64 * 1024);
  static bool registered =
      (module.add_function(SPU_Run, &ch_run)
           .add_function(SPU_Run_Naive, &ch_run_naive)
           .add_function(SPU_Run_Lut, &ch_run_lut),
       register_feed(module), register_fused(module), true);
  (void)registered;
  return module;
}

}  // namespace cellport::kernels
