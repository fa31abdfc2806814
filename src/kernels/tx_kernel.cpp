#include "kernels/tx_kernel.h"

#include <cmath>
#include <cstring>

#include "features/texture.h"
#include "kernels/common.h"
#include "kernels/feed_kernel.h"
#include "kernels/fused_kernel.h"
#include "kernels/messages.h"
#include "kernels/row_convert.h"
#include "kernels/tx_haar.h"
#include "spu/spu.h"
#include "support/aligned.h"

namespace cellport::kernels {

namespace {

using namespace cellport::sim;
using namespace cellport::spu;

// The Haar row step, de-interleave loaders, and energy accumulators live
// in tx_haar.h, shared verbatim with the cellfuse single-pass kernel (the
// double accumulation is order-sensitive, so sharing the exact functions
// is what keeps fused energies bit-identical).
constexpr int kBlockRows = 16;  // even: level 1 consumes row pairs
// SPU cycles of TX's gray conversion per 16-pixel block: 9 even and 7 odd,
// and the loop branch (spu_loop: 2 even, 1 odd).
constexpr double kTxGrayBlockEven = 9 + 2;
constexpr double kTxGrayBlockOdd = 7 + 1;

// The decomposition runs in 16-input-row TILES (kTxTileRows): each tile
// fuses the streaming gray conversion with level 1, then runs levels 2..4
// over the tile's own LL rows — tile t owns level-l rows
// [t*16/2^l, (t+1)*16/2^l), and parent rows of a tile's level-(l+1) rows
// always lie inside the tile's level-l rows, so no cross-tile state is
// needed. Each tile yields kTxTileDoubles partial detail energies
// (reduce4 of its float accumulators); the full-image energy is the
// tile-ordered double sum. cellshard relies on exactly this: a shard
// computes a contiguous tile range, and the PPE reducer re-does the same
// tile-ordered sum, bit-exact with the unsharded run. Side benefit: the
// LS holds 8 LL rows instead of a full half-height plane.
int tx_run(std::uint64_t ea) {
  auto* msg = static_cast<ImageMsg*>(spu_ls_alloc(sizeof(ImageMsg)));
  fetch_msg(msg, ea);
  const int w = msg->width;
  const int h = msg->height;
  // Same precondition as the reference: every decomposition level must
  // be splittable (img::haar_decompose throws the equivalent error).
  if (w < (1 << features::kTextureLevels) ||
      h < (1 << features::kTextureLevels)) {
    throw cellport::ConfigError(
        "image too small for the 4-level wavelet texture");
  }

  // Level geometry. heff is the even-height region level 1 consumes.
  const int half_w = w / 2;
  const int half_h = h / 2;
  const int heff = half_h * 2;
  const int lvl_w[4] = {half_w, half_w / 2, half_w / 4, half_w / 8};
  const int lvl_h[4] = {half_h, half_h / 2, half_h / 4, half_h / 8};
  int lvl_stride[4];
  float* ll[4];  // per-tile LL rows of each level (level 4's is scratch)
  for (int l = 0; l < 4; ++l) {
    lvl_stride[l] = static_cast<int>(
        cellport::round_up(static_cast<std::size_t>(lvl_w[l]), 4));
    const int tile_rows = kTxTileRows >> (l + 1);  // 8, 4, 2, 1
    ll[l] = spu_ls_alloc_array<float>(
        static_cast<std::size_t>(lvl_stride[l]) * tile_rows);
  }

  // cellshard: a shard covers the tile range under its input-row range.
  const bool shard = msg->row_end > 0;
  const int in_begin = shard ? msg->row_begin : 0;
  const int in_end = shard ? std::min(msg->row_end, heff) : heff;
  if (shard && (in_begin % kTxTileRows != 0 || in_begin >= in_end)) {
    throw cellport::ConfigError("TX shard must start on a tile boundary");
  }
  if (shard && in_end != heff && in_end % kTxTileRows != 0) {
    throw cellport::ConfigError("TX shard must end on a tile boundary");
  }
  const int t0 = in_begin / kTxTileRows;
  const int t1 = (in_end + kTxTileRows - 1) / kTxTileRows;

  double* partials = nullptr;  // shard mode: kTxTileDoubles per tile
  double energy[kTxTileDoubles] = {};  // unsharded tile-ordered sum
  if (shard) {
    partials = spu_ls_alloc_array<double>(
        static_cast<std::size_t>(t1 - t0) * kTxTileDoubles);
  }

  Energies acc[features::kTextureLevels];  // reset per tile
  int tile = t0;
  int tile_ll_rows = 0;  // level-1 rows of the current tile in ll[0]

  // Levels 2..4 over the finished tile's LL rows, then the 12-double
  // tile partial (level-major, {lh, hl, hh} within a level).
  auto finish_tile = [&]() {
    for (int l = 1; l < features::kTextureLevels; ++l) {
      const int span = kTxTileRows >> l;  // this level's tile row count
      const int y_begin = tile * span / 2;
      const int y_end = std::min((tile + 1) * span / 2, lvl_h[l]);
      for (int y = y_begin; y < y_end; ++y) {
        const int local = 2 * y - tile * span;  // parent row in ll[l-1]
        const float* r0 =
            ll[l - 1] + static_cast<std::size_t>(local) * lvl_stride[l - 1];
        const float* r1 = r0 + lvl_stride[l - 1];
        haar_rows(lvl_w[l], r0, r1,
                  ll[l] + static_cast<std::size_t>(y - y_begin) *
                              lvl_stride[l],
                  acc[l]);
      }
    }
    int idx = 0;
    for (int l = 0; l < features::kTextureLevels; ++l) {
      for (const vec_float4* a : {&acc[l].lh, &acc[l].hl, &acc[l].hh}) {
        double p = reduce4(*a);
        if (shard) {
          partials[static_cast<std::size_t>(tile - t0) * kTxTileDoubles +
                   idx] = p;
        } else {
          charge_double_op(1);
          energy[idx] += p;
        }
        ++idx;
      }
      acc[l] = Energies{};
    }
    tile_ll_rows = 0;
    ++tile;
  };

  // ---- Level 1, fused with the streaming gray conversion ----
  RowStreamer stream(msg->pixels_ea,
                     static_cast<std::uint32_t>(msg->stride), in_begin,
                     in_end, kBlockRows, msg->buffering);
  // Gray staging rows (bytes), reused per row pair.
  const int gray_stride = static_cast<int>(
      cellport::round_up(static_cast<std::size_t>(w) + 24, 16));
  std::uint8_t* gray0 = static_cast<std::uint8_t*>(
      spu_ls_alloc(static_cast<std::size_t>(gray_stride), 16));
  std::uint8_t* gray1 = static_cast<std::uint8_t*>(
      spu_ls_alloc(static_cast<std::size_t>(gray_stride), 16));

  std::uint8_t* pending = nullptr;  // odd row count carry across blocks
  while (stream.has_next()) {
    RowStreamer::Block blk = stream.next();
    for (int r = 0; r < blk.rows; ++r) {
      const std::uint8_t* rgb =
          blk.data + static_cast<std::size_t>(r) * msg->stride;
      std::uint8_t* dst = pending == nullptr ? gray0 : gray1;
      // Gray conversion: same integer math as the reference, on the gray
      // lanes. Its charge (9 even + 7 odd per 16 pixels, plus the loop) is
      // one 8-pixel half of gray_row_simd's, not the whole converter; it is
      // kept as is so that TX's simulated time does not move.
      gray_lanes(rgb, w, dst);
      charge_even((w / 16) * kTxGrayBlockEven + (w % 16) * kGrayTailEven);
      charge_odd((w / 16) * kTxGrayBlockOdd + (w % 16) * kGrayTailOdd);
      if (pending == nullptr) {
        pending = gray0;
      } else {
        // A full row pair: Haar-step it into the tile's LL buffer.
        haar_rows(half_w, gray0, gray1,
                  ll[0] + static_cast<std::size_t>(tile_ll_rows) *
                              lvl_stride[0],
                  acc[0]);
        ++tile_ll_rows;
        pending = nullptr;
        if (tile_ll_rows == kTxTileRows / 2) finish_tile();
      }
    }
  }
  if (tile_ll_rows > 0) finish_tile();

  if (shard) {
    emit_result(partials, msg->out_ea,
                static_cast<std::uint32_t>(
                    static_cast<std::size_t>(t1 - t0) * kTxTileDoubles *
                    sizeof(double)));
    return 0;
  }

  // ---- Final energies: normalize, log ----
  auto* out = spu_ls_alloc_array<float>(
      cellport::round_up(std::size_t{features::kTextureDim}, 4));
  int idx = 0;
  for (int level = 0; level < features::kTextureLevels; ++level) {
    double denom =
        static_cast<double>(lvl_w[level]) * lvl_h[level];
    for (int band = 0; band < 3; ++band) {
      charge_double_op(8);
      sop(30);  // software double log1p
      double e = energy[idx] / denom;
      out[idx++] = static_cast<float>(std::log1p(e));
    }
  }
  for (; idx < 16; ++idx) out[idx] = 0.0f;

  emit_result(out, msg->out_ea, 16 * sizeof(float));
  return 0;
}

}  // namespace

port::KernelModule& tx_module() {
  // ~26 KiB code image plus ~5 KiB for the fused body — smaller than in
  // the other extract modules because fused shares the Haar tile
  // machinery already resident here, and the standalone TX path needs
  // the LS headroom for its over-wide row buffers (the PPM ingest
  // fallback test runs 5460-pixel rows through this module).
  static port::KernelModule module("TXExtract", 31 * 1024);
  static bool registered =
      (module.add_function(SPU_Run, &tx_run), register_feed(module),
       register_fused(module), true);
  (void)registered;
  return module;
}

}  // namespace cellport::kernels
