#include "kernels/fused_kernel.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "features/color_correlogram.h"
#include "features/edge_histogram.h"
#include "features/texture.h"
#include "img/color.h"
#include "kernels/cc_window.h"
#include "kernels/common.h"
#include "kernels/eh_edge.h"
#include "kernels/hsv_simd.h"
#include "kernels/messages.h"
#include "kernels/row_convert.h"
#include "kernels/tx_haar.h"
#include "spu/spu.h"
#include "support/aligned.h"

namespace cellport::kernels {

namespace {

using namespace cellport::sim;
using namespace cellport::spu;

// 8-row DMA blocks (vs the standalone kernels' 12/16): the fused kernel
// holds BOTH byte rings plus the Haar LL rows in the LS, so the streaming
// window is the knob that keeps wide images under the 256 KiB budget.
constexpr int kFusedBlockRows = 8;

// One pass, four features. Row roles differ per feature:
//   - quantized (HSV-bin) rows cover [r0 - 8, r1 + 8): the correlogram
//     window halo. Rows inside [r0, r1) are quantized WITH the histogram
//     counting hooks (4 conflict-free LS sub-histograms, one per SIMD
//     lane); halo rows run the plain quantizer, exactly like a CH shard
//     that counts only its own range.
//   - gray rows cover [r0 - 1, r1 + 1): the Sobel halo; the Haar level-1
//     step consumes pairs of the same ring rows for input rows
//     [r0, min(r1, heff)).
// Production functions and their lag discipline are the standalone
// kernels' own (cc_produce_row at 8 rows behind, eh rows 1 behind, a
// texture tile finished every 8 LL rows), so counts and tile moments are
// bit-identical to four separate shard invocations over the same range.
//
// The pass is the range code; `io` is its driver, which owns where the
// rows come from and where the buffers live:
//   io.alloc(bytes)        a 16-byte-aligned working buffer
//   io.stream(begin, end)  rows [begin, end) in blocks (has_next/next,
//                          RowStreamer::Block), `io.stride()` bytes apart
//   io.emit(blob, bytes)   the finished kFused* blob
// The SPE driver (fused_run) allocates from the local store, streams by
// DMA and emits by DMA; the host driver (fused_partial_host) runs the
// same pass on the PPE over the image's own rows. Every charge the pass
// makes is a no-op outside an SPE thread. Without `texture` the pass
// skips TX, as it does below one Haar tile, and then accepts any range.
template <typename Io>
void fused_pass(Io& io, int w, int h, int r0, int r1, bool texture) {
  // ---- texture geometry (skipped entirely below one Haar tile) ----
  const int half_w = w / 2;
  const int half_h = h / 2;
  const int heff = half_h * 2;
  const int tx_doubles = texture ? fused_tx_doubles(w, h, r0, r1) : 0;
  const bool tx_on = tx_doubles > 0;
  const int tx_end = std::min(r1, heff);
  if (tx_on && r0 % kTxTileRows != 0) {
    throw cellport::ConfigError("fused shard must start on a tile boundary");
  }
  if (tx_on && tx_end != heff && tx_end % kTxTileRows != 0) {
    throw cellport::ConfigError("fused shard must end on a tile boundary");
  }
  const int t0 = tx_on ? r0 / kTxTileRows : 0;

  // ---- the fused partial: one contiguous LS block, one output DMA ----
  const auto blob_bytes =
      static_cast<std::size_t>(kFusedCountBytes + tx_doubles * 8);
  auto* blob = static_cast<std::uint32_t*>(io.alloc(blob_bytes));
  std::memset(blob, 0, blob_bytes);
  std::uint32_t* ch_hist = blob;  // merged from the banks at the end
  auto* tx_partials = reinterpret_cast<double*>(
      reinterpret_cast<std::uint8_t*>(blob) + kFusedCountBytes);

  // CH: four conflict-free sub-histograms, one per SIMD lane, so the four
  // scatter updates of a quantized group have no serial LS dependency and
  // dual-issue cleanly (vs the standalone kernel's serial single-histogram
  // chain).
  const std::size_t hist_len =
      cellport::round_up(std::size_t{img::kHsvBins}, 4);
  std::uint32_t* banks[4];
  for (auto& b : banks) {
    b = static_cast<std::uint32_t*>(
        io.alloc(hist_len * sizeof(std::uint32_t)));
    std::memset(b, 0, hist_len * sizeof(std::uint32_t));
  }

  // CC state: quantized-row ring + window scatter targets inside the blob.
  CcState cc_st;
  cc_st.row_bytes = static_cast<int>(cellport::round_up(
      static_cast<std::size_t>(kRingOrigin + w + 24), 16));
  for (auto& r : cc_st.ring) {
    r = static_cast<std::uint8_t*>(
        io.alloc(static_cast<std::size_t>(cc_st.row_bytes)));
    std::memset(r, kCcSentinel, static_cast<std::size_t>(cc_st.row_bytes));
  }
  cc_st.same = blob + kFusedCcOffset;
  cc_st.possible = blob + kFusedCcOffset + hist_len;
  cc_st.own_begin = r0;
  cc_st.own_end = r1;
  cc_st.cols_clamped = static_cast<std::uint16_t*>(io.alloc(
      cellport::round_up(static_cast<std::size_t>(w), 8) *
      sizeof(std::uint16_t)));
  for (int x = 0; x < w; ++x) {
    sop(4);
    cc_st.cols_clamped[x] = static_cast<std::uint16_t>(
        std::min(w - 1, x + kCcRadius) - std::max(0, x - kCcRadius) + 1);
  }

  // EH state: gray-row ring (shared with the Haar step) + blob counts.
  EhState eh_st;
  eh_st.w = w;
  eh_st.h = h;
  for (auto& r : eh_st.ring) {
    r = static_cast<std::uint8_t*>(
        io.alloc(static_cast<std::size_t>(cc_st.row_bytes)));
    std::memset(r, 0, static_cast<std::size_t>(cc_st.row_bytes));
  }
  eh_st.counts = blob + kFusedEhOffset;

  // TX state: per-tile LL rows of each level (exactly tx_run's layout).
  const int lvl_w[4] = {half_w, half_w / 2, half_w / 4, half_w / 8};
  const int lvl_h[4] = {half_h, half_h / 2, half_h / 4, half_h / 8};
  int lvl_stride[4] = {};
  float* ll[4] = {};
  if (tx_on) {
    for (int l = 0; l < 4; ++l) {
      lvl_stride[l] = static_cast<int>(
          cellport::round_up(static_cast<std::size_t>(lvl_w[l]), 4));
      const int tile_rows = kTxTileRows >> (l + 1);  // 8, 4, 2, 1
      ll[l] = static_cast<float*>(io.alloc(
          static_cast<std::size_t>(lvl_stride[l]) * tile_rows *
          sizeof(float)));
    }
  }
  Energies acc[features::kTextureLevels];
  int tile = t0;
  int tile_ll_rows = 0;

  // Levels 2..4 over the finished tile's LL rows, then the 12-double tile
  // partial — byte-for-byte tx_run's finish_tile in shard mode.
  auto finish_tile = [&]() {
    for (int l = 1; l < features::kTextureLevels; ++l) {
      const int span = kTxTileRows >> l;
      const int y_begin = tile * span / 2;
      const int y_end = std::min((tile + 1) * span / 2, lvl_h[l]);
      for (int y = y_begin; y < y_end; ++y) {
        const int local = 2 * y - tile * span;
        const float* p0 =
            ll[l - 1] + static_cast<std::size_t>(local) * lvl_stride[l - 1];
        const float* p1 = p0 + lvl_stride[l - 1];
        haar_rows(lvl_w[l], p0, p1,
                  ll[l] + static_cast<std::size_t>(y - y_begin) *
                              lvl_stride[l],
                  acc[l]);
      }
    }
    int idx = 0;
    for (int l = 0; l < features::kTextureLevels; ++l) {
      for (const vec_float4* a : {&acc[l].lh, &acc[l].hl, &acc[l].hh}) {
        tx_partials[static_cast<std::size_t>(tile - t0) * kTxTileDoubles +
                    idx] = reduce4(*a);
        ++idx;
      }
      acc[l] = Energies{};
    }
    tile_ll_rows = 0;
    ++tile;
  };

  // ---- the single streaming pass ----
  const int fetch_begin = std::max(0, r0 - kCcRadius);
  const int fetch_end = std::min(h, r1 + kCcRadius);
  const int gray_begin = std::max(0, r0 - 1);
  const int gray_end = std::min(h, r1 + 1);

  const HsvConstants hsv_c = HsvConstants::load();
  const EhConstants eh_c = EhConstants::load();

  auto stream = io.stream(fetch_begin, fetch_end);
  int computed_to = fetch_begin;  // quantized rows (absolute, exclusive)
  int cc_produced = r0;
  int eh_produced = r0;

  auto eh_row = [&](int y) {
    if (y == 0 || y == h - 1) {
      eh_border_row(eh_st, y);
    } else {
      eh_produce_row_simd(eh_st, y, eh_c);
    }
  };

  while (stream.has_next()) {
    RowStreamer::Block blk = stream.next();
    for (int r = 0; r < blk.rows; ++r) {
      const int row_idx = blk.first_row + r;
      const std::uint8_t* rgb =
          blk.data + static_cast<std::size_t>(r) * io.stride();
      const bool own = row_idx >= r0 && row_idx < r1;
      // Per-row role dispatch (glue the standalone kernels don't pay).
      sop(4);
      charge_odd(2);
      std::uint8_t* cc_dst =
          cc_st.ring[row_idx % kCcRingRows] + kRingOrigin;
      quantize_row_counted(rgb, w, cc_dst, hsv_c, own ? banks : nullptr);
      if (row_idx >= gray_begin && row_idx < gray_end) {
        gray_row_simd(rgb, w,
                      eh_st.ring[row_idx % kEhRingRows] + kRingOrigin);
      }
      if (tx_on && row_idx >= r0 && row_idx < tx_end &&
          (row_idx & 1) != 0) {
        // Row pair (row_idx - 1, row_idx) is complete in the gray ring:
        // Haar-step it straight out of the ring (no re-conversion, no
        // staging copy — the fusion win for the texture path).
        const std::uint8_t* g0 =
            eh_st.ring[(row_idx - 1) % kEhRingRows] + kRingOrigin;
        const std::uint8_t* g1 =
            eh_st.ring[row_idx % kEhRingRows] + kRingOrigin;
        haar_rows(half_w, g0, g1,
                  ll[0] + static_cast<std::size_t>(tile_ll_rows) *
                              lvl_stride[0],
                  acc[0]);
        ++tile_ll_rows;
        if (tile_ll_rows == kTxTileRows / 2) finish_tile();
      }
      ++computed_to;
    }
    while (cc_produced < r1 && (cc_produced + kCcRadius < computed_to ||
                                computed_to == fetch_end)) {
      cc_produce_row(cc_st, cc_produced, w, h);
      ++cc_produced;
    }
    const int gray_to = std::min(computed_to, gray_end);
    while (eh_produced < r1 &&
           (eh_produced + 1 < gray_to || gray_to == gray_end)) {
      eh_row(eh_produced);
      ++eh_produced;
    }
  }
  while (cc_produced < r1) {
    cc_produce_row(cc_st, cc_produced, w, h);
    ++cc_produced;
  }
  while (eh_produced < r1) {
    eh_row(eh_produced);
    ++eh_produced;
  }
  if (tx_on && tile_ll_rows > 0) finish_tile();

  // Merge the four sub-histograms into the blob's CH section (vector
  // adds; integer sums, so the bank split never changes the counts).
  for (std::size_t i = 0; i < hist_len; i += 4) {
    vec_int4 s = spu_add(
        spu_add(vld<vec_int4>(&banks[0][i]), vld<vec_int4>(&banks[1][i])),
        spu_add(vld<vec_int4>(&banks[2][i]), vld<vec_int4>(&banks[3][i])));
    vst(&ch_hist[i], s);
    spu_loop(1);
  }

  io.emit(blob, blob_bytes);
}

/// The SPE driver: the message, local-store buffers, DMA-streamed rows.
struct SpeIo {
  const ImageMsg* msg;

  void* alloc(std::size_t bytes) { return spu_ls_alloc(bytes, 16); }
  RowStreamer stream(int begin, int end) const {
    return RowStreamer(
        msg->pixels_ea, static_cast<std::uint32_t>(msg->stride), begin, end,
        msg->block_rows > 0 ? msg->block_rows : kFusedBlockRows,
        msg->buffering);
  }
  std::size_t stride() const { return static_cast<std::size_t>(msg->stride); }
  void emit(const void* blob, std::size_t bytes) const {
    emit_result(blob, msg->out_ea, static_cast<std::uint32_t>(bytes));
  }
};

int fused_run(std::uint64_t ea) {
  auto* msg = static_cast<ImageMsg*>(spu_ls_alloc(sizeof(ImageMsg)));
  fetch_msg(msg, ea);
  const bool shard = msg->row_end > 0;
  SpeIo io{msg};
  fused_pass(io, msg->width, msg->height, shard ? msg->row_begin : 0,
             shard ? msg->row_end : msg->height, true);
  return 0;
}

/// The host driver: zeroed host buffers, the image's own rows in blocks
/// of kFusedBlockRows. Each buffer carries 64 bytes of slack: the Haar
/// tail refetches its whole column group and may read up to 32 bytes past
/// the last LL row, which the local store absorbs on the SPE.
class HostIo {
 public:
  HostIo(const img::RgbImage& image, std::uint8_t* out)
      : image_(image), out_(out) {}

  void* alloc(std::size_t bytes) {
    buffers_.emplace_back(bytes + kSlackBytes);
    return buffers_.back().data();
  }

  class Rows {
   public:
    Rows(const img::RgbImage& image, int begin, int end)
        : image_(image), next_(begin), end_(end) {}
    bool has_next() const { return next_ < end_; }
    RowStreamer::Block next() {
      const int rows = std::min(kFusedBlockRows, end_ - next_);
      RowStreamer::Block blk{image_.row(next_), next_, rows};
      next_ += rows;
      return blk;
    }

   private:
    const img::RgbImage& image_;
    int next_;
    int end_;
  };
  Rows stream(int begin, int end) const { return Rows(image_, begin, end); }
  std::size_t stride() const {
    return static_cast<std::size_t>(image_.stride());
  }
  void emit(const void* blob, std::size_t bytes) const {
    std::memcpy(out_, blob, bytes);
  }

 private:
  static constexpr std::size_t kSlackBytes = 64;
  const img::RgbImage& image_;
  std::uint8_t* out_;
  std::vector<cellport::AlignedBuffer<std::uint8_t>> buffers_;
};

}  // namespace

void register_fused(port::KernelModule& module) {
  module.add_function(SPU_Run_Fused, &fused_run);
}

void fused_partial_host(const img::RgbImage& image, int row_begin,
                        int row_end, bool texture, std::uint8_t* blob) {
  HostIo io(image, blob);
  fused_pass(io, image.width(), image.height(), row_begin, row_end,
             texture);
}

}  // namespace cellport::kernels
