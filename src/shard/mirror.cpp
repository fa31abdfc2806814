#include "shard/mirror.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "features/color_correlogram.h"
#include "features/edge_histogram.h"
#include "img/color.h"
#include "kernels/messages.h"

namespace cellport::shard {

namespace {

using sim::OpClass;

inline int luma_of(const std::uint8_t* px) {
  return static_cast<int>((77u * px[0] + 150u * px[1] + 29u * px[2]) >> 8);
}

}  // namespace

void ppe_partial_ch(const img::RgbImage& image, const Range& rows,
                    std::uint32_t* hist, sim::ScalarContext* ctx) {
  std::memset(hist, 0,
              kernels::kShardChWords * sizeof(std::uint32_t));
  const int w = image.width();
  for (int y = rows.begin; y < rows.end; ++y) {
    const std::uint8_t* row = image.row(y);
    for (int x = 0; x < w; ++x) {
      int bin = img::rgb_to_bin(row[x * 3], row[x * 3 + 1], row[x * 3 + 2],
                                ctx);
      ++hist[bin];
    }
  }
  if (ctx != nullptr) {
    const auto px = static_cast<std::uint64_t>(
        std::max(0, rows.count()) * w);
    ctx->charge(OpClass::kLoad, 4 * px);
    ctx->charge(OpClass::kStore, px);
  }
}

void ppe_partial_cc(const img::RgbImage& image, const Range& rows,
                    std::uint32_t* counts, sim::ScalarContext* ctx) {
  std::memset(counts, 0,
              kernels::kShardCcWords * sizeof(std::uint32_t));
  if (rows.empty()) return;
  constexpr int kHist = kernels::kShardCcWords / 2;
  constexpr int kR = features::kCorrWindowRadius;
  std::uint32_t* same = counts;
  std::uint32_t* possible = counts + kHist;
  const int w = image.width();
  const int h = image.height();
  const int fetch_begin = std::max(0, rows.begin - kR);
  const int fetch_end = std::min(h, rows.end + kR);

  // Quantize the rows the windows can touch (same bin function as the
  // kernel's SIMD quantizer — hsv_bins_4 is bit-identical to rgb_to_bin).
  std::vector<std::uint8_t> bins(
      static_cast<std::size_t>(fetch_end - fetch_begin) * w);
  for (int y = fetch_begin; y < fetch_end; ++y) {
    const std::uint8_t* row = image.row(y);
    std::uint8_t* dst =
        bins.data() + static_cast<std::size_t>(y - fetch_begin) * w;
    for (int x = 0; x < w; ++x) {
      dst[x] = static_cast<std::uint8_t>(img::rgb_to_bin(
          row[x * 3], row[x * 3 + 1], row[x * 3 + 2], ctx));
    }
  }

  std::uint64_t window_ops = 0;
  for (int y = rows.begin; y < rows.end; ++y) {
    const int y0 = std::max(0, y - kR);
    const int y1 = std::min(h - 1, y + kR);
    const std::uint8_t* crow =
        bins.data() + static_cast<std::size_t>(y - fetch_begin) * w;
    for (int x = 0; x < w; ++x) {
      const int x0 = std::max(0, x - kR);
      const int x1 = std::min(w - 1, x + kR);
      const std::uint8_t center = crow[x];
      std::uint32_t count = 0;
      for (int yy = y0; yy <= y1; ++yy) {
        const std::uint8_t* nrow =
            bins.data() + static_cast<std::size_t>(yy - fetch_begin) * w;
        for (int xx = x0; xx <= x1; ++xx) {
          if (nrow[xx] == center) ++count;
        }
      }
      const auto area =
          static_cast<std::uint32_t>((y1 - y0 + 1) * (x1 - x0 + 1));
      same[center] += count - 1;
      possible[center] += area - 1;
      window_ops += static_cast<std::uint64_t>(y1 - y0 + 1) * (x1 - x0 + 1);
    }
  }
  if (ctx != nullptr) {
    ctx->charge(OpClass::kLoad, window_ops);
    ctx->charge(OpClass::kIntAlu, window_ops);
  }
}

void ppe_partial_eh(const img::RgbImage& image, const Range& rows,
                    std::uint32_t* counts, sim::ScalarContext* ctx) {
  std::memset(counts, 0,
              kernels::kShardEhWords * sizeof(std::uint32_t));
  if (rows.empty()) return;
  constexpr float kTwoPi = 6.2831853071795864769f;
  const int w = image.width();
  const int h = image.height();
  const int fetch_begin = std::max(0, rows.begin - 1);
  const int fetch_end = std::min(h, rows.end + 1);

  std::vector<std::uint8_t> gray(
      static_cast<std::size_t>(fetch_end - fetch_begin) * w);
  for (int y = fetch_begin; y < fetch_end; ++y) {
    const std::uint8_t* row = image.row(y);
    std::uint8_t* dst =
        gray.data() + static_cast<std::size_t>(y - fetch_begin) * w;
    for (int x = 0; x < w; ++x) {
      dst[x] = static_cast<std::uint8_t>(luma_of(row + x * 3));
    }
  }
  auto sample = [&](int x, int y) -> int {
    x = std::clamp(x, 0, w - 1);
    y = std::clamp(y, 0, h - 1);
    return gray[static_cast<std::size_t>(y - fetch_begin) * w +
                static_cast<std::size_t>(x)];
  };
  // The kernel's SIMD binning matches its scalar_pixel float path for all
  // integer gradients, so replaying scalar_pixel reproduces its counts.
  for (int y = rows.begin; y < rows.end; ++y) {
    for (int x = 0; x < w; ++x) {
      int gx = -sample(x - 1, y - 1) + sample(x + 1, y - 1) -
               2 * sample(x - 1, y) + 2 * sample(x + 1, y) -
               sample(x - 1, y + 1) + sample(x + 1, y + 1);
      int gy = -sample(x - 1, y - 1) - 2 * sample(x, y - 1) -
               sample(x + 1, y - 1) + sample(x - 1, y + 1) +
               2 * sample(x, y + 1) + sample(x + 1, y + 1);
      float mag =
          std::sqrt(static_cast<float>(gx) * static_cast<float>(gx) +
                    static_cast<float>(gy) * static_cast<float>(gy));
      if (mag < features::kEdgeMagThreshold) continue;
      float angle =
          std::atan2(static_cast<float>(gy), static_cast<float>(gx));
      if (angle < 0.0f) angle += kTwoPi;
      int abin = static_cast<int>((angle + kTwoPi / 16.0f) *
                                  (features::kEdgeAngleBins / kTwoPi));
      if (abin >= features::kEdgeAngleBins) abin = 0;
      int mbin = static_cast<int>(
          mag * (features::kEdgeMagBins / features::kEdgeMagMax));
      if (mbin >= features::kEdgeMagBins) mbin = features::kEdgeMagBins - 1;
      ++counts[abin * features::kEdgeMagBins + mbin];
    }
  }
  if (ctx != nullptr) {
    const auto px = static_cast<std::uint64_t>(rows.count()) * w;
    ctx->charge(OpClass::kLoad, 12 * px);
    ctx->charge(OpClass::kIntAlu, 12 * px);
    ctx->charge(OpClass::kFloatAlu, 6 * px);
    ctx->charge(OpClass::kSqrt, px);
  }
}

namespace {

/// Bands within a tile's float accumulators (kernel order).
constexpr int kLh = 0;
constexpr int kHl = 1;
constexpr int kHh = 2;

/// One Haar step over a float row pair, emulating haar_rows' 4-lane
/// accumulation: lane = x mod 4 in the SIMD region (x < half_w rounded
/// down to 4), lane 0 in the scalar tail. acc is [band][lane].
void mirror_haar_pair(int half_w, const float* r0, const float* r1,
                      float* ll_out, float acc[3][4]) {
  const int simd_end = half_w & ~3;
  for (int x = 0; x < half_w; ++x) {
    const float a = r0[2 * x];
    const float b = r0[2 * x + 1];
    const float c = r1[2 * x];
    const float d = r1[2 * x + 1];
    const float ab_p = a + b;
    const float ab_m = a - b;
    const float cd_p = c + d;
    const float cd_m = c - d;
    ll_out[x] = 0.25f * (ab_p + cd_p);
    const float lh = 0.25f * (ab_m + cd_m);
    const float hl = 0.25f * (ab_p - cd_p);
    const float hh = 0.25f * (ab_m - cd_m);
    const int lane = x < simd_end ? (x & 3) : 0;
    acc[kLh][lane] = lh * lh + acc[kLh][lane];
    acc[kHl][lane] = hl * hl + acc[kHl][lane];
    acc[kHh][lane] = hh * hh + acc[kHh][lane];
  }
}

/// reduce4's double sum, in lane order.
double mirror_reduce4(const float lanes[4]) {
  return static_cast<double>(lanes[0]) + lanes[1] + lanes[2] + lanes[3];
}

}  // namespace

void ppe_partial_tx(const img::RgbImage& image, const Range& in_rows,
                    double* partials, sim::ScalarContext* ctx) {
  using kernels::kTxTileDoubles;
  using kernels::kTxTileRows;
  const int w = image.width();
  const int h = image.height();
  const int half_w = w / 2;
  const int half_h = h / 2;
  const int heff = half_h * 2;
  const int lvl_w[4] = {half_w, half_w / 2, half_w / 4, half_w / 8};
  const int lvl_h[4] = {half_h, half_h / 2, half_h / 4, half_h / 8};

  const int in_begin = in_rows.begin;
  const int in_end = std::min(in_rows.end, heff);
  if (in_begin >= in_end) return;
  const int t0 = in_begin / kTxTileRows;
  const int t1 = (in_end + kTxTileRows - 1) / kTxTileRows;

  // Per-tile LL planes (unpadded; the kernel's padded lanes never feed
  // an accumulated value).
  std::vector<float> ll[4];
  for (int l = 0; l < 4; ++l) {
    ll[l].assign(
        static_cast<std::size_t>(lvl_w[l]) * (kTxTileRows >> (l + 1)),
        0.0f);
  }
  std::vector<float> gray0(static_cast<std::size_t>(std::max(w, 1)));
  std::vector<float> gray1(static_cast<std::size_t>(std::max(w, 1)));

  float acc[4][3][4] = {};
  for (int tile = t0; tile < t1; ++tile) {
    const int row_begin = tile * kTxTileRows;
    const int row_end = std::min((tile + 1) * kTxTileRows, heff);
    int tile_ll_rows = 0;
    // Tile row counts are even (tile boundaries and heff are), so the
    // range decomposes into whole row pairs.
    for (int y = row_begin; y + 1 < row_end; y += 2) {
      const std::uint8_t* rgb0 = image.row(y);
      const std::uint8_t* rgb1 = image.row(y + 1);
      for (int x = 0; x < w; ++x) {
        gray0[static_cast<std::size_t>(x)] =
            static_cast<float>(luma_of(rgb0 + x * 3));
        gray1[static_cast<std::size_t>(x)] =
            static_cast<float>(luma_of(rgb1 + x * 3));
      }
      mirror_haar_pair(half_w, gray0.data(), gray1.data(),
                       ll[0].data() +
                           static_cast<std::size_t>(tile_ll_rows) * lvl_w[0],
                       acc[0]);
      ++tile_ll_rows;
    }
    // finish_tile: levels 2..4 over the tile's own LL rows.
    for (int l = 1; l < 4; ++l) {
      const int span = kTxTileRows >> l;
      const int y_begin = tile * span / 2;
      const int y_end = std::min((tile + 1) * span / 2, lvl_h[l]);
      for (int y = y_begin; y < y_end; ++y) {
        const int local = 2 * y - tile * span;
        const float* r0 =
            ll[l - 1].data() +
            static_cast<std::size_t>(local) * lvl_w[l - 1];
        const float* r1 = r0 + lvl_w[l - 1];
        mirror_haar_pair(lvl_w[l], r0, r1,
                         ll[l].data() +
                             static_cast<std::size_t>(y - y_begin) * lvl_w[l],
                         acc[l]);
      }
    }
    int idx = 0;
    for (int l = 0; l < 4; ++l) {
      for (int band = 0; band < 3; ++band) {
        partials[static_cast<std::size_t>(tile - t0) * kTxTileDoubles +
                 idx] = mirror_reduce4(acc[l][band]);
        ++idx;
      }
      std::memset(acc[l], 0, sizeof(acc[l]));
    }
  }
  if (ctx != nullptr) {
    const auto px =
        static_cast<std::uint64_t>(in_end - in_begin) * w;
    ctx->charge(OpClass::kLoad, 4 * px);
    ctx->charge(OpClass::kIntAlu, 4 * px);
    ctx->charge(OpClass::kFloatAlu, 8 * px);
    ctx->charge(OpClass::kDoubleAlu,
                static_cast<std::uint64_t>(t1 - t0) * 3 * kTxTileDoubles);
  }
}

void ppe_partial(int slot, const img::RgbImage& image, const Range& range,
                 void* part, sim::ScalarContext* ctx) {
  switch (slot) {
    case kSlotCh:
      ppe_partial_ch(image, range, static_cast<std::uint32_t*>(part), ctx);
      break;
    case kSlotCc:
      ppe_partial_cc(image, range, static_cast<std::uint32_t*>(part), ctx);
      break;
    case kSlotTx:
      ppe_partial_tx(image, range, static_cast<double*>(part), ctx);
      break;
    default:
      ppe_partial_eh(image, range, static_cast<std::uint32_t*>(part), ctx);
      break;
  }
}

void ppe_partial_fused(const img::RgbImage& image, const Range& range,
                       std::uint8_t* blob, sim::ScalarContext* ctx) {
  // The mirrors are bit-exact and zero their sections first, so the
  // reduction cannot tell these bytes from SPE-delivered ones.
  auto* words = reinterpret_cast<std::uint32_t*>(blob);
  ppe_partial_ch(image, range, words, ctx);
  ppe_partial_cc(image, range, words + kernels::kFusedCcOffset, ctx);
  ppe_partial_eh(image, range, words + kernels::kFusedEhOffset, ctx);
  const int heff = 2 * (image.height() / 2);
  const Range tx_rows{range.begin, std::min(range.end, heff)};
  if (!tx_rows.empty()) {
    ppe_partial_tx(image, tx_rows,
                   reinterpret_cast<double*>(blob + kernels::kFusedCountBytes),
                   ctx);
  }
}

void ppe_detect_block(const float* x, int dim,
                      const learn::ConceptModelSet& set,
                      const Range& models, double* scores,
                      sim::ScalarContext* ctx) {
  for (int m = models.begin; m < models.end; ++m) {
    const learn::SvmModel& model = set.models[static_cast<std::size_t>(m)];
    const std::span<const float> coef = model.coef();
    double acc = 0.0;
    for (int i = 0; i < model.num_sv(); ++i) {
      const float* sv = model.sv_row(i);
      double k;
      if (model.kernel() == learn::SvmKernelType::kLinear) {
        // dot_simd: 4 float lane sums, lane-ordered reduce, scalar tail.
        float lanes[4] = {0.0f, 0.0f, 0.0f, 0.0f};
        int d = 0;
        for (; d + 4 <= dim; d += 4) {
          for (int lane = 0; lane < 4; ++lane) {
            lanes[lane] = sv[d + lane] * x[d + lane] + lanes[lane];
          }
        }
        float total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for (; d < dim; ++d) total += sv[d] * x[d];
        k = total;
      } else {
        // dist2_simd, same lane structure.
        float lanes[4] = {0.0f, 0.0f, 0.0f, 0.0f};
        int d = 0;
        for (; d + 4 <= dim; d += 4) {
          for (int lane = 0; lane < 4; ++lane) {
            const float diff = sv[d + lane] - x[d + lane];
            lanes[lane] = diff * diff + lanes[lane];
          }
        }
        float total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for (; d < dim; ++d) {
          const float diff = sv[d] - x[d];
          total += diff * diff;
        }
        k = std::exp(-static_cast<double>(model.gamma()) * total);
      }
      acc += static_cast<double>(coef[static_cast<std::size_t>(i)]) * k;
    }
    scores[m - models.begin] = acc - model.rho();
    if (ctx != nullptr) {
      const auto svops =
          static_cast<std::uint64_t>(model.num_sv()) * dim;
      ctx->charge(OpClass::kLoad, 2 * svops);
      ctx->charge(OpClass::kFloatAlu, 3 * svops);
      ctx->charge(OpClass::kDoubleAlu,
                  22 * static_cast<std::uint64_t>(model.num_sv()));
    }
  }
}

}  // namespace cellport::shard
