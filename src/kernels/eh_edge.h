// Shared edge-histogram machinery (hoisted out of eh_kernel.cpp for
// cellfuse): gray ring state, the scalar border path, and the Sobel +
// octant/magnitude binning that produces one gradient row.
// The fused kernel and the standalone EH kernel run the exact same
// production functions, so their bin counts are bit-identical by
// construction.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "features/edge_histogram.h"
#include "kernels/row_convert.h"
#include "spu/spu.h"

namespace cellport::kernels {

inline constexpr int kEhBlockRows = 16;
inline constexpr int kEhRingRows = kEhBlockRows + 3;
inline constexpr float kEhTwoPi = 6.2831853071795864769f;
inline constexpr float kEhTanLo = 0.41421356237f;  // tan(22.5 deg)
inline constexpr float kEhTanHi = 2.41421356237f;  // tan(67.5 deg)

struct EhState {
  std::uint8_t* ring[kEhRingRows];
  std::uint32_t* counts;  // 64 bins
  int w = 0;
  int h = 0;
};

inline int eh_clamped(const EhState& st, int x, int y) {
  x = std::clamp(x, 0, st.w - 1);
  y = std::clamp(y, 0, st.h - 1);
  return st.ring[y % kEhRingRows][kRingOrigin + x];
}

/// Scalar pixel using the reference's exact float sqrt/atan2 path (used
/// for the image border, where clamping breaks the vector pattern).
inline void eh_scalar_pixel(const EhState& st, int x, int y) {
  using namespace cellport::spu;
  sop(30);
  charge_odd(20);
  int gx = -eh_clamped(st, x - 1, y - 1) + eh_clamped(st, x + 1, y - 1) -
           2 * eh_clamped(st, x - 1, y) + 2 * eh_clamped(st, x + 1, y) -
           eh_clamped(st, x - 1, y + 1) + eh_clamped(st, x + 1, y + 1);
  int gy = -eh_clamped(st, x - 1, y - 1) - 2 * eh_clamped(st, x, y - 1) -
           eh_clamped(st, x + 1, y - 1) + eh_clamped(st, x - 1, y + 1) +
           2 * eh_clamped(st, x, y + 1) + eh_clamped(st, x + 1, y + 1);
  float mag =
      std::sqrt(static_cast<float>(gx) * static_cast<float>(gx) +
                static_cast<float>(gy) * static_cast<float>(gy));
  if (mag < features::kEdgeMagThreshold) return;
  sop(40);
  float angle =
      std::atan2(static_cast<float>(gy), static_cast<float>(gx));
  if (angle < 0.0f) angle += kEhTwoPi;
  int abin = static_cast<int>((angle + kEhTwoPi / 16.0f) *
                              (features::kEdgeAngleBins / kEhTwoPi));
  if (abin >= features::kEdgeAngleBins) abin = 0;
  int mbin = static_cast<int>(
      mag * (features::kEdgeMagBins / features::kEdgeMagMax));
  if (mbin >= features::kEdgeMagBins) mbin = features::kEdgeMagBins - 1;
  auto bin = static_cast<std::uint32_t>(abin * features::kEdgeMagBins +
                                        mbin);
  sstore(&st.counts[bin], sload(&st.counts[bin]) + 1);
}

/// Constant registers of the edge binning, loaded once per invocation.
/// load() charges the splats the SPU code pays; the host binning itself
/// reads only mag_b2.
struct EhConstants {
  cellport::spu::vec_float4 sign_clear;
  cellport::spu::vec_float4 tan_lo;
  cellport::spu::vec_float4 tan_hi;
  cellport::spu::vec_float4 mag_b2[features::kEdgeMagBins - 1];
  cellport::spu::vec_int4 zero_i;
  cellport::spu::vec_int4 i0, i1, i2, i3, i4, i5, i6, i7;
  cellport::spu::vec_int4 thresh63;
  cellport::spu::vec_short8 one_h;

  static EhConstants load() {
    using namespace cellport::spu;
    EhConstants c;
    c.sign_clear = vec_cast<vec_float4>(spu_splats<vec_uint4>(0x7FFFFFFFu));
    c.tan_lo = spu_splats<vec_float4>(kEhTanLo);
    c.tan_hi = spu_splats<vec_float4>(kEhTanHi);
    for (int k = 1; k < features::kEdgeMagBins; ++k) {
      float boundary = static_cast<float>(k) * features::kEdgeMagMax /
                       features::kEdgeMagBins;
      c.mag_b2[k - 1] = spu_splats<vec_float4>(boundary * boundary);
    }
    c.zero_i = spu_splats<vec_int4>(0);
    c.i0 = spu_splats<vec_int4>(0);
    c.i1 = spu_splats<vec_int4>(1);
    c.i2 = spu_splats<vec_int4>(2);
    c.i3 = spu_splats<vec_int4>(3);
    c.i4 = spu_splats<vec_int4>(4);
    c.i5 = spu_splats<vec_int4>(5);
    c.i6 = spu_splats<vec_int4>(6);
    c.i7 = spu_splats<vec_int4>(7);
    c.thresh63 = spu_splats<vec_int4>(63);
    c.one_h = spu_splats<vec_short8>(1);
    return c;
  }
};

/// Bin of one edge pixel: its octant and its magnitude bin, by the same
/// float compares as the SPU code (octant by tan(22.5)/tan(67.5) against
/// |gx|, |gy|; magnitude by counting squared boundaries above mag2, which
/// replaces the reference's sqrt).
inline std::uint32_t eh_edge_bin(int gx, int gy, int mag2,
                                 const EhConstants& c) {
  const float ax = std::abs(static_cast<float>(gx));
  const float ay = std::abs(static_cast<float>(gy));
  int octant = gx > 0 ? 0 : 4;
  if (ay > ax * kEhTanLo) {
    if (ax * kEhTanHi > ay) {
      octant = gx > 0 ? (gy > 0 ? 1 : 7) : (gy > 0 ? 3 : 5);
    } else {
      octant = gy > 0 ? 2 : 6;
    }
  }
  const auto mf = static_cast<float>(mag2);  // exact: mag2 < 2^24
  int mbin = features::kEdgeMagBins - 1;
  for (int k = 1; k < features::kEdgeMagBins; ++k) {
    if (c.mag_b2[k - 1].v[0] > mf) --mbin;
  }
  return static_cast<std::uint32_t>(octant * features::kEdgeMagBins + mbin);
}

// SPU cycles of one 8-pixel group of eh_produce_row_simd, charged in
// closed form. Even pipe: nine byte-to-halfword unpacks (a zero splat
// each), the Sobel sums (13 add/sub/shift), four mule/mulo widenings of
// gx/gy, mag2 (four mule/mulo, two adds), two edge compares, two octant
// binnings (17 each: 2 convtf, 2 and, 2 mul, 4 cmpgt, 7 sel), two
// magnitude binnings (16 each: a convtf, 7 cmpgt+sub pairs, a sub), two
// bin shift+add pairs and the loop's 2. Odd pipe: three aligned vld, nine
// unpack shuffles, the scatter's eight extract+branch pairs and the loop
// branch. A misaligned row load costs a second vld and a shuffle; each
// edge pixel costs its bin extract, a scalar load and a scalar store.
inline constexpr double kEhGroupEven =
    9 + 13 + 4 + 6 + 2 + 2 * 17 + 2 * 16 + 2 * 2 + 2;
inline constexpr double kEhGroupOdd = 3 + 9 + 8 * 2 + 1;
inline constexpr double kEhMisalignedLoadOdd = 2;
inline constexpr double kEhEdgeEven = 1;
inline constexpr double kEhEdgeOdd = 1 + 2 + 2;

/// Produces one gradient row y: the scalar border pixels, 8-pixel groups
/// on host vectors, and the scalar tail. The groups' SPU cycles are
/// charged once per row; every charge is a whole number of cycles and
/// nothing flushes the pipes inside a row, so the pending totals match
/// the per-instruction charging bit for bit.
inline void eh_produce_row_simd(const EhState& st, int y,
                                const EhConstants& ec) {
  typedef std::uint8_t u8x8 __attribute__((vector_size(8)));
  typedef std::int16_t i16x8 __attribute__((vector_size(16)));
  const auto load8 = [](const std::uint8_t* p) {
    u8x8 b;
    std::memcpy(&b, p, 8);
    return __builtin_convertvector(b, i16x8);
  };
  const int w = st.w;
  // Border columns via the scalar float path. A one-column image has a
  // single border pixel, not two — without the early return it would be
  // binned twice (column 0 and column w-1 are the same pixel).
  eh_scalar_pixel(st, 0, y);
  if (w == 1) return;
  const std::uint8_t* rows[3] = {
      st.ring[(y - 1) % kEhRingRows] + kRingOrigin,
      st.ring[y % kEhRingRows] + kRingOrigin,
      st.ring[(y + 1) % kEhRingRows] + kRingOrigin};

  int groups = 0;
  int misaligned = 0;
  int edges = 0;
  int x = 1;
  for (; x + 8 <= w - 1; x += 8) {
    i16x8 l[3];
    i16x8 c[3];
    i16x8 r[3];
    for (int k = 0; k < 3; ++k) {
      l[k] = load8(rows[k] + x - 1);
      c[k] = load8(rows[k] + x);
      r[k] = load8(rows[k] + x + 1);
      const auto addr = reinterpret_cast<std::uintptr_t>(rows[k] + x - 1);
      misaligned += addr % 16 != 0;
    }
    const i16x8 gx = (r[0] - l[0]) + (r[2] - l[2]) + 2 * (r[1] - l[1]);
    const i16x8 gy = (l[2] + r[2] + 2 * c[2]) - (l[0] + r[0] + 2 * c[0]);
    for (int i = 0; i < 8; ++i) {
      const int gxi = gx[i];
      const int gyi = gy[i];
      const int mag2 = gxi * gxi + gyi * gyi;
      if (mag2 < 64) continue;  // mag >= 8  <=>  mag2 >= 64 (exact)
      ++edges;
      ++st.counts[eh_edge_bin(gxi, gyi, mag2, ec)];
    }
    ++groups;
  }
  cellport::spu::charge_even(groups * kEhGroupEven + edges * kEhEdgeEven);
  cellport::spu::charge_odd(groups * kEhGroupOdd +
                            misaligned * kEhMisalignedLoadOdd +
                            edges * kEhEdgeOdd);
  for (; x < w - 1; ++x) eh_scalar_pixel(st, x, y);
  eh_scalar_pixel(st, w - 1, y);
}

}  // namespace cellport::kernels
