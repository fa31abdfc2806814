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

/// The SPU edge binning's constant registers: 21 splats (the sign mask,
/// tan(22.5) and tan(67.5), the 7 squared magnitude boundaries, the
/// integers 0..7 plus a second 0, the edge threshold 63 and a halfword 1),
/// made once per invocation. load() charges them; the host binning reads
/// only the boundaries.
struct EhConstants {
  static constexpr double kSplats = 3 + (features::kEdgeMagBins - 1) + 9 + 2;
  float mag_b2[features::kEdgeMagBins - 1];

  static EhConstants load() {
    cellport::spu::charge_even(kSplats);
    EhConstants c;
    for (int k = 1; k < features::kEdgeMagBins; ++k) {
      float boundary = static_cast<float>(k) * features::kEdgeMagMax /
                       features::kEdgeMagBins;
      c.mag_b2[k - 1] = boundary * boundary;
    }
    return c;
  }
};

/// Bins of 4 gradient pixels, branch-free, by the same float compares as
/// the SPU code: the octant by tan(22.5)/tan(67.5) against |gx|, |gy|; the
/// magnitude bin by counting squared boundaries above mag2, which replaces
/// the reference's sqrt. Lanes below the edge threshold get a bin too.
inline i32x4 eh_edge_bins(i32x4 gx, i32x4 gy, i32x4 mag2,
                          const EhConstants& c) {
  const f32x4 ax = __builtin_convertvector(gx < 0 ? -gx : gx, f32x4);
  const f32x4 ay = __builtin_convertvector(gy < 0 ? -gy : gy, f32x4);
  const i32x4 diag = ay > ax * kEhTanLo;
  const i32x4 not_vert = ax * kEhTanHi > ay;
  const i32x4 gx_pos = gx > 0;
  const i32x4 gy_pos = gy > 0;
  const i32x4 diagonal = gx_pos ? (gy_pos ? 1 : 7) : (gy_pos ? 3 : 5);
  const i32x4 octant = diag ? (not_vert ? diagonal : (gy_pos ? 2 : 6))
                            : (gx_pos ? 0 : 4);
  const f32x4 mf = __builtin_convertvector(mag2, f32x4);  // exact: < 2^24
  i32x4 mbin = i32x4{} + (features::kEdgeMagBins - 1);
  for (int k = 1; k < features::kEdgeMagBins; ++k) {
    mbin += c.mag_b2[k - 1] > mf;  // a true mask is -1
  }
  return octant * features::kEdgeMagBins + mbin;
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
  typedef std::int16_t i16x4 __attribute__((vector_size(8)));
  const auto widen = [](i16x4 v) { return __builtin_convertvector(v, i32x4); };
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
  int misaligned_loads = 0;
  int edges = 0;
  // Bins 4 gradient pixels and scatters the edge lanes (mag >= 8 <=>
  // mag2 >= 64, exact); the other lanes add 0.
  const auto count_edges = [&](i32x4 gx4, i32x4 gy4) {
    const i32x4 mag2 = gx4 * gx4 + gy4 * gy4;
    const i32x4 bins = eh_edge_bins(gx4, gy4, mag2, ec);
    for (int i = 0; i < 4; ++i) {
      const int edge = mag2[i] >= 64;
      edges += edge;
      st.counts[bins[i]] += edge;
    }
  };
  int x = 1;
  for (; x + 8 <= w - 1; x += 8) {
    i16x8 l[3];
    i16x8 c[3];
    i16x8 r[3];
    for (int k = 0; k < 3; ++k) {
      l[k] = load8(rows[k] + x - 1);
      c[k] = load8(rows[k] + x);
      r[k] = load8(rows[k] + x + 1);
      misaligned_loads += misaligned(rows[k] + x - 1);
    }
    const i16x8 gx = (r[0] - l[0]) + (r[2] - l[2]) + 2 * (r[1] - l[1]);
    const i16x8 gy = (l[2] + r[2] + 2 * c[2]) - (l[0] + r[0] + 2 * c[0]);
    // The SPU code bins the even and the odd lanes as two word vectors;
    // the host bins the low and the high four.
    count_edges(widen(__builtin_shufflevector(gx, gx, 0, 1, 2, 3)),
                widen(__builtin_shufflevector(gy, gy, 0, 1, 2, 3)));
    count_edges(widen(__builtin_shufflevector(gx, gx, 4, 5, 6, 7)),
                widen(__builtin_shufflevector(gy, gy, 4, 5, 6, 7)));
    ++groups;
  }
  cellport::spu::charge_even(groups * kEhGroupEven + edges * kEhEdgeEven);
  cellport::spu::charge_odd(groups * kEhGroupOdd +
                            misaligned_loads * kMisalignedLoadOdd +
                            edges * kEhEdgeOdd);
  for (; x < w - 1; ++x) eh_scalar_pixel(st, x, y);
  eh_scalar_pixel(st, w - 1, y);
}

}  // namespace cellport::kernels
