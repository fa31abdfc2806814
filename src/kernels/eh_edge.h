// Shared edge-histogram machinery (hoisted out of eh_kernel.cpp for
// cellfuse): gray ring state, the scalar border path, and the Sobel +
// octant/magnitude binning that produces one gradient row.
// The fused kernel and the standalone EH kernel run the exact same
// production functions, so their bin counts are bit-identical by
// construction.
#pragma once

#include <algorithm>
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

/// The SPU edge binning's constant registers: 21 splats (the sign mask,
/// tan(22.5) and tan(67.5), the 7 squared magnitude boundaries, the
/// integers 0..7 plus a second 0, the edge threshold 63 and a halfword 1),
/// made once per invocation. load() charges them; the host binning reads
/// only the boundaries, splatted like the SPU's.
struct EhConstants {
  static constexpr double kSplats = 3 + (features::kEdgeMagBins - 1) + 9 + 2;
  f32x4 mag_b2[features::kEdgeMagBins - 1];

  static EhConstants load() {
    cellport::spu::charge_even(kSplats);
    return boundaries();
  }

  /// The boundaries alone, uncharged.
  static EhConstants boundaries() {
    EhConstants c;
    for (int k = 1; k < features::kEdgeMagBins; ++k) {
      float boundary = static_cast<float>(k) * features::kEdgeMagMax /
                       features::kEdgeMagBins;
      c.mag_b2[k - 1] = f32x4{} + boundary * boundary;
    }
    return c;
  }
};

/// Bins and edge mask of 4 gradient pixels, branch-free, by the same
/// float compares as the SPU code: the octant by tan(22.5)/tan(67.5)
/// against |gx|, |gy|; the magnitude bin by counting squared boundaries
/// above mag2, which replaces the reference's sqrt. `edge` is -1 where
/// mag2 > 63 (mag >= 8, the edge threshold); the other lanes get a bin
/// too. The host computes mag2 in float lanes, where fx*fx + fy*fy is
/// exact (at most 2 * 1020^2 < 2^24), and takes |g| by clearing the sign
/// bit, as the SPU code does.
inline i32x4 eh_edge_bins(i32x4 gx, i32x4 gy, const EhConstants& c,
                          i32x4& edge) {
  const f32x4 fx = __builtin_convertvector(gx, f32x4);
  const f32x4 fy = __builtin_convertvector(gy, f32x4);
  const f32x4 ax = (f32x4)((i32x4)fx & 0x7FFFFFFF);
  const f32x4 ay = (f32x4)((i32x4)fy & 0x7FFFFFFF);
  const f32x4 mag2 = fx * fx + fy * fy;
  edge = mag2 > 63.0f;
  const i32x4 diag = ay > ax * kEhTanLo;
  const i32x4 not_vert = ax * kEhTanHi > ay;
  const i32x4 gx_pos = gx > 0;
  const i32x4 gy_pos = gy > 0;
  const i32x4 diagonal = gx_pos ? (gy_pos ? 1 : 7) : (gy_pos ? 3 : 5);
  const i32x4 octant = diag ? (not_vert ? diagonal : (gy_pos ? 2 : 6))
                            : (gx_pos ? 0 : 4);
  i32x4 mbin = i32x4{} + (features::kEdgeMagBins - 1);
#pragma GCC unroll 7
  for (int k = 1; k < features::kEdgeMagBins; ++k) {
    mbin += c.mag_b2[k - 1] > mag2;  // a true mask is -1
  }
  return octant * features::kEdgeMagBins + mbin;
}

/// Bin of one gradient by eh_edge_bins' compare rule, or -1 when it is no
/// edge. The SPU's scalar path bins with the reference's float sqrt and
/// atan2 (and is charged so); the two agree on every Sobel gradient
/// (tests/test_kernels.cpp, EdgeBinning), so the host skips libm.
inline int eh_gradient_bin(int gx, int gy) {
  static const EhConstants kBounds = EhConstants::boundaries();
  i32x4 edge;
  const i32x4 bins = eh_edge_bins(i32x4{} + gx, i32x4{} + gy, kBounds, edge);
  return edge[0] != 0 ? bins[0] : -1;
}

/// Scalar pixel (used for the image border, where clamping breaks the
/// vector pattern, and a row's tail). Returns 1 when the pixel is an
/// edge, which it counts. Charges nothing: its row charges its scalar
/// pixels once (eh_charge_scalar).
inline int eh_scalar_pixel(const EhState& st, int x, int y) {
  int gx = -eh_clamped(st, x - 1, y - 1) + eh_clamped(st, x + 1, y - 1) -
           2 * eh_clamped(st, x - 1, y) + 2 * eh_clamped(st, x + 1, y) -
           eh_clamped(st, x - 1, y + 1) + eh_clamped(st, x + 1, y + 1);
  int gy = -eh_clamped(st, x - 1, y - 1) - 2 * eh_clamped(st, x, y - 1) -
           eh_clamped(st, x + 1, y - 1) + eh_clamped(st, x - 1, y + 1) +
           2 * eh_clamped(st, x, y + 1) + eh_clamped(st, x + 1, y + 1);
  const int bin = eh_gradient_bin(gx, gy);
  if (bin < 0) return 0;
  ++st.counts[bin];
  return 1;
}

// SPU cycles of the scalar pixel path. Per pixel: the clamped gradient and
// the magnitude (30 even, 20 odd). Per edge pixel: the angle and the bins
// (40 even) and the counter's scalar load (2 odd) and store (1 even,
// 2 odd).
inline constexpr double kEhScalarEven = 30;
inline constexpr double kEhScalarOdd = 20;
inline constexpr double kEhScalarEdgeEven = 40 + 1;
inline constexpr double kEhScalarEdgeOdd = 2 + 2;

/// Charges a row's `pixels` scalar pixels, `edges` of them edges.
inline void eh_charge_scalar(int pixels, int edges) {
  cellport::spu::charge_even(pixels * kEhScalarEven +
                             edges * kEhScalarEdgeEven);
  cellport::spu::charge_odd(pixels * kEhScalarOdd + edges * kEhScalarEdgeOdd);
}

/// Produces the image's first or last gradient row: every pixel on the
/// scalar path, charged once.
inline void eh_border_row(const EhState& st, int y) {
  int edges = 0;
  for (int x = 0; x < st.w; ++x) edges += eh_scalar_pixel(st, x, y);
  eh_charge_scalar(st.w, edges);
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
/// on host vectors, and the scalar tail. The row's SPU cycles are charged
/// once; every charge is a whole number of cycles and nothing flushes the
/// pipes inside a row, so the pending totals match the per-instruction
/// charging bit for bit.
inline void eh_produce_row_simd(const EhState& st, int y,
                                const EhConstants& ec) {
  typedef std::uint8_t u8x8 __attribute__((vector_size(8)));
  typedef std::int16_t i16x8 __attribute__((vector_size(16)));
  // The SPU code bins the even and the odd halfword lanes of a group as
  // two word vectors (mule/mulo); so does the host, by shifts.
  const auto even = [](i16x8 v) { return ((i32x4)v << 16) >> 16; };
  const auto odd = [](i16x8 v) { return (i32x4)v >> 16; };
  const int w = st.w;
  // Border columns via the scalar float path. A one-column image has a
  // single border pixel, not two — without the early return it would be
  // binned twice (column 0 and column w-1 are the same pixel).
  int scalar_edges = eh_scalar_pixel(st, 0, y);
  if (w == 1) {
    eh_charge_scalar(1, scalar_edges);
    return;
  }
  const std::uint8_t* rows[3] = {
      st.ring[(y - 1) % kEhRingRows] + kRingOrigin,
      st.ring[y % kEhRingRows] + kRingOrigin,
      st.ring[(y + 1) % kEhRingRows] + kRingOrigin};

  int groups = 0;
  int misaligned_loads = 0;
  i32x4 edge_lanes = {};  // minus the edges counted in each lane
  // Bins 4 gradient pixels and scatters them; a lane that is no edge adds
  // 0 to its bin.
  const auto count_edges = [&](i32x4 gx4, i32x4 gy4) {
    i32x4 edge;
    const i32x4 bins = eh_edge_bins(gx4, gy4, ec, edge);
    edge_lanes += edge;
    for (int i = 0; i < 4; ++i) st.counts[bins[i]] += edge[i] & 1;
  };
  int x = 1;
  for (; x + 8 <= w - 1; x += 8) {
    // Pixels x-1+dx .. x+6+dx of window row k as halfwords.
    const auto px = [&](int k, int dx) {
      u8x8 b;
      std::memcpy(&b, rows[k] + x - 1 + dx, 8);
      return __builtin_convertvector(b, i16x8);
    };
    for (int k = 0; k < 3; ++k) misaligned_loads += misaligned(rows[k] + x - 1);
    const i16x8 gx = (px(0, 2) - px(0, 0)) + (px(2, 2) - px(2, 0)) +
                     2 * (px(1, 2) - px(1, 0));
    const i16x8 gy = (px(2, 0) + px(2, 2) + 2 * px(2, 1)) -
                     (px(0, 0) + px(0, 2) + 2 * px(0, 1));
    count_edges(even(gx), even(gy));
    count_edges(odd(gx), odd(gy));
    ++groups;
  }
  const int edges =
      -(edge_lanes[0] + edge_lanes[1] + edge_lanes[2] + edge_lanes[3]);
  for (; x < w - 1; ++x) scalar_edges += eh_scalar_pixel(st, x, y);
  scalar_edges += eh_scalar_pixel(st, w - 1, y);
  cellport::spu::charge_even(groups * kEhGroupEven + edges * kEhEdgeEven);
  cellport::spu::charge_odd(groups * kEhGroupOdd +
                            misaligned_loads * kMisalignedLoadOdd +
                            edges * kEhEdgeOdd);
  eh_charge_scalar(w - 8 * groups, scalar_edges);
}

}  // namespace cellport::kernels
