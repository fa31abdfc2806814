// Shared Haar-wavelet texture machinery (hoisted out of tx_kernel.cpp for
// cellfuse): the de-interleaving column fetchers, the SIMD Haar row step,
// and the float4 energy accumulators. TX's double accumulation is
// order-sensitive, so the fused kernel replicating bit-exact energies
// depends on running THESE functions in the same tile order — not a
// lookalike.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "kernels/common.h"
#include "spu/spu.h"

namespace cellport::kernels {

// The Haar step's column fetchers: even and odd columns x..x+7 of an
// input row, as two float4s. A gray byte row (level 1) costs an unaligned
// load, a zero splat (even), two shuffles against it (odd) and two convtf
// (even). A float LL row (levels 2..4) costs two unaligned loads and two
// shuffles (odd).
inline constexpr double kHaarFetchBytesEven = 1 + 2;
inline constexpr double kHaarFetchBytesOdd = kLoadOdd + 2;
inline constexpr double kHaarFetchFloatsEven = 0;
inline constexpr double kHaarFetchFloatsOdd = 2 * kLoadOdd + 2;

/// De-interleaves 8 consecutive gray bytes into even and odd column
/// floats; returns the misaligned loads the SPU code makes.
inline int haar_fetch(const std::uint8_t* gray8, f32x4& even, f32x4& odd) {
  const i32x4 e = {gray8[0], gray8[2], gray8[4], gray8[6]};
  const i32x4 o = {gray8[1], gray8[3], gray8[5], gray8[7]};
  even = __builtin_convertvector(e, f32x4);
  odd = __builtin_convertvector(o, f32x4);
  return misaligned(gray8);
}

/// De-interleaves 8 consecutive floats into even and odd lane float4s;
/// returns the misaligned loads the SPU code makes.
inline int haar_fetch(const float* p, f32x4& even, f32x4& odd) {
  even = f32x4{p[0], p[2], p[4], p[6]};
  odd = f32x4{p[1], p[3], p[5], p[7]};
  return misaligned(p) + misaligned(p + 4);
}

/// Horizontal reduction of a float4 into a double (for the energy sums).
inline double reduce4(const cellport::spu::vec_float4& v) {
  cellport::spu::charge_odd(3);
  cellport::spu::charge_double_op(3);
  return static_cast<double>(v.v[0]) + v.v[1] + v.v[2] + v.v[3];
}

struct Energies {
  cellport::spu::vec_float4 lh = cellport::spu::spu_splats<
      cellport::spu::vec_float4>(0.0f);
  cellport::spu::vec_float4 hl = cellport::spu::spu_splats<
      cellport::spu::vec_float4>(0.0f);
  cellport::spu::vec_float4 hh = cellport::spu::spu_splats<
      cellport::spu::vec_float4>(0.0f);
};

// SPU cycles of haar_rows besides its fetches. Per row: the 0.25 splat.
// Per 4 output columns: 4 add/sub of the column pairs, 4 add/sub and 4
// mul of the subbands, 3 madd into the energies (even), the LL vst (odd)
// and the loop branch (2 even, 1 odd). Per scalar-tail column: 16 even
// and 6 odd, after refetching its group.
inline constexpr double kHaarRowEven = 1;
inline constexpr double kHaarGroupEven = 4 + 4 + 4 + 3 + 2;
inline constexpr double kHaarGroupOdd = 1 + 1;
inline constexpr double kHaarTailEven = 16;
inline constexpr double kHaarTailOdd = 6;

/// One Haar step over a row pair (`row0` above `row1`: gray bytes for
/// level 1, float LL rows above it), producing one LL row and
/// accumulating detail energies. The lanes are computed on host vectors
/// in the SPU code's order, and its cycles are charged once per row.
template <typename Px>
inline void haar_rows(int half_w, const Px* row0, const Px* row1,
                      float* ll_out, Energies& acc) {
  f32x4 acc_lh;
  f32x4 acc_hl;
  f32x4 acc_hh;
  std::memcpy(&acc_lh, acc.lh.v.data(), 16);
  std::memcpy(&acc_hl, acc.hl.v.data(), 16);
  std::memcpy(&acc_hh, acc.hh.v.data(), 16);
  int misaligned_loads = 0;
  int x = 0;
  if (half_w >= 4) cellport::spu::vst_check(ll_out);
  for (; x + 4 <= half_w; x += 4) {
    f32x4 a;
    f32x4 b;
    f32x4 c;
    f32x4 d;
    misaligned_loads += haar_fetch(row0 + 2 * x, a, b);
    misaligned_loads += haar_fetch(row1 + 2 * x, c, d);
    const f32x4 ab_p = a + b;
    const f32x4 ab_m = a - b;
    const f32x4 cd_p = c + d;
    const f32x4 cd_m = c - d;
    const f32x4 ll = 0.25f * (ab_p + cd_p);
    const f32x4 lh = 0.25f * (ab_m + cd_m);
    const f32x4 hl = 0.25f * (ab_p - cd_p);
    const f32x4 hh = 0.25f * (ab_m - cd_m);
    std::memcpy(ll_out + x, &ll, 16);
    acc_lh = lh * lh + acc_lh;
    acc_hl = hl * hl + acc_hl;
    acc_hh = hh * hh + acc_hh;
  }
  const int groups = x / 4;
  const int tail = half_w - x;
  // Scalar tail for half-widths not divisible by 4: each column refetches
  // its group and accumulates into lane 0.
  for (; x < half_w; ++x) {
    f32x4 a;
    f32x4 b;
    f32x4 c;
    f32x4 d;
    const int base = x & ~3;
    misaligned_loads += haar_fetch(row0 + 2 * base, a, b);
    misaligned_loads += haar_fetch(row1 + 2 * base, c, d);
    const int lane = x - base;
    const float ab_p = a[lane] + b[lane];
    const float ab_m = a[lane] - b[lane];
    const float cd_p = c[lane] + d[lane];
    const float cd_m = c[lane] - d[lane];
    ll_out[x] = 0.25f * (ab_p + cd_p);
    const float lh = 0.25f * (ab_m + cd_m);
    const float hl = 0.25f * (ab_p - cd_p);
    const float hh = 0.25f * (ab_m - cd_m);
    acc_lh[0] += lh * lh;
    acc_hl[0] += hl * hl;
    acc_hh[0] += hh * hh;
  }
  std::memcpy(acc.lh.v.data(), &acc_lh, 16);
  std::memcpy(acc.hl.v.data(), &acc_hl, 16);
  std::memcpy(acc.hh.v.data(), &acc_hh, 16);
  constexpr bool kBytes = std::is_same_v<Px, std::uint8_t>;
  const int fetches = 2 * (groups + tail);
  cellport::spu::charge_even(
      kHaarRowEven + groups * kHaarGroupEven + tail * kHaarTailEven +
      fetches * (kBytes ? kHaarFetchBytesEven : kHaarFetchFloatsEven));
  cellport::spu::charge_odd(
      groups * kHaarGroupOdd + tail * kHaarTailOdd +
      fetches * (kBytes ? kHaarFetchBytesOdd : kHaarFetchFloatsOdd) +
      misaligned_loads * kMisalignedLoadOdd);
}

}  // namespace cellport::kernels
