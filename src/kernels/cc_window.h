// Shared correlogram window machinery (hoisted out of cc_kernel.cpp for
// cellfuse): the ring-buffer state and the window accumulation that
// produces one output row. The fused kernel and the standalone CC kernel
// run the exact same counting code, so their same/possible counts are
// bit-identical by construction. They charge different SPU sequences
// (CcCharge):
//   - the standalone kernel charges the sequence that compares every
//     centre's full 17x17 window. It is the paper's Table 1 kernel, and
//     the per-call shards run it, so its simulated time is the paper's
//     measurement. Charged by pairs, its Table 1 speed-up would go from
//     25.7x to 39.8x, next to EH Extract's 41.7x (the paper's largest),
//     and every Table 1 and Figure 7 time would move;
//   - the fused kernel charges the pair-symmetric sequence, which
//     compares each unordered pair of pixels once, as the counting code
//     does: the rewrite is part of the fused port.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "features/color_correlogram.h"
#include "kernels/row_convert.h"
#include "spu/spu.h"
#include "support/error.h"

namespace cellport::kernels {

inline constexpr int kCcRadius = features::kCorrWindowRadius;  // 8
inline constexpr int kCcOffsets = 2 * kCcRadius + 1;
// cc_produce_row counts a 16-pixel block's matches in bytes and widens
// them once per block. One byte count takes the 8 right partners in the
// centre row plus at most kCcRadius later own rows; each of the other two
// takes at most kCcRadius halo rows on one side of the own rows. (The
// host spreads each count over four byte accumulators that sum to it.)
static_assert(kCcRadius + kCcRadius * kCcOffsets <= 255);  // 144
static_assert(kCcRadius * kCcOffsets <= 255);              // 136
inline constexpr int kCcBlockRows = 12;
/// Window + one block of quantized rows resident in the LS.
inline constexpr int kCcRingRows = 2 * kCcRadius + 1 + kCcBlockRows;
/// 0xFF can never equal a real bin (bins are 0..165), so border windows
/// simply fail to match — no branches in the SIMD loop.
inline constexpr std::uint8_t kCcSentinel = 0xFF;

struct CcState {
  std::uint8_t* ring[kCcRingRows];
  int row_bytes = 0;
  std::uint32_t* same;
  std::uint32_t* possible;
  std::uint16_t* cols_clamped;  // per-x clamped window width
  /// The output rows [own_begin, own_end) the caller produces, each once;
  /// the other rows of the image are halo. The default, every row, fits
  /// only a caller that produces the whole image: a range kernel sets the
  /// range it produces.
  int own_begin = 0;
  int own_end = std::numeric_limits<int>::max();
};

/// The SPU instruction sequence a correlogram row is charged as. Each
/// kernel picks one at compile time.
enum class CcCharge {
  /// Every centre's whole window: the standalone CC kernel (cc_run).
  kWindow,
  /// Each unordered pair once: the fused kernel (fused_pass).
  kPairs,
};

// SPU cycles of the kWindow sequence, charged in closed form. Per 16-pixel
// block: the centre vld (odd), two accumulator splats (even) and the loop
// branch (spu_loop: 2 even, 1 odd). Per window row of a block: three vld
// (odd) and a byte-counter splat (even); per window offset one shuffle
// (odd) plus a cmpeq and a sub (even); the widening of the byte counts
// into the halfword accumulators, a zero splat (even), two shuffles (odd)
// and two adds (even); the loop branch. Per centre lane: an extract (odd),
// sop(2), four scalar loads (2 odd each) and two scalar stores (1 even,
// 2 odd each).
inline constexpr double kCcBlockEven = 2 + 2;
inline constexpr double kCcBlockOdd = 1 + 1;
inline constexpr double kCcWindowRowEven = 1 + 2 * kCcOffsets + 3 + 2;
inline constexpr double kCcWindowRowOdd = 3 + kCcOffsets + 2 + 1;
inline constexpr double kCcLaneEven = 2 + 2 * 1;
inline constexpr double kCcLaneOdd = 1 + 4 * 2 + 2 * 2;

// SPU cycles of the kPairs sequence. Per 16-pixel block: the centre vld
// and the next quadword of the centre row (odd), three byte-counter
// splats (even); per right partner dx = 1..8 one shuffle (odd) plus a
// cmpeq and a sub (even); the widening of the three byte counts once per
// block, a zero splat (even), then two shuffles (odd) and two adds (even)
// per count (the own-row count's adds double it); the loop branch. Per
// visited window row (the later own rows, the halo rows below, and the
// halo rows above, which only the first kCcRadius rows of a range have):
// three vld (odd), per window offset a shuffle (odd) plus a cmpeq and a
// sub (even), and the loop branch. Per centre lane: as kWindow.
inline constexpr double kCcPairBlockEven = 3 + 2 * kCcRadius + 1 + 3 * 2 + 2;
inline constexpr double kCcPairBlockOdd = 2 + kCcRadius + 3 * 2 + 1;
inline constexpr double kCcPairRowEven = 2 * kCcOffsets + 2;
inline constexpr double kCcPairRowOdd = 3 + kCcOffsets + 1;

/// Produces one output row y from the ring buffer.
///
/// Equal bins and window membership are both symmetric, so the code
/// counts each unordered pair of equal pixels once: a partner at
/// dx = 1..8 in row y or in a later own row adds 2 (both pixels are
/// centres), a partner in a halo row adds 1 (only the own pixel is), and
/// earlier own rows are skipped (they counted their pairs with row y
/// already). Row y's `same` contribution is therefore not its own window
/// count; only the total over all of the state's own rows equals the
/// full-window count, and that total is all a kernel emits. `possible` is
/// each centre's window area.
///
/// The cycles of the `kCharge` sequence are charged once per row, in
/// closed form: kWindow from the full window's shape, kPairs from the
/// rows the pair rule visits. Every charge is a whole number of cycles and
/// nothing flushes the pipes inside a row, so the pending totals match the
/// per-instruction charging bit for bit.
template <CcCharge kCharge = CcCharge::kWindow>
void cc_produce_row(const CcState& st, int y, int w, int h) {
  const auto load = [](const std::uint8_t* p) {
    u8x16 v;
    std::memcpy(&v, p, 16);
    return v;
  };
  if (w <= 0) return;
  if (y < st.own_begin || y >= st.own_end) {
    throw cellport::Error("correlogram row outside the state's own rows");
  }
  const int y0 = std::max(0, y - kCcRadius);
  const int y1 = std::min(h - 1, y + kCcRadius);
  const int rows = y1 - y0 + 1;
  // Window rows [y0, before_end) are halo above the own rows,
  // [y + 1, later_end) are later own rows, [later_end, y1] halo below.
  const int before_end = std::max(y0, st.own_begin);
  const int later_end = std::min(y1 + 1, st.own_end);
  const std::uint8_t* center_row = st.ring[y % kCcRingRows] + kRingOrigin;
  // The SPU code reads each ring row with aligned quadword loads.
  cellport::spu::vld_check(center_row);
  const std::uint8_t* window[kCcOffsets];  // row yy at window[yy - y0]
  for (int yy = y0; yy <= y1; ++yy) {
    window[yy - y0] = st.ring[yy % kCcRingRows] + kRingOrigin;
    cellport::spu::vld_check(window[yy - y0]);
  }

  // A compare mask is 0xFF (= -1) per matching byte, so subtracting it
  // counts the match. The sentinel bands match no real bin. The offsets
  // of a row are spread over four independent byte accumulators, so no
  // compare waits on the one before it; the four take disjoint parts of
  // one count, so their byte sum is that count and stays in its bound.
  typedef u8x16 Counts[4];
  const auto count_rows = [&](Counts& acc, u8x16 centers, int x0, int begin,
                              int end) {
    for (int yy = begin; yy < end; ++yy) {
      const std::uint8_t* nrow = window[yy - y0] + x0 - kCcRadius;
#pragma GCC unroll 17
      for (int i = 0; i < kCcOffsets; ++i) {
        acc[i % 4] -= (u8x16)(load(nrow + i) == centers);
      }
    }
  };
  const auto sum = [](const Counts& acc) {
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
  };
  // A sentinel centre (only test rings have one inside the image) also
  // matches the band columns outside the image, which are no centres, so
  // each such pair must count once. The pair rule counts the bands of the
  // later own rows and the right band of row y twice, and misses those of
  // the earlier own rows and the left band of row y.
  const int own_before = y - before_end;
  const int own_after = later_end - (y + 1);
  const auto band_correction = [&](int x) {
    const int nb = kCcOffsets - st.cols_clamped[x];
    const int nbb = std::max(0, kCcRadius - x);
    const int nbf = std::max(0, x + kCcRadius - (w - 1));
    return static_cast<std::uint32_t>((own_before - own_after) * nb + nbb -
                                      nbf);
  };

  for (int x0 = 0; x0 < w; x0 += 16) {
    const u8x16 centers = load(center_row + x0);
    Counts twice = {};
#pragma GCC unroll 8
    for (int dx = 1; dx <= kCcRadius; ++dx) {
      twice[dx % 4] -= (u8x16)(load(center_row + x0 + dx) == centers);
    }
    count_rows(twice, centers, x0, y + 1, later_end);
    Counts above = {};
    count_rows(above, centers, x0, y0, before_end);
    Counts below = {};
    count_rows(below, centers, x0, later_end, y1 + 1);
    // Weighted counts of the even and the odd centre lanes, interleaved
    // back into lane order.
    const u16x8 t = (u16x8)sum(twice);
    const u16x8 a = (u16x8)sum(above);
    const u16x8 b = (u16x8)sum(below);
    const u16x8 even = ((t & 0xFF) << 1) + (a & 0xFF) + (b & 0xFF);
    const u16x8 odd = ((t >> 8) << 1) + (a >> 8) + (b >> 8);
    std::uint16_t counts[16];
    const u16x8 lo = __builtin_shufflevector(even, odd, 0, 8, 1, 9, 2, 10, 3,
                                             11);
    const u16x8 hi = __builtin_shufflevector(even, odd, 4, 12, 5, 13, 6, 14,
                                             7, 15);
    std::memcpy(counts, &lo, 16);
    std::memcpy(counts + 8, &hi, 16);
    const int lanes = std::min(16, w - x0);
    for (int lane = 0; lane < lanes; ++lane) {
      const int x = x0 + lane;
      std::uint32_t cnt = counts[lane];
      const std::uint8_t bin = center_row[x];
      if (bin == kCcSentinel) cnt += band_correction(x);
      const std::uint32_t area =
          static_cast<std::uint32_t>(rows) * st.cols_clamped[x];
      st.same[bin] += cnt;
      st.possible[bin] += area - 1;
    }
  }
  const int blocks = (w + 15) / 16;
  if constexpr (kCharge == CcCharge::kWindow) {
    cellport::spu::charge_even(
        blocks * (kCcBlockEven + kCcWindowRowEven * rows) + kCcLaneEven * w);
    cellport::spu::charge_odd(
        blocks * (kCcBlockOdd + kCcWindowRowOdd * rows) + kCcLaneOdd * w);
  } else {
    const int visited = (y1 - y) + (before_end - y0);
    cellport::spu::charge_even(
        blocks * (kCcPairBlockEven + kCcPairRowEven * visited) +
        kCcLaneEven * w);
    cellport::spu::charge_odd(
        blocks * (kCcPairBlockOdd + kCcPairRowOdd * visited) +
        kCcLaneOdd * w);
  }
}

}  // namespace cellport::kernels
