// SPU SIMD intrinsics emulation (the Cell SDK spu_intrinsics.h dialect).
//
// Each function is functionally exact on its lanes and charges the cycle
// cost of the corresponding SPU instruction (or documented instruction
// sequence) to the current SPE context: arithmetic on the even pipe,
// shuffles on the odd pipe, double precision at 3.5 even cycles per op.
// SIMD speedups measured by the benchmarks therefore arise from lane width
// and pipeline balance, not from hard-coded factors.
//
// Host cost. Lane bodies run on the compiler's generic 128-bit vectors
// (GCC/Clang vector_size), which the build's default ISA lowers to native
// SIMD without any -march flag. Integer add/sub/mul run on unsigned lanes,
// which is both the SPU's modulo semantics and defined C++. Float lanes
// must not be contracted into FMAs, or they would stop matching the PPE
// reference code bit for bit: the build is ISO C++, where GCC defaults to
// -ffp-contract=off, and the default x86-64 ISA has no FMA to contract to.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "spu/pipes.h"
#include "spu/vec.h"

namespace cellport::spu {

namespace detail {

// The typedef must sit in a class template: GCC ignores vector_size on a
// dependent alias template.
template <typename L>
struct native {
  typedef L type __attribute__((vector_size(16)));
};
template <typename L>
using native_t = typename native<L>::type;

/// The 16 bytes of `x` (an SPU vector or a native vector) as a native
/// vector of L lanes.
template <typename L, typename X>
native_t<L> in(const X& x) {
  static_assert(sizeof(X) == 16);
  native_t<L> r;
  std::memcpy(&r, &x, 16);
  return r;
}

/// Lane type for modulo integer arithmetic.
template <typename T>
using modulo_t =
    typename std::conditional_t<std::is_integral_v<T>, std::make_unsigned<T>,
                                std::type_identity<T>>::type;

/// Byte i of the result is byte (pattern[i] & 0x1F) of the 32-byte
/// concatenation a:b. Branch-free: one table lookup per byte, paired into
/// halfwords so the result is assembled in a register. (Storing it byte
/// by byte and reading it back as one quadword defeats store forwarding,
/// which costs more than the lookups.)
inline vec_uchar16 shuffle_bytes(const vec_uchar16& a, const vec_uchar16& b,
                                 const vec_uchar16& pattern) {
  std::uint8_t table[32];
  std::memcpy(table, a.v.data(), 16);
  std::memcpy(table + 16, b.v.data(), 16);
  auto pair = [&](std::size_t i) {
    return static_cast<std::uint16_t>(table[pattern.v[i] & 0x1F] |
                                      table[pattern.v[i + 1] & 0x1F] << 8);
  };
  return vec_cast<vec_uchar16>(native_t<std::uint16_t>{
      pair(0), pair(2), pair(4), pair(6), pair(8), pair(10), pair(12),
      pair(14)});
}

}  // namespace detail

// ---- arithmetic (even pipe) ----

template <typename T, std::size_t N>
Vec<T, N> spu_add(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_arith<T>();
  using L = detail::modulo_t<T>;
  return vec_cast<Vec<T, N>>(detail::in<L>(a) + detail::in<L>(b));
}

template <typename T, std::size_t N>
Vec<T, N> spu_sub(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_arith<T>();
  using L = detail::modulo_t<T>;
  return vec_cast<Vec<T, N>>(detail::in<L>(a) - detail::in<L>(b));
}

/// Single-precision multiply (one fused even-pipe instruction).
inline vec_float4 spu_mul(const vec_float4& a, const vec_float4& b) {
  charge_arith<float>();
  return vec_cast<vec_float4>(detail::in<float>(a) * detail::in<float>(b));
}

inline vec_double2 spu_mul(const vec_double2& a, const vec_double2& b) {
  charge_arith<double>();
  return vec_cast<vec_double2>(detail::in<double>(a) *
                               detail::in<double>(b));
}

/// 32-bit integer multiply. The SPU only has 16x16 multipliers: a full
/// 32-bit multiply compiles to a ~5 instruction sequence (mpyh/mpyh/mpyu/
/// add/add), charged accordingly.
inline vec_int4 spu_mul(const vec_int4& a, const vec_int4& b) {
  charge_even(5);
  return vec_cast<vec_int4>(detail::in<std::uint32_t>(a) *
                            detail::in<std::uint32_t>(b));
}

inline vec_uint4 spu_mul(const vec_uint4& a, const vec_uint4& b) {
  charge_even(5);
  return vec_cast<vec_uint4>(detail::in<std::uint32_t>(a) *
                             detail::in<std::uint32_t>(b));
}

/// Halfword modulo multiply (low 16 bits of the product). The SPU builds
/// this from its 16-bit multipliers in a 2-instruction sequence.
inline vec_ushort8 spu_mulhw(const vec_ushort8& a, const vec_ushort8& b) {
  charge_even(2);
  return vec_cast<vec_ushort8>(detail::in<std::uint16_t>(a) *
                               detail::in<std::uint16_t>(b));
}

// Halfword 2i is the low half of word i on a little-endian host, which the
// widening multiplies below rely on.
static_assert(std::endian::native == std::endian::little,
              "the SPU emulation assumes a little-endian host");

/// 16-bit multiply, even lanes widened to 32 bits (native mpye-style op).
inline vec_int4 spu_mule(const vec_short8& a, const vec_short8& b) {
  charge_even();
  // Sign-extend each word's low halfword: shift it up, then back down
  // arithmetically. |product| <= 2^30, so the signed multiply is exact.
  auto x = detail::in<std::int32_t>(detail::in<std::uint32_t>(a) << 16) >> 16;
  auto y = detail::in<std::int32_t>(detail::in<std::uint32_t>(b) << 16) >> 16;
  return vec_cast<vec_int4>(x * y);
}

/// 16-bit multiply, odd lanes widened to 32 bits.
inline vec_int4 spu_mulo(const vec_short8& a, const vec_short8& b) {
  charge_even();
  return vec_cast<vec_int4>((detail::in<std::int32_t>(a) >> 16) *
                            (detail::in<std::int32_t>(b) >> 16));
}

/// Fused multiply-add a*b+c (single instruction on the SPU).
inline vec_float4 spu_madd(const vec_float4& a, const vec_float4& b,
                           const vec_float4& c) {
  charge_arith<float>();
  return vec_cast<vec_float4>(detail::in<float>(a) * detail::in<float>(b) +
                              detail::in<float>(c));
}

inline vec_double2 spu_madd(const vec_double2& a, const vec_double2& b,
                            const vec_double2& c) {
  charge_arith<double>();
  return vec_cast<vec_double2>(
      detail::in<double>(a) * detail::in<double>(b) + detail::in<double>(c));
}

/// Fused multiply-subtract a*b-c.
inline vec_float4 spu_msub(const vec_float4& a, const vec_float4& b,
                           const vec_float4& c) {
  charge_arith<float>();
  return vec_cast<vec_float4>(detail::in<float>(a) * detail::in<float>(b) -
                              detail::in<float>(c));
}

/// Negative multiply-subtract c-a*b (used by the Newton-Raphson division
/// refinement).
inline vec_float4 spu_nmsub(const vec_float4& a, const vec_float4& b,
                            const vec_float4& c) {
  charge_arith<float>();
  return vec_cast<vec_float4>(detail::in<float>(c) -
                              detail::in<float>(a) * detail::in<float>(b));
}

/// Average of unsigned bytes, rounding up (native avgb).
inline vec_uchar16 spu_avg(const vec_uchar16& a, const vec_uchar16& b) {
  charge_even();
  auto x = detail::in<std::uint8_t>(a);
  auto y = detail::in<std::uint8_t>(b);
  // ceil((x + y) / 2) without widening.
  return vec_cast<vec_uchar16>((x | y) - ((x ^ y) >> 1));
}

/// Absolute difference of unsigned bytes (native absdb).
inline vec_uchar16 spu_absd(const vec_uchar16& a, const vec_uchar16& b) {
  charge_even();
  auto x = detail::in<std::uint8_t>(a);
  auto y = detail::in<std::uint8_t>(b);
  auto gt = detail::in<std::uint8_t>(x > y);
  return vec_cast<vec_uchar16>(((x - y) & gt) | ((y - x) & ~gt));
}

// ---- logical (even pipe) ----

template <typename T, std::size_t N>
Vec<T, N> spu_and(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_even();
  return vec_cast<Vec<T, N>>(detail::in<std::uint64_t>(a) &
                             detail::in<std::uint64_t>(b));
}

template <typename T, std::size_t N>
Vec<T, N> spu_or(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_even();
  return vec_cast<Vec<T, N>>(detail::in<std::uint64_t>(a) |
                             detail::in<std::uint64_t>(b));
}

template <typename T, std::size_t N>
Vec<T, N> spu_xor(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_even();
  return vec_cast<Vec<T, N>>(detail::in<std::uint64_t>(a) ^
                             detail::in<std::uint64_t>(b));
}

// ---- compares and select (even pipe) ----

/// Per-lane equality; result lanes are all-ones (true) or zero.
template <typename T, std::size_t N>
Vec<T, N> spu_cmpeq(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_even();
  return vec_cast<Vec<T, N>>(detail::in<T>(a) == detail::in<T>(b));
}

/// Per-lane a > b; all-ones / zero lanes.
template <typename T, std::size_t N>
Vec<T, N> spu_cmpgt(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_even();
  return vec_cast<Vec<T, N>>(detail::in<T>(a) > detail::in<T>(b));
}

/// Bitwise select: mask bit 1 picks b, 0 picks a. The SPU's branch-free
/// workhorse (the paper's "remove/replace branches" optimization).
template <typename T, std::size_t N, typename M>
Vec<T, N> spu_sel(const Vec<T, N>& a, const Vec<T, N>& b,
                  const Vec<M, N>& mask) {
  static_assert(sizeof(M) == sizeof(T));
  charge_even();
  auto m = detail::in<std::uint64_t>(mask);
  return vec_cast<Vec<T, N>>((detail::in<std::uint64_t>(a) & ~m) |
                             (detail::in<std::uint64_t>(b) & m));
}

// ---- shifts (even pipe) ----

/// Per-lane left shift; counts of the lane width or more give zero, as on
/// the SPU.
template <typename T, std::size_t N>
Vec<T, N> spu_sl(const Vec<T, N>& a, unsigned count) {
  static_assert(std::is_integral_v<T>);
  charge_even();
  if (count >= 8 * sizeof(T)) return Vec<T, N>{};
  return vec_cast<Vec<T, N>>(detail::in<std::make_unsigned_t<T>>(a)
                             << count);
}

/// Per-lane right shift, arithmetic on signed lanes; counts of the lane
/// width or more give zero (unsigned) or the sign fill (signed).
template <typename T, std::size_t N>
Vec<T, N> spu_sr(const Vec<T, N>& a, unsigned count) {
  static_assert(std::is_integral_v<T>);
  charge_even();
  constexpr unsigned kBits = 8 * sizeof(T);
  if constexpr (std::is_signed_v<T>) {
    return vec_cast<Vec<T, N>>(detail::in<T>(a) >>
                               (count < kBits ? count : kBits - 1));
  } else {
    if (count >= kBits) return Vec<T, N>{};
    return vec_cast<Vec<T, N>>(detail::in<T>(a) >> count);
  }
}

// ---- splat / extract / insert ----

template <typename V>
V spu_splats(typename V::lane_type x) {
  charge_even();
  return V::splat(x);
}

/// Moves one lane to a scalar (compiles to a rotate on real SPUs: odd pipe).
template <typename T, std::size_t N>
T spu_extract(const Vec<T, N>& a, std::size_t lane) {
  charge_odd();
  return a.v[lane % N];
}

/// Replaces one lane (shuffle sequence: odd pipe).
template <typename T, std::size_t N>
Vec<T, N> spu_insert(T x, const Vec<T, N>& a, std::size_t lane) {
  charge_odd();
  Vec<T, N> r = a;
  r.v[lane % N] = x;
  return r;
}

/// Promotes a scalar into lane `lane` of an otherwise undefined vector.
template <typename V>
V spu_promote(typename V::lane_type x, std::size_t lane) {
  charge_odd();
  V r{};
  r.v[lane % V::lanes] = x;
  return r;
}

// ---- byte operations ----

/// Per-byte population count (native cntb, even pipe).
inline vec_uchar16 spu_cntb(const vec_uchar16& a) {
  charge_even();
  auto x = detail::in<std::uint8_t>(a);
  x = x - ((x >> 1) & 0x55);
  x = (x & 0x33) + ((x >> 2) & 0x33);
  return vec_cast<vec_uchar16>((x + (x >> 4)) & 0x0F);
}

/// Sums each group of 4 bytes of `a` into the corresponding word lane
/// (native sumb semantics, simplified to one operand; even pipe).
inline vec_uint4 spu_sumb(const vec_uchar16& a) {
  charge_even();
  auto x = detail::in<std::uint32_t>(a);
  x = (x & 0x00FF00FFu) + ((x >> 8) & 0x00FF00FFu);
  return vec_cast<vec_uint4>((x & 0xFFFFu) + (x >> 16));
}

// ---- conversions (even pipe) ----

/// Signed words -> floats with scale 2^-scale (native cuflt/csflt).
inline vec_float4 spu_convtf(const vec_int4& a, unsigned scale = 0) {
  charge_even();
  float k = std::ldexp(1.0f, -static_cast<int>(scale));
  return vec_cast<vec_float4>(
      __builtin_convertvector(detail::in<std::int32_t>(a),
                              detail::native_t<float>) *
      k);
}

inline vec_float4 spu_convtf(const vec_uint4& a, unsigned scale = 0) {
  charge_even();
  float k = std::ldexp(1.0f, -static_cast<int>(scale));
  return vec_cast<vec_float4>(
      __builtin_convertvector(detail::in<std::uint32_t>(a),
                              detail::native_t<float>) *
      k);
}

/// Floats -> signed words, truncating, with scale 2^scale (native cflts).
/// Saturates like the hardware; a NaN lane converts to 0.
inline vec_int4 spu_convts(const vec_float4& a, unsigned scale = 0) {
  charge_even();
  float k = std::ldexp(1.0f, static_cast<int>(scale));
  auto x = detail::in<float>(a) * k;
  auto hi = x >= 2147483648.0f;
  auto lo = x <= -2147483648.0f;
  // Only in-range lanes reach the conversion (NaN fails both compares and
  // the range test alike), so it never sees a value it cannot represent.
  auto inside = (x > -2147483648.0f) & (x < 2147483648.0f);
  auto safe = detail::in<float>(detail::in<std::int32_t>(x) & inside);
  auto r = __builtin_convertvector(safe, detail::native_t<std::int32_t>);
  return vec_cast<vec_int4>(r |
                            (hi & std::numeric_limits<std::int32_t>::max()) |
                            (lo & std::numeric_limits<std::int32_t>::min()));
}

// ---- estimates and derived math ----

/// Reciprocal estimate (~12 bits, native frest+fi pair: 2 even cycles).
inline vec_float4 spu_re(const vec_float4& a) {
  charge_even(2);
  return vec_cast<vec_float4>(1.0f / detail::in<float>(a));
}

/// Reciprocal square-root estimate (frsqest+fi).
inline vec_float4 spu_rsqrte(const vec_float4& a) {
  charge_even(2);
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i)
    r.v[i] = 1.0f / std::sqrt(a.v[i]);
  return r;
}

/// Full-precision division. On the SPU this is the standard estimate +
/// Newton-Raphson sequence (there is no divide instruction), whose result
/// is within 1 ulp of the correctly rounded quotient; the emulation
/// charges that sequence's cost but returns the correctly rounded IEEE
/// quotient, so kernels that mirror the reference's operation order are
/// bit-identical to it.
inline vec_float4 spu_div(const vec_float4& a, const vec_float4& b) {
  charge_even(5);  // frest/fi + multiply + nmsub + madd
  return vec_cast<vec_float4>(detail::in<float>(a) / detail::in<float>(b));
}

/// Full-precision square root via rsqrte + refinement.
inline vec_float4 spu_sqrt(const vec_float4& a) {
  vec_float4 y = spu_rsqrte(a);             // ~1/sqrt(a)
  vec_float4 x = spu_mul(a, y);             // ~sqrt(a)
  vec_float4 half = spu_splats<vec_float4>(0.5f);
  vec_float4 err = spu_nmsub(x, y, spu_splats<vec_float4>(1.0f));
  vec_float4 corr = spu_mul(spu_mul(x, half), err);
  return spu_add(x, corr);
}

// ---- shuffle / quadword (odd pipe) ----

/// Byte shuffle: result byte i = pattern byte < 16 ? a[p] : b[p-16].
/// (Simplified: the hardware's special 0xC0/0xE0 patterns are not modeled.)
inline vec_uchar16 spu_shuffle(const vec_uchar16& a, const vec_uchar16& b,
                               const vec_uchar16& pattern) {
  charge_odd();
  return detail::shuffle_bytes(a, b, pattern);
}

template <typename T, std::size_t N>
Vec<T, N> spu_shuffle(const Vec<T, N>& a, const Vec<T, N>& b,
                      const vec_uchar16& pattern) {
  auto r = spu_shuffle(vec_cast<vec_uchar16>(a), vec_cast<vec_uchar16>(b),
                       pattern);
  return vec_cast<Vec<T, N>>(r);
}

/// Rotates the quadword left by `bytes` bytes (odd pipe).
template <typename T, std::size_t N>
Vec<T, N> spu_rlqwbyte(const Vec<T, N>& a, unsigned bytes) {
  charge_odd();
  // The quadword twice over: the rotation is the 16 bytes at bytes % 16.
  std::uint8_t twice[32];
  std::memcpy(twice, a.v.data(), 16);
  std::memcpy(twice + 16, a.v.data(), 16);
  Vec<T, N> r;
  std::memcpy(r.v.data(), twice + bytes % 16, 16);
  return r;
}

}  // namespace cellport::spu
