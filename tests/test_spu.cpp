#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <latch>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/machine.h"
#include "spu/spu.h"
#include "support/aligned.h"

namespace cellport::spu {
namespace {

using sim::Machine;
using sim::SpeContext;

// Functional semantics are testable outside an SPE thread (charging is a
// no-op there); the charging tests install a context explicitly.

TEST(SpuVec, SplatAndExtract) {
  auto v = vec_float4::splat(3.5f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], 3.5f);
  auto u = spu_splats<vec_uchar16>(7);
  EXPECT_EQ(u[15], 7);
}

TEST(SpuVec, CastPreservesBits) {
  vec_uint4 u = spu_splats<vec_uint4>(0x3F800000u);
  auto f = vec_cast<vec_float4>(u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(f[static_cast<std::size_t>(i)], 1.0f);
  }
}

TEST(SpuArith, AddSubWrapAround) {
  auto a = spu_splats<vec_uchar16>(250);
  auto b = spu_splats<vec_uchar16>(10);
  auto s = spu_add(a, b);
  EXPECT_EQ(s[0], 4);  // modulo 256
  auto d = spu_sub(b, a);
  EXPECT_EQ(d[0], 16);  // wraps
}

TEST(SpuArith, FloatMaddChain) {
  auto a = spu_splats<vec_float4>(2.0f);
  auto b = spu_splats<vec_float4>(3.0f);
  auto c = spu_splats<vec_float4>(1.0f);
  auto r = spu_madd(a, b, c);
  EXPECT_EQ(r[0], 7.0f);
  EXPECT_EQ(spu_msub(a, b, c)[1], 5.0f);
  EXPECT_EQ(spu_nmsub(a, b, c)[2], -5.0f);
}

TEST(SpuArith, IntMul32) {
  vec_int4 a{{100000, -7, 3, 65536}};
  vec_int4 b{{3, 6, -9, 65536}};
  auto r = spu_mul(a, b);
  EXPECT_EQ(r[0], 300000);
  EXPECT_EQ(r[1], -42);
  EXPECT_EQ(r[2], -27);
  EXPECT_EQ(r[3], 0);  // 2^32 wraps to 0
}

TEST(SpuArith, MuleMulo) {
  vec_short8 a{{1, 2, 3, 4, 5, 6, 7, 8}};
  vec_short8 b{{10, 20, 30, 40, 50, 60, 70, 80}};
  auto e = spu_mule(a, b);
  auto o = spu_mulo(a, b);
  EXPECT_EQ(e[0], 10);
  EXPECT_EQ(e[1], 90);
  EXPECT_EQ(o[0], 40);
  EXPECT_EQ(o[3], 640);
}

TEST(SpuArith, MulhwModulo) {
  vec_ushort8 a = spu_splats<vec_ushort8>(300);
  vec_ushort8 b = spu_splats<vec_ushort8>(300);
  auto r = spu_mulhw(a, b);
  EXPECT_EQ(r[0], static_cast<std::uint16_t>(90000));  // mod 65536
}

// Lanes that overflow their signed type wrap modulo 2^bits, like the SPU.
// The lane arithmetic runs on unsigned lanes, so none of these is signed
// overflow (undefined behaviour) on the host.
TEST(SpuArith, MulhwFullRangeWraps) {
  // Run-time lane values, so the compiler cannot fold the products.
  volatile std::uint16_t ones = 0xFFFF;
  volatile std::uint16_t two = 2;
  auto a = spu_splats<vec_ushort8>(ones);
  EXPECT_EQ(spu_mulhw(a, a)[0], 1);  // 0xFFFE0001 mod 2^16
  EXPECT_EQ(spu_mulhw(a, spu_splats<vec_ushort8>(two))[7], 0xFFFE);
}

TEST(SpuArith, SignedLanesWrapModulo) {
  constexpr auto kMax = std::numeric_limits<std::int32_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int32_t>::min();
  auto one = spu_splats<vec_int4>(1);
  EXPECT_EQ(spu_add(spu_splats<vec_int4>(kMax), one)[0], kMin);
  EXPECT_EQ(spu_sub(spu_splats<vec_int4>(kMin), one)[3], kMax);
  EXPECT_EQ(spu_add(spu_splats<vec_short8>(32767),
                    spu_splats<vec_short8>(1))[0],
            -32768);
  EXPECT_EQ(spu_sub(spu_splats<vec_short8>(-32768),
                    spu_splats<vec_short8>(1))[5],
            32767);
  EXPECT_EQ(spu_add(spu_splats<vec_char16>(127),
                    spu_splats<vec_char16>(1))[0],
            -128);
  EXPECT_EQ(spu_sub(spu_splats<vec_char16>(-128),
                    spu_splats<vec_char16>(1))[15],
            127);
}

TEST(SpuArith, AvgAndAbsd) {
  auto a = spu_splats<vec_uchar16>(10);
  auto b = spu_splats<vec_uchar16>(13);
  EXPECT_EQ(spu_avg(a, b)[0], 12);  // rounds up
  EXPECT_EQ(spu_absd(a, b)[0], 3);
  EXPECT_EQ(spu_absd(b, a)[0], 3);
}

TEST(SpuCompare, MasksAreAllOnesOrZero) {
  vec_int4 a{{1, 5, 5, 9}};
  vec_int4 b{{5, 5, 1, 1}};
  auto gt = spu_cmpgt(a, b);
  EXPECT_EQ(gt[0], 0);
  EXPECT_EQ(gt[1], 0);
  EXPECT_EQ(gt[2], -1);
  EXPECT_EQ(gt[3], -1);
  auto eq = spu_cmpeq(a, b);
  EXPECT_EQ(eq[1], -1);
  EXPECT_EQ(eq[0], 0);
}

TEST(SpuCompare, FloatMaskBits) {
  auto a = spu_splats<vec_float4>(2.0f);
  auto b = spu_splats<vec_float4>(1.0f);
  auto m = spu_cmpgt(a, b);
  auto bits = vec_cast<vec_uint4>(m);
  EXPECT_EQ(bits[0], ~0u);
}

TEST(SpuSelect, PicksByMask) {
  vec_int4 a{{1, 2, 3, 4}};
  vec_int4 b{{10, 20, 30, 40}};
  vec_int4 m{{0, -1, 0, -1}};
  auto r = spu_sel(a, b, m);
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[1], 20);
  EXPECT_EQ(r[2], 3);
  EXPECT_EQ(r[3], 40);
}

TEST(SpuShift, PerLane) {
  vec_ushort8 a = spu_splats<vec_ushort8>(0x0100);
  EXPECT_EQ(spu_sl(a, 2)[0], 0x0400);
  EXPECT_EQ(spu_sr(a, 4)[0], 0x0010);
}

TEST(SpuBytes, CntbPopcount) {
  vec_uchar16 a = spu_splats<vec_uchar16>(0xFF);
  EXPECT_EQ(spu_cntb(a)[0], 8);
  a = spu_splats<vec_uchar16>(0x11);
  EXPECT_EQ(spu_cntb(a)[3], 2);
}

TEST(SpuBytes, SumbGroupsOfFour) {
  vec_uchar16 a;
  for (int i = 0; i < 16; ++i) {
    a.v[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  auto s = spu_sumb(a);
  EXPECT_EQ(s[0], 0u + 1 + 2 + 3);
  EXPECT_EQ(s[3], 12u + 13 + 14 + 15);
}

TEST(SpuConvert, RoundTripInts) {
  vec_int4 a{{-5, 0, 7, 1000000}};
  auto f = spu_convtf(a);
  EXPECT_EQ(f[0], -5.0f);
  EXPECT_EQ(f[3], 1000000.0f);
  auto back = spu_convts(f);
  EXPECT_EQ(back[0], -5);
  EXPECT_EQ(back[3], 1000000);
}

TEST(SpuConvert, TruncatesAndSaturates) {
  vec_float4 f{{1.9f, -1.9f, 3e9f, -3e9f}};
  auto i = spu_convts(f);
  EXPECT_EQ(i[0], 1);
  EXPECT_EQ(i[1], -1);
  EXPECT_EQ(i[2], std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(i[3], std::numeric_limits<std::int32_t>::min());
}

TEST(SpuMath, DivisionRefined) {
  vec_float4 a{{1.0f, 10.0f, -6.0f, 0.3f}};
  vec_float4 b{{3.0f, 4.0f, 2.0f, 0.1f}};
  auto q = spu_div(a, b);
  for (int i = 0; i < 4; ++i) {
    auto lane = static_cast<std::size_t>(i);
    EXPECT_NEAR(q[lane], a[lane] / b[lane],
                2e-6f * std::abs(a[lane] / b[lane]) + 1e-7f);
  }
}

TEST(SpuMath, SqrtRefined) {
  vec_float4 a{{4.0f, 2.0f, 100.0f, 0.25f}};
  auto s = spu_sqrt(a);
  for (int i = 0; i < 4; ++i) {
    auto lane = static_cast<std::size_t>(i);
    EXPECT_NEAR(s[lane], std::sqrt(a[lane]), 2e-6f * std::sqrt(a[lane]));
  }
}

TEST(SpuShuffle, BytePatterns) {
  vec_uchar16 a;
  vec_uchar16 b;
  for (int i = 0; i < 16; ++i) {
    a.v[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    b.v[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(100 + i);
  }
  vec_uchar16 p;
  for (int i = 0; i < 16; ++i) {
    p.v[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(i < 8 ? 15 - i : 16 + (i - 8));
  }
  auto r = spu_shuffle(a, b, p);
  EXPECT_EQ(r[0], 15);
  EXPECT_EQ(r[7], 8);
  EXPECT_EQ(r[8], 100);
  EXPECT_EQ(r[15], 107);
}

TEST(SpuShuffle, RotateQuadword) {
  vec_uchar16 a;
  for (int i = 0; i < 16; ++i) {
    a.v[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  auto r = spu_rlqwbyte(a, 3);
  EXPECT_EQ(r[0], 3);
  EXPECT_EQ(r[13], 0);
}

TEST(SpuInsertExtract, Lanes) {
  auto v = spu_splats<vec_int4>(0);
  v = spu_insert(42, v, 2);
  EXPECT_EQ(spu_extract(v, 2), 42);
  EXPECT_EQ(spu_extract(v, 1), 0);
  auto p = spu_promote<vec_float4>(1.5f, 0);
  EXPECT_EQ(p[0], 1.5f);
}

// ---- memory helpers ----

TEST(SpuMemory, AlignedVectorAccess) {
  AlignedBuffer<float> buf(8);
  for (int i = 0; i < 8; ++i) {
    buf[static_cast<std::size_t>(i)] = static_cast<float>(i);
  }
  auto v = vld<vec_float4>(buf.data());
  EXPECT_EQ(v[3], 3.0f);
  vst(buf.data() + 4, spu_splats<vec_float4>(9.0f));
  EXPECT_EQ(buf[5], 9.0f);
}

TEST(SpuMemory, UnalignedVectorLoadThrows) {
  AlignedBuffer<float> buf(8);
  EXPECT_THROW(vld<vec_float4>(buf.data() + 1), Error);
  EXPECT_THROW(vst(buf.data() + 1, vec_float4{}), Error);
}

// ---- differential lane semantics ----
//
// The scalar lane loops the intrinsics were first written as, kept here
// as the reference the vectorized lane bodies must match bit for bit.
// Two loops are changed where the originals had undefined behaviour:
// signed add/sub and mulhw lanes wrap through unsigned arithmetic, and a
// NaN lane converts to 0 in convts.
namespace ref {

template <typename T>
using uint_t = std::make_unsigned_t<T>;

template <typename T, std::size_t N>
Vec<T, N> add(const Vec<T, N>& a, const Vec<T, N>& b) {
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i) {
    if constexpr (std::is_integral_v<T>) {
      r.v[i] = static_cast<T>(static_cast<uint_t<T>>(a.v[i]) +
                              static_cast<uint_t<T>>(b.v[i]));
    } else {
      r.v[i] = a.v[i] + b.v[i];
    }
  }
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> sub(const Vec<T, N>& a, const Vec<T, N>& b) {
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i) {
    if constexpr (std::is_integral_v<T>) {
      r.v[i] = static_cast<T>(static_cast<uint_t<T>>(a.v[i]) -
                              static_cast<uint_t<T>>(b.v[i]));
    } else {
      r.v[i] = a.v[i] - b.v[i];
    }
  }
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> mul(const Vec<T, N>& a, const Vec<T, N>& b) {
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i) {
    if constexpr (std::is_integral_v<T>) {
      r.v[i] = static_cast<T>(static_cast<std::uint32_t>(a.v[i]) *
                              static_cast<std::uint32_t>(b.v[i]));
    } else {
      r.v[i] = a.v[i] * b.v[i];
    }
  }
  return r;
}

inline vec_ushort8 mulhw(const vec_ushort8& a, const vec_ushort8& b) {
  vec_ushort8 r;
  for (std::size_t i = 0; i < 8; ++i)
    r.v[i] = static_cast<std::uint16_t>(std::uint32_t{a.v[i]} * b.v[i]);
  return r;
}

inline vec_int4 mule(const vec_short8& a, const vec_short8& b) {
  vec_int4 r;
  for (std::size_t i = 0; i < 4; ++i)
    r.v[i] = static_cast<std::int32_t>(a.v[2 * i]) *
             static_cast<std::int32_t>(b.v[2 * i]);
  return r;
}

inline vec_int4 mulo(const vec_short8& a, const vec_short8& b) {
  vec_int4 r;
  for (std::size_t i = 0; i < 4; ++i)
    r.v[i] = static_cast<std::int32_t>(a.v[2 * i + 1]) *
             static_cast<std::int32_t>(b.v[2 * i + 1]);
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> madd(const Vec<T, N>& a, const Vec<T, N>& b, const Vec<T, N>& c) {
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  return r;
}

inline vec_float4 msub(const vec_float4& a, const vec_float4& b,
                       const vec_float4& c) {
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i] - c.v[i];
  return r;
}

inline vec_float4 nmsub(const vec_float4& a, const vec_float4& b,
                        const vec_float4& c) {
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = c.v[i] - a.v[i] * b.v[i];
  return r;
}

inline vec_uchar16 avg(const vec_uchar16& a, const vec_uchar16& b) {
  vec_uchar16 r;
  for (std::size_t i = 0; i < 16; ++i)
    r.v[i] = static_cast<std::uint8_t>((a.v[i] + b.v[i] + 1) >> 1);
  return r;
}

inline vec_uchar16 absd(const vec_uchar16& a, const vec_uchar16& b) {
  vec_uchar16 r;
  for (std::size_t i = 0; i < 16; ++i)
    r.v[i] = static_cast<std::uint8_t>(
        a.v[i] > b.v[i] ? a.v[i] - b.v[i] : b.v[i] - a.v[i]);
  return r;
}

template <typename T, std::size_t N, typename Op>
Vec<T, N> bytewise(const Vec<T, N>& a, const Vec<T, N>& b, Op op) {
  auto pa = std::bit_cast<std::array<std::uint8_t, 16>>(a.v);
  auto pb = std::bit_cast<std::array<std::uint8_t, 16>>(b.v);
  std::array<std::uint8_t, 16> pr;
  for (std::size_t i = 0; i < 16; ++i)
    pr[i] = static_cast<std::uint8_t>(op(pa[i], pb[i]));
  Vec<T, N> r;
  r.v = std::bit_cast<std::array<T, N>>(pr);
  return r;
}

template <typename T>
T mask_lane(bool t) {
  if constexpr (std::is_floating_point_v<T>) {
    return t ? std::bit_cast<T>(
                   std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                      std::uint64_t>(~0ull))
             : T{};
  } else {
    return t ? static_cast<T>(~T{}) : T{};
  }
}

template <typename T, std::size_t N>
Vec<T, N> cmpeq(const Vec<T, N>& a, const Vec<T, N>& b) {
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i) r.v[i] = mask_lane<T>(a.v[i] == b.v[i]);
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> cmpgt(const Vec<T, N>& a, const Vec<T, N>& b) {
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i) r.v[i] = mask_lane<T>(a.v[i] > b.v[i]);
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> sel(const Vec<T, N>& a, const Vec<T, N>& b, const Vec<T, N>& m) {
  auto pa = std::bit_cast<std::array<std::uint8_t, 16>>(a.v);
  auto pb = std::bit_cast<std::array<std::uint8_t, 16>>(b.v);
  auto pm = std::bit_cast<std::array<std::uint8_t, 16>>(m.v);
  std::array<std::uint8_t, 16> pr;
  for (std::size_t i = 0; i < 16; ++i)
    pr[i] = static_cast<std::uint8_t>((pa[i] & ~pm[i]) | (pb[i] & pm[i]));
  Vec<T, N> r;
  r.v = std::bit_cast<std::array<T, N>>(pr);
  return r;
}

// Counts < 32, where the original promoted-lane shifts are defined.
template <typename T, std::size_t N>
Vec<T, N> sl(const Vec<T, N>& a, unsigned count) {
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i)
    r.v[i] = static_cast<T>(static_cast<std::uint32_t>(a.v[i]) << count);
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> sr(const Vec<T, N>& a, unsigned count) {
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i)
    r.v[i] = static_cast<T>(a.v[i] >> count);
  return r;
}

inline vec_uchar16 cntb(const vec_uchar16& a) {
  vec_uchar16 r;
  for (std::size_t i = 0; i < 16; ++i)
    r.v[i] = static_cast<std::uint8_t>(std::popcount(a.v[i]));
  return r;
}

inline vec_uint4 sumb(const vec_uchar16& a) {
  vec_uint4 r;
  for (std::size_t w = 0; w < 4; ++w) {
    std::uint32_t s = 0;
    for (std::size_t b = 0; b < 4; ++b) s += a.v[4 * w + b];
    r.v[w] = s;
  }
  return r;
}

template <typename I>
vec_float4 convtf(const Vec<I, 4>& a, unsigned scale) {
  vec_float4 r;
  float k = std::ldexp(1.0f, -static_cast<int>(scale));
  for (std::size_t i = 0; i < 4; ++i)
    r.v[i] = static_cast<float>(a.v[i]) * k;
  return r;
}

inline vec_int4 convts(const vec_float4& a, unsigned scale) {
  vec_int4 r;
  float k = std::ldexp(1.0f, static_cast<int>(scale));
  for (std::size_t i = 0; i < 4; ++i) {
    float x = a.v[i] * k;
    if (std::isnan(x)) {
      r.v[i] = 0;
    } else if (x >= 2147483647.0f) {
      r.v[i] = std::numeric_limits<std::int32_t>::max();
    } else if (x <= -2147483648.0f) {
      r.v[i] = std::numeric_limits<std::int32_t>::min();
    } else {
      r.v[i] = static_cast<std::int32_t>(x);
    }
  }
  return r;
}

inline vec_float4 re(const vec_float4& a) {
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = 1.0f / a.v[i];
  return r;
}

inline vec_float4 rsqrte(const vec_float4& a) {
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = 1.0f / std::sqrt(a.v[i]);
  return r;
}

inline vec_float4 div(const vec_float4& a, const vec_float4& b) {
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] / b.v[i];
  return r;
}

inline vec_float4 sqrt(const vec_float4& a) {
  vec_float4 y = rsqrte(a);
  vec_float4 x = mul(a, y);
  vec_float4 err = nmsub(x, y, vec_float4::splat(1.0f));
  return add(x, mul(mul(x, vec_float4::splat(0.5f)), err));
}

inline vec_uchar16 shuffle(const vec_uchar16& a, const vec_uchar16& b,
                           const vec_uchar16& pattern) {
  vec_uchar16 r;
  for (std::size_t i = 0; i < 16; ++i) {
    std::uint8_t p = pattern.v[i] & 0x1F;
    r.v[i] = p < 16 ? a.v[p] : b.v[p - 16];
  }
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> rlqwbyte(const Vec<T, N>& a, unsigned bytes) {
  auto in = vec_cast<vec_uchar16>(a);
  vec_uchar16 out;
  for (std::size_t i = 0; i < 16; ++i) out.v[i] = in.v[(i + bytes) % 16];
  return vec_cast<Vec<T, N>>(out);
}

}  // namespace ref

/// Seeded random vectors; about a quarter of the lanes are edge values.
/// Float lanes use one NaN bit pattern so that which operand's payload an
/// op propagates cannot differ between two correct implementations.
class LaneSource {
 public:
  explicit LaneSource(std::uint32_t seed) : rng_(seed) {}

  template <typename V>
  V next() {
    using T = typename V::lane_type;
    V r;
    for (auto& lane : r.v) lane = pick<T>();
    return r;
  }

 private:
  template <typename T>
  T pick() {
    const bool edge = rng_() % 4 == 0;
    if constexpr (std::is_integral_v<T>) {
      using L = std::numeric_limits<T>;
      const T edges[] = {T{0},          T{1},
                         static_cast<T>(~T{0}), L::min(),
                         L::max(),      static_cast<T>(L::min() + 1),
                         static_cast<T>(L::max() - 1)};
      if (edge) return edges[rng_() % std::size(edges)];
      return static_cast<T>(rng_());
    } else {
      using L = std::numeric_limits<T>;
      const T edges[] = {T{0},          -T{0},         L::infinity(),
                         -L::infinity(), L::quiet_NaN(), L::denorm_min(),
                         L::min(),      L::max(),      -L::max(),
                         T{1},          T{-1},         T{0.5},
                         T{2147483648.0}, T{-2147483648.0},
                         T{2147483520.0}, T{-2147483520.0},
                         T{1.9},        T{-1.9}};
      if (edge) return edges[rng_() % std::size(edges)];
      if (rng_() % 2 == 0) {
        // Any finite or infinite bit pattern, NaNs folded to the one.
        using U = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                     std::uint64_t>;
        U bits = static_cast<U>((std::uint64_t{rng_()} << 32) | rng_());
        T x = std::bit_cast<T>(bits);
        return std::isnan(x) ? L::quiet_NaN() : x;
      }
      // Moderate magnitudes, where convts does not saturate.
      std::uniform_real_distribution<T> d(T{-3e9}, T{3e9});
      T x = d(rng_);
      return rng_() % 2 == 0 ? x : x / T{65536};
    }
  }

  std::mt19937 rng_;
};

template <typename V>
std::string hex(const V& x) {
  std::uint8_t b[16];
  std::memcpy(b, &x, 16);
  std::string s;
  char buf[4];
  for (std::uint8_t byte : b) {
    std::snprintf(buf, sizeof buf, "%02x", byte);
    s += buf;
  }
  return s;
}

template <typename V>
::testing::AssertionResult SameBits(const V& got, const V& want) {
  if (std::memcmp(&got, &want, sizeof(V)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got " << hex(got) << " want " << hex(want);
}

constexpr int kDiffRounds = 2000;

template <typename V>
void diff_add_sub_cmp(LaneSource& src) {
  for (int i = 0; i < kDiffRounds; ++i) {
    V a = src.next<V>();
    V b = src.next<V>();
    if (i % 7 == 0) b = a;  // equal lanes for cmpeq
    ASSERT_TRUE(SameBits(spu_add(a, b), ref::add(a, b))) << "add " << i;
    ASSERT_TRUE(SameBits(spu_sub(a, b), ref::sub(a, b))) << "sub " << i;
    ASSERT_TRUE(SameBits(spu_cmpeq(a, b), ref::cmpeq(a, b))) << "eq " << i;
    ASSERT_TRUE(SameBits(spu_cmpgt(a, b), ref::cmpgt(a, b))) << "gt " << i;
    ASSERT_TRUE(SameBits(spu_and(a, b),
                         ref::bytewise(a, b, [](auto x, auto y) {
                           return x & y;
                         })))
        << "and " << i;
    ASSERT_TRUE(SameBits(spu_or(a, b), ref::bytewise(a, b, [](auto x, auto y) {
                           return x | y;
                         })))
        << "or " << i;
    ASSERT_TRUE(SameBits(spu_xor(a, b),
                         ref::bytewise(a, b, [](auto x, auto y) {
                           return x ^ y;
                         })))
        << "xor " << i;
    V m = src.next<V>();
    if (i % 3 == 0) m = ref::cmpgt(a, b);  // all-ones / zero lanes
    ASSERT_TRUE(SameBits(spu_sel(a, b, m), ref::sel(a, b, m))) << "sel " << i;
    ASSERT_TRUE(SameBits(spu_rlqwbyte(a, static_cast<unsigned>(i % 41)),
                         ref::rlqwbyte(a, static_cast<unsigned>(i % 41))))
        << "rlqwbyte " << i;
  }
}

template <typename V>
void diff_shifts(LaneSource& src) {
  for (int i = 0; i < kDiffRounds; ++i) {
    V a = src.next<V>();
    auto count = static_cast<unsigned>(i % 32);
    ASSERT_TRUE(SameBits(spu_sl(a, count), ref::sl(a, count)))
        << "sl " << count;
    ASSERT_TRUE(SameBits(spu_sr(a, count), ref::sr(a, count)))
        << "sr " << count;
  }
}

TEST(SpuDifferential, AddSubCompareLogicEveryLaneType) {
  LaneSource src(0xCE11u);
  diff_add_sub_cmp<vec_uchar16>(src);
  diff_add_sub_cmp<vec_char16>(src);
  diff_add_sub_cmp<vec_ushort8>(src);
  diff_add_sub_cmp<vec_short8>(src);
  diff_add_sub_cmp<vec_uint4>(src);
  diff_add_sub_cmp<vec_int4>(src);
  diff_add_sub_cmp<vec_float4>(src);
  diff_add_sub_cmp<vec_double2>(src);
}

TEST(SpuDifferential, ShiftsEveryIntegerLaneType) {
  LaneSource src(0x5617u);
  diff_shifts<vec_uchar16>(src);
  diff_shifts<vec_char16>(src);
  diff_shifts<vec_ushort8>(src);
  diff_shifts<vec_short8>(src);
  diff_shifts<vec_uint4>(src);
  diff_shifts<vec_int4>(src);
}

TEST(SpuDifferential, ShiftCountsPastTheLaneWidth) {
  auto neg = spu_splats<vec_short8>(-5);
  auto pos = spu_splats<vec_uint4>(0xFFFFFFFFu);
  for (unsigned c : {32u, 33u, 40u, 1000u}) {
    EXPECT_TRUE(SameBits(spu_sl(pos, c), vec_uint4{})) << c;
    EXPECT_TRUE(SameBits(spu_sr(pos, c), vec_uint4{})) << c;
    EXPECT_TRUE(SameBits(spu_sl(neg, c), vec_short8{})) << c;
    EXPECT_TRUE(SameBits(spu_sr(neg, c), vec_short8::splat(-1))) << c;
  }
}

TEST(SpuDifferential, MultipliesAndFloatArithmetic) {
  LaneSource src(0xF10A7u);
  for (int i = 0; i < kDiffRounds; ++i) {
    auto fa = src.next<vec_float4>();
    auto fb = src.next<vec_float4>();
    auto fc = src.next<vec_float4>();
    ASSERT_TRUE(SameBits(spu_mul(fa, fb), ref::mul(fa, fb))) << i;
    ASSERT_TRUE(SameBits(spu_madd(fa, fb, fc), ref::madd(fa, fb, fc))) << i;
    ASSERT_TRUE(SameBits(spu_msub(fa, fb, fc), ref::msub(fa, fb, fc))) << i;
    ASSERT_TRUE(SameBits(spu_nmsub(fa, fb, fc), ref::nmsub(fa, fb, fc)))
        << i;
    ASSERT_TRUE(SameBits(spu_re(fa), ref::re(fa))) << i;
    ASSERT_TRUE(SameBits(spu_rsqrte(fa), ref::rsqrte(fa))) << i;
    ASSERT_TRUE(SameBits(spu_div(fa, fb), ref::div(fa, fb))) << i;
    ASSERT_TRUE(SameBits(spu_sqrt(fa), ref::sqrt(fa))) << i;
    auto da = src.next<vec_double2>();
    auto db = src.next<vec_double2>();
    auto dc = src.next<vec_double2>();
    ASSERT_TRUE(SameBits(spu_mul(da, db), ref::mul(da, db))) << i;
    ASSERT_TRUE(SameBits(spu_madd(da, db, dc), ref::madd(da, db, dc))) << i;
    auto ia = src.next<vec_int4>();
    auto ib = src.next<vec_int4>();
    ASSERT_TRUE(SameBits(spu_mul(ia, ib), ref::mul(ia, ib))) << i;
    auto ua = src.next<vec_uint4>();
    auto ub = src.next<vec_uint4>();
    ASSERT_TRUE(SameBits(spu_mul(ua, ub), ref::mul(ua, ub))) << i;
    auto ha = src.next<vec_ushort8>();
    auto hb = src.next<vec_ushort8>();
    ASSERT_TRUE(SameBits(spu_mulhw(ha, hb), ref::mulhw(ha, hb))) << i;
    auto sa = src.next<vec_short8>();
    auto sb = src.next<vec_short8>();
    ASSERT_TRUE(SameBits(spu_mule(sa, sb), ref::mule(sa, sb))) << i;
    ASSERT_TRUE(SameBits(spu_mulo(sa, sb), ref::mulo(sa, sb))) << i;
  }
}

TEST(SpuDifferential, ByteOps) {
  LaneSource src(0xB17E5u);
  for (int i = 0; i < kDiffRounds; ++i) {
    auto a = src.next<vec_uchar16>();
    auto b = src.next<vec_uchar16>();
    ASSERT_TRUE(SameBits(spu_avg(a, b), ref::avg(a, b))) << i;
    ASSERT_TRUE(SameBits(spu_absd(a, b), ref::absd(a, b))) << i;
    ASSERT_TRUE(SameBits(spu_cntb(a), ref::cntb(a))) << i;
    ASSERT_TRUE(SameBits(spu_sumb(a), ref::sumb(a))) << i;
  }
}

TEST(SpuDifferential, Conversions) {
  LaneSource src(0xC0417u);
  for (int i = 0; i < kDiffRounds; ++i) {
    auto s = src.next<vec_int4>();
    auto u = src.next<vec_uint4>();
    auto f = src.next<vec_float4>();
    for (unsigned scale : {0u, 1u, 8u, 31u}) {
      ASSERT_TRUE(SameBits(spu_convtf(s, scale), ref::convtf(s, scale)))
          << i << " scale " << scale;
      ASSERT_TRUE(SameBits(spu_convtf(u, scale), ref::convtf(u, scale)))
          << i << " scale " << scale;
      ASSERT_TRUE(SameBits(spu_convts(f, scale), ref::convts(f, scale)))
          << i << " scale " << scale;
    }
  }
  // The saturation bounds exactly.
  vec_float4 bounds{{2147483520.0f, 2147483648.0f, -2147483648.0f,
                     std::numeric_limits<float>::quiet_NaN()}};
  vec_int4 want{{2147483520, std::numeric_limits<std::int32_t>::max(),
                 std::numeric_limits<std::int32_t>::min(), 0}};
  EXPECT_TRUE(SameBits(spu_convts(bounds), want));
}

TEST(SpuDifferential, ShufflePatternsAndHighPatternBytes) {
  LaneSource src(0x5AFF1Eu);
  for (int i = 0; i < kDiffRounds; ++i) {
    auto a = src.next<vec_uchar16>();
    auto b = src.next<vec_uchar16>();
    // Random bytes cover 0x20..0xFF, where only the low 5 bits count.
    auto p = src.next<vec_uchar16>();
    ASSERT_TRUE(SameBits(spu_shuffle(a, b, p), ref::shuffle(a, b, p))) << i;
    auto wa = vec_cast<vec_int4>(a);
    auto wb = vec_cast<vec_int4>(b);
    ASSERT_TRUE(SameBits(spu_shuffle(wa, wb, p),
                         vec_cast<vec_int4>(ref::shuffle(a, b, p))))
        << i;
  }
  vec_uchar16 a;
  vec_uchar16 b;
  vec_uchar16 p;
  for (std::size_t i = 0; i < 16; ++i) {
    a.v[i] = static_cast<std::uint8_t>(i);
    b.v[i] = static_cast<std::uint8_t>(0x10 + i);
    p.v[i] = static_cast<std::uint8_t>(0x20 + 0x11 * i);  // all >= 0x20
  }
  EXPECT_TRUE(SameBits(spu_shuffle(a, b, p), ref::shuffle(a, b, p)));
}

TEST(SpuDifferential, SplatExtractInsertPromote) {
  LaneSource src(0x1A4Eu);
  for (int i = 0; i < kDiffRounds; ++i) {
    auto a = src.next<vec_short8>();
    auto lane = static_cast<std::size_t>(i % 11);
    std::int16_t x = a.v[(lane + 3) % 8];
    EXPECT_EQ(spu_extract(a, lane), a.v[lane % 8]);
    auto ins = a;
    ins.v[lane % 8] = x;
    EXPECT_TRUE(SameBits(spu_insert(x, a, lane), ins));
    EXPECT_TRUE(SameBits(spu_splats<vec_short8>(x), vec_short8::splat(x)));
    EXPECT_EQ(spu_promote<vec_short8>(x, lane)[lane % 8], x);
  }
}

// ---- charging ----

class SpuCharging : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<Machine>(Machine::Config{1});
    sim::set_current_spe(&machine_->spe(0));
  }
  void TearDown() override { sim::set_current_spe(nullptr); }
  std::unique_ptr<Machine> machine_;
  SpeContext& spe() { return machine_->spe(0); }
};

TEST_F(SpuCharging, ArithmeticChargesEvenPipe) {
  auto a = spu_splats<vec_float4>(1.0f);  // 1 even
  auto b = spu_add(a, a);                 // 1 even
  (void)b;
  spe().flush_pipes();
  EXPECT_NEAR(spe().pipe_stats().even_cycles, 2.0, 1e-9);
  EXPECT_EQ(spe().pipe_stats().odd_cycles, 0.0);
}

TEST_F(SpuCharging, ShuffleChargesOddPipe) {
  vec_uchar16 a{};
  auto r = spu_shuffle(a, a, a);
  (void)r;
  spe().flush_pipes();
  EXPECT_NEAR(spe().pipe_stats().odd_cycles, 1.0, 1e-9);
}

TEST_F(SpuCharging, DoublePrecisionCosts3point5) {
  auto a = spu_splats<vec_double2>(1.0);  // splat: 1 even
  auto b = spu_mul(a, a);                 // 3.5 even
  (void)b;
  spe().flush_pipes();
  EXPECT_NEAR(spe().pipe_stats().even_cycles, 4.5, 1e-9);
}

TEST_F(SpuCharging, ScalarAccessPenalties) {
  AlignedBuffer<int> buf(4);
  int x = sload(buf.data());  // 2 odd
  sstore(buf.data(), x + 1);  // 1 even + 2 odd
  spe().flush_pipes();
  EXPECT_NEAR(spe().pipe_stats().odd_cycles, 4.0, 1e-9);
  EXPECT_NEAR(spe().pipe_stats().even_cycles, 1.0, 1e-9);
}

TEST_F(SpuCharging, BranchMispredictCosts18) {
  spu_branch(true, /*hint_correct=*/false);
  spe().flush_pipes();
  EXPECT_NEAR(spe().pipe_stats().odd_cycles,
              1.0 + sim::calib::kSpuBranchMissCycles, 1e-9);
}

TEST_F(SpuCharging, DualIssueBalancedCodeIsFree) {
  // 10 even + 10 odd ops take 10 cycles, not 20.
  for (int i = 0; i < 10; ++i) {
    charge_even(1);
    charge_odd(1);
  }
  double t0 = spe().now_ns();
  EXPECT_NEAR(t0, 10.0 / 3.2, 1e-9);
}

// Every intrinsic's exact pipe charge, so that a host-side speed-up can
// never move a simulated cycle.
TEST_F(SpuCharging, EveryIntrinsicChargesItsExactCycles) {
  struct Case {
    const char* name;
    std::function<void()> run;
    double even;
    double odd;
  };
  const auto u8 = vec_uchar16::splat(3);
  const auto s8 = vec_char16::splat(-3);
  const auto u16 = vec_ushort8::splat(3);
  const auto s16 = vec_short8::splat(-3);
  const auto u32 = vec_uint4::splat(3);
  const auto s32 = vec_int4::splat(-3);
  const auto f32 = vec_float4::splat(3.0f);
  const auto f64 = vec_double2::splat(3.0);
  AlignedBuffer<float> buf(4);
  const Case cases[] = {
      {"add u8", [&] { spu_add(u8, u8); }, 1, 0},
      {"add s8", [&] { spu_add(s8, s8); }, 1, 0},
      {"add u16", [&] { spu_add(u16, u16); }, 1, 0},
      {"add s16", [&] { spu_add(s16, s16); }, 1, 0},
      {"add u32", [&] { spu_add(u32, u32); }, 1, 0},
      {"add s32", [&] { spu_add(s32, s32); }, 1, 0},
      {"add f32", [&] { spu_add(f32, f32); }, 1, 0},
      {"add f64", [&] { spu_add(f64, f64); }, 3.5, 0},
      {"sub s32", [&] { spu_sub(s32, s32); }, 1, 0},
      {"sub f64", [&] { spu_sub(f64, f64); }, 3.5, 0},
      {"mul f32", [&] { spu_mul(f32, f32); }, 1, 0},
      {"mul f64", [&] { spu_mul(f64, f64); }, 3.5, 0},
      {"mul s32", [&] { spu_mul(s32, s32); }, 5, 0},
      {"mul u32", [&] { spu_mul(u32, u32); }, 5, 0},
      {"mulhw", [&] { spu_mulhw(u16, u16); }, 2, 0},
      {"mule", [&] { spu_mule(s16, s16); }, 1, 0},
      {"mulo", [&] { spu_mulo(s16, s16); }, 1, 0},
      {"madd f32", [&] { spu_madd(f32, f32, f32); }, 1, 0},
      {"madd f64", [&] { spu_madd(f64, f64, f64); }, 3.5, 0},
      {"msub", [&] { spu_msub(f32, f32, f32); }, 1, 0},
      {"nmsub", [&] { spu_nmsub(f32, f32, f32); }, 1, 0},
      {"avg", [&] { spu_avg(u8, u8); }, 1, 0},
      {"absd", [&] { spu_absd(u8, u8); }, 1, 0},
      {"and", [&] { spu_and(f64, f64); }, 1, 0},
      {"or", [&] { spu_or(u8, u8); }, 1, 0},
      {"xor", [&] { spu_xor(s32, s32); }, 1, 0},
      {"cmpeq f64", [&] { spu_cmpeq(f64, f64); }, 1, 0},
      {"cmpeq u8", [&] { spu_cmpeq(u8, u8); }, 1, 0},
      {"cmpgt f32", [&] { spu_cmpgt(f32, f32); }, 1, 0},
      {"cmpgt s16", [&] { spu_cmpgt(s16, s16); }, 1, 0},
      {"sel", [&] { spu_sel(f32, f32, u32); }, 1, 0},
      {"sl", [&] { spu_sl(u16, 3); }, 1, 0},
      {"sr", [&] { spu_sr(s32, 3); }, 1, 0},
      {"splats", [&] { spu_splats<vec_float4>(1.0f); }, 1, 0},
      {"extract", [&] { spu_extract(s32, 1); }, 0, 1},
      {"insert", [&] { spu_insert(7, s32, 1); }, 0, 1},
      {"promote", [&] { spu_promote<vec_int4>(7, 1); }, 0, 1},
      {"cntb", [&] { spu_cntb(u8); }, 1, 0},
      {"sumb", [&] { spu_sumb(u8); }, 1, 0},
      {"convtf s32", [&] { spu_convtf(s32, 2); }, 1, 0},
      {"convtf u32", [&] { spu_convtf(u32); }, 1, 0},
      {"convts", [&] { spu_convts(f32, 2); }, 1, 0},
      {"re", [&] { spu_re(f32); }, 2, 0},
      {"rsqrte", [&] { spu_rsqrte(f32); }, 2, 0},
      {"div", [&] { spu_div(f32, f32); }, 5, 0},
      // rsqrte 2 + mul + 2 splats + nmsub + 2 mul + add.
      {"sqrt", [&] { spu_sqrt(f32); }, 9, 0},
      {"shuffle", [&] { spu_shuffle(u8, u8, u8); }, 0, 1},
      {"shuffle s32", [&] { spu_shuffle(s32, s32, u8); }, 0, 1},
      {"rlqwbyte", [&] { spu_rlqwbyte(f32, 5); }, 0, 1},
      {"vld", [&] { vld<vec_float4>(buf.data()); }, 0, 1},
      {"vst", [&] { vst(buf.data(), f32); }, 0, 1},
      {"spu_loop", [&] { spu_loop(3); }, 6, 3},
  };
  for (const Case& c : cases) {
    spe().flush_pipes();
    const sim::SpeContext::PipeStats before = spe().pipe_stats();
    c.run();
    spe().flush_pipes();
    EXPECT_EQ(spe().pipe_stats().even_cycles - before.even_cycles, c.even)
        << c.name;
    EXPECT_EQ(spe().pipe_stats().odd_cycles - before.odd_cycles, c.odd)
        << c.name;
  }
}

// Charging goes to the calling thread's SPE: two SPE threads charging at
// once each accrue only their own cycles, and a host thread with no SPE
// charges nothing.
TEST(SpuChargingThreads, EachSpeThreadChargesOnlyItsOwnContext) {
  Machine machine(Machine::Config{2});
  constexpr int kRounds[] = {1000, 3000};
  std::latch start(3);
  auto spe_work = [&](int id) {
    sim::set_current_spe(&machine.spe(id));
    start.arrive_and_wait();
    auto x = vec_float4::splat(1.0f);
    const auto p = vec_uchar16::splat(4);
    for (int i = 0; i < kRounds[id]; ++i) {
      x = spu_add(x, x);                         // 1 even
      x = spu_shuffle(x, x, p);                  // 1 odd
      x = spu_madd(x, x, vec_float4::splat(0));  // 1 even
    }
    sim::set_current_spe(nullptr);
    return x;
  };
  bool host_saw_spe = true;
  std::thread t0([&] { spe_work(0); });
  std::thread t1([&] { spe_work(1); });
  std::thread host([&] {
    host_saw_spe = sim::current_spe() != nullptr;
    start.arrive_and_wait();
    auto x = vec_int4::splat(1);
    const auto p = vec_uchar16::splat(9);
    for (int i = 0; i < 5000; ++i) x = spu_add(spu_shuffle(x, x, p), x);
    charge_even(100);
    charge_odd(100);
  });
  t0.join();
  t1.join();
  host.join();
  EXPECT_FALSE(host_saw_spe);
  EXPECT_EQ(sim::current_spe(), nullptr);
  for (int id : {0, 1}) {
    sim::SpeContext& spe = machine.spe(id);
    spe.flush_pipes();
    EXPECT_EQ(spe.pipe_stats().even_cycles, 2.0 * kRounds[id]) << id;
    EXPECT_EQ(spe.pipe_stats().odd_cycles, 1.0 * kRounds[id]) << id;
  }
}

}  // namespace
}  // namespace cellport::spu
