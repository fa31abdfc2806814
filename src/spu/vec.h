// 128-bit SPU vector types.
//
// Every SPU register is 128 bits wide and every SPU instruction is a SIMD
// instruction. SPE kernels in src/kernels are written against these types
// plus the intrinsics in spu/intrinsics.h, mirroring the Cell SDK's
// spu_intrinsics.h vector dialect, so the kernel sources read like real
// SPU C code. Lane arithmetic is emulated on the host; cycle costs are
// charged to the owning SPE context by the intrinsics layer.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

namespace cellport::spu {

template <typename T, std::size_t N>
struct Vec {
  static_assert(sizeof(T) * N == 16, "SPU vectors are 128-bit");
  using lane_type = T;
  static constexpr std::size_t lanes = N;

  std::array<T, N> v{};

  static Vec splat(T x) {
    Vec r;
    r.v.fill(x);
    return r;
  }

  T operator[](std::size_t i) const { return v[i]; }
  T& operator[](std::size_t i) { return v[i]; }

  bool operator==(const Vec& other) const { return v == other.v; }
};

using vec_uchar16 = Vec<std::uint8_t, 16>;
using vec_char16 = Vec<std::int8_t, 16>;
using vec_ushort8 = Vec<std::uint16_t, 8>;
using vec_short8 = Vec<std::int16_t, 8>;
using vec_uint4 = Vec<std::uint32_t, 4>;
using vec_int4 = Vec<std::int32_t, 4>;
using vec_float4 = Vec<float, 4>;
using vec_double2 = Vec<double, 2>;

/// Reinterprets the 128 bits of one vector type as another (free on real
/// hardware: registers are untyped). `From` may also be a native lane
/// vector of the intrinsics layer. A memcpy rather than std::bit_cast,
/// which GCC declines to inline into large kernels, leaving a call that
/// round-trips the vector through memory.
template <typename To, typename From>
To vec_cast(const From& x) {
  static_assert(sizeof(To) == 16 && sizeof(From) == 16);
  To r;
  std::memcpy(r.v.data(), &x, 16);
  return r;
}

}  // namespace cellport::spu
