#include "balance/digest.h"

#include <bit>
#include <cstring>
#include <initializer_list>

namespace cellport::balance {

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

namespace {

// XXH64's odd 64-bit multipliers.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

std::uint64_t word(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// One lane step. For a fixed lane value it is a bijection of the word
// (odd multiply, rotate, odd multiply), and for a fixed word a
// bijection of the lane, so changing any one word changes the lane.
std::uint64_t lane_step(std::uint64_t lane, std::uint64_t w) {
  return std::rotl(lane + w * kP2, 31) * kP1;
}

}  // namespace

std::uint64_t content_digest(const std::uint8_t* data, std::size_t n) {
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + n;
  std::uint64_t h = kP5;  // inputs shorter than one stripe
  if (n >= 32) {
    // Four independent chains: the multiplies of one 32-byte stripe
    // overlap instead of waiting on each other.
    std::uint64_t v0 = kP1 + kP2;
    std::uint64_t v1 = kP2;
    std::uint64_t v2 = 0;
    std::uint64_t v3 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v0 = lane_step(v0, word(p));
      v1 = lane_step(v1, word(p + 8));
      v2 = lane_step(v2, word(p + 16));
      v3 = lane_step(v3, word(p + 24));
    }
    h = std::rotl(v0, 1) + std::rotl(v1, 7) + std::rotl(v2, 12) +
        std::rotl(v3, 18);
    for (std::uint64_t v : {v0, v1, v2, v3}) {
      h = (h ^ lane_step(0, v)) * kP1 + kP4;
    }
  }
  // The length, then the tail: whole words, a half word, single bytes.
  h += static_cast<std::uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ lane_step(0, word(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    std::uint32_t half;
    std::memcpy(&half, p, sizeof half);
    if constexpr (std::endian::native == std::endian::big) {
      half = __builtin_bswap32(half);
    }
    h = std::rotl(h ^ static_cast<std::uint64_t>(half) * kP1, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ static_cast<std::uint64_t>(*p) * kP5, 11) * kP1;
  }
  // Avalanche: every input bit reaches every output bit.
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace cellport::balance
