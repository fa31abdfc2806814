// cellbalance: content addressing for the feature cache.
//
// The cache key is a digest of the ENCODED image bytes — computed before
// any decode, so a hit skips ingest and extraction entirely. The key is
// content_digest, which is XXH64 with seed 0: four independent
// multiply-rotate lanes over 8-byte words, so a carrier of a few hundred
// KB digests at word speed rather than through one byte-serial multiply
// chain. It is not cryptographic, and need not be: the cache is an
// optimization layered over a deterministic engine, and a (vanishingly
// unlikely) collision would surface instantly in the bit-exactness
// property tests that compare every cached result against the oracle.
// Only key equality is observable, so the simulated PPE still pays for
// the modelled byte-serial pass: CellEngine charges one IntAlu per byte.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cellport::balance {

/// 64-bit FNV-1a over `n` bytes (cellbench's result and layer digests).
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n);

/// 64-bit content digest (XXH64, seed 0) over `n` bytes: the feature
/// cache's key. Words are read little-endian, so the value is the same
/// on every host.
std::uint64_t content_digest(const std::uint8_t* data, std::size_t n);

}  // namespace cellport::balance
