#include "shard/partials.h"

#include <algorithm>

#include "shard/plan.h"
#include "support/error.h"

namespace cellport::shard {

std::vector<Range> split_rows(int total, int n) {
  if (n <= 0) throw cellport::ConfigError("shard count must be positive");
  std::vector<Range> out(static_cast<std::size_t>(n));
  const int base = total / n;
  const int extra = total % n;
  int at = 0;
  for (int i = 0; i < n; ++i) {
    const int len = base + (i < extra ? 1 : 0);
    out[static_cast<std::size_t>(i)] = {at, at + len};
    at += len;
  }
  return out;
}

std::vector<Range> split_tiles(int h, int n) {
  if (n <= 0) throw cellport::ConfigError("shard count must be positive");
  const int heff = 2 * (h / 2);
  const int tiles = kernels::tx_num_tiles(h);
  std::vector<Range> tile_ranges = split_rows(tiles, n);
  std::vector<Range> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Range& t = tile_ranges[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] = {
        t.begin * kernels::kTxTileRows,
        std::min(t.end * kernels::kTxTileRows, heff)};
  }
  return out;
}

std::vector<Range> split_fused(int h, int n) {
  if (h < kernels::kTxTileRows) {
    // No Haar tile fits: no tile-boundary constraint either, so fall back
    // to the plain row split (the fused kernel skips TX for such images).
    return split_rows(h, n);
  }
  std::vector<Range> out = split_tiles(h, n);
  for (std::size_t i = out.size(); i-- > 0;) {
    if (!out[i].empty()) {
      out[i].end = h;
      break;
    }
  }
  return out;
}

std::size_t shard_part_bytes(int slot, const Range& r) {
  switch (slot) {
    case kSlotCh:
      return kernels::kShardChWords * sizeof(std::uint32_t);
    case kSlotCc:
      return kernels::kShardCcWords * sizeof(std::uint32_t);
    case kSlotTx:
      return static_cast<std::size_t>(tx_partial_doubles(r)) *
             sizeof(double);
    default:
      return kernels::kShardEhWords * sizeof(std::uint32_t);
  }
}

std::size_t fused_section_offset(int slot) {
  static constexpr std::size_t kOffset[kNumExtract] = {
      0, kernels::kFusedCcOffset * sizeof(std::uint32_t),
      kernels::kFusedCountBytes,
      kernels::kFusedEhOffset * sizeof(std::uint32_t)};
  return kOffset[slot];
}

int tx_partial_doubles(const Range& r) {
  if (r.empty()) return 0;
  const int t0 = r.begin / kernels::kTxTileRows;
  const int t1 =
      (r.end + kernels::kTxTileRows - 1) / kernels::kTxTileRows;
  return (t1 - t0) * kernels::kTxTileDoubles;
}

}  // namespace cellport::shard
