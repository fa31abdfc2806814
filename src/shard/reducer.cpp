#include "shard/reducer.h"

#include <cmath>

#include "kernels/messages.h"
#include "shard/plan.h"

namespace cellport::shard {

namespace {

using kernels::kShardCcWords;
using kernels::kShardChWords;
using kernels::kShardEhWords;
using sim::OpClass;

/// Integer bin-count merge: the only reduction work that scales with the
/// shard count.
void sum_counts(const std::uint32_t* const* parts, int n, int words,
                std::uint32_t* total, sim::ScalarContext* ctx) {
  for (int i = 0; i < words; ++i) total[i] = 0;
  for (int s = 0; s < n; ++s) {
    for (int i = 0; i < words; ++i) total[i] += parts[s][i];
  }
  if (ctx != nullptr) {
    const auto ops = static_cast<std::uint64_t>(n) * words;
    ctx->charge(OpClass::kLoad, ops);
    ctx->charge(OpClass::kIntAlu, ops);
    ctx->charge(OpClass::kStore, static_cast<std::uint64_t>(words));
  }
}

}  // namespace

void reduce_ch(const std::uint32_t* const* parts, int n, int w, int h,
               float* out, sim::ScalarContext* ctx) {
  std::uint32_t total[kShardChWords];
  sum_counts(parts, n, kShardChWords, total, ctx);
  // Same expression as ch_run's normalization (per-lane float mul).
  float inv = 1.0f / (static_cast<float>(w) * static_cast<float>(h));
  for (int i = 0; i < kShardChWords; ++i) {
    out[i] = static_cast<float>(total[i]) * inv;
  }
  if (ctx != nullptr) {
    ctx->charge(OpClass::kDiv, 1);
    ctx->charge(OpClass::kMul, kShardChWords);
    ctx->charge(OpClass::kStore, kShardChWords);
  }
}

void reduce_cc(const std::uint32_t* const* parts, int n, float* out,
               sim::ScalarContext* ctx) {
  std::uint32_t total[kShardCcWords];
  sum_counts(parts, n, kShardCcWords, total, ctx);
  constexpr int kHist = kShardCcWords / 2;
  const std::uint32_t* same = total;
  const std::uint32_t* possible = total + kHist;
  // cc_run's ratio loop, verbatim.
  for (int i = 0; i < kHist; ++i) {
    out[i] = possible[i] > 0
                 ? static_cast<float>(static_cast<double>(same[i]) /
                                      static_cast<double>(possible[i]))
                 : 0.0f;
  }
  if (ctx != nullptr) {
    ctx->charge(OpClass::kDiv, kHist);
    ctx->charge(OpClass::kDoubleAlu, 2 * kHist);
    ctx->charge(OpClass::kStore, kHist);
  }
}

void reduce_eh(const std::uint32_t* const* parts, int n, int w, int h,
               float* out, sim::ScalarContext* ctx) {
  std::uint32_t total[kShardEhWords];
  sum_counts(parts, n, kShardEhWords, total, ctx);
  float inv = 1.0f / (static_cast<float>(w) * static_cast<float>(h));
  for (int i = 0; i < kShardEhWords; ++i) {
    out[i] = static_cast<float>(total[i]) * inv;
  }
  if (ctx != nullptr) {
    ctx->charge(OpClass::kDiv, 1);
    ctx->charge(OpClass::kMul, kShardEhWords);
    ctx->charge(OpClass::kStore, kShardEhWords);
  }
}

void reduce_tx(const double* const* parts, const int* doubles, int n,
               int w, int h, float* out, sim::ScalarContext* ctx) {
  using kernels::kTxTileDoubles;
  double energy[kTxTileDoubles] = {};
  std::uint64_t tiles = 0;
  // Shards cover disjoint ascending tile ranges, so walking them in
  // order replays tx_run's tile-ordered double accumulation exactly.
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t + kTxTileDoubles <= doubles[s];
         t += kTxTileDoubles) {
      for (int i = 0; i < kTxTileDoubles; ++i) {
        energy[i] += parts[s][t + i];
      }
      ++tiles;
    }
  }
  const int half_w = w / 2;
  const int half_h = h / 2;
  const int lvl_w[4] = {half_w, half_w / 2, half_w / 4, half_w / 8};
  const int lvl_h[4] = {half_h, half_h / 2, half_h / 4, half_h / 8};
  // tx_run's final normalize/log, verbatim.
  int idx = 0;
  for (int level = 0; level < 4; ++level) {
    double denom = static_cast<double>(lvl_w[level]) * lvl_h[level];
    for (int band = 0; band < 3; ++band) {
      double e = energy[idx] / denom;
      out[idx++] = static_cast<float>(std::log1p(e));
    }
  }
  for (; idx < 16; ++idx) out[idx] = 0.0f;
  if (ctx != nullptr) {
    ctx->charge(OpClass::kDoubleAlu, tiles * kTxTileDoubles);
    ctx->charge(OpClass::kLoad, tiles * kTxTileDoubles);
    ctx->charge(OpClass::kDiv, kTxTileDoubles);
    ctx->charge(OpClass::kDoubleAlu, 30 * kTxTileDoubles);  // log1p
    ctx->charge(OpClass::kStore, 16);
  }
}

void concat_scores(const double* const* parts, const int* counts, int n,
                   double* out, sim::ScalarContext* ctx) {
  std::uint64_t total = 0;
  int at = 0;
  for (int s = 0; s < n; ++s) {
    for (int i = 0; i < counts[s]; ++i) out[at++] = parts[s][i];
    total += static_cast<std::uint64_t>(counts[s]);
  }
  if (ctx != nullptr) {
    ctx->charge(OpClass::kLoad, total);
    ctx->charge(OpClass::kStore, total);
  }
}

namespace {

/// The slot's reducer over gathered partial pointers (TX reads `tiles`
/// and `tile_doubles`, the counting kernels read `counts`).
void reduce_slot(int slot, const std::vector<const std::uint32_t*>& counts,
                 const std::vector<const double*>& tiles,
                 const std::vector<int>& tile_doubles, int w, int h,
                 float* out, sim::ScalarContext* ctx) {
  const auto n = static_cast<int>(counts.size());
  switch (slot) {
    case kSlotCh:
      reduce_ch(counts.data(), n, w, h, out, ctx);
      break;
    case kSlotCc:
      reduce_cc(counts.data(), n, out, ctx);
      break;
    case kSlotTx:
      reduce_tx(tiles.data(), tile_doubles.data(),
                static_cast<int>(tiles.size()), w, h, out, ctx);
      break;
    default:
      reduce_eh(counts.data(), n, w, h, out, ctx);
      break;
  }
}

}  // namespace

void reduce_shards(int slot, const std::vector<Range>& rows,
                   const std::vector<AlignedBuffer<std::uint8_t>>& parts,
                   int w, int h, float* out, sim::ScalarContext* ctx) {
  std::vector<const std::uint32_t*> counts;
  std::vector<const double*> tiles;
  std::vector<int> tile_doubles;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k].empty()) continue;
    if (slot == kSlotTx) {
      tiles.push_back(reinterpret_cast<const double*>(parts[k].data()));
      tile_doubles.push_back(tx_partial_doubles(rows[k]));
    } else {
      counts.push_back(
          reinterpret_cast<const std::uint32_t*>(parts[k].data()));
    }
  }
  reduce_slot(slot, counts, tiles, tile_doubles, w, h, out, ctx);
}

void reduce_fused(int slot, const std::vector<Range>& rows,
                  const std::vector<AlignedBuffer<std::uint8_t>>& blobs,
                  int w, int h, float* out, sim::ScalarContext* ctx) {
  const std::size_t offset = fused_section_offset(slot);
  std::vector<const std::uint32_t*> counts;
  std::vector<const double*> tiles;
  std::vector<int> tile_doubles;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Range& r = rows[k];
    if (r.empty()) continue;
    if (slot == kSlotTx) {
      tiles.push_back(
          reinterpret_cast<const double*>(blobs[k].data() + offset));
      tile_doubles.push_back(kernels::fused_tx_doubles(w, h, r.begin, r.end));
    } else {
      counts.push_back(
          reinterpret_cast<const std::uint32_t*>(blobs[k].data() + offset));
    }
  }
  reduce_slot(slot, counts, tiles, tile_doubles, w, h, out, ctx);
}

}  // namespace cellport::shard
