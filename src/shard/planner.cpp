#include "shard/plan.h"

#include <algorithm>
#include <array>

namespace cellport::shard {

KernelCosts default_costs() {
  // Single-SPE optimized-kernel busy times on the calibration shape
  // (352x240 synthetic scene), in CH units. Recalibrated for cellfuse:
  // the old table (cc=8.7, eh=3.5, tx=0.9 over ch=1.2) predated the
  // SIMD window/Sobel/Haar rewrites and overweighted CC ~2x, EH ~3x and
  // TX ~6x against today's kernels. The fused entry is one single-pass
  // invocation covering all four features — cheaper than the four
  // kernels summed (one fetch, one HSV quantization, one gray
  // conversion), which is why plan_fused beats plan_shards on the same
  // machine; its correlogram window is charged as the pair-symmetric
  // sequence (each unordered pair compared once), where the CC kernel
  // compares every centre's full window. The overhead term folds in the
  // per-extra-SPE costs: one more dispatch, the halo refetch, one more
  // partial to reduce.
  // tests/test_fuse.cpp re-measures every ratio in-process and fails if
  // these drift by more than the pinning tolerance.
  KernelCosts c;
  c.extract[kSlotCh] = 1.0;
  c.extract[kSlotCc] = 3.4;
  c.extract[kSlotTx] = 0.13;
  c.extract[kSlotEh] = 0.90;
  c.fused = 3.2;
  // Detection scores only the ACTIVE models (inactive library fillers
  // are skipped at load), so its unit is small and independent of the
  // library size — the old detect=2.0 dated from before the SIMD dot
  // kernels and folded the one-time model load in.
  c.detect = 0.12;
  c.shard_overhead = 0.05;
  return c;
}

double ShardPlan::critical_path(const KernelCosts& costs) const {
  double extract = 0.0;
  for (int k = 0; k < kNumExtract; ++k) {
    const int n = extract_shards[k];
    const double t =
        costs.extract[k] / n + costs.shard_overhead * (n - 1);
    extract = std::max(extract, t);
  }
  return extract + costs.detect / detect_spes +
         costs.shard_overhead * (detect_spes - 1);
}

double FusedPlan::critical_path(const KernelCosts& costs) const {
  return costs.fused / lanes + costs.shard_overhead * (lanes - 1) +
         costs.detect / detect_spes +
         costs.shard_overhead * (detect_spes - 1);
}

FusedPlan plan_fused(int num_spes, const KernelCosts& costs) {
  if (num_spes < 2) {
    throw cellport::ConfigError(
        "fused scenario needs at least 2 SPEs (one lane + one detector)");
  }
  FusedPlan best;
  double best_cost = best.critical_path(costs);
  int best_used = best.spes_used();
  for (int lanes = 1; lanes <= num_spes - 1; ++lanes) {
    for (int d = 1; lanes + d <= num_spes; ++d) {
      FusedPlan p;
      p.lanes = lanes;
      p.detect_spes = d;
      const double cost = p.critical_path(costs);
      const int used = p.spes_used();
      const bool better =
          cost < best_cost ||
          (cost == best_cost &&
           (used < best_used || (used == best_used && p.lanes < best.lanes)));
      if (better) {
        best = p;
        best_cost = cost;
        best_used = used;
      }
    }
  }
  return best;
}

ShardPlan plan_shards(int num_spes, const KernelCosts& costs) {
  if (num_spes < kNumExtract + 1) {
    throw cellport::ConfigError(
        "sharded scenario needs at least 5 SPEs (one per kernel)");
  }
  ShardPlan best;
  double best_cost = best.critical_path(costs);
  int best_used = best.spes_used();

  const int spare = num_spes - (kNumExtract + 1);
  std::array<int, kNumExtract + 1> counts{};
  // counts[k] = extra SPEs granted to slot k (detect last).
  for (counts[0] = 0; counts[0] <= spare; ++counts[0]) {
    for (counts[1] = 0; counts[0] + counts[1] <= spare; ++counts[1]) {
      for (counts[2] = 0; counts[0] + counts[1] + counts[2] <= spare;
           ++counts[2]) {
        for (counts[3] = 0;
             counts[0] + counts[1] + counts[2] + counts[3] <= spare;
             ++counts[3]) {
          const int granted =
              counts[0] + counts[1] + counts[2] + counts[3];
          for (counts[4] = 0; granted + counts[4] <= spare; ++counts[4]) {
            ShardPlan p;
            for (int k = 0; k < kNumExtract; ++k) {
              p.extract_shards[k] = 1 + counts[static_cast<std::size_t>(k)];
            }
            p.detect_spes = 1 + counts[kNumExtract];
            const double cost = p.critical_path(costs);
            const int used = p.spes_used();
            const bool better =
                cost < best_cost ||
                (cost == best_cost && used < best_used);
            if (better) {
              best = p;
              best_cost = cost;
              best_used = used;
            }
          }
        }
      }
    }
  }
  return best;
}

}  // namespace cellport::shard
