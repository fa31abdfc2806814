#include "check/shrink.h"

#include <algorithm>
#include <vector>

namespace cellport::check {

namespace {

/// Dimension floor a candidate must respect: every mode that runs the
/// texture kernel needs >= 16 on both axes.
int dim_floor(const ScenarioSpec& spec) {
  bool tx_free =
      spec.mode == Mode::kKernelDirect && spec.kernel != kKernelTx;
  return tx_free ? 1 : 16;
}

/// Smallest machine the spec's mode (plus a fault's spare SPE) accepts.
int min_spes(const ScenarioSpec& spec) {
  switch (spec.mode) {
    case Mode::kKernelDirect: return spec.fault_kind >= 0 ? 2 : 1;
    case Mode::kEngineSingle:
    case Mode::kEngineMulti: return spec.fault_kind >= 0 ? 6 : 5;
    case Mode::kEngineMulti2: return 8;
    case Mode::kTaskPool: return std::max(1, spec.pool_workers);
  }
  return 8;
}

/// One-step reductions, simplest first. Every candidate is a valid spec.
std::vector<ScenarioSpec> candidates(const ScenarioSpec& spec) {
  std::vector<ScenarioSpec> out;
  auto push = [&out](ScenarioSpec next) { out.push_back(std::move(next)); };

  if (spec.scaling_probe) {
    ScenarioSpec next = spec;
    next.scaling_probe = false;
    push(next);
  }
  if (spec.replay_twice) {
    ScenarioSpec next = spec;
    next.replay_twice = false;
    push(next);
  }
  if (spec.stream_batch > 0) {
    // Dropping the stream rider entirely is the bigger simplification;
    // failing that, a one-image window still exercises the ring protocol
    // with the smallest possible schedule.
    ScenarioSpec next = spec;
    next.stream_batch = 0;
    push(next);
    if (spec.stream_batch > 1) {
      next = spec;
      next.stream_batch = 1;
      push(next);
    }
  }
  if (spec.sharded) {
    // Restoring the mode's static schedule is the bigger simplification;
    // it localizes a failure to the shard split/reduction layer.
    ScenarioSpec next = spec;
    next.sharded = false;
    push(next);
  }
  if (spec.feed) {
    // Collapsing SPE ingest back to the PPE byte loop (the corpus
    // reverts to SIC streams with it) localizes a failure to the
    // cellfeed DMA-list path.
    ScenarioSpec next = spec;
    next.feed = false;
    push(next);
  }
  if (spec.fused) {
    // Restoring the per-feature extraction schedule localizes a failure
    // to the cellfuse single-pass kernel / fused reduction layer.
    ScenarioSpec next = spec;
    next.fused = false;
    push(next);
  }
  if (spec.balanced) {
    // Restoring the static fused split localizes a failure to the
    // cellbalance steal queue / cross-image task pool.
    ScenarioSpec next = spec;
    next.balanced = false;
    push(next);
  }
  if (spec.cache_kb > 0) {
    // Disarming the content cache localizes a failure to the digest /
    // hit-serve / eviction layer.
    ScenarioSpec next = spec;
    next.cache_kb = 0;
    push(next);
  }
  if (spec.serve) {
    // Dropping the broker entirely (back to a plain engine run)
    // localizes a failure to the serve layer; failing that, relax its
    // knobs one at a time toward the calmest broker: far deadlines, one
    // tenant, serial windows, an uncontended budget.
    ScenarioSpec next = spec;
    next.serve = false;
    next.serve_tenants = 1;
    next.serve_budget = 8;
    next.serve_batch = 2;
    next.serve_tight = false;
    push(next);
    if (spec.serve_tight) {
      next = spec;
      next.serve_tight = false;
      push(next);
    }
    if (spec.serve_tenants > 1) {
      next = spec;
      next.serve_tenants = 1;
      push(next);
    }
    if (spec.serve_batch > 1) {
      next = spec;
      next.serve_batch = 1;
      push(next);
    }
    if (spec.serve_budget < 8) {
      next = spec;
      next.serve_budget = 8;
      push(next);
    }
  }
  if (spec.fault_kind >= 0) {
    ScenarioSpec next = spec;
    next.fault_kind = -1;
    push(next);
  }
  if (spec.sched_fault >= 0) {
    ScenarioSpec next = spec;
    next.sched_fault = -1;
    next.sched_spe = 0;
    next.sched_at = 0;
    push(next);
  }
  if (spec.guarded && spec.sched_fault < 0) {
    // A scheduled fault needs the guard; only a fault-free spec can
    // drop it.
    ScenarioSpec next = spec;
    next.guarded = false;
    push(next);
  }
  if (spec.sched_fault >= 0 && (spec.sched_spe != 0 || spec.sched_at != 0)) {
    ScenarioSpec next = spec;
    next.sched_spe = 0;
    next.sched_at = 0;
    push(next);
  }
  if (spec.images.size() > 1) {
    for (std::size_t i = 0; i < spec.images.size(); ++i) {
      ScenarioSpec next = spec;
      next.images.erase(next.images.begin() +
                        static_cast<std::ptrdiff_t>(i));
      push(next);
    }
  }
  int floor = dim_floor(spec);
  for (std::size_t i = 0; i < spec.images.size(); ++i) {
    if (spec.images[i].width > floor) {
      ScenarioSpec next = spec;
      next.images[i].width = std::max(floor, spec.images[i].width / 2);
      push(next);
    }
    if (spec.images[i].height > floor) {
      ScenarioSpec next = spec;
      next.images[i].height = std::max(floor, spec.images[i].height / 2);
      push(next);
    }
    if (spec.images[i].kind != 0 || spec.images[i].quality != 85 ||
        spec.images[i].seed != 1) {
      ScenarioSpec next = spec;
      next.images[i].kind = 0;
      next.images[i].quality = 85;
      next.images[i].seed = 1;
      push(next);
    }
  }
  if (spec.block_rows != 0 || spec.buffering != 2 || spec.use_naive) {
    ScenarioSpec next = spec;
    next.block_rows = 0;
    next.buffering = 2;
    next.use_naive = false;
    push(next);
  }
  if (spec.mode == Mode::kTaskPool && spec.pool_workers > 1) {
    ScenarioSpec next = spec;
    next.pool_workers = 1;
    push(next);
  }
  if (spec.num_spes > min_spes(spec)) {
    ScenarioSpec next = spec;
    next.num_spes = min_spes(spec);
    push(next);
  }
  // A still-sharded failure shrinks to the planner's 5-SPE floor, where
  // the plan degenerates to one shard per kernel. kEngineMulti2's mode
  // floor is 8 SPEs, so the downgrade to kEngineMulti rides along to
  // keep the candidate valid if the sharded rider is dropped later.
  if (spec.sharded && spec.num_spes > 5 && spec.fault_kind < 0) {
    ScenarioSpec next = spec;
    next.num_spes = 5;
    if (next.mode == Mode::kEngineMulti2) next.mode = Mode::kEngineMulti;
    push(next);
  }
  // Mode simplification within the engine family: the richer schedules
  // subsume the simpler ones, so a bug that survives the downgrade gets
  // a much smaller machine/schedule to debug against.
  if (spec.mode == Mode::kEngineMulti2) {
    ScenarioSpec next = spec;
    next.mode = Mode::kEngineMulti;
    next.fault_kind = -1;  // multi2 never carries one; keep it that way
    push(next);
  } else if (spec.mode == Mode::kEngineMulti) {
    ScenarioSpec next = spec;
    next.mode = Mode::kEngineSingle;
    push(next);
  }
  return out;
}

}  // namespace

ShrinkResult shrink_scenario(
    const ScenarioSpec& failing,
    const std::function<bool(const ScenarioSpec&)>& still_fails,
    std::size_t budget) {
  ShrinkResult result;
  result.spec = failing;
  bool progressed = true;
  while (progressed && result.evaluations < budget) {
    progressed = false;
    for (const ScenarioSpec& candidate : candidates(result.spec)) {
      if (result.evaluations >= budget) break;
      ++result.evaluations;
      if (still_fails(candidate)) {
        result.spec = candidate;
        ++result.accepted;
        progressed = true;
        break;  // restart from the simplified spec
      }
    }
  }
  return result;
}

}  // namespace cellport::check
