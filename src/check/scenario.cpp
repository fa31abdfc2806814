#include "check/scenario.h"

#include <stdexcept>

#include "check/faults.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"

namespace cellport::check {

namespace {

/// Minimum dims the texture extractor accepts (4-level Haar needs 2^4
/// pixels on each axis), and hence the floor for any scenario that runs
/// all four kernels.
constexpr int kMinTxDim = 16;

/// Scene kinds available to the generator (img::SceneKind count).
constexpr int kNumSceneKinds = 5;

int pick_quality(Rng& rng) {
  constexpr int kQualities[] = {60, 85, 95};
  return kQualities[rng.next_below(3)];
}

int pick_block_rows(Rng& rng) {
  // Mostly the kernel default; occasionally stress small/large blocks.
  constexpr int kChoices[] = {0, 0, 0, 1, 2, 5, 16};
  return kChoices[rng.next_below(7)];
}

/// A size with interesting row geometry. Odd widths produce rows whose
/// payload is not a 16-byte multiple (the stride still is — the property
/// the kernels' row DMA depends on).
ImageSpec pick_image(Rng& rng, bool allow_degenerate) {
  ImageSpec img;
  img.kind = static_cast<int>(rng.next_below(kNumSceneKinds));
  img.seed = rng.next_u64();
  img.quality = pick_quality(rng);
  std::uint64_t shape = rng.next_below(100);
  if (allow_degenerate && shape < 20) {
    // Degenerate geometry: 1xN, Nx1, tiny squares.
    switch (rng.next_below(4)) {
      case 0: img.width = 1; img.height = 1; break;
      case 1:
        img.width = 1;
        img.height = 1 + static_cast<int>(rng.next_below(240));
        break;
      case 2:
        img.width = 1 + static_cast<int>(rng.next_below(352));
        img.height = 1;
        break;
      default:
        img.width = 2 + static_cast<int>(rng.next_below(14));
        img.height = 2 + static_cast<int>(rng.next_below(14));
        break;
    }
  } else if (shape < 45) {
    // Full MARVEL frame.
    img.width = 352;
    img.height = 240;
  } else {
    img.width = kMinTxDim + static_cast<int>(rng.next_below(113));
    img.height = kMinTxDim + static_cast<int>(rng.next_below(81));
    if (rng.next_below(2) == 0) img.width |= 1;  // non-16B-multiple rows
    if (rng.next_below(2) == 0) img.height |= 1;
  }
  return img;
}

/// Whether the corpus can take the cellfuse rider: fused extraction
/// always carries the 4-level wavelet texture, so every image must be at
/// least one Haar tile in both dimensions.
bool fits_fused(const ScenarioSpec& spec) {
  for (const auto& img : spec.images) {
    if (img.width < 16 || img.height < 16) return false;
  }
  return true;
}

}  // namespace

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kKernelDirect: return "kernel-direct";
    case Mode::kEngineSingle: return "engine-single";
    case Mode::kEngineMulti: return "engine-multi";
    case Mode::kEngineMulti2: return "engine-multi2";
    case Mode::kTaskPool: return "taskpool";
  }
  throw cellport::ConfigError("unknown mode");
}

const char* sched_fault_name(int kind) {
  switch (kind) {
    case kSchedHangTransient: return "hang-transient";
    case kSchedHangPersistent: return "hang-persistent";
    case kSchedSlow: return "slow";
    case kSchedDmaError: return "dma-error";
    default: return "none";
  }
}

Mode mode_from_name(const std::string& name) {
  for (Mode m : {Mode::kKernelDirect, Mode::kEngineSingle,
                 Mode::kEngineMulti, Mode::kEngineMulti2,
                 Mode::kTaskPool}) {
    if (name == mode_name(m)) return m;
  }
  throw cellport::ConfigError("unknown mode name '" + name + "'");
}

ScenarioSpec generate_scenario(std::uint64_t seed) {
  Rng rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;

  std::uint64_t roll = rng.next_below(100);
  if (roll < 35) {
    spec.mode = Mode::kKernelDirect;
  } else if (roll < 50) {
    spec.mode = Mode::kEngineSingle;
  } else if (roll < 65) {
    spec.mode = Mode::kEngineMulti;
  } else if (roll < 75) {
    spec.mode = Mode::kEngineMulti2;
  } else {
    spec.mode = Mode::kTaskPool;
  }

  spec.buffering = 1 + static_cast<int>(rng.next_below(3));
  spec.block_rows = pick_block_rows(rng);

  // Machine shape, constrained by what each mode can place: the static
  // engine pins CH/CC/TX/EH/CD on SPEs 0-4 and kMultiSPE2 replicates
  // detection on 5-7.
  switch (spec.mode) {
    case Mode::kKernelDirect:
      spec.num_spes = 1 + static_cast<int>(rng.next_below(8));
      spec.kernel = static_cast<int>(rng.next_below(4));
      spec.use_naive =
          spec.kernel != kKernelTx && rng.next_below(4) == 0;
      break;
    case Mode::kEngineSingle:
    case Mode::kEngineMulti:
      spec.num_spes = 5 + static_cast<int>(rng.next_below(4));
      spec.use_naive = rng.next_below(100) < 15;
      break;
    case Mode::kEngineMulti2:
      spec.num_spes = 8;
      spec.use_naive = rng.next_below(100) < 15;
      break;
    case Mode::kTaskPool:
      spec.num_spes = 1 + static_cast<int>(rng.next_below(8));
      spec.pool_workers = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(spec.num_spes)));
      break;
  }

  // Image corpus. Degenerate geometry is only reachable where every
  // kernel that will see the image accepts it: the texture extractor
  // (and hence every full-engine/TaskPool run) needs both dims >= 16.
  bool degenerate_ok =
      spec.mode == Mode::kKernelDirect && spec.kernel != kKernelTx;
  int num_images = 1 + static_cast<int>(rng.next_below(
                           spec.mode == Mode::kKernelDirect ? 3 : 2));
  for (int i = 0; i < num_images; ++i) {
    spec.images.push_back(pick_image(rng, degenerate_ok));
  }

  // Fault injection needs a spare SPE beyond what the workload pins:
  // the static engine leaves one only on 6+-SPE machines (and none in
  // kMultiSPE2, which pins all 8), kernel-direct needs a second SPE,
  // and TaskPool faults ride a worker, so any shape qualifies.
  bool fault_ok = false;
  switch (spec.mode) {
    case Mode::kKernelDirect: fault_ok = spec.num_spes >= 2; break;
    case Mode::kEngineSingle:
    case Mode::kEngineMulti: fault_ok = spec.num_spes >= 6; break;
    case Mode::kEngineMulti2: fault_ok = false; break;
    case Mode::kTaskPool: fault_ok = true; break;
  }
  if (fault_ok && rng.next_below(100) < 20) {
    spec.fault_kind = static_cast<int>(rng.next_below(kNumFaultKinds));
  }

  // Property riders. Replay determinism excludes TaskPool (its task ->
  // worker assignment follows host event arrival order); the scaling
  // probe compares engine scheduling scenarios, so it needs the 5-SPE
  // layouts and a frame big enough for kernel time to dwarf protocol
  // costs.
  bool is_static = spec.mode != Mode::kTaskPool;
  spec.replay_twice = is_static && rng.next_below(4) == 0;
  bool engine_mode = spec.mode == Mode::kEngineSingle ||
                     spec.mode == Mode::kEngineMulti ||
                     spec.mode == Mode::kEngineMulti2;
  if (engine_mode && spec.fault_kind < 0 && rng.next_below(5) == 0) {
    spec.scaling_probe = true;
    spec.images[0].width = 176;
    spec.images[0].height = 120;
  }

  // cellguard rider (appended last so it never perturbs the draws
  // above): engine modes only, and not alongside the spare-SPE fault
  // probe (which wants the spare SPEs the guard uses as retry targets)
  // or the scaling probe (whose probe machines run unguarded).
  if (engine_mode && spec.fault_kind < 0 && !spec.scaling_probe &&
      rng.next_below(100) < 25) {
    spec.guarded = true;
    if (rng.next_below(100) < 70) {
      spec.sched_fault = static_cast<int>(rng.next_below(kNumSchedFaults));
      int pinned = spec.mode == Mode::kEngineMulti2 ? 8 : 5;
      spec.sched_spe = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(pinned)));
      spec.sched_at = static_cast<int>(
          rng.next_below(spec.images.size()));
    }
  }

  // cellstream rider (also appended last): engine modes sometimes stream
  // the corpus through the command rings instead of per-call analyze().
  // The oracle and every downstream property are unchanged; windows
  // larger than the corpus exercise the short-final-window path.
  if (engine_mode && rng.next_below(100) < 30) {
    spec.stream_batch = 1 + static_cast<int>(rng.next_below(4));
  }

  // cellshard rider (also appended last): ~30% of engine scenarios swap
  // the mode's static schedule for the kSharded plan over the same
  // machine (every engine shape has the planner's 5-SPE floor). The
  // differential oracle is unchanged — sharded results are bit-exact —
  // and scheduled guard faults compose (a faulted shard recovers alone).
  // The spare-SPE fault probe is excluded: the shard plan packs every
  // SPE, leaving no spare for the probe interface. So is the scaling
  // probe, which compares the unsharded schedules on its own machines.
  if (engine_mode && spec.fault_kind < 0 && !spec.scaling_probe &&
      rng.next_below(100) < 30) {
    spec.sharded = true;
  }

  // cellfeed rider (also appended last): ~30% of engine scenarios carry
  // the corpus as PPM streams ingested by the SPE feed kernels instead
  // of the PPE byte loop. Feed rows ride the interfaces the scenario
  // already scheduled (no extra SPEs), so it composes with every other
  // rider — guard faults, streaming, sharding, the spare-SPE fault
  // probe — and the differential oracle is unchanged.
  if (engine_mode && rng.next_below(100) < 30) {
    spec.feed = true;
  }

  // cellfuse rider (also appended last): ~30% of engine scenarios swap
  // the per-feature extraction for the single-pass fused lanes. Fused
  // lanes ride the interfaces the scenario already scheduled, so it
  // composes with every other rider; the differential oracle is
  // unchanged (fused results are bit-exact). Skipped when any corpus
  // image is below the 16x16 wavelet floor — fused extraction always
  // carries the texture, so the engine rejects smaller frames.
  if (engine_mode && fits_fused(spec) && rng.next_below(100) < 30) {
    spec.fused = true;
  }

  // cellbalance riders (also appended last): ~25% of engine scenarios
  // swap the fused lanes' static row split for the steal-driven task
  // queue (same 16x16 floor — balanced dispatch rides the fused
  // kernel), and ~25% independently arm the content cache with a small
  // budget so both the hit and the eviction paths see coverage.
  if (engine_mode && fits_fused(spec) && rng.next_below(100) < 25) {
    spec.balanced = true;
  }
  if (engine_mode && rng.next_below(100) < 25) {
    constexpr int kBudgetsKb[] = {2, 16, 64};
    spec.cache_kb = kBudgetsKb[rng.next_below(3)];
  }
  return spec;
}

ScenarioSpec generate_guard_scenario(std::uint64_t seed) {
  Rng rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;
  switch (rng.next_below(3)) {
    case 0: spec.mode = Mode::kEngineSingle; break;
    case 1: spec.mode = Mode::kEngineMulti; break;
    default: spec.mode = Mode::kEngineMulti2; break;
  }
  spec.buffering = 1 + static_cast<int>(rng.next_below(3));
  spec.num_spes = spec.mode == Mode::kEngineMulti2
                      ? 8
                      : 5 + static_cast<int>(rng.next_below(4));
  spec.use_naive = rng.next_below(100) < 15;
  int num_images = 1 + static_cast<int>(rng.next_below(2));
  for (int i = 0; i < num_images; ++i) {
    spec.images.push_back(pick_image(rng, /*allow_degenerate=*/false));
  }
  spec.guarded = true;
  if (rng.next_below(100) < 85) {
    spec.sched_fault = static_cast<int>(rng.next_below(kNumSchedFaults));
    int pinned = spec.mode == Mode::kEngineMulti2 ? 8 : 5;
    spec.sched_spe = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(pinned)));
    spec.sched_at =
        static_cast<int>(rng.next_below(spec.images.size()));
  }
  spec.replay_twice = rng.next_below(4) == 0;
  // Guarded streaming: scheduled faults land mid-batch and the stream
  // engine must recover per-request (retry via the guard, then PPE
  // fallback) without disturbing the window's other images.
  if (rng.next_below(100) < 35) {
    spec.stream_batch = 1 + static_cast<int>(rng.next_below(4));
  }
  // Sharded fault matrix (appended last): the faulted shard must retry
  // or fall back alone and the PPE reduction must still be bit-exact.
  if (rng.next_below(100) < 30) {
    spec.sharded = true;
  }
  // Feed fault matrix (appended last): scheduled faults land on lanes
  // that also carry ingest rows, and the run must still match the
  // oracle bit-for-bit — retried rows via the guard, exhausted lanes as
  // "feed:ingest" PPE fallbacks.
  if (rng.next_below(100) < 30) {
    spec.feed = true;
  }
  // Fused fault matrix (appended last): a scheduled fault on a fused
  // lane takes all four features' partials with it, and the run must
  // still match the oracle bit-for-bit — retried lanes via the guard,
  // exhausted lanes as four "fuse:<feature>" PPE fallbacks.
  if (fits_fused(spec) && rng.next_below(100) < 30) {
    spec.fused = true;
  }
  // Balanced fault matrix (appended last): a scheduled fault lands
  // while lanes are stealing tasks, and the run must still match the
  // oracle bit-for-bit — the faulted lane's queue slot retries behind
  // the guard or degrades to the PPE fallback while the other lanes drain
  // the remaining descriptors.
  if (fits_fused(spec) && rng.next_below(100) < 25) {
    spec.balanced = true;
  }
  if (rng.next_below(100) < 20) {
    constexpr int kBudgetsKb[] = {2, 16, 64};
    spec.cache_kb = kBudgetsKb[rng.next_below(3)];
  }
  return spec;
}

ScenarioSpec generate_serve_scenario(std::uint64_t seed) {
  Rng rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;
  switch (rng.next_below(3)) {
    case 0: spec.mode = Mode::kEngineSingle; break;
    case 1: spec.mode = Mode::kEngineMulti; break;
    default: spec.mode = Mode::kEngineMulti2; break;
  }
  spec.buffering = 1 + static_cast<int>(rng.next_below(3));
  spec.num_spes = spec.mode == Mode::kEngineMulti2
                      ? 8
                      : 5 + static_cast<int>(rng.next_below(4));
  spec.use_naive = rng.next_below(100) < 10;
  // One request per image: enough corpus for multi-tenant contention
  // without blowing per-scenario runtime.
  int num_images = 2 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < num_images; ++i) {
    spec.images.push_back(pick_image(rng, /*allow_degenerate=*/false));
  }
  spec.serve = true;
  spec.serve_tenants = 1 + static_cast<int>(rng.next_below(3));
  // Budgets from "everything queues" down to "most of the burst sheds",
  // so the degrade ladder and the shed path both see coverage.
  spec.serve_budget = 2 + static_cast<int>(rng.next_below(8));
  spec.serve_batch = 1 + static_cast<int>(rng.next_below(3));
  spec.serve_tight = rng.next_below(100) < 25;
  // cellguard rider: half the matrix serves behind the guard, usually
  // with a scheduled fault — tenant isolation under faults is the
  // property this matrix exists for.
  if (rng.next_below(100) < 50) {
    spec.guarded = true;
    if (rng.next_below(100) < 60) {
      spec.sched_fault = static_cast<int>(rng.next_below(kNumSchedFaults));
      int pinned = spec.mode == Mode::kEngineMulti2 ? 8 : 5;
      spec.sched_spe = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(pinned)));
      spec.sched_at =
          static_cast<int>(rng.next_below(spec.images.size()));
    }
  }
  // cellshard / cellfeed riders compose with the broker the same way
  // they compose with analyze_stream (the broker serves through
  // StreamEngine windows).
  if (rng.next_below(100) < 25) {
    spec.sharded = true;
  }
  if (rng.next_below(100) < 25) {
    spec.feed = true;
  }
  if (fits_fused(spec) && rng.next_below(100) < 25) {
    spec.fused = true;
  }
  // cellbalance riders (appended last): broker traffic over balanced
  // lanes, and the content cache the level-0 stream consults.
  if (fits_fused(spec) && rng.next_below(100) < 25) {
    spec.balanced = true;
  }
  if (rng.next_below(100) < 25) {
    constexpr int kBudgetsKb[] = {2, 16, 64};
    spec.cache_kb = kBudgetsKb[rng.next_below(3)];
  }
  return spec;
}

ScenarioSpec generate_balance_scenario(std::uint64_t seed) {
  Rng rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;
  switch (rng.next_below(3)) {
    case 0: spec.mode = Mode::kEngineSingle; break;
    case 1: spec.mode = Mode::kEngineMulti; break;
    default: spec.mode = Mode::kEngineMulti2; break;
  }
  spec.buffering = 1 + static_cast<int>(rng.next_below(3));
  spec.num_spes = spec.mode == Mode::kEngineMulti2
                      ? 8
                      : 5 + static_cast<int>(rng.next_below(4));
  spec.use_naive = rng.next_below(100) < 10;
  // Mixed sizes stress the steal queue (a lane that drew a small image
  // finishes early and must steal); duplicated images stress the cache.
  int num_images = 2 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < num_images; ++i) {
    spec.images.push_back(pick_image(rng, /*allow_degenerate=*/false));
  }
  if (rng.next_below(100) < 40 && num_images >= 2) {
    // Duplicate one position onto an earlier one — the cache-hit path
    // must be bit-identical to the cold path the oracle models.
    const auto dst = 1 + rng.next_below(spec.images.size() - 1);
    const auto src = rng.next_below(dst);
    spec.images[dst] = spec.images[src];
  }
  spec.balanced = true;
  if (rng.next_below(100) < 60) {
    constexpr int kBudgetsKb[] = {2, 16, 64};
    spec.cache_kb = kBudgetsKb[rng.next_below(3)];
  }
  // cellguard rider: half the matrix steals around faults — the
  // quarantined-lane property is what this matrix exists for.
  if (rng.next_below(100) < 50) {
    spec.guarded = true;
    if (rng.next_below(100) < 60) {
      spec.sched_fault = static_cast<int>(rng.next_below(kNumSchedFaults));
      int pinned = spec.mode == Mode::kEngineMulti2 ? 8 : 5;
      spec.sched_spe = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(pinned)));
      spec.sched_at =
          static_cast<int>(rng.next_below(spec.images.size()));
    }
  }
  // Streamed balanced windows (cross-image stealing) and the other
  // riders compose the same way they do in the base matrix.
  if (rng.next_below(100) < 40) {
    spec.stream_batch = 1 + static_cast<int>(rng.next_below(4));
  }
  if (rng.next_below(100) < 25) {
    spec.sharded = true;
  }
  if (rng.next_below(100) < 25) {
    spec.feed = true;
  }
  if (rng.next_below(100) < 20) {
    spec.serve = true;
    spec.serve_tenants = 1 + static_cast<int>(rng.next_below(3));
    spec.serve_budget = 2 + static_cast<int>(rng.next_below(8));
    spec.serve_batch = 1 + static_cast<int>(rng.next_below(3));
    spec.serve_tight = rng.next_below(100) < 25;
  }
  spec.replay_twice = rng.next_below(4) == 0;
  return spec;
}

std::string spec_to_json(const ScenarioSpec& spec) {
  JsonWriter w;
  w.begin_object();
  // Seeds are full 64-bit values; JSON numbers only carry 53 bits of
  // integer precision through the parser, so they travel as strings.
  w.key("seed").value(std::to_string(spec.seed));
  w.key("mode").value(mode_name(spec.mode));
  w.key("num_spes").value(spec.num_spes);
  w.key("pool_workers").value(spec.pool_workers);
  w.key("buffering").value(spec.buffering);
  w.key("block_rows").value(spec.block_rows);
  w.key("use_naive").value(spec.use_naive);
  w.key("stream_batch").value(spec.stream_batch);
  w.key("kernel").value(spec.kernel);
  w.key("fault_kind").value(spec.fault_kind);
  w.key("replay_twice").value(spec.replay_twice);
  w.key("scaling_probe").value(spec.scaling_probe);
  w.key("sharded").value(spec.sharded);
  w.key("feed").value(spec.feed);
  w.key("fused").value(spec.fused);
  w.key("balanced").value(spec.balanced);
  w.key("cache_kb").value(spec.cache_kb);
  w.key("guarded").value(spec.guarded);
  w.key("sched_fault").value(spec.sched_fault);
  w.key("sched_spe").value(spec.sched_spe);
  w.key("sched_at").value(spec.sched_at);
  w.key("serve").value(spec.serve);
  w.key("serve_tenants").value(spec.serve_tenants);
  w.key("serve_budget").value(spec.serve_budget);
  w.key("serve_batch").value(spec.serve_batch);
  w.key("serve_tight").value(spec.serve_tight);
  w.key("images").begin_array();
  for (const ImageSpec& img : spec.images) {
    w.begin_object();
    w.key("kind").value(img.kind);
    w.key("seed").value(std::to_string(img.seed));
    w.key("width").value(img.width);
    w.key("height").value(img.height);
    w.key("quality").value(img.quality);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

namespace {

double require_number(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    throw cellport::ConfigError("scenario JSON: missing number '" + key +
                                "'");
  }
  return v->number;
}

std::uint64_t require_seed(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    throw cellport::ConfigError("scenario JSON: missing seed string '" +
                                key + "'");
  }
  try {
    return std::stoull(v->string);
  } catch (const std::exception&) {
    throw cellport::ConfigError("scenario JSON: bad seed '" + v->string +
                                "'");
  }
}

bool require_bool(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != JsonValue::Type::kBool) {
    throw cellport::ConfigError("scenario JSON: missing bool '" + key +
                                "'");
  }
  return v->boolean;
}

// The guard fields postdate the format; old repro files omit them, so
// they parse with defaults instead of being required.
int optional_number(const JsonValue& obj, const std::string& key,
                    int fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    throw cellport::ConfigError("scenario JSON: bad number '" + key + "'");
  }
  return static_cast<int>(v->number);
}

bool optional_bool(const JsonValue& obj, const std::string& key,
                   bool fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != JsonValue::Type::kBool) {
    throw cellport::ConfigError("scenario JSON: bad bool '" + key + "'");
  }
  return v->boolean;
}

}  // namespace

ScenarioSpec spec_from_json(const std::string& text) {
  JsonValue doc = json_parse(text);
  if (!doc.is_object()) {
    throw cellport::ConfigError("scenario JSON: not an object");
  }
  ScenarioSpec spec;
  spec.seed = require_seed(doc, "seed");
  const JsonValue* mode = doc.find("mode");
  if (mode == nullptr || !mode->is_string()) {
    throw cellport::ConfigError("scenario JSON: missing 'mode'");
  }
  spec.mode = mode_from_name(mode->string);
  spec.num_spes = static_cast<int>(require_number(doc, "num_spes"));
  spec.pool_workers = static_cast<int>(require_number(doc, "pool_workers"));
  spec.buffering = static_cast<int>(require_number(doc, "buffering"));
  spec.block_rows = static_cast<int>(require_number(doc, "block_rows"));
  spec.use_naive = require_bool(doc, "use_naive");
  spec.kernel = static_cast<int>(require_number(doc, "kernel"));
  spec.fault_kind = static_cast<int>(require_number(doc, "fault_kind"));
  spec.replay_twice = require_bool(doc, "replay_twice");
  spec.scaling_probe = require_bool(doc, "scaling_probe");
  spec.stream_batch = optional_number(doc, "stream_batch", 0);
  spec.sharded = optional_bool(doc, "sharded", false);
  spec.feed = optional_bool(doc, "feed", false);
  spec.fused = optional_bool(doc, "fused", false);
  spec.balanced = optional_bool(doc, "balanced", false);
  spec.cache_kb = optional_number(doc, "cache_kb", 0);
  spec.guarded = optional_bool(doc, "guarded", false);
  spec.sched_fault = optional_number(doc, "sched_fault", -1);
  spec.sched_spe = optional_number(doc, "sched_spe", 0);
  spec.sched_at = optional_number(doc, "sched_at", 0);
  spec.serve = optional_bool(doc, "serve", false);
  spec.serve_tenants = optional_number(doc, "serve_tenants", 1);
  spec.serve_budget = optional_number(doc, "serve_budget", 8);
  spec.serve_batch = optional_number(doc, "serve_batch", 2);
  spec.serve_tight = optional_bool(doc, "serve_tight", false);
  const JsonValue* images = doc.find("images");
  if (images == nullptr || !images->is_array()) {
    throw cellport::ConfigError("scenario JSON: missing 'images'");
  }
  spec.images.clear();
  for (const JsonValue& entry : images->array) {
    ImageSpec img;
    img.kind = static_cast<int>(require_number(entry, "kind"));
    img.seed = require_seed(entry, "seed");
    img.width = static_cast<int>(require_number(entry, "width"));
    img.height = static_cast<int>(require_number(entry, "height"));
    img.quality = static_cast<int>(require_number(entry, "quality"));
    spec.images.push_back(img);
  }
  if (spec.images.empty()) {
    throw cellport::ConfigError("scenario JSON: empty image list");
  }
  return spec;
}

}  // namespace cellport::check
