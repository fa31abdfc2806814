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

/// Whether a rider reached by the draw fires: true on `percent` of draws.
bool chance(Rng& rng, std::uint64_t percent) {
  return rng.next_below(100) < percent;
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

// Every rider is an independent draw over what the earlier draws left
// legal, so coverage is tuned by the rider probabilities alone.
ScenarioSpec generate_scenario(std::uint64_t seed) {
  Rng rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;

  // Engine modes carry every rider below, so they take 68 of 80 draws.
  std::uint64_t roll = rng.next_below(80);
  if (roll < 7) {
    spec.mode = Mode::kKernelDirect;
  } else if (roll < 12) {
    spec.mode = Mode::kTaskPool;
  } else if (roll < 35) {
    spec.mode = Mode::kEngineSingle;
  } else if (roll < 58) {
    spec.mode = Mode::kEngineMulti;
  } else {
    spec.mode = Mode::kEngineMulti2;
  }
  const bool engine = spec.mode != Mode::kKernelDirect &&
                      spec.mode != Mode::kTaskPool;

  spec.buffering = 1 + static_cast<int>(rng.next_below(3));
  spec.block_rows = pick_block_rows(rng);

  // Machine shape, constrained by what each mode can place: the static
  // engine pins CH/CC/TX/EH/CD on SPEs 0-4 and kMultiSPE2 replicates
  // detection on 5-7.
  switch (spec.mode) {
    case Mode::kKernelDirect:
      spec.num_spes = 1 + static_cast<int>(rng.next_below(8));
      spec.kernel = static_cast<int>(rng.next_below(4));
      spec.use_naive = spec.kernel != kKernelTx && chance(rng, 25);
      break;
    case Mode::kEngineSingle:
    case Mode::kEngineMulti:
      spec.num_spes = 5 + static_cast<int>(rng.next_below(4));
      spec.use_naive = chance(rng, 15);
      break;
    case Mode::kEngineMulti2:
      spec.num_spes = 8;
      spec.use_naive = chance(rng, 15);
      break;
    case Mode::kTaskPool:
      spec.num_spes = 1 + static_cast<int>(rng.next_below(8));
      spec.pool_workers = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(spec.num_spes)));
      break;
  }

  // Image corpus. Degenerate geometry is only reachable where every
  // kernel that will see the image accepts it: the texture extractor
  // (and hence every engine/TaskPool run) needs both dims >= 16. The dup
  // rider copies one image onto a later position, so the cache-hit path
  // must be bit-identical to the cold path the oracle models.
  bool degenerate_ok =
      spec.mode == Mode::kKernelDirect && spec.kernel != kKernelTx;
  int num_images = 1 + static_cast<int>(rng.next_below(
                           spec.mode == Mode::kKernelDirect ? 3 : 4));
  for (int i = 0; i < num_images; ++i) {
    spec.images.push_back(pick_image(rng, degenerate_ok));
  }
  if (num_images >= 2 && chance(rng, 25)) {
    const auto dst = 1 + rng.next_below(spec.images.size() - 1);
    const auto src = rng.next_below(dst);
    spec.images[dst] = spec.images[src];
  }

  // The spare-SPE fault probe needs an SPE beyond what the workload pins:
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
  if (fault_ok && chance(rng, 10)) {
    spec.fault_kind = static_cast<int>(rng.next_below(kNumFaultKinds));
  }
  const bool probed = spec.fault_kind >= 0;

  // Strategy: how extraction is split. The shard plan packs every SPE,
  // leaving none for the spare-SPE probe; fused and balanced lanes ride
  // the interfaces the scenario already scheduled.
  spec.sharded = engine && !probed && chance(rng, 35);
  spec.fused = engine && chance(rng, 30);
  spec.balanced = engine && chance(rng, 55);

  // Dispatch: per-call analyze(), a streamed window (larger than the
  // corpus exercises the short final window), or the broker — exactly
  // one. The broker has no spare-SPE probe, so a probed scenario that
  // draws it streams instead.
  if (engine) {
    std::uint64_t dispatch = rng.next_below(100);
    if (dispatch < 40 && !probed) {
      spec.serve = true;
      spec.serve_tenants = 1 + static_cast<int>(rng.next_below(3));
      // Budgets from "everything queues" down to "most of the burst
      // sheds", so the degrade ladder and the shed path both see coverage.
      spec.serve_budget = 2 + static_cast<int>(rng.next_below(8));
      spec.serve_batch = 1 + static_cast<int>(rng.next_below(3));
      spec.serve_tight = chance(rng, 30);
    } else if (dispatch < 70) {
      spec.stream_batch = 1 + static_cast<int>(rng.next_below(4));
    }
  }

  // cellguard, usually with a scheduled fault on a pinned SPE. Not
  // alongside the spare-SPE probe, which wants the spare SPEs the guard
  // uses as retry targets.
  if (engine && !probed && chance(rng, 75)) {
    spec.guarded = true;
    if (chance(rng, 75)) {
      spec.sched_fault = static_cast<int>(rng.next_below(kNumSchedFaults));
      int pinned = spec.mode == Mode::kEngineMulti2 ? 8 : 5;
      spec.sched_spe = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(pinned)));
      spec.sched_at = static_cast<int>(rng.next_below(spec.images.size()));
    }
  }

  spec.feed = engine && chance(rng, 35);
  if (engine && chance(rng, 40)) {
    constexpr int kBudgetsKb[] = {2, 16, 64};
    spec.cache_kb = kBudgetsKb[rng.next_below(3)];
  }
  spec.replay_twice = chance(rng, 20);

  // The scaling probe compares the unsharded per-call schedules on
  // unguarded machines of its own, so it needs a plain engine run and a
  // frame big enough for kernel time to dwarf protocol costs.
  if (engine && !probed && !spec.sharded && !spec.serve && !spec.guarded &&
      chance(rng, 40)) {
    spec.scaling_probe = true;
    spec.images[0].width = 176;
    spec.images[0].height = 120;
  }
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
  // run_serve has no streamed window, spare-SPE probe or scaling check,
  // so a serve spec asking for one would pass without it ever running.
  if (spec.serve && (spec.stream_batch > 0 || spec.fault_kind != -1 ||
                     spec.scaling_probe)) {
    throw cellport::ConfigError(
        "scenario JSON: 'serve' runs no stream_batch, fault_kind or "
        "scaling_probe");
  }
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
