// Scenario model for cellcheck: a fully-specified randomized test case
// derived deterministically from one 64-bit seed.
//
// A scenario fixes everything a run needs — machine shape, image corpus,
// execution mode (static engine scheduling vs TaskPool dynamic
// scheduling vs a single kernel driven directly), buffering knobs, an
// optional fault injection — so that (a) equal seeds always produce
// byte-identical runs and (b) a failing case can be serialized, shrunk,
// and replayed (`cellcheck --replay`). Generation is constraint-aware:
// it only produces configurations the engine accepts (e.g. the static
// engine's pinned layout needs 5 SPEs, kMultiSPE2 needs all 8, the
// texture kernel needs both image dimensions >= 16).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cellport::check {

/// Execution modes a scenario can exercise.
enum class Mode {
  kKernelDirect,   // one kernel via SPEInterface vs features::extract_*
  kEngineSingle,   // CellEngine kSingleSPE vs ReferenceEngine
  kEngineMulti,    // CellEngine kMultiSPE vs ReferenceEngine
  kEngineMulti2,   // CellEngine kMultiSPE2 vs ReferenceEngine
  kTaskPool,       // the MARVEL task graph on the dynamic scheduler
};

const char* mode_name(Mode m);
Mode mode_from_name(const std::string& name);

/// One synthetic input image. `kind` indexes img::SceneKind; `quality`
/// is the SIC codec quality (engine/TaskPool modes; kernel-direct feeds
/// raw pixels and ignores it).
struct ImageSpec {
  int kind = 0;
  std::uint64_t seed = 0;
  int width = 64;
  int height = 48;
  int quality = 85;

  bool operator==(const ImageSpec&) const = default;
};

/// Kernel index for kKernelDirect scenarios.
inline constexpr int kKernelCh = 0;
inline constexpr int kKernelCc = 1;
inline constexpr int kKernelEh = 2;
inline constexpr int kKernelTx = 3;

/// Scheduled runtime-fault kinds for guarded scenarios (sched_fault).
/// Unlike check::kFault* (hardware-rule violations probed on a spare
/// SPE), these hit an SPE the workload actually uses, and the cellguard
/// runtime must recover: retry, restart, quarantine, or PPE fallback.
inline constexpr int kSchedHangTransient = 0;   // one completion never lands
inline constexpr int kSchedHangPersistent = 1;  // SPE never answers again
inline constexpr int kSchedSlow = 2;            // one DMA wait stalls huge
inline constexpr int kSchedDmaError = 3;        // one DMA command faults
inline constexpr int kNumSchedFaults = 4;

const char* sched_fault_name(int kind);

struct ScenarioSpec {
  std::uint64_t seed = 0;
  Mode mode = Mode::kKernelDirect;
  int num_spes = 8;        // machine shape (1..8)
  int pool_workers = 1;    // kTaskPool only
  int buffering = 2;       // DMA buffering depth 1..3
  int block_rows = 0;      // rows per DMA block (0 = kernel default)
  bool use_naive = false;  // pre-optimization kernel variants
  int kernel = -1;         // kKernelDirect: kKernelCh..kKernelTx
  int fault_kind = -1;     // -1 none, else check::kFault* on a spare SPE
  /// Engine modes: run behind the cellguard runtime (GuardedInterface +
  /// PPE fallback). The guarded property: the run either matches the
  /// oracle or reports exactly which kernels degraded — never crashes,
  /// hangs, or goes silently wrong.
  bool guarded = false;
  int sched_fault = -1;  // -1 none, else kSched* on a pinned SPE
  int sched_spe = 0;     // which SPE the scheduled fault lands on
  int sched_at = 0;      // fire on the Nth completion / DMA op
  /// Engine modes: drive the corpus through CellEngine::analyze_stream
  /// (the cellstream command rings) with this window size instead of
  /// per-call analyze(). 0 = off. The streamed property: results are
  /// bit-exact with the reference oracle, same as every other engine run.
  int stream_batch = 0;
  /// Engine modes: swap the mode's static schedule for the cellshard
  /// kSharded plan over the same machine (the plan itself is derived
  /// deterministically from num_spes by shard::plan_shards, so it needs
  /// no separate serialization). The sharded property: results stay
  /// bit-exact with the reference oracle — including under scheduled
  /// faults, where a faulted shard retries or falls back alone and the
  /// reduction still reproduces the unsharded output.
  bool sharded = false;
  /// Engine modes: carry the corpus as P6 PPM streams (img::ppm_encode)
  /// and ingest them through the cellfeed SPE kernels — DMA-list gather
  /// of packed pixel rows, triple-buffered LS unpack, DMA-list scatter —
  /// instead of the PPE byte loop. The feed property: results stay
  /// bit-exact with the reference oracle (which decodes the same carrier
  /// bytes on the PPE), including under scheduled faults, where a failed
  /// feed lane retries behind the guard or degrades to a PPE row-range
  /// fallback reported as "feed:ingest".
  bool feed = false;
  /// Engine modes: replace the per-feature extraction schedule with the
  /// cellfuse single-pass fused lanes (CellEngine::set_fused) — one
  /// SPU_Run_Fused invocation per lane emits all four raw-partial
  /// layouts, reduced on the PPE with the cellshard merges. The fused
  /// property: results stay bit-exact with the reference oracle,
  /// including under scheduled faults, where an exhausted lane degrades
  /// to the PPE fallback partials reported as "fuse:<feature>" (all four
  /// features of that lane). Engine corpora never go below the 16x16
  /// wavelet floor the texture — and so every fused lane — needs.
  bool fused = false;
  /// Engine modes: swap the fused lanes' static row split for the
  /// cellbalance steal-driven task queue (CellEngine::set_balanced) —
  /// tile-aligned descriptors pulled by whichever lane finishes first.
  /// The balanced property: results stay bit-exact with the reference
  /// oracle whatever the steal order, including under scheduled faults
  /// (a quarantined lane's tasks migrate to live lanes; an exhausted
  /// task degrades to the PPE fallback like a fused lane would).
  /// Balanced dispatch rides the fused kernel.
  bool balanced = false;
  /// Engine modes: arm the engine's content-addressed feature cache
  /// with this byte budget in KiB (CellEngine::set_cache; 0 = off). The
  /// cache property: a hit is bit-identical to the cold run the oracle
  /// models, so repeated corpus images change nothing the differential
  /// check can see.
  int cache_kb = 0;
  /// Engine modes: drive the corpus through the cellserve ServeBroker
  /// (one request per image, tenants/priorities derived from the seed)
  /// instead of per-call analyze(). The serve properties: every admitted
  /// request terminates in exactly one of {ok, degraded, shed,
  /// deadline_missed} with matching serve.* accounting; no tenant
  /// starves (with far deadlines, every admitted-and-not-shed request is
  /// served); and every served result is the bit-exact prefix of the
  /// reference oracle at its degrade level — including under scheduled
  /// guard faults, whose recovery stays scoped to the owning request.
  bool serve = false;
  int serve_tenants = 1;  // 1..3 tenants sharing the broker
  int serve_budget = 8;   // ServeConfig::global_budget
  int serve_batch = 2;    // ServeConfig::batch (cycle_windows stays 1)
  /// Tight per-request deadlines (2 ms): deadline misses are expected
  /// and the property set drops no-starvation, keeping accounting and
  /// result-prefix checks.
  bool serve_tight = false;
  /// Re-run the whole scenario and require byte-identical results and
  /// traces (every mode: TaskPool retires completions in simulated-time
  /// order, so its traces do not depend on host scheduling either).
  bool replay_twice = false;
  /// Engine modes: additionally measure per-image time under kSingleSPE
  /// vs kMultiSPE (vs kMultiSPE2) and require the parallel group never
  /// to be slower.
  bool scaling_probe = false;
  std::vector<ImageSpec> images;
};

/// Derives the full scenario for `seed`: the mode, the machine shape,
/// the corpus, then independent riders over the executor's knobs
/// (strategy, dispatch, guard and scheduled fault, feed, cache, replay,
/// scaling probe). Pure function of the seed.
ScenarioSpec generate_scenario(std::uint64_t seed);

/// Serializes a spec as a JSON object (deterministic byte output).
std::string spec_to_json(const ScenarioSpec& spec);

/// Parses spec_to_json output back; throws cellport::Error on bad input.
ScenarioSpec spec_from_json(const std::string& text);

}  // namespace cellport::check
