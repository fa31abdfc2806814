// The Cell-ported MARVEL analysis engine.
//
// The PPE runs the original application flow (preprocessing, control,
// data wrapping); the five kernels run on SPEs behind SPEInterface stubs,
// statically scheduled one kernel per SPE (Section 3.3). The three
// execution scenarios of Section 5.5 are supported:
//
//   kSingleSPE  — all kernels invoked sequentially (Figure 4b). Uses one
//                 resident SPE per kernel to avoid dynamic code
//                 switching, exactly as the paper describes scenario 1.
//   kMultiSPE   — the four feature extractions run in parallel on four
//                 SPEs; concept detection runs serialized on a fifth.
//   kMultiSPE2  — detection replicated on four more SPEs; each
//                 extraction is followed immediately by its detection.
//   kSharded    — cellshard: every kernel is data-parallel across shards
//                 of ONE image (row slices / Haar tiles / model blocks),
//                 spread over all SPEs by shard::plan_shards; the PPE
//                 reduces raw partials into bit-exact results. Optimizes
//                 per-image latency where kMultiSPE optimizes occupancy.
#pragma once

#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "balance/content_cache.h"
#include "balance/steal.h"
#include "guard/guarded_interface.h"
#include "guard/policy.h"
#include "img/codec.h"
#include "kernels/messages.h"
#include "port/message.h"
#include "learn/model_store.h"
#include "marvel/lane.h"
#include "marvel/plan.h"
#include "marvel/reference_engine.h"
#include "marvel/result.h"
#include "port/profiler.h"
#include "port/spe_interface.h"
#include "probe/request_trace.h"
#include "shard/partials.h"
#include "shard/plan.h"
#include "sim/machine.h"
#include "support/aligned.h"

namespace cellport::marvel {

enum class Scenario { kSingleSPE, kMultiSPE, kMultiSPE2, kSharded };

class StreamEngine;

/// cellstream: knobs for analyze_stream().
struct StreamOptions {
  /// Images admitted per ring doorbell (the streaming window size).
  /// 1..128; 1 degenerates to one-request batches (the overhead-parity
  /// baseline).
  int batch = 8;
  /// Retire each window before doorbelling the next even when the engine
  /// could keep two in flight (unguarded parallel scenarios). Guarded
  /// engines always run this way; forcing it on an unguarded engine
  /// yields the schedule a guarded run charges, for apples-to-apples
  /// comparisons.
  bool sequential = false;
  /// cellserve degrade ladder: score at most this many concept models
  /// per feature (0 = all of them). The detect kernels run shorter
  /// batches and each DetectionScores carries only the evaluated prefix
  /// of the model set — bit-exact with the full run's prefix. 0 leaves
  /// every legacy path and its simulated time untouched.
  int max_models = 0;
};

/// cellstream: what a streaming run measured (all simulated time).
struct StreamStats {
  std::size_t images = 0;
  sim::SimTime elapsed_ns = 0;
  double images_per_sec = 0.0;
  std::size_t doorbells = 0;        // ring doorbells the PPE rang
  std::size_t request_retries = 0;  // guarded per-request re-runs
  std::size_t batch_timeouts = 0;   // whole-batch deadline misses
  std::size_t fallbacks = 0;        // PPE fallbacks (guarded)
  std::size_t cancelled = 0;        // submitted but unserviced at close()
};

/// Extra PPE-side phase names (multi-SPE scenarios overlap the kernels,
/// so only aggregate phases are meaningful there).
inline constexpr const char* kPhaseExtractPar = "Extract(parallel)";
inline constexpr const char* kPhaseDetect = "Detect";
/// cellshard: the PPE-side partial merge of a kSharded image (shows as
/// its own span on the timeline).
inline constexpr const char* kPhaseShardReduce = "ShardReduce";
inline constexpr const char* kPhaseStream = "Stream(ring)";

class CellEngine {
 public:
  /// Loads the model library on the PPE (one-time overhead) and opens
  /// one Lane per scheduled SPE role. `use_naive` selects the
  /// pre-optimization kernel versions where they exist (CH/CC/EH;
  /// Section 5.3). `guard.enabled` picks the kind of lane: guarded lanes
  /// run every SPE call behind a cellguard GuardedInterface
  /// (deadline/retry/quarantine), and a call whose retries are exhausted
  /// falls back to the PPE scalar path, recorded in
  /// AnalysisResult::degraded; plain lanes (the default) throw the
  /// kernel's fault. Every schedule runs the same call sites over either
  /// kind, so a fault-free guarded run charges exactly what a plain one
  /// does.
  CellEngine(sim::Machine& machine, const std::string& library_path,
             Scenario scenario,
             kernels::BufferingDepth buffering = kernels::kDoubleBuffer,
             bool use_naive = false, guard::GuardPolicy guard = {});

  AnalysisResult analyze(const img::SicEncoded& image);

  /// cellstream: streaming throughput mode. Admits the whole queue of
  /// encoded images and drives every scheduled SPE through its command
  /// ring in windows of `opts.batch` requests — one doorbell per window
  /// per ring instead of one mailbox write per call, with the PPE
  /// decoding window w+1 while the SPEs extract window w (parallel
  /// scenarios; Figure 4c's PPE/SPE overlap, per image at batch 1).
  /// Results are bit-exact with per-call analyze(). Guard deadlines apply
  /// per-request (a faulted request is re-run alone; the window's
  /// deadline is count * per-call deadline). `stats`, when non-null,
  /// receives the measured simulated images/sec.
  std::vector<AnalysisResult> analyze_stream(
      const std::vector<img::SicEncoded>& images,
      const StreamOptions& opts = {}, StreamStats* stats = nullptr);

  sim::Machine& machine() { return machine_; }
  port::Profiler& profiler() { return profiler_; }
  sim::SimTime startup_ns() const { return startup_ns_; }
  Scenario scenario() const { return scenario_; }
  const learn::MarvelModels& models() const { return models_; }
  bool guarded() const { return health_ != nullptr; }
  /// The health board behind a guarded engine; null when unguarded.
  /// The mutable overload lets an operator (or a test) mark SPEs out
  /// of service directly — cellserve reads the quarantine count to
  /// shrink its admission budget.
  const guard::SpeHealth* health() const { return health_.get(); }
  guard::SpeHealth* health() { return health_.get(); }
  /// cellshard: the shard plan a kSharded engine executes (defaulted
  /// {1,1,1,1}+1 otherwise).
  const shard::ShardPlan& shard_plan() const { return shard_plan_; }
  /// cellexec: the plan of the last analyze() call.
  const ImagePlan& plan() const { return plan_; }

  /// cellprobe: installs a per-request attribution sink. Every
  /// analyze() call (and every analyze_stream() run as one request)
  /// delivers its finished RequestTrace to the sink. Probing only reads
  /// simulated clocks — results and simulated time are bit-exact with
  /// an unprobed run. Null detaches.
  void set_probe(probe::ProbeSink* sink) { probe_ = sink; }
  probe::ProbeSink* probe() const { return probe_; }

  /// cellfeed: with the knob on, PPM-carrier images (img::ppm_encode)
  /// are ingested by the SPE feed kernels — the PPE parses only the
  /// header, and the packed pixel rows stream main memory -> LS -> image
  /// planes through DMA lists. The rows are the plan's ingest stage: one
  /// kFeed task per detection lane's row range (the lanes idle during
  /// every schedule's decode phase, including the streaming decode-ahead
  /// overlap), sent and settled call by call on both dispatch paths.
  /// SIC2 carriers, carriers without the encoder's alignment slack, and
  /// rows too wide for one list element keep the legacy PPE decode. A
  /// failed feed lane's rows are copied on the PPE instead (its task's
  /// fallback, plain lanes included); a guarded lane also records it as
  /// degraded "feed:ingest". Off (the default) decodes every carrier on
  /// the PPE.
  void set_feed(bool on) { feed_ = on; }
  bool feed() const { return feed_; }

  /// cellfuse: with the knob on, the four feature extractions of every
  /// image run as ONE single-pass fused kernel (SPU_Run_Fused) per lane —
  /// one pixel fetch, one HSV quantization, one gray conversion — each
  /// lane emitting all four raw-partial layouts for its tile-aligned row
  /// range (shard::split_fused), merged on the PPE by the cellshard
  /// reducers. Results are bit-exact with the per-feature kernels. Lanes
  /// ride the SPEs the scenario already scheduled for extraction
  /// (kSingleSPE: one lane; kMultiSPE/kMultiSPE2: the four extract SPEs;
  /// kSharded: the extract-shard SPEs, capped at shard::plan_fused's lane
  /// count). A guarded lane that gives up has its range recomputed on
  /// the PPE by the fused kernel's own range pass — per-feature partials
  /// for just that slice — recorded as degraded "fuse:<feature>". Off
  /// (the default) runs the per-feature kernels.
  void set_fused(bool on) { fused_ = on; }
  bool fused() const { return fused_; }
  /// The fused lane/detect split a kSharded engine consults (defaulted
  /// 1+1 otherwise).
  const shard::FusedPlan& fused_plan() const { return fused_plan_; }
  /// How many SPEs run fused lanes when set_fused(true): SPEs
  /// [0, fused_lanes()) in an unguarded engine.
  std::size_t fused_lanes() const { return fused_lanes_; }

  /// cellbalance: with the knob on, the fused single-pass extraction is
  /// driven by a work-stealing dispatcher instead of one static range
  /// per lane. The image splits into MORE, smaller tile-aligned tasks
  /// (balance::split_tasks), every fused lane is armed with one, and
  /// each lane steals the next descriptor the moment its current task
  /// completes — chosen by a non-consuming peek of every in-flight
  /// completion timestamp, so a slow or quarantined SPE never gates the
  /// batch. Reduction stays in fixed task order through the cellshard
  /// reducers, so balanced results are bit-identical to the static
  /// fused plan (and to the per-feature kernels). Implies the fused
  /// kernel (no set_fused needed); off (the default) leaves every
  /// legacy path and its simulated time untouched.
  void set_balanced(bool on);
  bool balanced() const { return balanced_; }

  /// cellbalance: content-addressed feature cache. A non-zero byte
  /// budget caches each undegraded AnalysisResult under the
  /// balance::content_digest of the ENCODED image bytes;
  /// repeated/duplicated uploads in analyze(), analyze_stream() and the
  /// cellserve broker are served from the cache (digest + copy-out
  /// only), bit-identical to the cold path. Eviction is strict LRU
  /// under the budget (cache.{hits,misses,evictions,bytes,entries}
  /// metrics). Degraded results are never cached (guard accounting
  /// stays exact) and concept-clamped serve levels bypass the cache
  /// (their results are a prefix, not the full value). A budget of 0
  /// (the default) disables caching and leaves every legacy path and
  /// its simulated time untouched.
  void set_cache(std::size_t byte_budget);
  /// Non-null after set_cache() with a non-zero budget.
  const balance::ContentCache<AnalysisResult>* cache() const {
    return cache_.get();
  }

 private:
  friend class StreamEngine;

  /// Engine-wide state of one feature: its kernel phase, the model set
  /// and its descriptors (shared read-only by every plan), and the PPE
  /// reference extractor a fallback runs.
  struct FeatureSlot {
    const char* phase = nullptr;
    const char* name = nullptr;
    int dim = 0;
    const learn::ConceptModelSet* set = nullptr;
    cellport::AlignedBuffer<kernels::DetectModelDesc> descs;
    features::FeatureVector (*ref_extract)(const img::RgbImage&,
                                           sim::ScalarContext*) = nullptr;
    /// The slot's extraction lanes in lanes_: [first_lane, +lanes) — its
    /// one SPE, or (kSharded) one per shard.
    int first_lane = 0;
    int lanes = 0;
  };

  /// Bumps the images-analyzed counter and drops a timeline marker.
  void note_image_done();
  /// The opcode of slot `slot`'s per-feature kernel (naive when asked
  /// for and available).
  int extract_opcode(const FeatureSlot& slot) const;

  /// Guards a schedule's buffers: when an exception (a plain lane's
  /// fault) unwinds through its scope, every lane's in-flight work is
  /// waited out before the buffers declared ahead of it are freed.
  class QuiesceOnUnwind {
   public:
    explicit QuiesceOnUnwind(CellEngine& engine)
        : engine_(engine), unwinding_(std::uncaught_exceptions()) {}
    ~QuiesceOnUnwind() {
      if (std::uncaught_exceptions() > unwinding_) engine_.quiesce();
    }
    QuiesceOnUnwind(const QuiesceOnUnwind&) = delete;
    QuiesceOnUnwind& operator=(const QuiesceOnUnwind&) = delete;

   private:
    CellEngine& engine_;
    int unwinding_;
  };
  void quiesce() noexcept;

  // ---- cellexec: the plan builder (plan.cpp) ----
  /// Sizes a plan's per-slot buffers and messages and builds its
  /// detection stage (fixed per engine: it depends only on the model
  /// sets, clamped to `max_models` when non-zero, and the scenario).
  void init_plan(ImagePlan& p, int max_models);
  /// Decode-or-feed front end: restarts `p.degraded` and either decodes
  /// `image` into `p.pixels` on the PPE, or (feed on, eligible PPM
  /// carrier) parses its header, sizes `p.pixels` and builds the ingest
  /// stage. With feed off (or an ineligible carrier) it charges exactly
  /// what the legacy decode path charged.
  void build_ingest(const img::SicEncoded& image, ImagePlan& p);
  /// Fills the slot messages for `p.pixels` and builds the extraction
  /// stage of the engine's strategy. Throws ConfigError for a fused or
  /// balanced image below 16x16, exactly like the TX kernel (a fused
  /// lane always computes the wavelet texture).
  void build_plan(ImagePlan& p);
  /// Adds slot `s`'s range tasks over `rows` (empty ranges skipped),
  /// range k bound to lane first_lane + k, a kFused range to first_lane +
  /// (k + p.queue_pos) mod rows.size() (or unbound when `stolen`).
  void plan_ranges(ImagePlan& p, int s, std::vector<shard::Range> rows,
                   TaskKind kind, int first_lane, bool stolen);

  // ---- cellexec: the per-call executor and the steps both share ----
  /// Sends `t` on its lane; range calls time their span from `wave_ns`.
  void send(Task& t, sim::SimTime wave_ns);
  /// Settles `t`'s call on `lane` (a guard retry recorded as a
  /// kGuardRetry span), records its SPE span and runs its fallback on a
  /// failed verdict. A plain lane's fault throws, except a feed lane's,
  /// whose rows fall to the PPE after its span closes. `image` is its
  /// stream window position (-1 per call); it only names stolen tasks.
  Lane::Result finish(ImagePlan& p, Task& t, Lane& lane, int image);
  /// Runs the ingest stage under one feed_dma span: sends every feed
  /// task, then settles each.
  void run_ingest(ImagePlan& p);
  /// Per-call extraction: send every task, settle each (kMultiSPE2
  /// per-feature sends slot s's detection as soon as its extraction
  /// settles, when `overlap_detect`), or the steal loop.
  void extract(ImagePlan& p, bool overlap_detect);
  /// Per-call detection in waves of distinct lanes; `sent` when
  /// extract() already sent the tasks.
  void detect(ImagePlan& p, bool sent);
  /// Merges the extraction partials into the slots' feature vectors.
  void reduce(ImagePlan& p);
  /// Concatenates slot `s`'s model-block scores into its score array.
  void concat_blocks(ImagePlan& p, int s);
  /// Gathers the slots into a result carrying the image's degradation.
  AnalysisResult collect(ImagePlan& p);
  /// The task's span and retry tag.
  std::string task_tag(const Task& t, int image) const;
  /// The PPE path for a task whose guarded lane gave up (or, for a feed
  /// task, whose plain lane faulted), recorded as degraded when the lane
  /// is guarded.
  void fallback(ImagePlan& p, const Task& t, int image);
  /// Records `what` ("stage:feature") as a PPE fallback of `p`.
  void note_degraded(std::string what, ImagePlan& p);
  /// cellbalance: arms every fused lane with one pool task, then steals:
  /// peeks every in-flight completion, settles the earliest lane and
  /// hands it the next task until the pool drains. Returns the guard
  /// retries it absorbed.
  void steal_arm(StealPool& pool);
  std::size_t steal_drain(StealPool& pool);
  void steal_issue(StealPool& pool, std::size_t k);

  // ---- cellbalance cache (no-ops unless set_cache(>0)) ----
  bool cache_on() const { return cache_ != nullptr && cache_->enabled(); }
  /// Lookup front end shared by every cached path: digests `image`
  /// (balance::content_digest over the encoded carrier bytes; the PPE
  /// is charged one IntAlu per byte for the modelled pass),
  /// probes the cache under a kCache span and bumps the hit/miss
  /// counters. On a hit, copies the value into `*out` (charged like
  /// collect()) and returns true; on a miss, stores the digest in
  /// `*key` for the post-analysis insert and returns false.
  bool cache_try_serve(const img::SicEncoded& image, AnalysisResult* out,
                       std::uint64_t* key);
  /// Inserts an undegraded cold result under its digest, charging the
  /// write-back and refreshing the cache gauges/eviction counter.
  void cache_store(std::uint64_t key, const AnalysisResult& result);

  // ---- cellprobe ----
  /// The live request trace, or null when no sink is installed (every
  /// RequestTrace/ProbeSpan call site stays unconditional).
  probe::RequestTrace* prt() {
    return probe_ != nullptr ? &rt_ : nullptr;
  }
  /// Closes the request trace and delivers it to the sink.
  void finish_request();

  sim::Machine& machine_;
  Scenario scenario_;
  kernels::BufferingDepth buffering_;
  bool use_naive_;
  port::Profiler profiler_;
  learn::MarvelModels models_;
  sim::SimTime startup_ns_ = 0;
  // Cached at construction so the per-image path does no registry lookup.
  trace::Counter* images_counter_ = nullptr;

  /// One Lane per scheduled SPE role: the slots' extraction lanes
  /// slot-major, then the detection lanes (the shared CD SPE, one per
  /// slot under kMultiSPE2, or the kSharded model blocks; feed rows ride
  /// them too). The fused lanes are the first fused_lanes_ of them.
  std::vector<Lane> lanes_;
  int detect_begin_ = 0;
  std::size_t fused_lanes_ = 0;
  Lane& detect_lane(std::size_t j) { return lanes_[detect_begin_ + j]; }
  std::size_t detect_lanes() const { return lanes_.size() - detect_begin_; }

  // cellguard state (null when the policy is disabled).
  guard::GuardPolicy guard_;
  std::unique_ptr<guard::SpeHealth> health_;
  trace::Counter* fallback_counter_ = nullptr;

  // cellfeed state.
  bool feed_ = false;
  trace::Counter* feed_images_counter_ = nullptr;
  trace::Counter* feed_rows_counter_ = nullptr;
  trace::Counter* feed_fallback_counter_ = nullptr;

  // cellbalance state.
  bool balanced_ = false;
  std::unique_ptr<balance::ContentCache<AnalysisResult>> cache_;
  trace::Counter* steal_tasks_counter_ = nullptr;
  trace::Counter* steal_arms_counter_ = nullptr;
  trace::Counter* steal_steals_counter_ = nullptr;
  trace::Counter* cache_hits_counter_ = nullptr;
  trace::Counter* cache_miss_counter_ = nullptr;
  trace::Counter* cache_evict_counter_ = nullptr;
  std::uint64_t cache_evictions_seen_ = 0;

  // cellfuse state.
  bool fused_ = false;
  shard::FusedPlan fused_plan_;
  trace::Counter* fuse_images_counter_ = nullptr;

  // cellshard state (kSharded only).
  shard::ShardPlan shard_plan_;
  trace::Counter* shard_reduce_counter_ = nullptr;

  // cellprobe state: the sink (null = probing off) and the request
  // trace reused across requests.
  probe::ProbeSink* probe_ = nullptr;
  probe::RequestTrace rt_;

  FeatureSlot slots_[4];
  /// The per-call plan, reused across analyze() calls.
  ImagePlan plan_;
};

}  // namespace cellport::marvel
