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
#include "img/ppm.h"
#include "kernels/messages.h"
#include "port/message.h"
#include "learn/model_store.h"
#include "marvel/lane.h"
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
inline constexpr const char* kPhasePipelined = "Pipelined(batch)";
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

  /// Batch mode with PPE/SPE overlap (Figure 4c's full form): while the
  /// SPEs extract image i, the PPE decodes image i+1, hiding most of the
  /// preprocessing behind kernel time. Requires kMultiSPE or kMultiSPE2
  /// (the per-image kernel schedule is unchanged); results are identical
  /// to per-image analyze() calls.
  std::vector<AnalysisResult> analyze_batch_pipelined(
      const std::vector<img::SicEncoded>& images);

  /// cellstream: streaming throughput mode. Admits the whole queue of
  /// encoded images and drives every scheduled SPE through its command
  /// ring in windows of `opts.batch` requests — one doorbell per window
  /// per ring instead of one mailbox write per call, with the PPE
  /// decoding ahead while the SPEs extract (parallel scenarios). Results
  /// are bit-exact with per-call analyze(). Guard deadlines apply
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
  const shard::ShardPlan& shard_plan() const { return plan_; }

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
  /// planes through DMA lists riding the scenario's detect-side SPEs
  /// (the ones idle during every schedule's decode phase, including the
  /// pipelined/streaming decode-ahead overlap). SIC2 carriers, carriers
  /// without the encoder's alignment slack, and rows too wide for one
  /// list element keep the legacy PPE decode. A failed feed lane's rows
  /// are unpacked on the PPE instead; a guarded lane also records it as
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
  /// the PPE via the shard mirrors — per-feature partials for just that
  /// slice — recorded as degraded "fuse:<feature>". Off (the default)
  /// runs the per-feature kernels.
  void set_fused(bool on) { fused_ = on; }
  bool fused() const { return fused_; }
  /// The fused lane/detect split a kSharded engine consults (defaulted
  /// 1+1 otherwise).
  const shard::FusedPlan& fused_plan() const { return fused_plan_; }

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
  /// budget caches each undegraded AnalysisResult under the FNV-1a
  /// digest of the ENCODED image bytes; repeated/duplicated uploads in
  /// analyze(), the pipelined batch loop, analyze_stream() and the
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

  struct FeatureSlot {
    const char* phase = nullptr;
    const char* name = nullptr;
    cellport::port::WrappedMessage<kernels::ImageMsg> msg;
    cellport::AlignedBuffer<float> out;
    int dim = 0;
    // Detection side.
    const learn::ConceptModelSet* set = nullptr;
    cellport::port::WrappedMessage<kernels::DetectMsg> detect_msg;
    cellport::AlignedBuffer<kernels::DetectModelDesc> descs;
    cellport::AlignedBuffer<double> scores;
    // PPE reference extractor (a guarded lane's fallback).
    features::FeatureVector (*ref_extract)(const img::RgbImage&,
                                           sim::ScalarContext*) = nullptr;
    /// The slot's extraction lanes: its one SPE, or (kSharded) one per
    /// shard, each with a message and raw-partial buffer; `shard_rows`
    /// holds the current image's ranges (recomputed per image — shapes
    /// may vary).
    std::vector<Lane> lanes;
    std::vector<cellport::port::WrappedMessage<kernels::ImageMsg>>
        shard_msgs;
    std::vector<cellport::AlignedBuffer<std::uint8_t>> shard_parts;
    std::vector<shard::Range> shard_rows;
  };

  void setup_detection(FeatureSlot& slot, const learn::ConceptModelSet& set);
  void fill_image_msg(FeatureSlot& slot, const img::RgbImage& pixels);
  void collect(FeatureSlot& slot, features::FeatureVector& fv,
               DetectionScores& scores);
  /// Bumps the images-analyzed counter and drops a timeline marker.
  void note_image_done();
  /// The opcode of slot `slot`'s per-feature kernel (naive when asked
  /// for and available).
  int extract_opcode(const FeatureSlot& slot) const;
  /// Slot `s`'s detection lane outside kSharded: its own SPE under
  /// kMultiSPE2, the shared CD SPE otherwise.
  Lane& detect_lane(int s) {
    return detect_lanes_[scenario_ == Scenario::kMultiSPE2 ? s : 0];
  }

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

  /// Completes `lane`'s pending call. A guard retry is recorded as a
  /// kGuardRetry span named `tag`, and a failed verdict runs `fallback`
  /// (the PPE path for the lane's work). A plain lane's fault throws.
  template <class Fallback>
  Lane::Result settle(Lane& lane, const std::string& tag,
                      Fallback&& fallback) {
    const sim::SimTime t0 = machine_.ppe().now_ns();
    Lane::Result r = lane.finish();
    if (r.attempts > 1) {
      rt_.add_closed(probe::Phase::kGuardRetry, tag, t0,
                     machine_.ppe().now_ns());
    }
    if (!r.ok) fallback();
    return r;
  }

  // ---- the per-image schedule, shared by analyze() and the pipelined
  // batch loop (profiler scopes stay in the callers) ----
  /// Fills every message for `pixels` (per-feature, shard or fused
  /// ranges) and adopts the feed degradation staged by its ingest().
  void prepare_image(const img::RgbImage& pixels);
  /// Dispatches the image's extraction on the strategy's lanes.
  /// `honor_naive` false runs the optimized per-feature kernels even on a
  /// use_naive engine (the pipelined loop's schedule).
  void send_extract(bool honor_naive);
  /// Completion side of send_extract(); a guarded lane that gives up is
  /// recomputed from `pixels` on the PPE. Under per-feature kMultiSPE2
  /// each slot's detection is sent as soon as its extraction completes.
  void complete_extract(const img::RgbImage& pixels);
  /// Merges the lanes' raw partials into the slots' output buffers
  /// (sharded, fused and balanced strategies; a no-op otherwise).
  void reduce_partials();
  /// The scenario's detection schedule.
  void detect();
  /// Gathers the slots into a result carrying the image's degradation.
  AnalysisResult collect_result();

  // ---- cellfeed paths (no-ops unless set_feed(true)) ----
  /// Decode-or-feed front end shared by analyze(), the pipelined batch
  /// loop, and StreamEngine::prepare_window. With feed off (or an
  /// ineligible carrier) it charges exactly what the legacy decode path
  /// charged.
  img::RgbImage ingest(const img::SicEncoded& image);
  /// The SPE half of ingest(): splits `hdr`'s rows across the detection
  /// lanes, sends SPU_Run_Feed, and waits under the FeedDMA probe phase.
  void feed_image(const img::SicEncoded& image, const img::PpmHeader& hdr,
                  img::RgbImage& dst);
  /// PPE mirror for one lane's row range (the lane faulted or its guard
  /// gave up): bit-identical bytes to the SPE unpack. `degrade` records
  /// it (guarded lanes).
  void feed_fallback_rows(const img::SicEncoded& image,
                          const img::PpmHeader& hdr,
                          const shard::Range& rows, img::RgbImage& dst,
                          bool degrade);

  // ---- PPE fallbacks of guarded lanes ----
  void fallback_extract(FeatureSlot& slot, const img::RgbImage& pixels);
  void fallback_detect(FeatureSlot& slot);
  void fallback_fused(std::size_t j, const img::RgbImage& pixels);
  void note_degraded(const char* stage, const FeatureSlot& slot);

  // ---- cellshard paths (kSharded only) ----
  /// Allocates per-shard messages/partial buffers and the detection
  /// block staging (construction time).
  void setup_sharding();
  /// Computes the current image's shard ranges and fills every shard
  /// message (after fill_image_msg).
  void prepare_shards(const img::RgbImage& pixels);
  /// Block-split detection for one slot over the detection lanes.
  void sharded_detect(FeatureSlot& slot);

  // ---- cellfuse / cellbalance paths ----
  /// Computes the current image's lane ranges (fused) or task ranges
  /// (balanced: balance::split_tasks, finer than the lane count),
  /// (re)sizes the per-range partial blobs and fills their messages
  /// (after fill_image_msg). Throws ConfigError for images below 16x16,
  /// exactly like the TX kernel (a fused lane always computes the
  /// wavelet texture).
  void prepare_fused(const img::RgbImage& pixels);
  /// Hands lane `k` the next unissued task descriptor (Send); no-op when
  /// the queue is exhausted.
  void balanced_issue(std::size_t k);
  /// The steal loop: peeks every in-flight completion timestamp,
  /// finishes the earliest lane, hands it the next task, until the
  /// queue drains. Guarded lanes that exhaust their retries drop to the
  /// PPE mirror for just that task's range.
  void drain_balanced(const img::RgbImage& pixels);

  // ---- cellbalance cache (no-ops unless set_cache(>0)) ----
  bool cache_on() const { return cache_ != nullptr && cache_->enabled(); }
  /// FNV-1a64 over the encoded carrier bytes, charged to the PPE.
  std::uint64_t cache_digest(const img::SicEncoded& image);
  /// Lookup front end shared by every cached path: digests `image`,
  /// probes the cache under a kCache span and bumps the hit/miss
  /// counters. On a hit, copies the value into `*out` (charged like
  /// collect()) and returns true; on a miss, stores the digest in
  /// `*key` for the post-analysis insert and returns false.
  bool cache_try_serve(const img::SicEncoded& image, AnalysisResult* out,
                       std::uint64_t* key);
  /// Inserts an undegraded cold result under its digest, charging the
  /// write-back and refreshing the cache gauges/eviction counter.
  void cache_store(std::uint64_t key, const AnalysisResult& result);
  /// The pipelined batch loop proper, over the cache misses only (the
  /// public wrapper serves hits and reassembles input order).
  std::vector<AnalysisResult> pipelined_cold(
      const std::vector<const img::SicEncoded*>& images);

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

  /// Detection lanes: the shared CD SPE (kSingleSPE/kMultiSPE), one per
  /// slot (kMultiSPE2), or the model blocks (kSharded). Feed rows ride
  /// them too.
  std::vector<Lane> detect_lanes_;
  /// Fused lanes: the slots' extraction lanes slot-major, capped at one
  /// (kSingleSPE) or fused_plan_.lanes (kSharded).
  std::vector<Lane*> fused_lanes_;
  /// Send timestamps of the current image's per-feature extraction and
  /// kMultiSPE2 detection calls, and of its shard/fused dispatch.
  sim::SimTime sent_[4] = {0, 0, 0, 0};
  sim::SimTime detect_sent_[4] = {0, 0, 0, 0};
  sim::SimTime extract_sent_ns_ = 0;

  // cellguard state (null when the policy is disabled).
  guard::GuardPolicy guard_;
  std::unique_ptr<guard::SpeHealth> health_;
  trace::Counter* fallback_counter_ = nullptr;
  std::vector<std::string> degraded_current_;

  // cellfeed state.
  bool feed_ = false;
  std::vector<port::WrappedMessage<kernels::FeedMsg>> feed_msgs_;
  trace::Counter* feed_images_counter_ = nullptr;
  trace::Counter* feed_rows_counter_ = nullptr;
  trace::Counter* feed_fallback_counter_ = nullptr;
  /// Degraded records from guarded feed fallbacks. The pipelined loop
  /// decodes image i+1 while image i is still the current request, so
  /// feed degradation is staged here and spliced into the degraded list
  /// of the image it belongs to.
  std::vector<std::string> feed_pending_degraded_;

  // cellbalance state. `bal_q_` lives only between the arm wave in
  // send_extract() and the end of drain_balanced (one image's
  // steal-driven dispatch).
  bool balanced_ = false;
  std::unique_ptr<balance::TaskQueue> bal_q_;
  std::vector<sim::SimTime> bal_sent_;
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
  std::vector<port::WrappedMessage<kernels::ImageMsg>> fused_msgs_;
  std::vector<cellport::AlignedBuffer<std::uint8_t>> fused_parts_;
  std::vector<shard::Range> fused_rows_;
  trace::Counter* fuse_images_counter_ = nullptr;

  // cellshard state (kSharded only).
  shard::ShardPlan plan_;
  std::vector<cellport::port::WrappedMessage<kernels::DetectMsg>>
      cd_block_msgs_;
  std::vector<cellport::AlignedBuffer<double>> cd_block_scores_;
  trace::Counter* shard_reduce_counter_ = nullptr;

  // cellprobe state: the sink (null = probing off) and the request
  // trace reused across requests.
  probe::ProbeSink* probe_ = nullptr;
  probe::RequestTrace rt_;

  FeatureSlot slots_[4];
};

}  // namespace cellport::marvel
