// cellstream: the streaming throughput engine behind
// CellEngine::analyze_stream().
//
// Where analyze() pays the stub protocol per call (one mailbox
// round-trip per kernel invocation), StreamEngine admits a queue of
// encoded images and drives every scheduled SPE through its DMA-resident
// command ring: a window of `batch` requests is enqueued with plain
// stores and doorbelled with ONE mailbox word, and the SPE dispatcher
// overlaps each request's output DMA with the next request's input DMA.
// In the parallel scenarios two windows are kept in flight per ring —
// the PPE decodes window w+1 while the SPEs extract window w — so the
// rings stay non-empty and the protocol cost amortizes to ~1/batch of a
// per-call run. Results are bit-exact with per-call analyze().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "marvel/cell_engine.h"

namespace cellport::marvel {

class StreamEngine {
 public:
  /// Borrows `engine`'s SPE placement (rings are armed lazily on its
  /// interfaces). `opts.batch` must be 1..128.
  StreamEngine(CellEngine& engine, const StreamOptions& opts);

  /// Streams the queue through the engine; one AnalysisResult per image,
  /// in order, bit-exact with per-call analyze().
  std::vector<AnalysisResult> run(const std::vector<img::SicEncoded>& images);

  /// Terminal state of one submitted request. A request is kPending from
  /// submit() until the drain() that services it (kCompleted) or the
  /// close() that cancels it (kCancelled) — close() never discards a
  /// queued-but-unstarted request silently.
  enum class RequestEnd : std::uint8_t { kPending, kCompleted, kCancelled };

  /// cellserve: incremental admission. Queues one encoded image for the
  /// next drain() and returns its request index. The caller keeps the
  /// image alive until that drain. Throws after close().
  std::size_t submit(const img::SicEncoded& image);
  /// Services every queued request in submit order (same schedule run()
  /// would charge for the same queue) and marks them kCompleted.
  std::vector<AnalysisResult> drain();
  /// Early shutdown: marks every queued-but-unstarted request
  /// kCancelled (counted in stats().cancelled and the stream.cancelled
  /// metric) and returns the terminal state of EVERY submitted request,
  /// in submit order. Idempotent; submit() after close() throws.
  std::vector<RequestEnd> close();

  const StreamStats& stats() const { return stats_; }
  /// Per-request terminal states so far (index = submit order).
  const std::vector<RequestEnd>& request_ends() const { return ends_; }
  /// Simulated completion time of each request of the last run()/drain()
  /// (the collect time of its window; windows retire in order). With the
  /// engine's content cache enabled, a hit completes at its up-front
  /// lookup instead, so the stamps are NOT necessarily non-decreasing
  /// when hits and misses interleave. Index-aligned with the returned
  /// results.
  const std::vector<sim::SimTime>& completion_ns() const {
    return completions_;
  }

 private:
  /// Per-image working set: the kernels of different in-flight images
  /// must not share output buffers, so each window slot carries its own
  /// messages and result areas (the model descriptors stay shared,
  /// read-only, with the engine).
  struct SlotBuf {
    port::WrappedMessage<kernels::ImageMsg> msg;
    cellport::AlignedBuffer<float> out;
    port::WrappedMessage<kernels::DetectMsg> detect_msg;
    cellport::AlignedBuffer<double> scores;
    // cellshard (kSharded only): per-shard messages and raw-partial
    // buffers, plus per-model-block detection staging — each in-flight
    // image reduces its own partials, so nothing is shared between
    // windows. `shard_rows` is recomputed per image in prepare_window.
    std::vector<port::WrappedMessage<kernels::ImageMsg>> shard_msgs;
    std::vector<cellport::AlignedBuffer<std::uint8_t>> shard_parts;
    std::vector<shard::Range> shard_rows;
    std::vector<port::WrappedMessage<kernels::DetectMsg>> block_msgs;
    std::vector<cellport::AlignedBuffer<double>> block_scores;
  };
  struct PerImage {
    img::RgbImage pixels;
    std::vector<std::string> degraded;
    SlotBuf sb[4];
    // cellfuse (engine_.fused()): per-lane single-pass messages, partial
    // blobs, and row ranges — each in-flight image reduces its own lane
    // blobs, like the shard partials above.
    std::vector<port::WrappedMessage<kernels::ImageMsg>> fused_msgs;
    std::vector<cellport::AlignedBuffer<std::uint8_t>> fused_parts;
    std::vector<shard::Range> fused_rows;
  };

  /// Arms (or re-arms after a guard migration) a ring of >= `cap` slots
  /// on a lane's stub; null when a guarded lane is currently closed.
  port::SPEInterface* ensure_ring(port::SPEInterface* iface,
                                  std::uint32_t cap);

  /// Re-runs one request alone on guarded `lane` through the guard's
  /// retry loop (recorded as a kGuardRetry span named `tag`), running
  /// `fallback` — the PPE path for the request — when it gives up.
  template <class Fallback>
  void rerun(Lane& lane, int opcode, std::uint64_t ea,
             const std::string& tag, Fallback&& fallback);
  /// Collects `lane`'s oldest ring batch of `n` requests under n times
  /// the per-call guard deadline. A closed lane or a missed deadline
  /// (the batch is reclaimed) re-runs all n; a faulted request re-runs
  /// alone on a guarded lane and throws on a plain one. `rerun_one(i)`
  /// re-runs request i of the batch.
  template <class Rerun>
  void wait_ring(Lane& lane, std::size_t n, const char* stage,
                 Rerun&& rerun_one);

  std::size_t window_begin(std::size_t w) const;
  std::size_t window_count(std::size_t w, std::size_t total) const;
  PerImage& buf(std::size_t w, std::size_t j);

  /// The shared streaming loop behind run() and drain().
  std::vector<AnalysisResult> run_queue(
      const std::vector<const img::SicEncoded*>& images);
  /// Decodes window `w`'s images and fills their messages (the PPE-side
  /// work that overlaps in-flight extraction in the pipelined flow).
  void prepare_window(std::size_t w,
                      const std::vector<const img::SicEncoded*>& images);
  int flush_ring(port::SPEInterface* iface);
  /// Enqueues + doorbells window `w`'s requests for slot `s`'s extract
  /// ring (one doorbell).
  void flush_extract_slot(std::size_t w, std::size_t total, int s);
  /// Waits slot `s`'s extract batch for window `w` and resolves
  /// per-request faults.
  void wait_extract_slot(std::size_t w, std::size_t total, int s);
  /// Runs window `w`'s detection batch(es) and resolves faults.
  void run_detect(std::size_t w, std::size_t total);

  // ---- cellshard flows (kSharded only) ----
  /// Enqueues + doorbells window `w`'s requests on every shard ring of
  /// slot `s` (one doorbell per shard).
  void flush_shard_slot(std::size_t w, std::size_t total, int s);
  /// Waits slot `s`'s shard rings for window `w`; a faulted request is
  /// re-run alone, dropping to the PPE mirror partial when the guard
  /// gives up.
  void wait_shard_slot(std::size_t w, std::size_t total, int s);
  /// Merges every image's raw partials (shards, or fused lane/task
  /// blobs) into its feature buffers (between the extract wait and
  /// detection).
  void reduce_window(std::size_t w, std::size_t total);
  /// Block-parallel detection over the shard detection rings.
  void run_detect_sharded(std::size_t w, std::size_t total);

  // ---- cellfuse flows (engine_.fused() only) ----
  /// Enqueues + doorbells window `w`'s requests on every fused lane ring
  /// (one doorbell per lane); extraction rides the lanes instead of the
  /// per-feature slots.
  void flush_fused_window(std::size_t w, std::size_t total);
  /// Waits every lane ring for window `w`; a faulted request is re-run
  /// alone, dropping to the PPE mirror partials (all four sections of
  /// that lane's blob) when the guard gives up.
  void wait_fused_window(std::size_t w, std::size_t total);
  /// PPE mirror for one lane's or task's range (`t`) after the guard
  /// gave up: all four sections of its blob, under a `label` span.
  void fallback_fused(PerImage& pi, std::size_t t,
                      const std::string& label);
  void collect_window(std::size_t w, std::size_t total,
                      std::vector<AnalysisResult>* out);

  // ---- cellbalance flows (engine_.balanced() only) ----
  /// Builds the window-wide task pool — every image's tile-aligned task
  /// descriptors, image-major — and arms each lane with one descriptor.
  /// Lanes finishing a small image's tasks steal into the next image's,
  /// so one window-wide queue balances mixed-size traffic.
  void flush_balanced_window(std::size_t w, std::size_t total);
  /// The steal loop over the window pool: peek every in-flight
  /// completion, finish the earliest lane, hand it the next descriptor.
  void wait_balanced_window(std::size_t w);
  /// Sends the next unissued pool descriptor to lane `k` (no-op when the
  /// pool is exhausted).
  void balanced_issue(std::size_t w, std::size_t k);

  // PPE reference paths of guarded lanes (per request).
  void rerun_detect(int s, PerImage& pi);
  void fallback_extract(int s, PerImage& pi);
  void fallback_detect(int s, PerImage& pi);
  void note_degraded(const char* stage, int s, PerImage& pi);
  [[noreturn]] void throw_ring_fault(const char* stage,
                                     port::SPEInterface* iface);

  CellEngine& engine_;
  StreamOptions opts_;
  StreamStats stats_;
  /// When true (unguarded parallel scenarios) two windows are in flight
  /// per extract ring; the guarded and single-SPE flows retire each
  /// window before the next doorbell.
  bool pipelined_ = false;
  sim::SimTime guard_deadline_ns_ = 0;
  std::vector<std::unique_ptr<PerImage>> bufs_[2];
  /// kSharded: slot s's detection model blocks (fixed per engine — they
  /// depend only on the model count and the plan's detect_spes).
  std::vector<shard::Range> cd_blocks_[4];
  /// Models actually scored per slot (opts_.max_models clamp; the full
  /// set when the knob is 0).
  int scored_models_[4] = {0, 0, 0, 0};
  /// cellbalance: the current window's task pool — (image slot, task)
  /// pairs image-major — and its steal bookkeeping. Live only between
  /// flush_balanced_window and the end of wait_balanced_window.
  std::vector<std::pair<std::size_t, std::size_t>> bal_pool_;
  std::unique_ptr<balance::TaskQueue> bal_q_;
  std::vector<sim::SimTime> bal_sent_;
  /// Incremental-admission state (submit/drain/close).
  std::vector<const img::SicEncoded*> pending_;
  std::vector<RequestEnd> ends_;
  std::vector<sim::SimTime> completions_;
  bool closed_ = false;
};

}  // namespace cellport::marvel
