// cellexec: one image's work as a plan both dispatch paths execute.
//
// The paper's Eq. 3 models a request as G groups of parallel kernel
// calls, each dispatched the same way (Section 3.3, Listing 4): fill the
// messages, call the stubs, wait. A plan is that model made concrete —
// three short task lists, ingest, extraction and detection, plus the
// storage the tasks read and write. Ingest is one more map over row
// ranges: with the feed knob on, a PPM carrier's rows split across the
// detection lanes (CellEngine::build_ingest), and both executors run
// those tasks call by call through the same send/finish as every other
// stage, their PPE path in fallback(). The per-feature, sharded, fused
// and balanced strategies differ only in how CellEngine::build_plan
// splits the image into extraction tasks (reduce ∘ map over row splits);
// CellEngine::analyze runs a plan call by call and StreamEngine runs a
// window of plans over the command rings, and neither knows which
// strategy built it. A stage's lanes are its bound tasks' lanes, so a
// lane whose range is empty is never driven.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "balance/steal.h"
#include "img/image.h"
#include "kernels/messages.h"
#include "port/message.h"
#include "shard/partials.h"
#include "sim/time.h"
#include "support/aligned.h"

namespace cellport::marvel {

/// What a task computes, which also fixes its PPE fallback. The order
/// matters: extraction kinds first, then detection kinds, then ingest.
enum class TaskKind : std::uint8_t {
  kFeature,  ///< one slot's whole feature vector (ref_extract)
  kShard,    ///< one slot's raw partial over a range (shard::ppe_partial)
  kFused,    ///< all four raw partials over a row range (ppe_partial_fused)
  kDetect,   ///< one slot's scores over its model set (reference_detect)
  kBlock,    ///< one slot's scores over a model block (ppe_detect_block)
  kFeed,     ///< a PPM carrier's rows over a range (PPE row copy)
};

/// One kernel call: (lane, opcode, range, message, output, fallback kind).
struct Task {
  TaskKind kind = TaskKind::kFeature;
  int slot = 0;   ///< feature slot (kFused, kFeed: 0)
  int index = 0;  ///< shard, fused range, model block or feed lane number
  /// Index into CellEngine::lanes_; -1 while unbound (a balanced task
  /// gets the lane that steals it).
  int lane = -1;
  int opcode = 0;
  shard::Range range;  ///< rows, Haar-tile rows or models; never empty
  std::uint64_t msg_ea = 0;
  /// Partial blob, score staging or (kFeed) image the call fills.
  void* out = nullptr;
  /// Start of the call's SPE span: its own send for whole-slot and
  /// stolen calls, its wave's start for range and feed calls.
  sim::SimTime sent_ns = 0;
};

/// The tasks of one stage. The lanes a stage drives are its bound tasks'
/// lanes, each reported under its task's slot; a balanced stage's tasks
/// stay unbound, and the steal loop drives every fused lane.
struct Stage {
  std::vector<Task> tasks;
};

/// One image's plan and the storage its tasks run against. Storage is
/// reused across images; build_plan only grows it.
struct ImagePlan {
  struct Slot {
    port::WrappedMessage<kernels::ImageMsg> msg;  ///< FILL_MSG_FROM_COLORIMAGE
    AlignedBuffer<float> out;
    port::WrappedMessage<kernels::DetectMsg> detect_msg;
    AlignedBuffer<double> scores;
    int scored = 0;  ///< models scored (the serve concept clamp)
    /// Range split of this slot (kShard) or of the whole image (kFused,
    /// slot 0 only), empty ranges included; one partial and message per
    /// range.
    std::vector<shard::Range> rows;
    std::vector<AlignedBuffer<std::uint8_t>> parts;
    std::vector<port::WrappedMessage<kernels::ImageMsg>> range_msgs;
    /// kBlock: the model blocks and their score staging (each block's
    /// kernel pads its score DMA to an even count, so blocks land apart
    /// and concat_blocks copies the exact counts).
    std::vector<shard::Range> blocks;
    std::vector<port::WrappedMessage<kernels::DetectMsg>> block_msgs;
    std::vector<AlignedBuffer<double>> block_scores;
  };

  img::RgbImage pixels;
  /// PPE fallbacks taken for this image, in order ("stage:feature").
  std::vector<std::string> degraded;
  Slot slots[4];
  /// kFeed tasks; empty when the PPE decoded the image.
  Stage ingest;
  Stage extract;
  Stage detect;
  /// One feed message per detection lane.
  std::vector<port::WrappedMessage<kernels::FeedMsg>> feed_msgs;
  /// What the extraction tasks produce: kFeature (final vectors), or
  /// kShard/kFused partials that CellEngine::reduce merges.
  TaskKind partials = TaskKind::kFeature;
  /// Balanced: extraction tasks are bound to lanes by the steal loop.
  bool stolen = false;
  /// The image's position q in a stream's cold queue (0 per call): fused
  /// range k runs on fused lane (k + q) mod L, so the leftover tiles
  /// split_fused gives the low ranges rotate over the L lanes.
  std::size_t queue_pos = 0;
  /// Range messages build_plan filled (4 PPE stores each, charged by
  /// the executor: once in total per call, once per message per ring).
  std::uint64_t msgs_filled = 0;
};

/// cellbalance: one steal-driven dispatch over unbound fused tasks — one
/// image's, or a stream window's image-major.
struct StealPool {
  struct Entry {
    ImagePlan* plan = nullptr;
    Task* task = nullptr;
    int image = -1;  ///< position in the stream window; -1 per call
  };
  std::vector<Entry> entries;
  std::optional<balance::TaskQueue> queue;
};

}  // namespace cellport::marvel
