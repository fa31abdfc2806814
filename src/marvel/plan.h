// cellexec: one image's work as a plan both dispatch paths execute.
//
// The paper's Eq. 3 models a request as G groups of parallel kernel
// calls, each dispatched the same way (Section 3.3, Listing 4): fill the
// messages, call the stubs, wait. A plan is that model made concrete —
// two short task lists, extraction then detection, plus the storage the
// tasks read and write. The per-feature, sharded, fused and balanced
// strategies differ only in how CellEngine::build_plan splits the image
// into tasks (reduce ∘ map over row splits); CellEngine::analyze runs a
// plan call by call and StreamEngine runs a window of plans over the
// command rings, and neither knows which strategy built it.
#pragma once

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
/// matters: extraction kinds first, detection kinds last.
enum class TaskKind : std::uint8_t {
  kFeature,  ///< one slot's whole feature vector (ref_extract)
  kShard,    ///< one slot's raw partial over a range (shard::ppe_partial)
  kFused,    ///< all four raw partials over a row range (ppe_partial_fused)
  kDetect,   ///< one slot's scores over its model set (reference_detect)
  kBlock,    ///< one slot's scores over a model block (ppe_detect_block)
};

/// One kernel call: (lane, opcode, range, message, output, fallback kind).
struct Task {
  TaskKind kind = TaskKind::kFeature;
  int slot = 0;   ///< feature slot (kFused: 0)
  int index = 0;  ///< shard, fused range or model block number
  /// Index into CellEngine::lanes_; -1 while unbound (a balanced task
  /// gets the lane that steals it).
  int lane = -1;
  int opcode = 0;
  shard::Range range;  ///< rows, Haar-tile rows or models; never empty
  std::uint64_t msg_ea = 0;
  void* out = nullptr;  ///< partial blob or score staging the call fills
  /// Start of the call's SPE span: its own send for whole-slot and
  /// stolen calls, its wave's start for range calls.
  sim::SimTime sent_ns = 0;
};

/// The tasks of one stage and the lanes the stage drives, in lane order.
/// A static fused or detection stage lists only lanes that carry a task;
/// a per-feature or sharded extraction stage lists every lane of its
/// strategy, and a balanced one every lane that may steal. `group` is
/// the feature slot a lane's completion is reported under.
struct Stage {
  struct LaneRef {
    int lane = 0;
    int group = 0;
  };
  std::vector<Task> tasks;
  std::vector<LaneRef> lanes;
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
  Stage extract;
  Stage detect;
  /// What the extraction tasks produce: kFeature (final vectors), or
  /// kShard/kFused partials that CellEngine::reduce merges.
  TaskKind partials = TaskKind::kFeature;
  /// Balanced: extraction tasks are bound to lanes by the steal loop.
  bool stolen = false;
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
