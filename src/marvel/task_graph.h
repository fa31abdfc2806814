// The MARVEL task graph a dynamic runtime (port::TaskPool) runs: per
// image, one task per feature extraction and, depending on it, one
// concept-detection task over that feature's model set. Any worker may
// run any of them, so the graph carries each task's kernel module with
// its wrapper (bench_dynamic, cellcheck's TaskPool mode).
#pragma once

#include <cstdint>
#include <vector>

#include "img/codec.h"
#include "img/image.h"
#include "kernels/messages.h"
#include "learn/model_store.h"
#include "port/message.h"
#include "port/taskpool.h"
#include "support/aligned.h"

namespace cellport::marvel {

/// One feature of one image: the extraction wrapper and its output, and
/// the detection wrapper with its model descriptors and scores.
struct FeatureTask {
  port::KernelModule* module = nullptr;
  int dim = 0;
  const learn::ConceptModelSet* set = nullptr;
  port::WrappedMessage<kernels::ImageMsg> msg;
  port::WrappedMessage<kernels::DetectMsg> detect_msg;
  cellport::AlignedBuffer<float> out;
  cellport::AlignedBuffer<kernels::DetectModelDesc> descs;
  cellport::AlignedBuffer<double> scores;
};

/// One image's decoded pixels and its features, in the order CH, CC,
/// TX, EH.
struct ImageTasks {
  img::RgbImage pixels;
  std::vector<FeatureTask> features;
};

/// Decodes every image and fills its eight wrappers. `buffering` and
/// `block_rows` go into the kernel messages; their defaults are the
/// messages' own.
std::vector<ImageTasks> build_task_graph(
    const std::vector<img::SicEncoded>& images,
    const learn::MarvelModels& models,
    std::int32_t buffering = kernels::kDoubleBuffer,
    std::int32_t block_rows = 0);

/// Submits `image`'s tasks to `pool` — each extraction, then the
/// detection that depends on it — and returns their ids in that order.
std::vector<port::TaskPool::TaskId> submit_tasks(port::TaskPool& pool,
                                                 ImageTasks& image);

/// The descriptor table the detection kernel walks: one entry per model
/// of `set`, in model order.
cellport::AlignedBuffer<kernels::DetectModelDesc> make_detect_descs(
    const learn::ConceptModelSet& set);

}  // namespace cellport::marvel
