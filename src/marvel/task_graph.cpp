#include "marvel/task_graph.h"

#include "features/feature.h"
#include "kernels/cc_kernel.h"
#include "kernels/cd_kernel.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_kernel.h"
#include "kernels/tx_kernel.h"

namespace cellport::marvel {

std::vector<ImageTasks> build_task_graph(
    const std::vector<img::SicEncoded>& images,
    const learn::MarvelModels& models, std::int32_t buffering,
    std::int32_t block_rows) {
  const struct {
    port::KernelModule* module;
    int dim;
    const learn::ConceptModelSet* set;
  } config[4] = {
      {&kernels::ch_module(), features::kColorHistogramDim,
       &models.color_histogram},
      {&kernels::cc_module(), features::kColorCorrelogramDim,
       &models.color_correlogram},
      {&kernels::tx_module(), features::kTextureDim, &models.texture},
      {&kernels::eh_module(), features::kEdgeHistogramDim,
       &models.edge_histogram},
  };

  std::vector<ImageTasks> out(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    ImageTasks& image = out[i];
    image.pixels = img::sic_decode(images[i]);
    image.features.resize(4);
    for (int f = 0; f < 4; ++f) {
      FeatureTask& ft = image.features[static_cast<std::size_t>(f)];
      ft.module = config[f].module;
      ft.dim = config[f].dim;
      ft.set = config[f].set;
      ft.out = cellport::AlignedBuffer<float>(
          cellport::round_up(static_cast<std::size_t>(ft.dim), 8));
      ft.msg->pixels_ea = reinterpret_cast<std::uint64_t>(image.pixels.data());
      ft.msg->width = image.pixels.width();
      ft.msg->height = image.pixels.height();
      ft.msg->stride = image.pixels.stride();
      ft.msg->buffering = buffering;
      ft.msg->block_rows = block_rows;
      ft.msg->out_ea = reinterpret_cast<std::uint64_t>(ft.out.data());
      ft.msg->out_count = ft.dim;
      ft.descs = make_detect_descs(*ft.set);
      ft.scores = cellport::AlignedBuffer<double>(
          cellport::round_up(ft.set->models.size(), 2));
      ft.detect_msg->feature_ea =
          reinterpret_cast<std::uint64_t>(ft.out.data());
      ft.detect_msg->dim = ft.dim;
      ft.detect_msg->num_models =
          static_cast<std::int32_t>(ft.set->models.size());
      ft.detect_msg->models_ea =
          reinterpret_cast<std::uint64_t>(ft.descs.data());
      ft.detect_msg->scores_ea =
          reinterpret_cast<std::uint64_t>(ft.scores.data());
      ft.detect_msg->buffering = buffering;
    }
  }
  return out;
}

std::vector<port::TaskPool::TaskId> submit_tasks(port::TaskPool& pool,
                                                 ImageTasks& image) {
  std::vector<port::TaskPool::TaskId> ids;
  for (FeatureTask& ft : image.features) {
    const port::TaskPool::TaskId extract =
        pool.submit(*ft.module, kernels::SPU_Run, ft.msg.ea());
    ids.push_back(extract);
    ids.push_back(pool.submit(kernels::cd_module(), kernels::SPU_Run,
                              ft.detect_msg.ea(), {extract}));
  }
  return ids;
}

cellport::AlignedBuffer<kernels::DetectModelDesc> make_detect_descs(
    const learn::ConceptModelSet& set) {
  cellport::AlignedBuffer<kernels::DetectModelDesc> descs(set.models.size());
  for (std::size_t m = 0; m < set.models.size(); ++m) {
    const learn::SvmModel& model = set.models[m];
    kernels::DetectModelDesc& d = descs[m];
    d.sv_ea = reinterpret_cast<std::uint64_t>(model.sv_data());
    d.coef_ea = reinterpret_cast<std::uint64_t>(model.coef().data());
    d.num_sv = model.num_sv();
    d.sv_stride = model.sv_stride();
    d.gamma = model.gamma();
    d.rho = model.rho();
    d.kernel_type = static_cast<std::int32_t>(model.kernel());
  }
  return descs;
}

}  // namespace cellport::marvel
