// Layer probes: the host cost of each simulator layer, measured in
// isolation on a one-SPE machine (so the SPE pipe-charge path runs) or on
// the PPE. Each probe times a fixed amount of work and reports a median.
#include <cstdint>
#include <vector>

#include "balance/digest.h"
#include "cellbench.h"
#include "features/feature.h"
#include "kernels/cc_kernel.h"
#include "kernels/cd_kernel.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_kernel.h"
#include "kernels/messages.h"
#include "kernels/tx_kernel.h"
#include "learn/model_store.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "shard/plan.h"
#include "shard/reducer.h"
#include "sim/machine.h"
#include "spu/spu.h"
#include "support/aligned.h"

namespace cellbench {

using namespace cellport;

namespace {

constexpr int kRepeats = 5;

// ---- a bench-defined SPE kernel timing single intrinsics ------------------

constexpr std::uint32_t kOpMadd = 1;
constexpr std::uint32_t kOpShuffle = 2;
constexpr std::uint32_t kOpNop = 3;
constexpr std::uint64_t kIntrinsicOps = 200000;

// Written by the kernel on its SPE thread, read by the PPE after
// SendAndWait returned (the mailbox round trip orders the two).
double g_kernel_ns_per_op = 0;
// Keeps probed results observable so the timed work is not elided.
volatile std::uint64_t g_sink = 0;

int spu_madd_loop(std::uint64_t n) {
  auto acc = spu::spu_splats<spu::vec_float4>(0.0f);
  const auto a = spu::spu_splats<spu::vec_float4>(1.0f + 1e-7f);
  const auto b = spu::spu_splats<spu::vec_float4>(1e-7f);
  const double t0 = wall_s();
  for (std::uint64_t i = 0; i < n; ++i) acc = spu::spu_madd(acc, a, b);
  g_kernel_ns_per_op = (wall_s() - t0) * 1e9 / static_cast<double>(n);
  return acc.v[0] > 0 ? 0 : 1;
}

int spu_shuffle_loop(std::uint64_t n) {
  auto x = spu::spu_splats<spu::vec_uchar16>(3);
  const auto y = spu::spu_splats<spu::vec_uchar16>(7);
  spu::vec_uchar16 p;
  for (unsigned i = 0; i < 16; ++i) p.v[i] = static_cast<std::uint8_t>(31 - i);
  const double t0 = wall_s();
  for (std::uint64_t i = 0; i < n; ++i) x = spu::spu_shuffle(x, y, p);
  g_kernel_ns_per_op = (wall_s() - t0) * 1e9 / static_cast<double>(n);
  return x.v[0] == 0 ? 1 : 0;
}

port::KernelModule& bench_module() {
  static port::KernelModule mod("cellbench", 4096);
  static const bool init = [] {
    mod.add_function(kOpMadd, &spu_madd_loop);
    mod.add_function(kOpShuffle, &spu_shuffle_loop);
    mod.add_function(kOpNop, +[](std::uint64_t) { return 0; });
    return true;
  }();
  (void)init;
  return mod;
}

/// Median host seconds of `fn` over kRepeats calls, each inside a span.
template <typename Fn>
double timed(SpanLog* spans, const char* name, Fn&& fn) {
  std::vector<double> s;
  for (int r = 0; r < kRepeats; ++r) {
    Scope span(spans, name);
    const double t0 = wall_s();
    fn();
    s.push_back(wall_s() - t0);
  }
  return median(s);
}

port::WrappedMessage<kernels::ImageMsg> image_msg(const img::RgbImage& image,
                                                  void* out, int out_count,
                                                  int buffering) {
  port::WrappedMessage<kernels::ImageMsg> msg;
  msg->pixels_ea = reinterpret_cast<std::uint64_t>(image.data());
  msg->width = image.width();
  msg->height = image.height();
  msg->stride = image.stride();
  msg->buffering = buffering;
  msg->out_ea = reinterpret_cast<std::uint64_t>(out);
  msg->out_count = out_count;
  return msg;
}

}  // namespace

Metrics layer_probes(const Inputs& in, const std::string& library,
                     SpanLog* spans) {
  Metrics m;
  // The kernel probes run on a decoded carrier of the workload's own
  // corpus, at the paper's 352x240 frame size when the corpus has one.
  const img::SicEncoded* carrier = &in.images.front();
  for (const img::SicEncoded& c : in.images) {
    if (c.width == 352 && c.height == 240) {
      carrier = &c;
      break;
    }
  }
  const img::RgbImage image = img::sic_decode(*carrier);

  {  // spu: intrinsic emulation with pipe charging live.
    sim::Machine machine(sim::Machine::Config{1});
    port::SPEInterface iface(bench_module(), 0);
    std::vector<double> madd, shuffle;
    for (int r = 0; r < kRepeats; ++r) {
      {
        Scope s(spans, "spu.madd");
        iface.SendAndWait(kOpMadd, kIntrinsicOps);
      }
      madd.push_back(g_kernel_ns_per_op);
      {
        Scope s(spans, "spu.shuffle");
        iface.SendAndWait(kOpShuffle, kIntrinsicOps);
      }
      shuffle.push_back(g_kernel_ns_per_op);
    }
    m["spu.madd_host_ns"] = {median(madd), "ns"};
    m["spu.shuffle_host_ns"] = {median(shuffle), "ns"};
  }

  {  // port: the per-call mailbox protocol and the batched ring.
    constexpr int kCalls = 2000;
    constexpr int kBatch = 16;
    constexpr int kBatches = 200;
    sim::Machine machine(sim::Machine::Config{1});
    port::SPEInterface iface(bench_module(), 0);
    std::vector<double> wall, cpu;
    for (int r = 0; r < kRepeats; ++r) {
      Scope s(spans, "port.sendandwait");
      const double w0 = wall_s(), c0 = cpu_s();
      for (int i = 0; i < kCalls; ++i) iface.SendAndWait(kOpNop, 0);
      wall.push_back((wall_s() - w0) * 1e6 / kCalls);
      cpu.push_back((cpu_s() - c0) * 1e6 / kCalls);
    }
    m["port.sendandwait_host_us"] = {median(wall), "us"};
    m["port.sendandwait_cpu_us"] = {median(cpu), "us"};
    iface.set_ring_capacity(kBatch);
    std::vector<int> res;
    const double ring_s = timed(spans, "port.ring", [&] {
      for (int b = 0; b < kBatches; ++b) {
        for (int i = 0; i < kBatch; ++i) iface.Enqueue(kOpNop, 0);
        iface.FlushBatch();
        iface.WaitBatch(&res);
      }
    });
    m["port.ring_host_us_per_req"] = {ring_s * 1e6 / (kBatch * kBatches),
                                      "us"};
  }

  {  // kernels: each per-feature kernel and the fused pass, whole frame.
    const learn::MarvelModels models = learn::load_library(library);
    sim::Machine machine(sim::Machine::Config{1});
    struct Probe {
      const char* metric;
      port::KernelModule& (*module)();
      int dim;
    } probes[] = {
        {"kernels.ch_host_ms", &kernels::ch_module,
         features::kColorHistogramDim},
        {"kernels.cc_host_ms", &kernels::cc_module,
         features::kColorCorrelogramDim},
        {"kernels.tx_host_ms", &kernels::tx_module, features::kTextureDim},
        {"kernels.eh_host_ms", &kernels::eh_module,
         features::kEdgeHistogramDim},
    };
    AlignedBuffer<float> feature(
        round_up(std::size_t{features::kColorHistogramDim}, 8));
    for (const Probe& p : probes) {
      port::SPEInterface iface(p.module(), 0);
      AlignedBuffer<float> out(round_up(static_cast<std::size_t>(p.dim), 8));
      auto msg = image_msg(image, out.data(), p.dim, kernels::kDoubleBuffer);
      m[p.metric] = {
          timed(spans, p.metric,
                [&] { iface.SendAndWait(kernels::SPU_Run, msg.ea()); }) *
              1e3,
          "ms"};
      if (p.module == &kernels::ch_module) {
        std::copy(out.data(), out.data() + p.dim, feature.data());
      }
    }
    {  // Concept detection of the CH feature against the CH model set.
      const learn::ConceptModelSet& set = models.color_histogram;
      AlignedBuffer<kernels::DetectModelDesc> descs(set.models.size());
      for (std::size_t i = 0; i < set.models.size(); ++i) {
        const learn::SvmModel& model = set.models[i];
        kernels::DetectModelDesc& d = descs[i];
        d.sv_ea = reinterpret_cast<std::uint64_t>(model.sv_data());
        d.coef_ea = reinterpret_cast<std::uint64_t>(model.coef().data());
        d.num_sv = model.num_sv();
        d.sv_stride = model.sv_stride();
        d.gamma = model.gamma();
        d.rho = model.rho();
        d.kernel_type = static_cast<std::int32_t>(model.kernel());
      }
      AlignedBuffer<double> scores(round_up(set.models.size(), 2));
      port::WrappedMessage<kernels::DetectMsg> msg;
      msg->feature_ea = reinterpret_cast<std::uint64_t>(feature.data());
      msg->dim = features::kColorHistogramDim;
      msg->num_models = static_cast<std::int32_t>(set.models.size());
      msg->models_ea = reinterpret_cast<std::uint64_t>(descs.data());
      msg->scores_ea = reinterpret_cast<std::uint64_t>(scores.data());
      msg->buffering = kernels::kDoubleBuffer;
      port::SPEInterface iface(kernels::cd_module(), 0);
      m["kernels.cd_host_ms"] = {
          timed(spans, "kernels.cd",
                [&] { iface.SendAndWait(kernels::SPU_Run, msg.ea()); }) *
              1e3,
          "ms"};
    }
    {  // The fused single pass over the whole frame (one lane).
      port::SPEInterface iface(kernels::ch_module(), 0);
      AlignedBuffer<std::uint8_t> out(round_up(
          static_cast<std::size_t>(kernels::fused_partial_bytes(
              image.width(), image.height(), 0, image.height())),
          std::size_t{16}));
      auto msg = image_msg(image, out.data(), 0, kernels::kTripleBuffer);
      m["kernels.fused_host_ms"] = {
          timed(spans, "kernels.fused",
                [&] { iface.SendAndWait(kernels::SPU_Run_Fused, msg.ea()); }) *
              1e3,
          "ms"};
    }
  }

  {  // img: PPE decode of the workload's carriers (SIC or P6 by magic).
    constexpr std::size_t kSample = 8;
    const double s = timed(spans, "img.decode", [&] {
      for (std::size_t i = 0; i < kSample; ++i) {
        g_sink = img::sic_decode(in.images[i % in.images.size()]).width();
      }
    });
    m["img.decode_host_ms"] = {s * 1e3 / kSample, "ms"};
  }

  {  // balance: the content digest over the workload's carriers.
    constexpr std::size_t kSample = 8;
    const double s = timed(spans, "balance.digest", [&] {
      for (std::size_t i = 0; i < kSample; ++i) {
        const auto& bytes = in.images[i % in.images.size()].bytes;
        g_sink = balance::fnv1a64(bytes.data(), bytes.size());
      }
    });
    m["balance.digest_host_us"] = {s * 1e6 / kSample, "us"};
  }

  {  // shard: the PPE merge of one image's partials at the 8-SPE plan.
    const shard::ShardPlan plan = shard::plan_shards(8);
    sim::Machine machine(sim::Machine::Config{1});
    auto counts = [](int n, int words) {
      std::vector<std::vector<std::uint32_t>> p(
          static_cast<std::size_t>(n),
          std::vector<std::uint32_t>(static_cast<std::size_t>(words)));
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < words; ++j) {
          p[i][j] = static_cast<std::uint32_t>((i * 37 + j) % 101 + 1);
        }
      }
      return p;
    };
    auto ptrs = [](const auto& p) {
      std::vector<const typename std::decay_t<decltype(p[0])>::value_type*> v;
      for (const auto& x : p) v.push_back(x.data());
      return v;
    };
    const int nch = plan.extract_shards[shard::kSlotCh];
    const int ncc = plan.extract_shards[shard::kSlotCc];
    const int ntx = plan.extract_shards[shard::kSlotTx];
    const int neh = plan.extract_shards[shard::kSlotEh];
    const auto ch = counts(nch, kernels::kShardChWords);
    const auto cc = counts(ncc, kernels::kShardCcWords);
    const auto eh = counts(neh, kernels::kShardEhWords);
    const int tiles = kernels::tx_num_tiles(image.height());
    std::vector<std::vector<double>> tx(static_cast<std::size_t>(ntx));
    std::vector<int> tx_doubles;
    for (int i = 0, done = 0; i < ntx; ++i) {
      const int t = (tiles - done) / (ntx - i);
      done += t;
      tx[i].assign(static_cast<std::size_t>(t) * kernels::kTxTileDoubles,
                   1.0 + 0.01 * i);
      tx_doubles.push_back(t * kernels::kTxTileDoubles);
    }
    const auto pch = ptrs(ch), pcc = ptrs(cc), peh = ptrs(eh);
    const auto ptx = ptrs(tx);
    std::vector<float> out(kernels::kShardCcWords);
    constexpr int kMerges = 200;
    const double s = timed(spans, "shard.reduce", [&] {
      for (int r = 0; r < kMerges; ++r) {
        shard::reduce_ch(pch.data(), nch, image.width(), image.height(),
                         out.data(), &machine.ppe());
        shard::reduce_cc(pcc.data(), ncc, out.data(), &machine.ppe());
        shard::reduce_tx(ptx.data(), tx_doubles.data(), ntx, image.width(),
                         image.height(), out.data(), &machine.ppe());
        shard::reduce_eh(peh.data(), neh, image.width(), image.height(),
                         out.data(), &machine.ppe());
      }
    });
    m["shard.reduce_host_us"] = {s * 1e6 / kMerges, "us"};
  }
  return m;
}

}  // namespace cellbench
