// Ablations of the design choices DESIGN.md calls out: DMA buffering
// depth (the paper's "double and triple buffering"), polling vs
// interrupting completion, and the kernel-granularity trade-off the
// paper's Section 3.2 discusses qualitatively.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"
#include "features/color_correlogram.h"
#include "features/color_histogram.h"
#include "features/edge_histogram.h"
#include "features/vmx_variants.h"
#include "img/color.h"
#include "img/synth.h"
#include "kernels/cc_kernel.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_kernel.h"
#include "port/message.h"

using namespace cellport;
using namespace cellport::bench;

namespace {

double kernel_wall_ns(port::KernelModule& mod, const img::RgbImage& img,
                      int opcode, kernels::BufferingDepth depth) {
  sim::Machine machine(sim::Machine::Config{1});
  port::SPEInterface iface(mod);
  cellport::AlignedBuffer<float> out(168);
  port::WrappedMessage<kernels::ImageMsg> msg;
  msg->pixels_ea = reinterpret_cast<std::uint64_t>(img.data());
  msg->width = img.width();
  msg->height = img.height();
  msg->stride = img.stride();
  msg->buffering = depth;
  msg->out_ea = reinterpret_cast<std::uint64_t>(out.data());
  msg->out_count = img::kHsvBins;
  double t0 = machine.ppe().now_ns();
  iface.SendAndWait(opcode, msg.ea());
  return machine.ppe().now_ns() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  // With --trace/--timeline only the buffering-depth section is recorded:
  // its traces are the instructive ones (single buffering shows dma_wait
  // gaps between kernel spans; double buffering hides them under compute).
  Observability obs(parse_options(argc, argv));
  std::printf("== Ablations: the strategy's tunables ==\n\n");
  img::RgbImage image = img::synth_image(img::SceneKind::kShapes, 3);

  // --- DMA buffering depth (Section 4.1's first optimization) ---
  Table buf("DMA buffering depth (CHExtract / CCExtract, 352x240)");
  buf.header({"Depth", "CH[ms]", "CH gain", "CC[ms]", "CC gain"});
  double ch1 = 0;
  double cc1 = 0;
  for (auto depth : {kernels::kSingleBuffer, kernels::kDoubleBuffer,
                     kernels::kTripleBuffer}) {
    double ch = kernel_wall_ns(kernels::ch_module(), image,
                               kernels::SPU_Run, depth);
    double cc = kernel_wall_ns(kernels::cc_module(), image,
                               kernels::SPU_Run, depth);
    if (depth == kernels::kSingleBuffer) {
      ch1 = ch;
      cc1 = cc;
    }
    buf.row({std::to_string(static_cast<int>(depth)),
             Table::num(sim::ns_to_ms(ch), 3), Table::num(ch1 / ch, 2),
             Table::num(sim::ns_to_ms(cc), 3), Table::num(cc1 / cc, 2)});
  }
  std::printf("%s\n", buf.str().c_str());
  if (obs.session() != nullptr) obs.session()->set_enabled(false);
  double ch2 = kernel_wall_ns(kernels::ch_module(), image,
                              kernels::SPU_Run, kernels::kDoubleBuffer);
  shape_check(ch2 < ch1,
              "double buffering beats single buffering (DMA latency is "
              "hidden behind compute)");
  double ch3 = kernel_wall_ns(kernels::ch_module(), image,
                              kernels::SPU_Run, kernels::kTripleBuffer);
  shape_check(std::abs(ch3 - ch2) / ch2 < 0.10,
              "triple buffering adds little once latency is hidden "
              "(compute-bound kernel)");

  // --- DMA block size: LS pressure vs transfer count ---
  {
    auto ch_with_block = [&](int rows) {
      sim::Machine machine(sim::Machine::Config{1});
      port::SPEInterface iface(kernels::ch_module());
      cellport::AlignedBuffer<float> out(168);
      port::WrappedMessage<kernels::ImageMsg> msg;
      msg->pixels_ea = reinterpret_cast<std::uint64_t>(image.data());
      msg->width = image.width();
      msg->height = image.height();
      msg->stride = image.stride();
      // Single buffering exposes the per-block DMA latency the block
      // size amortizes (double buffering hides it entirely — see the
      // depth table above).
      msg->buffering = kernels::kSingleBuffer;
      msg->out_ea = reinterpret_cast<std::uint64_t>(out.data());
      msg->out_count = img::kHsvBins;
      msg->block_rows = rows;
      double t0 = machine.ppe().now_ns();
      iface.SendAndWait(kernels::SPU_Run, msg.ea());
      double t = machine.ppe().now_ns() - t0;
      return std::pair<double, std::uint64_t>(
          t, iface.spe().mfc().stats().transfers);
    };
    Table t("DMA block size (CHExtract, single buffering)");
    t.header({"Rows/block", "Time[ms]", "DMA commands"});
    double t1 = 0;
    double t24 = 0;
    for (int rows : {1, 4, 12, 24, 60}) {
      auto [time, transfers] = ch_with_block(rows);
      if (rows == 1) t1 = time;
      if (rows == 24) t24 = time;
      t.row({std::to_string(rows), Table::num(sim::ns_to_ms(time), 3),
             std::to_string(transfers)});
    }
    std::printf("%s\n", t.str().c_str());
    shape_check(t24 < t1,
                "bigger blocks amortize per-transfer latency (until LS "
                "pressure bites)");
  }

  // --- SPE port vs vectorizing on the PPE's own VMX unit ---
  {
    struct Variant {
      const char* name;
      features::FeatureVector (*scalar)(const img::RgbImage&,
                                        sim::ScalarContext*);
      features::FeatureVector (*vmx)(const img::RgbImage&,
                                     sim::ScalarContext*);
      port::KernelModule* module;
    };
    const Variant variants[] = {
        {"CHExtract", &features::extract_color_histogram,
         &features::extract_color_histogram_vmx, &kernels::ch_module()},
        {"CCExtract", &features::extract_color_correlogram,
         &features::extract_color_correlogram_vmx, &kernels::cc_module()},
        {"EHExtract", &features::extract_edge_histogram,
         &features::extract_edge_histogram_vmx, &kernels::eh_module()},
    };
    Table t("SPE port vs PPE VMX vectorization (speed-up over scalar "
            "PPE)");
    t.header({"Kernel", "PPE scalar[ms]", "PPE VMX", "SPE port"});
    bool spe_beats_vmx = true;
    for (const Variant& v : variants) {
      sim::ScalarContext scalar_ctx(sim::cell_ppe());
      v.scalar(image, &scalar_ctx);
      sim::ScalarContext vmx_ctx(sim::cell_ppe());
      v.vmx(image, &vmx_ctx);
      double spe_ns = kernel_wall_ns(*v.module, image, kernels::SPU_Run,
                                     kernels::kDoubleBuffer);
      double s_vmx = scalar_ctx.now_ns() / vmx_ctx.now_ns();
      double s_spe = scalar_ctx.now_ns() / spe_ns;
      spe_beats_vmx = spe_beats_vmx && s_spe > s_vmx;
      t.row({v.name, Table::num(sim::ns_to_ms(scalar_ctx.now_ns()), 2),
             Table::num(s_vmx, 2) + "x", Table::num(s_spe, 2) + "x"});
    }
    std::printf("%s\n", t.str().c_str());
    shape_check(spe_beats_vmx,
                "the SPE ports beat PPE-VMX vectorization on every "
                "kernel — the reason the porting effort is worth it at "
                "all");
  }

  // --- exact SIMD port vs the lookup-table approximation (CH) ---
  {
    features::FeatureVector ref =
        features::extract_color_histogram(image, nullptr);
    auto run_ch = [&](std::uint32_t opcode, double* wall) {
      sim::Machine machine(sim::Machine::Config{1});
      port::SPEInterface iface(kernels::ch_module());
      cellport::AlignedBuffer<float> out(168);
      port::WrappedMessage<kernels::ImageMsg> msg;
      msg->pixels_ea = reinterpret_cast<std::uint64_t>(image.data());
      msg->width = image.width();
      msg->height = image.height();
      msg->stride = image.stride();
      msg->buffering = kernels::kDoubleBuffer;
      msg->out_ea = reinterpret_cast<std::uint64_t>(out.data());
      msg->out_count = img::kHsvBins;
      double t0 = machine.ppe().now_ns();
      iface.SendAndWait(static_cast<int>(opcode), msg.ea());
      *wall = machine.ppe().now_ns() - t0;
      return std::vector<float>(out.data(), out.data() + img::kHsvBins);
    };
    double t_exact = 0;
    double t_lut = 0;
    auto exact = run_ch(kernels::SPU_Run, &t_exact);
    auto lut = run_ch(kernels::SPU_Run_Lut, &t_lut);
    double l1_exact = 0;
    double l1_lut = 0;
    for (std::size_t i = 0; i < lut.size(); ++i) {
      l1_exact += std::abs(static_cast<double>(exact[i]) - ref.values[i]);
      l1_lut += std::abs(static_cast<double>(lut[i]) - ref.values[i]);
    }
    Table t("CHExtract: bit-exact SIMD port vs 15-bit lookup table");
    t.header({"Variant", "Time[ms]", "L1 error vs reference"});
    t.row({"exact SIMD", Table::num(sim::ns_to_ms(t_exact), 3),
           Table::num(l1_exact, 4)});
    t.row({"32KiB LS lookup table", Table::num(sim::ns_to_ms(t_lut), 3),
           Table::num(l1_lut, 4)});
    std::printf("%s\n", t.str().c_str());
    shape_check(t_lut < t_exact && l1_exact == 0.0 && l1_lut > 0.0,
                "the table trades quantization fidelity for speed — the "
                "approximation class the paper's 53.67x implies");
  }

  // --- polling vs interrupt completion (Section 3.5 step 6) ---
  {
    struct AddMsg {
      std::int32_t a = 1, b = 2, sum = 0, pad = 0;
    };
    static auto add_fn = +[](std::uint64_t ea) {
      auto* m = reinterpret_cast<AddMsg*>(ea);
      m->sum = m->a + m->b;
      return 0;
    };
    auto round_trip = [&](port::CompletionMode mode) {
      static port::KernelModule poll_mod("poll", 1024,
                                         port::CompletionMode::kPolling);
      static port::KernelModule intr_mod(
          "intr", 1024, port::CompletionMode::kInterrupt);
      static bool init = (poll_mod.add_function(1, add_fn),
                          intr_mod.add_function(1, add_fn), true);
      (void)init;
      port::KernelModule& mod =
          mode == port::CompletionMode::kPolling ? poll_mod : intr_mod;
      sim::Machine machine(sim::Machine::Config{1});
      port::SPEInterface iface(mod);
      port::WrappedMessage<AddMsg> msg;
      double t0 = machine.ppe().now_ns();
      constexpr int kCalls = 100;
      for (int i = 0; i < kCalls; ++i) iface.SendAndWait(1, msg.ea());
      return (machine.ppe().now_ns() - t0) / kCalls;
    };
    double poll = round_trip(port::CompletionMode::kPolling);
    double intr = round_trip(port::CompletionMode::kInterrupt);
    Table t("Completion signalling (null-kernel round trip)");
    t.header({"Mode", "Round trip[us]"});
    t.row({"polling", Table::num(poll / 1000, 2)});
    t.row({"interrupt", Table::num(intr / 1000, 2)});
    std::printf("%s\n", t.str().c_str());
    shape_check(intr > poll,
                "interrupt delivery pays extra latency per call; polling "
                "wins for short kernels (Listing 3 polls)");
  }

  // --- kernel granularity (Section 3.2: "the bigger the kernel...") ---
  {
    // Invoking the histogram kernel per slice (many small commands) vs
    // one whole-image command: the protocol+DMA-warmup overhead of
    // fine-grained kernels.
    const img::RgbImage& img = image;
    auto sliced = [&](int slices) {
      sim::Machine machine(sim::Machine::Config{1});
      port::SPEInterface iface(kernels::ch_module());
      cellport::AlignedBuffer<float> out(168);
      double t0 = machine.ppe().now_ns();
      int rows = img.height() / slices;
      for (int s = 0; s < slices; ++s) {
        // A sub-image message per slice (histogram of a horizontal band).
        port::WrappedMessage<kernels::ImageMsg> msg;
        msg->pixels_ea = reinterpret_cast<std::uint64_t>(img.row(s * rows));
        msg->width = img.width();
        msg->height = s == slices - 1 ? img.height() - s * rows : rows;
        msg->stride = img.stride();
        msg->buffering = kernels::kDoubleBuffer;
        msg->out_ea = reinterpret_cast<std::uint64_t>(out.data());
        msg->out_count = img::kHsvBins;
        iface.SendAndWait(kernels::SPU_Run, msg.ea());
      }
      return machine.ppe().now_ns() - t0;
    };
    Table t("Kernel granularity: one command vs per-band commands");
    t.header({"Commands", "Total[ms]", "Overhead vs 1"});
    double one = sliced(1);
    for (int s : {1, 4, 16, 48}) {
      double v = sliced(s);
      t.row({std::to_string(s), Table::num(sim::ns_to_ms(v), 3),
             Table::num(v / one, 2)});
    }
    std::printf("%s\n", t.str().c_str());
    shape_check(sliced(48) > one,
                "fine-grained kernels pay protocol overhead: cluster "
                "methods into larger kernels (Section 3.2)");
  }
  if (obs.session() != nullptr) obs.session()->set_enabled(true);
  obs.finish();
  return shape_exit_code();
}
