// Tests for the runtime extensions: signal-notification registers, the
// dynamic TaskPool, the stream's decode-ahead overlap, and the CH
// lookup-table variant.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "features/color_histogram.h"
#include "img/synth.h"
#include "kernels/ch_kernel.h"
#include "kernels/messages.h"
#include "learn/model_store.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "port/taskpool.h"
#include "sim/libspe.h"
#include "sim/machine.h"
#include "sim/signal.h"
#include "sim/spu_mfcio.h"
#include "testutil.h"

namespace cellport {
namespace {

// ---- signal registers ----

TEST(Signal, OverwriteModeLastWriteWins) {
  sim::SignalRegister reg(sim::SignalMode::kOverwrite);
  reg.write(0x1, 10.0);
  reg.write(0x2, 20.0);
  auto v = reg.read();
  EXPECT_EQ(v.bits, 0x2u);
  EXPECT_EQ(v.ts, 20.0);
  EXPECT_FALSE(reg.pending());
}

TEST(Signal, OrModeAccumulatesBits) {
  sim::SignalRegister reg(sim::SignalMode::kOr);
  reg.write(0x1, 10.0);
  reg.write(0x4, 5.0);
  reg.write(0x8, 30.0);
  auto v = reg.read();
  EXPECT_EQ(v.bits, 0xDu);
  EXPECT_EQ(v.ts, 30.0);  // latest delivery folded in
}

TEST(Signal, ReadIsDestructive) {
  sim::SignalRegister reg(sim::SignalMode::kOr);
  reg.write(0xFF, 1.0);
  EXPECT_TRUE(reg.pending());
  reg.read();
  EXPECT_FALSE(reg.pending());
  reg.write(0x1, 2.0);
  EXPECT_EQ(reg.read().bits, 0x1u);
}

int signal_echo_main(std::uint64_t, std::uint64_t) {
  // Waits for a signal, doubles it into the out mailbox, repeats until
  // the signal is zero.
  for (;;) {
    std::uint32_t bits = sim::spu_read_signal1();
    if (bits == 0) return 0;
    sim::spu_write_out_mbox(bits * 2);
  }
}

TEST(Signal, SpuChannelRoundTrip) {
  sim::Machine m;
  sim::SpeProgram prog{"sig_echo", 2048, &signal_echo_main};
  sim::speid_t id = sim::spe_create_thread(prog);
  sim::spe_write_signal(id, 1, 21);
  EXPECT_EQ(sim::spe_read_out_mbox(id), 42u);
  double t_after = m.ppe().now_ns();
  EXPECT_GT(t_after, 0.0);  // signal + mailbox latencies accrued
  sim::spe_write_signal(id, 1, 0);
  EXPECT_EQ(sim::spe_wait(id), 0);
}

// ---- TaskPool ----

struct CounterMsg {
  std::int32_t value = 0;
  std::int32_t pad[3] = {};
};

int incr_task(std::uint64_t ea) {
  auto* m = reinterpret_cast<CounterMsg*>(ea);
  m->value += 1;
  return 0;
}

int double_task(std::uint64_t ea) {
  auto* m = reinterpret_cast<CounterMsg*>(ea);
  m->value *= 2;
  return 0;
}

port::KernelModule& incr_module() {
  static port::KernelModule m("incr", 2048);
  static bool init = (m.add_function(1, &incr_task), true);
  (void)init;
  return m;
}

port::KernelModule& double_module() {
  static port::KernelModule m("dbl", 2048);
  static bool init = (m.add_function(1, &double_task), true);
  (void)init;
  return m;
}

TEST(TaskPool, RunsIndependentTasks) {
  sim::Machine machine;
  port::TaskPool pool(machine, 4);
  std::vector<port::WrappedMessage<CounterMsg>> msgs(16);
  for (auto& m : msgs) pool.submit(incr_module(), 1, m.ea());
  pool.wait_all();
  for (auto& m : msgs) EXPECT_EQ(m->value, 1);
  auto stats = pool.stats();
  EXPECT_EQ(stats.tasks_run, 16u);
  EXPECT_GT(stats.makespan_ns, 0.0);
}

TEST(TaskPool, HonorsDependences) {
  sim::Machine machine;
  port::TaskPool pool(machine, 4);
  port::WrappedMessage<CounterMsg> msg;
  msg->value = 3;
  // ((3+1)*2+1)*2 = 18 — only correct if the chain runs in order, even
  // though four workers are available.
  auto a = pool.submit(incr_module(), 1, msg.ea());
  auto b = pool.submit(double_module(), 1, msg.ea(), {a});
  auto c = pool.submit(incr_module(), 1, msg.ea(), {b});
  pool.submit(double_module(), 1, msg.ea(), {c});
  pool.wait_all();
  EXPECT_EQ(msg->value, 18);
}

TEST(TaskPool, DiamondDependence) {
  sim::Machine machine;
  port::TaskPool pool(machine, 4);
  port::WrappedMessage<CounterMsg> a_msg;
  port::WrappedMessage<CounterMsg> b_msg;
  port::WrappedMessage<CounterMsg> c_msg;
  auto root = pool.submit(incr_module(), 1, a_msg.ea());
  auto left = pool.submit(incr_module(), 1, b_msg.ea(), {root});
  auto right = pool.submit(incr_module(), 1, c_msg.ea(), {root});
  pool.submit(incr_module(), 1, a_msg.ea(), {left, right});
  pool.wait_all();
  EXPECT_EQ(a_msg->value, 2);  // root + join
  EXPECT_EQ(b_msg->value, 1);
  EXPECT_EQ(c_msg->value, 1);
}

TEST(TaskPool, CountsCodeSwitches) {
  sim::Machine machine;
  port::TaskPool pool(machine, 1);
  port::WrappedMessage<CounterMsg> msg;
  // Alternating modules on one worker: every task but repeats switches.
  auto t0 = pool.submit(incr_module(), 1, msg.ea());
  auto t1 = pool.submit(double_module(), 1, msg.ea(), {t0});
  auto t2 = pool.submit(double_module(), 1, msg.ea(), {t1});
  pool.submit(incr_module(), 1, msg.ea(), {t2});
  pool.wait_all();
  auto stats = pool.stats();
  EXPECT_EQ(stats.tasks_run, 4u);
  EXPECT_EQ(stats.code_switches, 3u);  // incr, dbl, (dbl cached), incr
}

TEST(TaskPool, ParallelWorkersBeatOneWorker) {
  static auto burn = +[](std::uint64_t) {
    sim::current_spe()->charge_even(3.2e6);  // 1 ms of SPU work
    return 0;
  };
  static port::KernelModule mod("burn1ms", 1024);
  static bool init = (mod.add_function(1, burn), true);
  (void)init;

  auto makespan = [&](int workers) {
    sim::Machine machine;
    port::TaskPool pool(machine, workers);
    for (int i = 0; i < 8; ++i) pool.submit(mod, 1, 0);
    pool.wait_all();
    return pool.stats().makespan_ns;
  };
  double one = makespan(1);
  double four = makespan(4);
  EXPECT_GT(one / four, 3.0);  // near-linear for independent tasks
}

TEST(TaskPool, MakespanIsIndependentOfHostScheduling) {
  // Uneven tasks over two kernels, so both the retirement order and the
  // worker each task lands on decide the makespan and the code switches.
  static auto burn = +[](std::uint64_t ea) {
    sim::current_spe()->charge_even(8e5 * static_cast<double>(1 + ea % 3));
    return 0;
  };
  static port::KernelModule mod_a("burn_a", 1024);
  static port::KernelModule mod_b("burn_b", 1024);
  static bool init =
      (mod_a.add_function(1, burn), mod_b.add_function(1, burn), true);
  (void)init;

  for (int workers : {1, 4, 8}) {
    auto run = [&] {
      sim::Machine machine;
      port::TaskPool pool(machine, workers);
      for (std::uint64_t i = 0; i < 8; ++i) {
        pool.submit(i % 2 == 0 ? mod_a : mod_b, 1, i);
      }
      pool.wait_all();
      return pool.stats();
    };
    const port::TaskPool::Stats first = run();
    for (int r = 1; r < 20; ++r) {
      const port::TaskPool::Stats again = run();
      EXPECT_EQ(again.makespan_ns, first.makespan_ns) << workers;
      EXPECT_EQ(again.code_switches, first.code_switches) << workers;
    }
  }
}

TEST(TaskPool, RejectsBadConfig) {
  sim::Machine machine;
  EXPECT_THROW(port::TaskPool(machine, 0), ConfigError);
  EXPECT_THROW(port::TaskPool(machine, 9), ConfigError);
  port::TaskPool pool(machine, 1);
  EXPECT_THROW(pool.submit(incr_module(), 1, 0, {99}), ConfigError);
}

TEST(TaskPool, SubmitAfterShutdownThrows) {
  sim::Machine machine;
  port::TaskPool pool(machine, 2);
  port::WrappedMessage<CounterMsg> msg;
  pool.submit(incr_module(), 1, msg.ea());
  pool.shutdown();
  EXPECT_EQ(msg->value, 1);  // the drain ran the accepted task
  EXPECT_THROW(pool.submit(incr_module(), 1, msg.ea()), cellport::Error);
  pool.wait_all();  // nothing new was accepted: returns at once
  EXPECT_EQ(pool.stats().tasks_run, 1u);
  EXPECT_EQ(msg->value, 1);
}

// ---- Figure 4(c) decode-ahead overlap on the stream path ----
//
// analyze_stream keeps two windows in flight per ring on the parallel
// scenarios: the PPE decodes window w+1 while the SPEs extract window w.
// At batch 1 that is the per-image overlap of Figure 4(c).

class StreamOverlap : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_runtime_models.bin",
                                         /*extra_concepts=*/2);
    data_ = new marvel::Dataset(marvel::make_dataset(4, 99));
  }
  static void TearDownTestSuite() {
    delete library_;
    delete data_;
  }
  static const std::string& library_path() { return library_->path(); }

  static testutil::TempLibrary* library_;
  static marvel::Dataset* data_;
};

testutil::TempLibrary* StreamOverlap::library_ = nullptr;
marvel::Dataset* StreamOverlap::data_ = nullptr;

TEST_F(StreamOverlap, ResultsMatchPerImageAnalyze) {
  for (marvel::Scenario scen :
       {marvel::Scenario::kMultiSPE, marvel::Scenario::kMultiSPE2}) {
    sim::Machine m1;
    marvel::CellEngine streamed(m1, library_path(), scen);
    marvel::StreamOptions opts;
    opts.batch = 1;
    auto batch = streamed.analyze_stream(data_->images, opts);

    sim::Machine m2;
    marvel::CellEngine plain(m2, library_path(), scen);
    ASSERT_EQ(batch.size(), data_->images.size());
    for (std::size_t i = 0; i < data_->images.size(); ++i) {
      auto ref = plain.analyze(data_->images[i]);
      testutil::expect_bitwise_equal(batch[i], ref);
    }
  }
}

TEST_F(StreamOverlap, OverlapBeatsSequentialStreamAndPerCall) {
  enum class Mode { kPerCall, kSequential, kOverlapped };
  auto batch_ns = [&](Mode mode) {
    sim::Machine machine;
    marvel::CellEngine engine(machine, library_path(),
                              marvel::Scenario::kMultiSPE);
    double t0 = machine.ppe().now_ns();
    if (mode == Mode::kPerCall) {
      for (const auto& image : data_->images) engine.analyze(image);
    } else {
      marvel::StreamOptions opts;
      opts.batch = 1;
      opts.sequential = mode == Mode::kSequential;
      engine.analyze_stream(data_->images, opts);
    }
    return machine.ppe().now_ns() - t0;
  };
  const double per_call = batch_ns(Mode::kPerCall);
  const double sequential = batch_ns(Mode::kSequential);
  const double overlapped = batch_ns(Mode::kOverlapped);
  // The decode time of images 2..n hides behind kernel time.
  EXPECT_LT(overlapped, per_call * 0.95);
  EXPECT_LT(overlapped, sequential * 0.95);
}

// ---- CH LUT variant ----

TEST(ChLutKernel, TradesAccuracyForSpeed) {
  img::RgbImage image = img::synth_image(img::SceneKind::kShapes, 11);
  features::FeatureVector ref =
      features::extract_color_histogram(image);

  auto run = [&](int opcode, double* wall_ns) {
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
    iface.SendAndWait(opcode, msg.ea());
    *wall_ns = machine.ppe().now_ns() - t0;
    return std::vector<float>(out.data(), out.data() + img::kHsvBins);
  };

  double t_exact = 0;
  double t_lut = 0;
  auto exact = run(static_cast<int>(kernels::SPU_Run), &t_exact);
  auto lut = run(static_cast<int>(kernels::SPU_Run_Lut), &t_lut);

  // Faster...
  EXPECT_LT(t_lut, t_exact);
  // ...distribution is normalized...
  double sum = 0;
  for (float v : lut) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-4);
  // ...and close to (but not exactly) the reference: the 5-bit table
  // loses the low bits that decide boundary pixels.
  double l1 = 0;
  for (std::size_t i = 0; i < lut.size(); ++i) {
    l1 += std::abs(static_cast<double>(lut[i]) - ref.values[i]);
  }
  EXPECT_GT(l1, 0.0);
  EXPECT_LT(l1, 0.25);
}

}  // namespace
}  // namespace cellport
