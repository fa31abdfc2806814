// cellstream tests: the command ring (wraparound, batch-of-one cost
// parity, metrics) and the streaming engine (bit-exact with per-call
// analyze, guarded per-request recovery, throughput).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/faults.h"
#include "img/color.h"
#include "img/synth.h"
#include "kernels/ch_kernel.h"
#include "kernels/messages.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "marvel/stream_engine.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "sim/invariants.h"
#include "sim/machine.h"
#include "sim/spu_mfcio.h"
#include "support/aligned.h"
#include "support/error.h"
#include "testutil.h"

namespace cellport {
namespace {

using check::FaultMsg;
using marvel::AnalysisResult;

/// Minimal kernel with real DMA traffic: fetches 64 bytes from msg->ea
/// and returns their sum.
port::KernelModule& ring_sum_module() {
  static port::KernelModule mod("stream_sum", 4096);
  static bool init = (mod.add_function(1, +[](std::uint64_t ea) {
                        auto* msg = reinterpret_cast<FaultMsg*>(ea);
                        auto* buf = static_cast<std::uint8_t*>(
                            sim::spu_ls_alloc(64, 16));
                        sim::mfc_get(buf, msg->ea, 64, 1);
                        sim::mfc_write_tag_mask(1u << 1);
                        sim::mfc_read_tag_status_all();
                        int sum = 0;
                        for (int i = 0; i < 64; ++i) sum += buf[i];
                        return sum;
                      }),
                      true);
  (void)init;
  return mod;
}

void expect_identical(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(a.color_histogram.values, b.color_histogram.values);
  EXPECT_EQ(a.color_correlogram.values, b.color_correlogram.values);
  EXPECT_EQ(a.texture.values, b.texture.values);
  EXPECT_EQ(a.edge_histogram.values, b.edge_histogram.values);
  EXPECT_EQ(a.ch_detect.values, b.ch_detect.values);
  EXPECT_EQ(a.cc_detect.values, b.cc_detect.values);
  EXPECT_EQ(a.tx_detect.values, b.tx_detect.values);
  EXPECT_EQ(a.eh_detect.values, b.eh_detect.values);
}

// ---- SPEInterface command ring ----

TEST(Ring, WraparoundDeliversEveryResultInOrder) {
  sim::Machine machine;
  port::SPEInterface iface(ring_sum_module(), 0);
  iface.set_ring_capacity(4);

  cellport::AlignedBuffer<std::uint8_t> bufs[3] = {
      cellport::AlignedBuffer<std::uint8_t>(64),
      cellport::AlignedBuffer<std::uint8_t>(64),
      cellport::AlignedBuffer<std::uint8_t>(64)};
  port::WrappedMessage<FaultMsg> msgs[3];
  for (int j = 0; j < 3; ++j) {
    msgs[j]->ea = reinterpret_cast<std::uint64_t>(bufs[j].data());
  }

  // Three batches of three through a 4-slot ring: the head wraps after
  // every batch and the results must still come back in enqueue order.
  for (int b = 0; b < 3; ++b) {
    for (int j = 0; j < 3; ++j) {
      auto v = static_cast<std::uint8_t>(b * 3 + j + 1);
      for (int i = 0; i < 64; ++i) bufs[j][static_cast<std::size_t>(i)] = v;
      iface.Enqueue(1, msgs[j].ea());
    }
    EXPECT_EQ(iface.FlushBatch(), 3);
    std::vector<int> res;
    ASSERT_TRUE(iface.WaitBatch(&res));
    ASSERT_EQ(res.size(), 3u);
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(res[static_cast<std::size_t>(j)], 64 * (b * 3 + j + 1));
    }
  }
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

TEST(Ring, MultipleBatchesInFlightRetireInFifoOrder) {
  sim::Machine machine;
  port::SPEInterface iface(ring_sum_module(), 0);
  iface.set_ring_capacity(4);

  cellport::AlignedBuffer<std::uint8_t> bufs[4] = {
      cellport::AlignedBuffer<std::uint8_t>(64),
      cellport::AlignedBuffer<std::uint8_t>(64),
      cellport::AlignedBuffer<std::uint8_t>(64),
      cellport::AlignedBuffer<std::uint8_t>(64)};
  port::WrappedMessage<FaultMsg> msgs[4];
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 64; ++i) {
      bufs[j][static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(j + 1);
    }
    msgs[j]->ea = reinterpret_cast<std::uint64_t>(bufs[j].data());
  }

  iface.Enqueue(1, msgs[0].ea());
  iface.Enqueue(1, msgs[1].ea());
  EXPECT_EQ(iface.FlushBatch(), 2);
  iface.Enqueue(1, msgs[2].ea());
  iface.Enqueue(1, msgs[3].ea());
  EXPECT_EQ(iface.FlushBatch(), 2);
  EXPECT_EQ(iface.ring_batches_in_flight(), 2u);
  // A fifth enqueue would overfill the 4-slot ring while both batches
  // are still in flight.
  EXPECT_THROW(iface.Enqueue(1, msgs[0].ea()), ConfigError);

  std::vector<int> res;
  ASSERT_TRUE(iface.WaitBatch(&res));
  ASSERT_TRUE(iface.WaitBatch(&res));
  ASSERT_EQ(res.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(res[static_cast<std::size_t>(j)], 64 * (j + 1));
  }
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

TEST(Ring, DrainOnCloseRetiresInFlightBatches) {
  sim::Machine machine;
  {
    // Declared before the interface: its destructor drains batches that
    // still read them.
    cellport::AlignedBuffer<std::uint8_t> host(64);
    port::WrappedMessage<FaultMsg> msg;
    port::SPEInterface iface(ring_sum_module(), 0);
    iface.set_ring_capacity(8);
    msg->ea = reinterpret_cast<std::uint64_t>(host.data());
    iface.Enqueue(1, msg.ea());
    iface.Enqueue(1, msg.ea());
    iface.FlushBatch();
    iface.Enqueue(1, msg.ea());  // never doorbelled: rolled back on close
    // Destructor must drain the in-flight batch and exit cleanly.
  }
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

TEST(Ring, BatchOfOneCostsWithinOnePercentOfLegacy) {
  // The acceptance bar for the protocol itself: driving a kernel through
  // one-request ring batches must cost (simulated) within 1% of the
  // legacy two-mailbox-word call — the ring only pays two extra staging
  // DMAs per batch against one saved mailbox word.
  img::RgbImage image = img::synth_image(img::SceneKind::kGradient, 7,
                                         352, 240);
  const int kCalls = 8;
  auto run = [&](bool use_ring) {
    sim::Machine machine;
    port::SPEInterface iface(kernels::ch_module(), 0);
    cellport::AlignedBuffer<float> out(
        cellport::round_up(static_cast<std::size_t>(img::kHsvBins), 8));
    port::WrappedMessage<kernels::ImageMsg> msg;
    msg->pixels_ea = reinterpret_cast<std::uint64_t>(image.data());
    msg->width = image.width();
    msg->height = image.height();
    msg->stride = image.stride();
    msg->buffering = kernels::kDoubleBuffer;
    msg->out_ea = reinterpret_cast<std::uint64_t>(out.data());
    msg->out_count = img::kHsvBins;
    if (use_ring) iface.set_ring_capacity(2);
    sim::SimTime t0 = machine.ppe().now_ns();
    for (int i = 0; i < kCalls; ++i) {
      if (use_ring) {
        iface.Enqueue(static_cast<int>(kernels::SPU_Run), msg.ea());
        iface.FlushBatch();
        std::vector<int> res;
        EXPECT_TRUE(iface.WaitBatch(&res));
      } else {
        iface.SendAndWait(static_cast<int>(kernels::SPU_Run), msg.ea());
      }
    }
    return machine.ppe().now_ns() - t0;
  };
  sim::SimTime legacy = run(false);
  sim::SimTime ring = run(true);
  EXPECT_LE(ring, legacy * 1.01);
  EXPECT_GE(ring, legacy * 0.99);
}

TEST(Ring, FlushRecordsDoorbellAndOccupancyMetrics) {
  sim::Machine machine;
  port::SPEInterface iface(ring_sum_module(), 0);
  iface.set_ring_capacity(8);
  cellport::AlignedBuffer<std::uint8_t> host(64);
  port::WrappedMessage<FaultMsg> msg;
  msg->ea = reinterpret_cast<std::uint64_t>(host.data());
  for (int j = 0; j < 4; ++j) iface.Enqueue(1, msg.ea());
  iface.FlushBatch();
  std::vector<int> res;
  ASSERT_TRUE(iface.WaitBatch(&res));

  trace::MetricsRegistry& m = machine.metrics();
  EXPECT_EQ(m.value("spe0.ring.doorbells"), 1.0);
  EXPECT_EQ(m.value("spe0.ring.commands"), 4.0);
  const trace::Histogram* batch = m.find_histogram("spe0.ring.batch_size");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->count(), 1u);
  EXPECT_EQ(batch->max(), 4.0);
  const trace::Histogram* occ = m.find_histogram("spe0.ring.occupancy");
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->max(), 0.5);  // 4 in flight of 8 slots
}

// ---- streaming engine ----

class Stream : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ =
        new testutil::TempLibrary("cellport_stream_models.bin", 0);
    dataset_ = new marvel::Dataset(marvel::make_dataset(6, 4242));
  }
  static void TearDownTestSuite() {
    delete library_;
    delete dataset_;
  }
  static const std::string& library_path() { return library_->path(); }

  static std::vector<AnalysisResult> per_call_reference(
      marvel::Scenario scenario) {
    sim::Machine machine;
    marvel::CellEngine engine(machine, library_path(), scenario);
    std::vector<AnalysisResult> out;
    for (const auto& image : dataset_->images) {
      out.push_back(engine.analyze(image));
    }
    return out;
  }

  static testutil::TempLibrary* library_;
  static marvel::Dataset* dataset_;
};

testutil::TempLibrary* Stream::library_ = nullptr;
marvel::Dataset* Stream::dataset_ = nullptr;

TEST_F(Stream, BitExactWithPerCallAnalyzeInEveryScenario) {
  for (auto scenario :
       {marvel::Scenario::kSingleSPE, marvel::Scenario::kMultiSPE,
        marvel::Scenario::kMultiSPE2}) {
    std::vector<AnalysisResult> want = per_call_reference(scenario);
    sim::Machine machine;
    marvel::CellEngine engine(machine, library_path(), scenario);
    marvel::StreamStats stats;
    std::vector<AnalysisResult> got =
        engine.analyze_stream(dataset_->images, {/*batch=*/4}, &stats);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_identical(got[i], want[i]);
    }
    EXPECT_EQ(stats.images, dataset_->images.size());
    EXPECT_GT(stats.doorbells, 0u);
    EXPECT_GT(stats.images_per_sec, 0.0);
    EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
  }
}

TEST_F(Stream, BatchOfOneIsBitExactToo) {
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  std::vector<AnalysisResult> got =
      engine.analyze_stream(dataset_->images, {/*batch=*/1}, nullptr);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_identical(got[i], want[i]);
  }
}

TEST_F(Stream, BatchedStreamingBeatsPerCallThroughput) {
  sim::Machine m1;
  marvel::CellEngine percall(m1, library_path(),
                             marvel::Scenario::kMultiSPE);
  sim::SimTime t0 = m1.ppe().now_ns();
  for (const auto& image : dataset_->images) percall.analyze(image);
  sim::SimTime percall_ns = m1.ppe().now_ns() - t0;

  sim::Machine m2;
  marvel::CellEngine streamed(m2, library_path(),
                              marvel::Scenario::kMultiSPE);
  marvel::StreamStats stats;
  streamed.analyze_stream(dataset_->images, {/*batch=*/3}, &stats);
  EXPECT_LT(stats.elapsed_ns, percall_ns);
}

TEST_F(Stream, GuardFaultMidBatchRetriesOnlyTheAffectedRequest) {
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE,
                            kernels::kDoubleBuffer, false, guard);
  // One transient DMA fault deep inside the color-histogram SPE's second
  // streamed window: exactly one request of the batch fails, the others
  // must land untouched.
  sim::FaultInjection f;
  f.dma_error_after = 50;
  machine.spe(0).inject_fault(f);

  marvel::StreamStats stats;
  std::vector<AnalysisResult> got =
      engine.analyze_stream(dataset_->images, {/*batch=*/3}, &stats);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_identical(got[i], want[i]);
    EXPECT_TRUE(got[i].degraded.empty());
  }
  EXPECT_EQ(stats.request_retries, 1u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST_F(Stream, CloseReportsATerminalStatusForEveryRequest) {
  std::vector<AnalysisResult> want =
      per_call_reference(marvel::Scenario::kMultiSPE);
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  marvel::StreamEngine se(engine, {/*batch=*/2});
  // Three drained requests complete; two queued-but-unstarted ones must
  // surface as cancelled rather than silently vanish on close().
  for (int i = 0; i < 3; ++i) se.submit(dataset_->images[std::size_t(i)]);
  std::vector<AnalysisResult> got = se.drain();
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_identical(got[i], want[i]);
  }
  se.submit(dataset_->images[3]);
  se.submit(dataset_->images[4]);

  std::vector<marvel::StreamEngine::RequestEnd> ends = se.close();
  ASSERT_EQ(ends.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ends[i], marvel::StreamEngine::RequestEnd::kCompleted);
  }
  for (std::size_t i = 3; i < 5; ++i) {
    EXPECT_EQ(ends[i], marvel::StreamEngine::RequestEnd::kCancelled);
  }
  EXPECT_EQ(se.stats().cancelled, 2u);
  EXPECT_EQ(machine.metrics().counter("stream.cancelled").value(), 2u);

  // close() is idempotent and submit-after-close is a hard error.
  EXPECT_EQ(se.close(), ends);
  EXPECT_EQ(se.stats().cancelled, 2u);
  EXPECT_THROW(se.submit(dataset_->images[0]), cellport::Error);
}

TEST_F(Stream, CloseWithNothingPendingCancelsNothing) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  marvel::StreamEngine se(engine, {/*batch=*/2});
  se.submit(dataset_->images[0]);
  (void)se.drain();
  std::vector<marvel::StreamEngine::RequestEnd> ends = se.close();
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0], marvel::StreamEngine::RequestEnd::kCompleted);
  EXPECT_EQ(se.stats().cancelled, 0u);
}

// Eq. 3 charges a window's fused group its slowest lane. A streamed image
// at cold-queue position q runs fused range k on lane (k + q) mod L, so
// the leftover tiles split_fused gives the low ranges rotate over the L
// lanes and a mixed-size queue loads them alike; per call, range k stays
// on lane k.
TEST(StreamEngine, FusedLanesShareAMixedQueue) {
  testutil::TempLibrary library("cellport_stream_fused_models.bin", 0);
  const marvel::Dataset queue =
      marvel::make_mixed_size_ppm_dataset(28, 4242, 0.0);
  sim::Machine machine;
  marvel::CellEngine engine(machine, library.path(),
                            marvel::Scenario::kSharded);
  engine.set_feed(true);
  engine.set_fused(true);
  marvel::StreamEngine se(engine, {/*batch=*/16});
  (void)se.run(queue.images);
  const int lanes = engine.fused_plan().lanes;
  ASSERT_GE(lanes, 2);
  for (const marvel::Task& t : se.plan(1, 3).extract.tasks) {
    EXPECT_EQ(t.lane, (t.index + 16 + 3) % lanes);
  }
  sim::SimTime lo = machine.spe(0).busy_ns();
  sim::SimTime hi = lo;
  for (int i = 1; i < lanes; ++i) {
    lo = std::min(lo, machine.spe(i).busy_ns());
    hi = std::max(hi, machine.spe(i).busy_ns());
  }
  EXPECT_LE(static_cast<double>(hi), 1.02 * static_cast<double>(lo))
      << "fused lane busy " << lo << " .. " << hi << " ns";

  (void)engine.analyze(queue.images[0]);
  const marvel::ImagePlan& p = engine.plan();
  ASSERT_EQ(p.extract.tasks.size(), static_cast<std::size_t>(lanes));
  for (const marvel::Task& t : p.extract.tasks) EXPECT_EQ(t.lane, t.index);
}

}  // namespace
}  // namespace cellport
