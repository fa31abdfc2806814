// cellfeed tests: the SPE ingest kernel against the PPE decoder.
//
// The contract under test is differential and bitwise: a feed-ingested
// image — DMA-list gather of packed P6 rows, LS unpack, DMA-list scatter
// of aligned rows — must be indistinguishable from img::sic_decode's
// output at the byte level (pixels AND stride padding), on every image
// shape the MFC rules allow, through every engine scenario, and with
// faults injected on the SPEs carrying the feed. The triple-buffer
// pipeline is checked structurally via the kernel's tile telemetry, and
// the simulator's DMA-list invariants are each driven to a deliberate
// violation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "img/codec.h"
#include "img/ppm.h"
#include "img/synth.h"
#include "kernels/cd_kernel.h"
#include "kernels/feed_kernel.h"
#include "kernels/messages.h"
#include "marvel/cell_engine.h"
#include "marvel/reference_engine.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "sim/invariants.h"
#include "sim/local_store.h"
#include "sim/machine.h"
#include "sim/spe_context.h"
#include "support/aligned.h"
#include "support/error.h"
#include "testutil.h"

namespace cellport {
namespace {

using img::RgbImage;
using img::SceneKind;

// ---- kernel-level differential decode ----

/// Runs the feed kernel standalone over a P6 carrier, returning the
/// scattered destination image.
RgbImage run_feed_kernel(sim::Machine& machine [[maybe_unused]],
                         const img::SicEncoded& enc,
                         int row_begin = 0, int row_end = 0,
                         int rows_per_tile = 0,
                         kernels::BufferingDepth buffering =
                             kernels::kTripleBuffer) {
  port::SPEInterface iface(kernels::cd_module());
  img::PpmHeader hdr =
      img::parse_p6_header(enc.bytes.data(), enc.bytes.size());
  RgbImage dst(hdr.width, hdr.height);
  port::WrappedMessage<kernels::FeedMsg> msg;
  msg->src_ea = reinterpret_cast<std::uint64_t>(enc.bytes.data()) +
                hdr.pixel_offset;
  msg->dst_ea = reinterpret_cast<std::uint64_t>(dst.data());
  msg->width = hdr.width;
  msg->height = hdr.height;
  msg->dst_stride = dst.stride();
  msg->buffering = buffering;
  msg->row_begin = row_begin;
  msg->row_end = row_end;
  msg->rows_per_tile = rows_per_tile;
  iface.SendAndWait(static_cast<int>(kernels::SPU_Run_Feed), msg.ea());
  return dst;
}

/// Bytewise comparison over the full plane buffers: pixels and the
/// stride padding both (feed's pad memset must match the PPE path's
/// zero-initialized AlignedBuffer).
void expect_planes_identical(const RgbImage& a, const RgbImage& b) {
  ASSERT_TRUE(a.same_dims(b));
  ASSERT_EQ(a.stride(), b.stride());
  const std::size_t bytes =
      static_cast<std::size_t>(a.stride()) * a.height();
  EXPECT_EQ(std::memcmp(a.data(), b.data(), bytes), 0);
}

TEST(FeedKernel, DecodesEdgeShapesBitExactly) {
  // One column, one row, ragged heights that split unevenly into tiles,
  // sub-quadword rows, and the paper's full geometry.
  const struct {
    int w, h;
  } shapes[] = {{1, 1},   {1, 17},  {640, 1},  {3, 5},     {63, 37},
                {96, 19}, {33, 16}, {352, 240}, {47, 31}};
  for (const auto& s : shapes) {
    img::SicEncoded enc = img::ppm_encode(
        img::synth_image(SceneKind::kGradient, 91, s.w, s.h));
    RgbImage ref = img::sic_decode(enc);
    sim::Machine machine(sim::Machine::Config{1});
    RgbImage fed = run_feed_kernel(machine, enc);
    expect_planes_identical(fed, ref);
    // Every row went through the gather and scatter lists.
    EXPECT_GE(machine.spe(0).mfc().stats().list_elements,
              2 * static_cast<std::uint64_t>(s.h))
        << s.w << "x" << s.h;
    EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
  }
}

TEST(FeedKernel, MaxListElementWidthStreams) {
  // The widest row a single list element can carry: round_up(3w+15,16)
  // == 16 KiB exactly. One byte more and the kernel must refuse.
  const int w = 5456;
  ASSERT_EQ(cellport::round_up(static_cast<std::size_t>(w) * 3 + 15, 16),
            sim::Mfc::kMaxTransfer);
  img::SicEncoded enc =
      img::ppm_encode(img::synth_image(SceneKind::kTexture, 5, w, 3));
  RgbImage ref = img::sic_decode(enc);
  sim::Machine machine(sim::Machine::Config{1});
  expect_planes_identical(run_feed_kernel(machine, enc), ref);
}

TEST(FeedKernel, RefusesRowsOverTheMfcMaximum) {
  // 3w + 15 > 16 KiB: one source row no longer fits one list element.
  // The kernel throws (the engine answers this with its PPE fallback).
  img::SicEncoded enc =
      img::ppm_encode(img::synth_image(SceneKind::kGradient, 7, 5460, 2));
  sim::Machine machine(sim::Machine::Config{1});
  EXPECT_THROW(run_feed_kernel(machine, enc), cellport::Error);
}

TEST(FeedKernel, HonorsRowRanges) {
  // A sharded lane feeds only its range; rows outside stay untouched
  // (zero, as RgbImage initializes them).
  img::SicEncoded enc = img::ppm_encode(
      img::synth_image(SceneKind::kGradient, 13, 40, 16));
  RgbImage ref = img::sic_decode(enc);
  sim::Machine machine(sim::Machine::Config{1});
  RgbImage fed = run_feed_kernel(machine, enc, /*row_begin=*/5,
                                 /*row_end=*/11);
  for (int y = 0; y < 16; ++y) {
    const std::uint8_t* row = fed.row(y);
    if (y >= 5 && y < 11) {
      EXPECT_EQ(std::memcmp(row, ref.row(y),
                            static_cast<std::size_t>(fed.stride())),
                0)
          << "row " << y;
    } else {
      for (int i = 0; i < fed.stride(); ++i) {
        ASSERT_EQ(row[i], 0) << "row " << y << " byte " << i;
      }
    }
  }
}

TEST(FeedKernel, BufferingDepthDoesNotChangeResults) {
  img::SicEncoded enc = img::ppm_encode(
      img::synth_image(SceneKind::kShapes, 17, 63, 41));
  RgbImage ref = img::sic_decode(enc);
  for (auto depth : {kernels::kSingleBuffer, kernels::kDoubleBuffer,
                     kernels::kTripleBuffer}) {
    sim::Machine machine(sim::Machine::Config{1});
    expect_planes_identical(
        run_feed_kernel(machine, enc, 0, 0, /*rows_per_tile=*/8, depth),
        ref);
  }
}

TEST(FeedKernel, TripleBufferPhasesOverlap) {
  // Small forced tiles so the pipeline runs many turns, with the
  // kernel's telemetry recording each tile's gather-issue, unpack, and
  // scatter-issue stamps in simulated time.
  std::vector<kernels::FeedTileTrace> trace;
  kernels::set_feed_trace_sink(&trace);
  img::SicEncoded enc = img::ppm_encode(
      img::synth_image(SceneKind::kGradient, 23, 64, 64));
  sim::Machine machine(sim::Machine::Config{1});
  RgbImage fed = run_feed_kernel(machine, enc, 0, 0, /*rows_per_tile=*/4);
  kernels::set_feed_trace_sink(nullptr);
  expect_planes_identical(fed, img::sic_decode(enc));

  ASSERT_EQ(trace.size(), 16u);  // 64 rows / 4 per tile
  for (std::size_t t = 0; t < trace.size(); ++t) {
    ASSERT_EQ(trace[t].tile, static_cast<int>(t));
    // Per-tile order: gather issued, gather waited (unpack begins),
    // unpack ends at the scatter issue.
    EXPECT_LT(trace[t].get_issue_ns, trace[t].unpack_begin_ns);
    EXPECT_LE(trace[t].unpack_begin_ns, trace[t].unpack_end_ns);
    EXPECT_EQ(trace[t].put_issue_ns, trace[t].unpack_end_ns);
  }
  for (std::size_t t = 0; t + 2 < trace.size(); ++t) {
    // Triple buffering: while tile t+1 unpacks, the gathers of t+2 and
    // t+3 have already been issued...
    EXPECT_LE(trace[t + 2].get_issue_ns, trace[t + 1].unpack_begin_ns);
    if (t + 3 < trace.size()) {
      EXPECT_LE(trace[t + 3].get_issue_ns, trace[t + 1].unpack_begin_ns);
    }
    // ...and the scatter of tile t, issued at its unpack's end, has not
    // been waited on (its wait only happens at tile t+3's turn).
    EXPECT_LE(trace[t].put_issue_ns, trace[t + 1].unpack_begin_ns);
  }
}

// ---- DMA-list simulator invariants, each deliberately violated ----

class DmaListInvariants : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_thread_invariant_channel(&channel_);
  }
  void TearDown() override {
    sim::set_thread_invariant_channel(nullptr);
    sim::set_current_spe(nullptr);
  }
  bool reported(const char* rule) {
    for (const auto& v : channel_.snapshot()) {
      if (v.rule == rule) return true;
    }
    return false;
  }
  sim::InvariantChannel channel_;
};

TEST_F(DmaListInvariants, BoundsViolationIsReported) {
  sim::Machine m(sim::Machine::Config{1});
  sim::SpeContext& spe = m.spe(0);
  spe.ls().load_code(1024);
  sim::set_current_spe(&spe);
  AlignedBuffer<std::uint8_t> host(256);
  // A 128-byte list footprint starting 64 bytes before the end of the
  // local store: the second element lands past the LS. The whole
  // footprint is validated up front, so the list must throw before any
  // bytes move.
  std::uint8_t* ls_end = spe.ls().base() + sim::LocalStore::kCapacity;
  sim::MfcListElement list[2] = {
      {reinterpret_cast<std::uint64_t>(host.data()), 64},
      {reinterpret_cast<std::uint64_t>(host.data()) + 64, 64}};
  EXPECT_THROW(spe.mfc().get_list(ls_end - 64, list, 1), DmaError);
  EXPECT_TRUE(reported("mfc.list.bounds"));
}

TEST_F(DmaListInvariants, OverlapViolationIsReported) {
  sim::Machine m(sim::Machine::Config{1});
  sim::SpeContext& spe = m.spe(0);
  spe.ls().load_code(1024);
  sim::set_current_spe(&spe);
  AlignedBuffer<std::uint8_t> host(256);
  auto* ls = static_cast<std::uint8_t*>(spe.ls().alloc(256, 128));
  sim::MfcListElement a[1] = {
      {reinterpret_cast<std::uint64_t>(host.data()), 128}};
  sim::MfcListElement b[1] = {
      {reinterpret_cast<std::uint64_t>(host.data()) + 128, 128}};
  // Second gather list overlaps the first's still-in-flight LS window.
  spe.mfc().get_list(ls, a, 1);
  EXPECT_THROW(spe.mfc().get_list(ls + 64, b, 2), DmaError);
  EXPECT_TRUE(reported("mfc.list.overlap"));
  // Retiring the first list (tag wait) releases the window: the same
  // second list is then legal.
  spe.mfc().write_tag_mask(1u << 1);
  spe.mfc().read_tag_status_all();
  EXPECT_NO_THROW(spe.mfc().get_list(ls + 64, b, 2));
  spe.mfc().write_tag_mask(1u << 2);
  spe.mfc().read_tag_status_all();
}

TEST_F(DmaListInvariants, AccountingSkewIsReported) {
  sim::Machine m(sim::Machine::Config{1});
  sim::SpeContext& spe = m.spe(0);
  spe.ls().load_code(1024);
  sim::set_current_spe(&spe);
  AlignedBuffer<std::uint8_t> host(64);
  auto* ls = static_cast<std::uint8_t*>(spe.ls().alloc(64, 128));
  sim::MfcListElement list[1] = {
      {reinterpret_cast<std::uint64_t>(host.data()), 64}};
  spe.mfc().get_list(ls, list, 0);
  spe.mfc().write_tag_mask(1);
  spe.mfc().read_tag_status_all();
  EXPECT_TRUE(sim::check_machine_invariants(m).empty());
  // Skew the independent recount: the cross-check must notice.
  spe.mfc().debug_skew_list_accounting();
  bool found = false;
  for (const auto& v : sim::check_machine_invariants(m)) {
    if (v.rule == "mfc.list.accounting") found = true;
  }
  EXPECT_TRUE(found);
}

// ---- engine-level differential ingest ----

using testutil::expect_bitwise_equal;

class FeedEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_feed_models.bin", 2);
    carriers_ = new std::vector<img::SicEncoded>();
    for (std::uint64_t i = 0; i < 4; ++i) {
      carriers_->push_back(img::ppm_encode(
          testutil::seeded_image(7000 + i, 96, 64 + 3 * static_cast<int>(i))));
    }
  }
  static void TearDownTestSuite() {
    delete library_;
    delete carriers_;
  }
  static std::uint64_t counter(sim::Machine& m, const char* name) {
    return m.metrics().counter(name).value();
  }
  static std::uint64_t list_elements(sim::Machine& m) {
    std::uint64_t n = 0;
    for (int i = 0; i < m.num_spes(); ++i) {
      n += m.spe(i).mfc().stats().list_elements;
    }
    return n;
  }
  static guard::GuardPolicy guarded_policy() {
    guard::GuardPolicy gp;
    gp.enabled = true;
    gp.retry.deadline_ns = 500e6;
    return gp;
  }

  static testutil::TempLibrary* library_;
  static std::vector<img::SicEncoded>* carriers_;
};

testutil::TempLibrary* FeedEngine::library_ = nullptr;
std::vector<img::SicEncoded>* FeedEngine::carriers_ = nullptr;

TEST_F(FeedEngine, BitExactVsPpeIngestInEveryScenario) {
  for (auto scenario :
       {marvel::Scenario::kSingleSPE, marvel::Scenario::kMultiSPE,
        marvel::Scenario::kMultiSPE2, marvel::Scenario::kSharded}) {
    sim::Machine m_ppe;
    marvel::CellEngine ppe_engine(m_ppe, library_->path(), scenario);
    sim::Machine m_feed;
    marvel::CellEngine feed_engine(m_feed, library_->path(), scenario);
    feed_engine.set_feed(true);
    const std::uint64_t lists_before = list_elements(m_feed);
    for (const auto& enc : *carriers_) {
      expect_bitwise_equal(feed_engine.analyze(enc),
                           ppe_engine.analyze(enc));
    }
    EXPECT_EQ(counter(m_feed, "feed.images"), carriers_->size());
    EXPECT_EQ(counter(m_feed, "feed.ppe_fallbacks"), 0u);
    EXPECT_EQ(counter(m_ppe, "feed.images"), 0u);
    EXPECT_GT(list_elements(m_feed), lists_before);
    EXPECT_TRUE(sim::check_machine_invariants(m_feed).empty());
  }
}

TEST_F(FeedEngine, FeedCutsThePpeIoAttribution) {
  // The whole point: with feed on, the PPE touches only the header, so
  // its charged io_ns for the same workload collapses.
  auto io_ns = [&](bool feed) {
    sim::Machine m;
    marvel::CellEngine engine(m, library_->path(),
                              marvel::Scenario::kSharded);
    engine.set_feed(feed);
    double before = m.ppe().io_ns();
    for (const auto& enc : *carriers_) engine.analyze(enc);
    return m.ppe().io_ns() - before;
  };
  double with_feed = io_ns(true);
  double without = io_ns(false);
  EXPECT_LT(with_feed, without / 10) << "feed " << with_feed << " ns vs ppe "
                                     << without << " ns";
}

TEST_F(FeedEngine, NonCarrierInputsIgnoreTheKnob) {
  img::SicEncoded enc = img::sic_encode(testutil::seeded_image(8100));
  sim::Machine m_a;
  marvel::CellEngine plain(m_a, library_->path(),
                           marvel::Scenario::kMultiSPE);
  sim::Machine m_b;
  marvel::CellEngine feed(m_b, library_->path(),
                          marvel::Scenario::kMultiSPE);
  feed.set_feed(true);
  expect_bitwise_equal(feed.analyze(enc), plain.analyze(enc));
  EXPECT_EQ(counter(m_b, "feed.images"), 0u);
  // Identical simulated cost too: the knob must not perturb legacy runs.
  EXPECT_EQ(m_a.ppe().now_ns(), m_b.ppe().now_ns());
}

TEST_F(FeedEngine, OverwideRowsFallBackToPpeDecodeSilently) {
  // 3w+15 over one list element's 16 KiB: build_ingest() must choose the PPE
  // path up front (no kernel attempt, no fallback event) and still
  // decode correctly.
  img::SicEncoded enc = img::ppm_encode(
      img::synth_image(SceneKind::kGradient, 3, 5460, 24));
  sim::Machine m_feed;
  marvel::CellEngine feed(m_feed, library_->path(),
                          marvel::Scenario::kMultiSPE);
  feed.set_feed(true);
  sim::Machine m_ppe;
  marvel::CellEngine ppe(m_ppe, library_->path(),
                         marvel::Scenario::kMultiSPE);
  expect_bitwise_equal(feed.analyze(enc), ppe.analyze(enc));
  EXPECT_EQ(counter(m_feed, "feed.images"), 0u);
  EXPECT_EQ(counter(m_feed, "feed.ppe_fallbacks"), 0u);
}

TEST_F(FeedEngine, StreamMatchesPerCallWithFeed) {
  for (auto scenario :
       {marvel::Scenario::kMultiSPE, marvel::Scenario::kSharded}) {
    sim::Machine m_ppe;
    marvel::CellEngine ppe_engine(m_ppe, library_->path(), scenario);
    sim::Machine m_feed;
    marvel::CellEngine feed_engine(m_feed, library_->path(), scenario);
    feed_engine.set_feed(true);
    marvel::StreamOptions opts;
    opts.batch = 2;
    std::vector<marvel::AnalysisResult> out =
        feed_engine.analyze_stream(*carriers_, opts);
    ASSERT_EQ(out.size(), carriers_->size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      expect_bitwise_equal(out[i], ppe_engine.analyze((*carriers_)[i]));
    }
    EXPECT_EQ(counter(m_feed, "feed.images"), carriers_->size());
    EXPECT_TRUE(sim::check_machine_invariants(m_feed).empty());
  }
}

/// The feed tests that run on both dispatch paths: per-call analyze()
/// (false) and analyze_stream() (true).
class FeedPaths : public FeedEngine,
                  public ::testing::WithParamInterface<bool> {
 protected:
  std::vector<marvel::AnalysisResult> run(
      marvel::CellEngine& engine, const std::vector<img::SicEncoded>& in) {
    if (GetParam()) return engine.analyze_stream(in);
    std::vector<marvel::AnalysisResult> out;
    for (const auto& enc : in) out.push_back(engine.analyze(enc));
    return out;
  }
};

TEST_P(FeedPaths, UnguardedKernelFaultFallsBackToPpeRowsBitExactly) {
  // SPE 4 hosts the concept-detect interface — the feed lane in the
  // non-sharded scenarios. A transient DMA error there faults the feed
  // kernel on the first image; the unguarded engine must absorb it by
  // copying that lane's rows on the PPE, bit-exactly, and the second
  // image feeds cleanly (the fault was one-shot).
  sim::Machine m_feed;
  marvel::CellEngine feed(m_feed, library_->path(),
                          marvel::Scenario::kMultiSPE);
  feed.set_feed(true);
  sim::FaultInjection f;
  f.dma_error_after = 0;
  m_feed.spe(4).inject_fault(f);
  sim::Machine m_ppe;
  marvel::CellEngine ppe(m_ppe, library_->path(),
                         marvel::Scenario::kMultiSPE);
  const std::vector<img::SicEncoded> in(carriers_->begin(),
                                        carriers_->begin() + 2);
  const std::vector<marvel::AnalysisResult> got = run(feed, in);
  ASSERT_EQ(got.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    expect_bitwise_equal(got[i], ppe.analyze(in[i]));
    EXPECT_TRUE(got[i].degraded.empty());
  }
  EXPECT_EQ(counter(m_feed, "feed.ppe_fallbacks"), 1u);
  EXPECT_EQ(counter(m_feed, "feed.images"), 2u);
  // Only the second image's rows were fed by the SPE.
  EXPECT_EQ(counter(m_feed, "feed.rows"), 67u);
}

INSTANTIATE_TEST_SUITE_P(Path, FeedPaths, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Stream" : "PerCall";
                         });

TEST_F(FeedEngine, GuardedTransientFaultRetriesToTheSameResult) {
  // The baseline machine runs (and finishes) first: guarded recovery
  // spawns fresh SPE threads on the most recently constructed machine,
  // so the faulted machine must be the live one.
  sim::Machine m_ppe;
  marvel::CellEngine ppe(m_ppe, library_->path(),
                         marvel::Scenario::kMultiSPE);
  marvel::AnalysisResult want = ppe.analyze((*carriers_)[0]);

  sim::Machine m_feed;
  marvel::CellEngine feed(m_feed, library_->path(),
                          marvel::Scenario::kMultiSPE,
                          kernels::kDoubleBuffer, false, guarded_policy());
  feed.set_feed(true);
  sim::FaultInjection f;
  f.dma_error_after = 0;
  m_feed.spe(4).inject_fault(f);
  marvel::AnalysisResult r = feed.analyze((*carriers_)[0]);
  expect_bitwise_equal(r, want);
  EXPECT_TRUE(r.degraded.empty());
  EXPECT_GE(counter(m_feed, "guard.retries"), 1u);
  EXPECT_EQ(counter(m_feed, "feed.ppe_fallbacks"), 0u);
}

TEST_F(FeedEngine, GuardedPersistentFaultDegradesIngestToThePpe) {
  // 5 SPEs, no spares, SPE 4 permanently hung: the guarded feed exhausts
  // its retries and the engine records the degradation — but the result
  // is still correct, fed by the PPE row fallback.
  sim::Machine m_feed(sim::Machine::Config{5});
  guard::GuardPolicy gp = guarded_policy();
  marvel::CellEngine feed(m_feed, library_->path(),
                          marvel::Scenario::kSingleSPE,
                          kernels::kDoubleBuffer, false, gp);
  feed.set_feed(true);
  sim::FaultInjection f;
  f.hang_after = 0;
  f.hang_sticky = true;
  f.clears_on_restart = false;
  m_feed.spe(4).inject_fault(f);
  marvel::AnalysisResult r = feed.analyze((*carriers_)[0]);
  bool feed_degraded = false;
  for (const auto& d : r.degraded) {
    if (d == "feed:ingest") feed_degraded = true;
  }
  EXPECT_TRUE(feed_degraded);
  EXPECT_GE(counter(m_feed, "feed.ppe_fallbacks"), 1u);
  marvel::ReferenceEngine ref(sim::cell_ppe(), library_->path());
  testutil::expect_feature_equivalent(r, ref.analyze((*carriers_)[0]));
}

}  // namespace
}  // namespace cellport
