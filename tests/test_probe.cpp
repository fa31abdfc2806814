// cellprobe tests: the exact PPE-time partition, critical-path
// extraction, Amdahl attribution, bench_diff gating, and — the property
// the whole layer rests on — probed engine runs being bit-exact and
// free in simulated time.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "img/synth.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "probe/attribution.h"
#include "probe/bench_diff.h"
#include "probe/request_trace.h"
#include "sim/machine.h"
#include "support/json.h"
#include "testutil.h"

namespace cellport::probe {
namespace {

// ---- RequestTrace mechanics ----

/// A hand-built request: decode 0..10, a wait 10..40 covering two SPE
/// kernels, a detect span 40..60 containing a 3 ns retry, root closes
/// at 70.
RequestTrace make_trace() {
  RequestTrace rt;
  rt.start("req", 0);
  rt.open(Phase::kDecode, 0);
  rt.close(10);
  rt.open(Phase::kExtract, 10);
  rt.add_spe_span(Phase::kExtract, "ch", 12, 35);
  rt.add_spe_span(Phase::kExtract, "cc", 12, 38);
  rt.close(40);
  rt.open(Phase::kDetect, 40);
  rt.add_closed(Phase::kGuardRetry, "cd:ch", 42, 45);
  rt.close(60);
  rt.finish(70);
  return rt;
}

TEST(RequestTrace, ExclusivePartitionTelescopesToElapsed) {
  RequestTrace rt = make_trace();
  EXPECT_EQ(rt.elapsed_ns(), 70.0);
  std::map<Phase, double> ex = rt.exclusive_ns();
  EXPECT_DOUBLE_EQ(ex[Phase::kDecode], 10.0);
  EXPECT_DOUBLE_EQ(ex[Phase::kExtract], 30.0);  // SPE kids don't subtract
  EXPECT_DOUBLE_EQ(ex[Phase::kDetect], 17.0);   // 20 minus the retry
  EXPECT_DOUBLE_EQ(ex[Phase::kGuardRetry], 3.0);
  EXPECT_DOUBLE_EQ(ex[Phase::kOther], 10.0);  // root gap after detect
  double sum = 0;
  for (const auto& [phase, ns] : ex) sum += ns;
  EXPECT_DOUBLE_EQ(sum, rt.elapsed_ns());
}

TEST(RequestTrace, CriticalPathCoversElapsedAndNamesGatingKernel) {
  RequestTrace rt = make_trace();
  std::vector<RequestTrace::CritStep> path = rt.critical_path();
  ASSERT_FALSE(path.empty());
  double sum = 0;
  bool saw_gate = false;
  for (const auto& step : path) {
    sum += step.ns;
    if (step.phase == Phase::kExtract) {
      EXPECT_EQ(step.crit_label, "cc");  // latest-finishing SPE child
      saw_gate = true;
    }
  }
  EXPECT_TRUE(saw_gate);
  EXPECT_DOUBLE_EQ(sum, rt.elapsed_ns());
}

TEST(RequestTrace, InertBeforeStartAndAfterFinish) {
  RequestTrace rt;
  // Everything no-ops until start().
  rt.open(Phase::kDecode, 0);
  rt.close(5);
  rt.add_spe_span(Phase::kExtract, "x", 0, 5);
  rt.finish(9);
  EXPECT_TRUE(rt.spans().empty());

  rt = make_trace();
  const std::size_t n = rt.spans().size();
  // Post-finish recording must not disturb the finished request.
  rt.open(Phase::kDecode, 80);
  rt.add_spe_span(Phase::kExtract, "late", 80, 90);
  EXPECT_EQ(rt.spans().size(), n);
  EXPECT_EQ(rt.elapsed_ns(), 70.0);
}

TEST(RequestTrace, UnbalancedSpansAreClosedByFinish) {
  RequestTrace rt;
  rt.start("req", 0);
  rt.open(Phase::kDecode, 0);
  rt.open(Phase::kPrepare, 4);
  rt.finish(20);  // defensively closes both at 20
  std::map<Phase, double> ex = rt.exclusive_ns();
  double sum = 0;
  for (const auto& [phase, ns] : ex) sum += ns;
  EXPECT_DOUBLE_EQ(sum, 20.0);
}

// ---- Attribution ----

TEST(Attribution, AggregatesRequestsAndTracksUncovered) {
  Attribution attr;
  RequestTrace rt = make_trace();
  attr.on_request(rt);
  attr.on_request(rt);
  EXPECT_EQ(attr.requests(), 2u);
  EXPECT_DOUBLE_EQ(attr.request_elapsed_ns(), 140.0);
  EXPECT_DOUBLE_EQ(attr.covered_ns(), 140.0);  // partition is exact

  attr.set_total_elapsed_ns(200.0);
  EXPECT_DOUBLE_EQ(attr.uncovered_ns(), 60.0);
  double share_sum = 0;
  bool saw_uncovered = false;
  for (const auto& [name, ns] : attr.rows()) {
    share_sum += attr.share(ns);
    saw_uncovered |= name == "uncovered";
  }
  EXPECT_TRUE(saw_uncovered);
  EXPECT_NEAR(share_sum, 1.0, 1e-12);

  // The gating kernel census picked up the extract wait's "cc".
  ASSERT_NE(attr.critical_kernels().find("cc"),
            attr.critical_kernels().end());
  EXPECT_EQ(attr.critical_kernels().at("cc"), 2u);

  std::string text = attr.format_text();
  EXPECT_NE(text.find("Amdahl attribution"), std::string::npos);
  EXPECT_NE(text.find("Critical kernels"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);

  JsonWriter w;
  attr.write_json(w);
  JsonValue v = json_parse(w.str());
  EXPECT_EQ(v.find("requests")->number, 2.0);
  EXPECT_DOUBLE_EQ(v.find("covered_ns")->number, 140.0);
  ASSERT_NE(v.find("phases")->find("extract_wait"), nullptr);
  ASSERT_NE(v.find("slowest"), nullptr);
}

// ---- bench_diff ----

std::string artifact_json(double p50, double per_sec, double share,
                          bool shape_ok) {
  return std::string("{\"bench\":\"t\",\"rows\":[{\"label\":\"Sharded\","
                     "\"p50_ns\":") +
         std::to_string(p50) +
         ",\"share\":" + std::to_string(share) +
         "}],\"metrics\":{\"stream.images_per_sec\":" +
         std::to_string(per_sec) +
         "},\"shape_checks\":[{\"ok\":" + (shape_ok ? "true" : "false") +
         ",\"what\":\"the claim\"}]}";
}

TEST(BenchDiff, IdenticalArtifactsPass) {
  std::string a = artifact_json(100.0, 50.0, 0.5, true);
  DiffReport r = diff_artifacts(a, a, 0.05);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.regressions(), 0u);
}

TEST(BenchDiff, TenPercentLatencyRiseFailsTheGate) {
  DiffReport r = diff_artifacts(artifact_json(100.0, 50.0, 0.5, true),
                                artifact_json(110.0, 50.0, 0.5, true),
                                0.05);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.regressions(), 1u);
  EXPECT_NE(r.format_text().find("REGRESSED"), std::string::npos);
}

TEST(BenchDiff, LatencyDropAndThroughputRiseAreImprovements) {
  DiffReport r = diff_artifacts(artifact_json(100.0, 50.0, 0.5, true),
                                artifact_json(80.0, 70.0, 0.5, true),
                                0.05);
  EXPECT_TRUE(r.ok());
}

TEST(BenchDiff, ThroughputDropFailsTheGate) {
  DiffReport r = diff_artifacts(artifact_json(100.0, 50.0, 0.5, true),
                                artifact_json(100.0, 40.0, 0.5, true),
                                0.05);
  EXPECT_FALSE(r.ok());
}

TEST(BenchDiff, WithinThresholdPassesAndSharesAreInformational) {
  // +4% latency under a 5% gate, and a share swing that must not gate.
  DiffReport r = diff_artifacts(artifact_json(100.0, 50.0, 0.5, true),
                                artifact_json(104.0, 50.0, 0.9, true),
                                0.05);
  EXPECT_TRUE(r.ok());
}

TEST(BenchDiff, MissingRowAndShapeFlipAreProblems) {
  std::string base = artifact_json(100.0, 50.0, 0.5, true);
  DiffReport flipped =
      diff_artifacts(base, artifact_json(100.0, 50.0, 0.5, false), 0.05);
  EXPECT_FALSE(flipped.ok());
  ASSERT_EQ(flipped.problems.size(), 1u);
  EXPECT_NE(flipped.problems[0].find("shape check regressed"),
            std::string::npos);

  std::string no_row =
      "{\"bench\":\"t\",\"rows\":[],\"metrics\":{},\"shape_checks\":[]}";
  DiffReport missing = diff_artifacts(base, no_row, 0.05);
  EXPECT_FALSE(missing.ok());

  // A baseline metric the fresh run no longer emits fails whatever its
  // direction: here a gated rate and an informational count vanish.
  std::string with_count = base;
  with_count.replace(with_count.find("\"metrics\":{") + 11, 0,
                     "\"t.images.count\":3,");
  DiffReport vanished = diff_artifacts(
      with_count,
      "{\"bench\":\"t\",\"rows\":[{\"label\":\"Sharded\",\"p50_ns\":100,"
      "\"share\":0.5}],\"metrics\":{},\"shape_checks\":[{\"ok\":true,"
      "\"what\":\"the claim\"}]}",
      0.05);
  EXPECT_FALSE(vanished.ok());
  ASSERT_EQ(vanished.problems.size(), 2u);
  EXPECT_NE(vanished.problems[0].find("'stream.images_per_sec' missing"),
            std::string::npos);
  EXPECT_NE(vanished.problems[1].find("'t.images.count' missing"),
            std::string::npos);
}

TEST(BenchDiff, DirectionInference) {
  EXPECT_EQ(metric_direction("Sharded.p50_ns"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("sharded.spe0.dma.stall_ns"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("reduce_ns_per_image"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("sharded.latency.end_to_end_ns.mean"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("stream.images_per_sec"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(metric_direction("speedup.kernel_p50"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(metric_direction("Sharded.extract_wait.share"),
            Direction::kInformational);
  EXPECT_EQ(metric_direction("sharded.images.count"),
            Direction::kInformational);
  // A lane group's rows (Eq. 3's group term and the group's work).
  EXPECT_EQ(metric_direction("fused_ring16.fused_lanes.max_busy_ns"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("Sharded.fused_feed_ring16.fused_lanes."
                             "sum_busy_ns"),
            Direction::kLowerIsBetter);
}

// ---- engine integration ----

class ProbeEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_probe_models.bin", 2);
    dataset_ = new marvel::Dataset(marvel::make_mixed_size_dataset(4));
  }
  static void TearDownTestSuite() {
    delete library_;
    delete dataset_;
  }
  static const std::string& library_path() { return library_->path(); }

  static testutil::TempLibrary* library_;
  static marvel::Dataset* dataset_;
};

testutil::TempLibrary* ProbeEndToEnd::library_ = nullptr;
marvel::Dataset* ProbeEndToEnd::dataset_ = nullptr;

/// Captures each finished trace and asserts its partition in place.
class CheckingSink : public ProbeSink {
 public:
  void on_request(const RequestTrace& rt) override {
    ++requests;
    double sum = 0;
    for (const auto& [phase, ns] : rt.exclusive_ns()) sum += ns;
    // The partition telescopes; only double rounding separates the two.
    EXPECT_NEAR(sum, rt.elapsed_ns(),
                1e-6 * std::max(1.0, rt.elapsed_ns()));
    double path_ns = 0;
    for (const auto& step : rt.critical_path()) path_ns += step.ns;
    EXPECT_NEAR(path_ns, rt.elapsed_ns(),
                1e-6 * std::max(1.0, rt.elapsed_ns()));
  }
  int requests = 0;
};

TEST_F(ProbeEndToEnd, ProbedAnalyzeIsBitExactAndFree) {
  for (marvel::Scenario scenario :
       {marvel::Scenario::kSingleSPE, marvel::Scenario::kMultiSPE,
        marvel::Scenario::kMultiSPE2, marvel::Scenario::kSharded}) {
    sim::Machine plain_machine;
    marvel::CellEngine plain(plain_machine, library_path(), scenario);
    marvel::AnalysisResult r0 = plain.analyze(dataset_->images[0]);
    double plain_ns = plain_machine.ppe().now_ns();

    sim::Machine probed_machine;
    marvel::CellEngine probed(probed_machine, library_path(), scenario);
    CheckingSink sink;
    probed.set_probe(&sink);
    marvel::AnalysisResult r1 = probed.analyze(dataset_->images[0]);
    double probed_ns = probed_machine.ppe().now_ns();

    // Probes read clocks without advancing them: zero simulated
    // overhead, identical results.
    EXPECT_EQ(plain_ns, probed_ns);
    EXPECT_EQ(r0.color_histogram.values, r1.color_histogram.values);
    EXPECT_EQ(r0.cc_detect.values, r1.cc_detect.values);
    EXPECT_EQ(sink.requests, 1);
  }
}

TEST_F(ProbeEndToEnd, AttributionCoversEveryAnalyzeRequest) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kSharded);
  Attribution attr;
  engine.set_probe(&attr);
  const sim::SimTime t0 = machine.ppe().now_ns();
  for (const auto& image : dataset_->images) engine.analyze(image);
  attr.set_total_elapsed_ns(machine.ppe().now_ns() - t0);
  EXPECT_EQ(attr.requests(), dataset_->images.size());
  EXPECT_NEAR(attr.covered_ns(), attr.request_elapsed_ns(),
              1e-6 * attr.request_elapsed_ns());
  EXPECT_LE(attr.covered_ns(), attr.total_elapsed_ns() * (1 + 1e-9));
  // Sharded requests must attribute real time to the reduce phase and
  // see at least one shard gating an extract wait.
  ASSERT_NE(attr.phase_ns().find(Phase::kReduce), attr.phase_ns().end());
  EXPECT_GT(attr.phase_ns().at(Phase::kReduce), 0.0);
  EXPECT_FALSE(attr.critical_kernels().empty());
}

TEST_F(ProbeEndToEnd, StreamRunIsOneProbedRequestAndStaysBitExact) {
  marvel::StreamOptions opts;
  opts.batch = 2;

  sim::Machine plain_machine;
  marvel::CellEngine plain(plain_machine, library_path(),
                           marvel::Scenario::kSharded);
  std::vector<marvel::AnalysisResult> r0 =
      plain.analyze_stream(dataset_->images, opts);
  double plain_ns = plain_machine.ppe().now_ns();

  sim::Machine probed_machine;
  marvel::CellEngine probed(probed_machine, library_path(),
                            marvel::Scenario::kSharded);
  CheckingSink sink;
  probed.set_probe(&sink);
  std::vector<marvel::AnalysisResult> r1 =
      probed.analyze_stream(dataset_->images, opts);
  double probed_ns = probed_machine.ppe().now_ns();

  EXPECT_EQ(plain_ns, probed_ns);
  ASSERT_EQ(r0.size(), r1.size());
  for (std::size_t i = 0; i < r0.size(); ++i) {
    EXPECT_EQ(r0[i].color_histogram.values, r1[i].color_histogram.values);
    EXPECT_EQ(r0[i].cc_detect.values, r1[i].cc_detect.values);
  }
  EXPECT_EQ(sink.requests, 1);  // the whole stream is one request
}

}  // namespace
}  // namespace cellport::probe
