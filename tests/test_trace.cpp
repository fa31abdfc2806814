// cellscope tests: JSON round-trips, metric distributions, and — the
// property everything else rests on — deterministic, byte-identical traces
// across runs regardless of host thread scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "port/message.h"
#include "port/spe_interface.h"
#include "sim/machine.h"
#include "sim/report.h"
#include "sim/spu_mfcio.h"
#include "support/aligned.h"
#include "support/error.h"
#include "support/json.h"
#include "trace/chrome_export.h"
#include "trace/metrics.h"
#include "trace/timeline.h"
#include "trace/trace.h"

namespace cellport::trace {
namespace {

// ---- JSON writer / parser ----

TEST(Json, WriterProducesParseableDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("a\"b\\c\n");
  w.key("n").value(std::int64_t{-42});
  w.key("x").value_fixed(1.25, 3);
  w.key("flag").value(true);
  w.key("arr").begin_array().value(1).value(2).end_array();
  w.end_object();
  JsonValue v = json_parse(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->string, "a\"b\\c\n");
  EXPECT_EQ(v.find("n")->number, -42.0);
  EXPECT_EQ(v.find("x")->number, 1.25);
  EXPECT_TRUE(v.find("flag")->boolean);
  ASSERT_EQ(v.find("arr")->array.size(), 2u);
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_THROW(json_parse("{\"a\": }"), cellport::Error);
  EXPECT_THROW(json_parse("[1,2,]"), cellport::Error);
  EXPECT_THROW(json_parse("{} trailing"), cellport::Error);
  EXPECT_THROW(json_parse("\"unterminated"), cellport::Error);
}

TEST(Json, WriterEnforcesKeyDiscipline) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.value(1), cellport::Error);  // value without key
}

// ---- metrics ----

// The HDR histogram quotes interior quantiles from log-linear bucket
// midpoints: with kSubBuckets sub-buckets per octave the relative error
// is bounded by 1/(2*kSubBuckets). count/sum/min/max (and hence p0/p100)
// stay exact.
TEST(Metrics, HistogramPercentileErrorBound) {
  const double rel = 1.0 / (2.0 * Histogram::kSubBuckets);
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.percentile(0), 1.0, 1e-9);    // exact min
  EXPECT_NEAR(h.percentile(100), 100.0, 1e-9);  // exact max
  // Interior quantiles of 1..100: the exact rank-r statistic is r+1 at
  // p = 100*r/99; check the bucketed answer lands within the bound.
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    double exact = 1.0 + p / 100.0 * 99.0;
    EXPECT_NEAR(h.percentile(p), exact, rel * exact + 1.0)
        << "p=" << p;
  }
  EXPECT_GT(h.percentile(99), h.percentile(90));
  // Monotone in p.
  double prev = h.percentile(0);
  for (int p = 5; p <= 100; p += 5) {
    EXPECT_GE(h.percentile(p), prev);
    prev = h.percentile(p);
  }
}

TEST(Metrics, HistogramWideRangeStaysWithinBound) {
  const double rel = 1.0 / (2.0 * Histogram::kSubBuckets);
  Histogram h;
  // Nine decades: log-bucketing must hold the bound across octaves.
  std::vector<double> vals;
  double v = 1.0;
  for (int i = 0; i < 9 * 7; ++i) {
    vals.push_back(v);
    h.record(v);
    v *= 1.39;
  }
  for (double p : {50.0, 95.0, 99.0}) {
    // Same order statistic the histogram targets: sample index
    // floor(p/100 * (n-1)).
    double rank = p / 100.0 * (static_cast<double>(vals.size()) - 1);
    double exact = vals[static_cast<std::size_t>(rank)];
    EXPECT_LE(std::abs(h.percentile(p) - exact) / exact, rel + 1e-9)
        << "p=" << p;
  }
}

TEST(Metrics, HistogramEmptyAndSingleSample) {
  Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.min(), 0.0);
  EXPECT_EQ(empty.max(), 0.0);
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.percentile(50), 0.0);

  Histogram one;
  one.record(42.5);
  EXPECT_EQ(one.count(), 1u);
  // A single sample answers every quantile exactly (clamped to min/max).
  EXPECT_EQ(one.percentile(0), 42.5);
  EXPECT_EQ(one.percentile(50), 42.5);
  EXPECT_EQ(one.percentile(100), 42.5);
  EXPECT_EQ(one.mean(), 42.5);
}

TEST(Metrics, HistogramMergeEqualsSingleRecording) {
  // Merging per-thread histograms must equal recording every sample into
  // one histogram — bucket counts just add.
  Histogram a;
  Histogram b;
  Histogram all;
  for (int i = 1; i <= 50; ++i) {
    a.record(i * 3.7);
    all.record(i * 3.7);
  }
  for (int i = 1; i <= 80; ++i) {
    b.record(i * 11.1);
    all.record(i * 11.1);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  ASSERT_EQ(a.buckets().size(), all.buckets().size());
  for (const auto& [idx, n] : all.buckets()) {
    auto it = a.buckets().find(idx);
    ASSERT_NE(it, a.buckets().end());
    EXPECT_EQ(it->second, n);
  }
  for (int p = 0; p <= 100; p += 10) {
    EXPECT_EQ(a.percentile(p), all.percentile(p)) << "p=" << p;
  }

  // Merging into (or from) an empty histogram is the identity.
  Histogram from_empty;
  from_empty.merge(all);
  EXPECT_EQ(from_empty.count(), all.count());
  EXPECT_EQ(from_empty.percentile(95), all.percentile(95));
  Histogram untouched = all;
  untouched.merge(Histogram{});
  EXPECT_EQ(untouched.count(), all.count());
}

TEST(Metrics, HistogramNonPositiveSamplesLandInSentinel) {
  Histogram h;
  h.record(0.0);
  h.record(-5.0);
  h.record(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), -5.0);
  EXPECT_EQ(h.max(), 10.0);
  EXPECT_NEAR(h.sum(), 5.0, 1e-12);
  // Quantiles stay clamped to the exact extremes.
  EXPECT_EQ(h.percentile(0), -5.0);
  EXPECT_EQ(h.percentile(100), 10.0);
}

TEST(Metrics, RegistryJsonRoundTrip) {
  MetricsRegistry m;
  m.counter("a.count").add(3);
  m.gauge("b.gauge").set(2.5);
  m.histogram("c.hist").record(1);
  m.histogram("c.hist").record(3);
  JsonValue v = json_parse(m.to_json());
  EXPECT_EQ(v.find("counters")->find("a.count")->number, 3.0);
  EXPECT_EQ(v.find("gauges")->find("b.gauge")->number, 2.5);
  const JsonValue* h = v.find("histograms")->find("c.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 2.0);
  EXPECT_EQ(h->find("sum")->number, 4.0);
}

TEST(Metrics, StableReferencesAndReset) {
  MetricsRegistry m;
  Counter& c = m.counter("x");
  c.add(5);
  EXPECT_EQ(m.counter("x").value(), 5u);  // find-or-create returns same
  m.reset();
  EXPECT_EQ(c.value(), 0u);  // handed-out pointer still valid
}

// ---- track/span mechanics ----

TEST(TraceTrack, SpanNestingTracksDepth) {
  TraceSession session;
  TraceTrack* t = session.make_track(session.register_machine("m"), "lane");
  t->begin(Category::kProfiler, "outer", 0);
  t->begin(Category::kProfiler, "inner", 10);
  EXPECT_EQ(t->open_depth(), 2);
  t->end(20);
  t->end(30);
  EXPECT_EQ(t->open_depth(), 0);
  ASSERT_EQ(t->events().size(), 4u);
  EXPECT_EQ(t->events()[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(t->events()[3].phase, TraceEvent::Phase::kEnd);
  EXPECT_THROW(t->end(40), cellport::Error);  // underflow
}

TEST(TraceSession, DisabledSessionRecordsNothing) {
  TraceSession session;
  session.set_enabled(false);
  session.install();
  {
    sim::Machine m(sim::Machine::Config{1});
    sim::SpeContext& spe = m.spe(0);
    EXPECT_FALSE(spe.trace_on());
    sim::set_current_spe(&spe);
    spe.ls().load_code(1024);
    AlignedBuffer<std::uint8_t> host(64);
    auto* ls = static_cast<std::uint8_t*>(spe.ls().alloc(64, 128));
    spe.mfc().get(ls, reinterpret_cast<std::uint64_t>(host.data()), 64, 0);
    spe.mfc().write_tag_mask(1);
    spe.mfc().read_tag_status_all();
    sim::set_current_spe(nullptr);
  }
  EXPECT_EQ(session.event_count(), 0u);
  session.uninstall();
}

TEST(TraceSession, SingleInstallEnforced) {
  TraceSession a;
  TraceSession b;
  a.install();
  EXPECT_THROW(b.install(), cellport::Error);
  a.uninstall();
  b.install();
  b.uninstall();
}

// ---- an instrumented workload: 4 SPE kernels doing DMA ----

struct CopyMsg {
  std::uint64_t src_ea = 0;
  std::uint32_t bytes = 0;
  std::uint32_t pad = 0;
};

int copy_kernel(std::uint64_t ea) {
  auto* msg = reinterpret_cast<CopyMsg*>(ea);
  void* ls = sim::spu_ls_alloc(msg->bytes, 128);
  sim::mfc_get(ls, msg->src_ea, msg->bytes, 1);
  sim::mfc_write_tag_mask(1u << 1);
  sim::mfc_read_tag_status_all();
  sim::current_spe()->charge_even(200);
  sim::current_spe()->charge_odd(80);
  return 7;
}

port::KernelModule& copy_module() {
  static port::KernelModule m("copy", 2048);
  static bool init = (m.add_function(1, &copy_kernel), true);
  (void)init;
  return m;
}

/// Runs the same 4-SPE DMA workload under a fresh session and returns the
/// exported Chrome trace.
std::string run_traced_workload() {
  TraceSession session;
  session.install();
  std::string doc;
  {
    sim::Machine machine;
    AlignedBuffer<std::uint8_t> host(4096);
    std::vector<std::unique_ptr<port::SPEInterface>> ifaces;
    std::vector<port::WrappedMessage<CopyMsg>> msgs(4);
    for (int i = 0; i < 4; ++i) {
      ifaces.push_back(
          std::make_unique<port::SPEInterface>(copy_module(), i));
      msgs[i]->src_ea = reinterpret_cast<std::uint64_t>(host.data());
      msgs[i]->bytes = 1024;
    }
    for (int i = 0; i < 4; ++i) ifaces[i]->Send(1, msgs[i].ea());
    for (int i = 0; i < 4; ++i) EXPECT_EQ(ifaces[i]->Wait(), 7);
    ifaces.clear();  // joins the SPE threads
    doc = chrome_trace_json(session);
  }
  session.uninstall();
  return doc;
}

TEST(ChromeExport, ByteIdenticalAcrossRuns) {
  std::string a = run_traced_workload();
  std::string b = run_traced_workload();
  EXPECT_EQ(a, b) << "simulated traces must not depend on host scheduling";
}

TEST(ChromeExport, RoundTripsThroughParserWithExpectedContent) {
  JsonValue v = json_parse(run_traced_workload());
  const JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool saw_dma = false;
  bool saw_mailbox = false;
  bool saw_kernel = false;
  std::vector<std::string> thread_names;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (ph->string == "M") {
      if (e.find("name")->string == "thread_name") {
        thread_names.push_back(e.find("args")->find("name")->string);
      }
      continue;
    }
    ASSERT_NE(e.find("ts"), nullptr);
    const JsonValue* cat = e.find("cat");
    if (cat == nullptr) continue;  // counters / E events
    if (cat->string == "dma") saw_dma = true;
    if (cat->string == "mailbox") saw_mailbox = true;
    if (cat->string == "kernel") {
      saw_kernel = true;
      EXPECT_EQ(e.find("ph")->string, "X");
      EXPECT_NE(e.find("dur"), nullptr);
      EXPECT_EQ(e.find("name")->string, "copy");
    }
  }
  EXPECT_TRUE(saw_dma);
  EXPECT_TRUE(saw_mailbox);
  EXPECT_TRUE(saw_kernel);

  int spe_tracks = 0;
  bool ppe_track = false;
  for (const std::string& name : thread_names) {
    if (name == "PPE") ppe_track = true;
    if (name.rfind("SPE", 0) == 0) ++spe_tracks;
  }
  EXPECT_TRUE(ppe_track);
  EXPECT_GE(spe_tracks, 4);
}

TEST(Timeline, RendersLanesForTheWorkload) {
  TraceSession session;
  session.install();
  std::string text;
  {
    sim::Machine machine(sim::Machine::Config{2});
    AlignedBuffer<std::uint8_t> host(4096);
    port::SPEInterface iface(copy_module(), 0);
    port::WrappedMessage<CopyMsg> msg;
    msg->src_ea = reinterpret_cast<std::uint64_t>(host.data());
    msg->bytes = 1024;
    EXPECT_EQ(iface.SendAndWait(1, msg.ea()), 7);
    text = render_timeline(session);
  }
  session.uninstall();
  EXPECT_NE(text.find("PPE"), std::string::npos);
  EXPECT_NE(text.find("SPE0"), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);  // a kernel span rendered
  EXPECT_NE(text.find("legend"), std::string::npos);
}

TEST(Machine, MetricsHistogramsAccumulateUnderTracing) {
  TraceSession session;
  session.install();
  {
    sim::Machine machine(sim::Machine::Config{1});
    AlignedBuffer<std::uint8_t> host(4096);
    port::SPEInterface iface(copy_module(), 0);
    port::WrappedMessage<CopyMsg> msg;
    msg->src_ea = reinterpret_cast<std::uint64_t>(host.data());
    msg->bytes = 1024;
    EXPECT_EQ(iface.SendAndWait(1, msg.ea()), 7);
    iface.thread_close();
    EXPECT_EQ(machine.metrics().counter("spe0.kernel.invocations").value(),
              1u);
    EXPECT_GE(
        machine.metrics().histogram("spe0.dma.wait_ns").count(), 1u);
    EXPECT_GE(
        machine.metrics().histogram("spe0.mbox.wait_ns").count(), 1u);
  }
  session.uninstall();
}

// Every series name of a 2-SPE machine after one copy kernel and a
// collect_metrics pass, with or without an installed TraceSession.
std::vector<std::string> machine_series(bool traced) {
  TraceSession session;
  if (traced) session.install();
  std::vector<std::string> names;
  {
    sim::Machine machine(sim::Machine::Config{2});
    AlignedBuffer<std::uint8_t> host(4096);
    port::SPEInterface iface(copy_module(), 0);
    port::WrappedMessage<CopyMsg> msg;
    msg->src_ea = reinterpret_cast<std::uint64_t>(host.data());
    msg->bytes = 1024;
    EXPECT_EQ(iface.SendAndWait(1, msg.ea()), 7);
    iface.thread_close();
    sim::collect_metrics(machine, machine.metrics());
    for (const auto& [name, c] : machine.metrics().counters()) {
      names.push_back(name);
    }
    for (const auto& [name, g] : machine.metrics().gauges()) {
      names.push_back(name);
    }
    for (const auto& [name, h] : machine.metrics().histograms()) {
      names.push_back(name);
    }
  }
  if (traced) session.uninstall();
  std::sort(names.begin(), names.end());
  return names;
}

TEST(Machine, TraceOnlySeriesAreExactlyWhatTracingAdds) {
  const std::vector<std::string> plain = machine_series(false);
  const std::vector<std::string> traced = machine_series(true);
  std::vector<std::string> added;
  std::set_difference(traced.begin(), traced.end(), plain.begin(),
                      plain.end(), std::back_inserter(added));
  EXPECT_TRUE(std::includes(traced.begin(), traced.end(), plain.begin(),
                            plain.end()));
  EXPECT_EQ(added.size(), 8u);  // four series on each of the two SPEs
  for (const std::string& name : added) {
    EXPECT_TRUE(sim::Machine::trace_only_series(name)) << name;
  }
  for (const std::string& name : plain) {
    EXPECT_FALSE(sim::Machine::trace_only_series(name)) << name;
  }
  EXPECT_FALSE(sim::Machine::trace_only_series("spe.dma.wait_ns"));
  EXPECT_FALSE(sim::Machine::trace_only_series("spe0.dma.wait_ns.p95"));
  EXPECT_FALSE(sim::Machine::trace_only_series("multi_spe.spe0.ring.depth"));
}

}  // namespace
}  // namespace cellport::trace
