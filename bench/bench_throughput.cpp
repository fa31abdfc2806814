// cellstream: streaming throughput of the batched command-ring dispatch.
//
// For each MARVEL scenario the same encoded image queue runs through (a)
// per-call analyze() — every kernel invocation pays the full two-word
// stub protocol — and (b) analyze_stream() at ring batch sizes 1, 4, 16
// and 64, where a window of requests is enqueued with plain stores and
// doorbelled with ONE mailbox word while the dispatcher overlaps each
// request's output DMA with the next one's input DMA. Reported in
// simulated images/second; results are bit-exact across all paths (the
// test suite and cellcheck enforce that — this bench measures).
//
// Two effects separate cleanly in the measurements. The *throughput* win
// of the parallel scenarios comes from pipelining: the engine keeps two
// windows in flight, so the PPE decodes window w+1 while the SPEs extract
// window w, and the overlapped fraction is (W-1)/W of the run — more
// windows (smaller batches) overlap more, and a batch as large as the
// whole queue (one window) degenerates to per-call timing. The *protocol*
// win is the doorbell amortization itself: one mailbox word per window
// instead of two per request, visible in the doorbell counts and in the
// per-request microbenchmark, but worth microseconds against
// milliseconds of kernel time.
//
// Shape claims checked (and recorded in BENCH_throughput.json, which CI
// diffs against the committed baseline for >5% regressions):
//   - ring dispatch at batch >= 16 beats per-call for the parallel
//     scenario (the tentpole claim);
//   - every batch size that admits >= 2 windows beats per-call in the
//     parallel scenarios (the pipelining effect);
//   - doorbells collapse by the batch factor (the amortization effect);
//   - cellfeed: streaming the queue as PPM carriers through the SPE
//     feed kernels beats PPE ingest of the same bytes, every carrier
//     rides the DMA-list path (feed.images == queue, zero fallbacks,
//     dma.list_elements > 0);
//   - cellfuse: the single-pass fused lanes run the extraction stage
//     >= 2x faster than the per-feature schedule on the same machine,
//     win end to end, and carry every image (fuse.images == queue);
//   - on the cellbench stream shape (8 SPEs, kSharded, feed and fused
//     lanes, batch 16, mixed-size PPM queue) the fused lanes' busy times
//     stay within 5% of each other: each image's range-to-lane map
//     rotates by its queue position, so split_fused's leftover tiles do
//     not pile onto the low lanes;
//   - the fused lanes' group rows, Eq. 3's group term: the busiest
//     lane's busy time (`fused_lanes.max_busy_ns`) and the group's total
//     (`fused_lanes.sum_busy_ns`), gated lower-is-better, so work that
//     only moves between lanes reads on neither;
//   - at the protocol level a batch-of-one ring request costs within 1%
//     of a legacy per-call request (the ring's two staging DMAs are noise
//     against one saved mailbox word).
#include <algorithm>
#include <cstdio>

#include "harness.h"
#include "img/color.h"
#include "sim/mfc.h"
#include "sim/spe_context.h"
#include "img/synth.h"
#include "kernels/ch_kernel.h"
#include "kernels/messages.h"
#include "port/message.h"
#include "port/spe_interface.h"

using namespace cellport;
using namespace cellport::bench;

namespace {

/// The busy times of a lane group, SPEs [0, lanes): Eq. 3 charges the
/// group its slowest lane, and the sum is the work the group did.
struct LaneGroup {
  double min_busy_ns = 0;
  double max_busy_ns = 0;
  double sum_busy_ns = 0;
};

LaneGroup lane_group(sim::Machine& machine, std::size_t lanes) {
  LaneGroup g;
  for (std::size_t i = 0; i < lanes; ++i) {
    const auto busy =
        static_cast<double>(machine.spe(static_cast<int>(i)).busy_ns());
    g.min_busy_ns = i == 0 ? busy : std::min(g.min_busy_ns, busy);
    g.max_busy_ns = std::max(g.max_busy_ns, busy);
    g.sum_busy_ns += busy;
  }
  return g;
}

/// Simulated ns for `calls` color-histogram invocations on a full MARVEL
/// frame, through the legacy protocol or through one-request ring
/// batches.
double protocol_ns(bool use_ring, int calls) {
  img::RgbImage image =
      img::synth_image(img::SceneKind::kGradient, 7, 352, 240);
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
  for (int i = 0; i < calls; ++i) {
    if (use_ring) {
      iface.Enqueue(static_cast<int>(kernels::SPU_Run), msg.ea());
      iface.FlushBatch();
      std::vector<int> res;
      iface.WaitBatch(&res);
    } else {
      iface.SendAndWait(static_cast<int>(kernels::SPU_Run), msg.ea());
    }
  }
  return machine.ppe().now_ns() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  Observability obs(parse_options(argc, argv));
  std::printf("== cellstream: ring-dispatch streaming throughput ==\n\n");

  BenchArtifact artifact("throughput");
  const int kImages = 64;
  marvel::Dataset data = marvel::make_dataset(kImages);

  const struct {
    const char* name;
    marvel::Scenario scenario;
  } kScenarios[] = {
      {"SingleSPE", marvel::Scenario::kSingleSPE},
      {"MultiSPE", marvel::Scenario::kMultiSPE},
      {"MultiSPE2", marvel::Scenario::kMultiSPE2},
  };
  const int kBatches[] = {1, 4, 16, 64};

  bool ok = true;
  bool pipeline_wins = true;
  double multi_percall_ips = 0, multi_ring16_ips = 0;
  double multi_ring1_doorbells = 0, multi_ring64_doorbells = 0;

  for (const auto& sc : kScenarios) {
    Table t(std::string(sc.name) + " (" + std::to_string(kImages) +
            " images, simulated images/sec)");
    t.header({"Dispatch", "img/s", "total ms", "doorbells"});

    double percall_ips;
    {
      sim::Machine machine;
      marvel::CellEngine engine(machine, library_path(), sc.scenario);
      sim::SimTime t0 = machine.ppe().now_ns();
      for (const auto& image : data.images) engine.analyze(image);
      double elapsed = machine.ppe().now_ns() - t0;
      percall_ips = kImages / (elapsed * 1e-9);
      t.row({"per-call", Table::num(percall_ips, 1),
             Table::num(elapsed / 1e6, 2), "-"});
      artifact.add_row(std::string(sc.name) + ".percall",
                       {{"images_per_sec", percall_ips},
                        {"elapsed_ns", elapsed}});
    }

    for (int batch : kBatches) {
      sim::Machine machine;
      marvel::CellEngine engine(machine, library_path(), sc.scenario);
      marvel::StreamStats stats;
      engine.analyze_stream(data.images, {batch}, &stats);
      t.row({"ring(" + std::to_string(batch) + ")",
             Table::num(stats.images_per_sec, 1),
             Table::num(stats.elapsed_ns / 1e6, 2),
             std::to_string(stats.doorbells)});
      artifact.add_row(
          std::string(sc.name) + ".ring" + std::to_string(batch),
          {{"images_per_sec", stats.images_per_sec},
           {"elapsed_ns", static_cast<double>(stats.elapsed_ns)},
           {"doorbells", static_cast<double>(stats.doorbells)}});
      // A batch of the whole queue is a single window — nothing left to
      // overlap — so only batches admitting >= 2 windows must win in the
      // parallel scenarios.
      if (sc.scenario != marvel::Scenario::kSingleSPE &&
          batch <= kImages / 2 && stats.images_per_sec <= percall_ips) {
        pipeline_wins = false;
      }
      if (sc.scenario == marvel::Scenario::kMultiSPE) {
        if (batch == 1) {
          multi_ring1_doorbells = static_cast<double>(stats.doorbells);
        }
        if (batch == 64) {
          multi_ring64_doorbells = static_cast<double>(stats.doorbells);
        }
        if (batch == 16) {
          multi_ring16_ips = stats.images_per_sec;
          sim::collect_metrics(machine, machine.metrics());
          artifact.add_machine_metrics(machine.metrics(), "multi_ring16.");
        }
      }
    }
    if (sc.scenario == marvel::Scenario::kMultiSPE) {
      multi_percall_ips = percall_ips;
    }
    std::printf("%s\n", t.str().c_str());
  }

  // cellfeed through the ring: the same queue as PPM carriers, ingested
  // by the SPE feed kernels (DMA-list gather + triple-buffered unpack)
  // vs the PPE byte loop on identical bytes. Streaming magnifies what
  // ingest placement is worth: the prepare stage of window w+1 overlaps
  // the SPE extraction of window w either way, but SPE ingest makes the
  // prepare stage itself nearly free on the PPE.
  {
    marvel::Dataset carriers =
        marvel::make_mixed_size_ppm_dataset(kImages);
    Table t("MultiSPE ring(16) ingest placement (" +
            std::to_string(kImages) + " PPM carriers)");
    t.header({"Ingest", "img/s", "total ms"});
    double feed_ips = 0, ppe_ips = 0;
    double feed_images = 0, feed_fallbacks = 0, feed_list_elements = 0;
    for (bool feed : {false, true}) {
      sim::Machine machine;
      marvel::CellEngine engine(machine, library_path(),
                                marvel::Scenario::kMultiSPE);
      engine.set_feed(feed);
      marvel::StreamStats stats;
      engine.analyze_stream(carriers.images, {16}, &stats);
      t.row({feed ? "SPE feed" : "PPE decode",
             Table::num(stats.images_per_sec, 1),
             Table::num(stats.elapsed_ns / 1e6, 2)});
      artifact.add_row(
          std::string("MultiSPE.ring16.") + (feed ? "feed" : "ppe_ingest"),
          {{"images_per_sec", stats.images_per_sec},
           {"elapsed_ns", static_cast<double>(stats.elapsed_ns)}});
      if (feed) {
        feed_ips = stats.images_per_sec;
        sim::collect_metrics(machine, machine.metrics());
        artifact.add_machine_metrics(machine.metrics(), "feed_ring16.");
        feed_images = static_cast<double>(
            machine.metrics().counter("feed.images").value());
        feed_fallbacks = static_cast<double>(
            machine.metrics().counter("feed.ppe_fallbacks").value());
        for (int i = 0; i < machine.num_spes(); ++i) {
          feed_list_elements += static_cast<double>(
              machine.spe(i).mfc().stats().list_elements);
        }
      } else {
        ppe_ips = stats.images_per_sec;
      }
    }
    std::printf("%s\n", t.str().c_str());
    artifact.set_metric("feed.list_elements", feed_list_elements);
    ok &= artifact.shape(feed_ips > ppe_ips,
                         "SPE-feed streaming beats PPE ingest of the "
                         "same PPM carriers through the same ring");
    ok &= artifact.shape(
        feed_images == static_cast<double>(kImages) &&
            feed_fallbacks == 0 && feed_list_elements > 0,
        "every carrier fed through the DMA-list path (feed.images == "
        "queue, no PPE fallbacks, dma.list_elements > 0)");
  }

  // cellfuse: the same queue with the per-feature extraction schedule vs
  // the single-pass fused lanes on an identical machine. The fused
  // kernel converts each image's pixels once (one RGB->HSV, one
  // RGB->gray) and emits all four raw-partial layouts in one
  // triple-buffered pass, so the extraction stage — the
  // Extract(parallel) phase the per-call path times — must run >= 2x
  // faster at the same machine shape. The streaming dispatcher overlaps
  // extraction with the next window's decode, so its rows report the
  // end-to-end effect; the 2x extraction gate reads the per-call phase
  // clock, where the stage is visible in isolation.
  {
    Table t("MultiSPE extraction schedule (" + std::to_string(kImages) +
            " images)");
    t.header(
        {"Extraction", "img/s", "extract ms", "ring(16) img/s"});
    double fused_ips = 0, perfeature_ips = 0;
    double fused_extract_ns = 0, perfeature_extract_ns = 0;
    double fuse_images = 0;
    for (bool fused : {false, true}) {
      double percall_ips, extract_ns;
      {
        sim::Machine machine;
        marvel::CellEngine engine(machine, library_path(),
                                  marvel::Scenario::kMultiSPE);
        engine.set_fused(fused);
        sim::SimTime t0 = machine.ppe().now_ns();
        for (const auto& image : data.images) engine.analyze(image);
        double elapsed = machine.ppe().now_ns() - t0;
        percall_ips = kImages / (elapsed * 1e-9);
        extract_ns =
            phase_ns(engine.profiler(), marvel::kPhaseExtractPar);
      }
      marvel::StreamStats stats;
      {
        sim::Machine machine;
        marvel::CellEngine engine(machine, library_path(),
                                  marvel::Scenario::kMultiSPE);
        engine.set_fused(fused);
        engine.analyze_stream(data.images, {16}, &stats);
        if (fused) {
          sim::collect_metrics(machine, machine.metrics());
          artifact.add_machine_metrics(machine.metrics(),
                                       "fused_ring16.");
          const LaneGroup g = lane_group(machine, engine.fused_lanes());
          artifact.set_metric("fused_ring16.fused_lanes.max_busy_ns",
                              g.max_busy_ns);
          artifact.set_metric("fused_ring16.fused_lanes.sum_busy_ns",
                              g.sum_busy_ns);
          fuse_images = static_cast<double>(
              machine.metrics().counter("fuse.images").value());
        }
      }
      t.row({fused ? "fused lanes" : "per-feature",
             Table::num(percall_ips, 1), Table::num(extract_ns / 1e6, 2),
             Table::num(stats.images_per_sec, 1)});
      artifact.add_row(
          std::string("MultiSPE.") + (fused ? "fused" : "per_feature"),
          {{"images_per_sec", percall_ips},
           {"extract_ns", extract_ns},
           {"ring16_images_per_sec", stats.images_per_sec}});
      if (fused) {
        fused_ips = stats.images_per_sec;
        fused_extract_ns = extract_ns;
      } else {
        perfeature_ips = stats.images_per_sec;
        perfeature_extract_ns = extract_ns;
      }
    }
    double extract_gain = perfeature_extract_ns / fused_extract_ns;
    std::printf("%scellfuse: extraction stage %.2fx faster fused, "
                "streamed throughput %.2fx\n\n",
                t.str().c_str(), extract_gain, fused_ips / perfeature_ips);
    artifact.set_metric("fused.extract_gain", extract_gain);
    artifact.set_metric("fused.images_per_sec_gain",
                        fused_ips / perfeature_ips);
    ok &= artifact.shape(extract_gain >= 2.0,
                         "fused lanes run the extraction stage >= 2x "
                         "faster than the per-feature schedule");
    ok &= artifact.shape(fused_ips > perfeature_ips,
                         "fused streaming beats the per-feature schedule "
                         "end to end");
    ok &= artifact.shape(fuse_images == static_cast<double>(kImages),
                         "every image of the queue went through a fused "
                         "lane (fuse.images == queue)");
  }

  // The cellbench stream shape: Eq. 3 charges a window's fused group
  // its slowest lane, so the lanes' busy times should match.
  {
    sim::Machine machine;
    marvel::CellEngine engine(machine, library_path(),
                              marvel::Scenario::kSharded);
    engine.set_feed(true);
    engine.set_fused(true);
    marvel::StreamStats stats;
    engine.analyze_stream(marvel::make_mixed_size_ppm_dataset(kImages).images,
                          {16}, &stats);
    const LaneGroup g = lane_group(machine, engine.fused_lanes());
    const double spread = g.max_busy_ns / g.min_busy_ns;
    std::printf("Sharded ring(16), feed + fused lanes (%d PPM carriers): "
                "%.1f img/s, %.2f ms, fused lane busy max/min %.4f\n\n",
                kImages, stats.images_per_sec, stats.elapsed_ns / 1e6,
                spread);
    artifact.add_row("Sharded.fused_feed_ring16",
                     {{"images_per_sec", stats.images_per_sec},
                      {"elapsed_ns", static_cast<double>(stats.elapsed_ns)},
                      {"fused_lane_busy_spread", spread},
                      {"fused_lanes.max_busy_ns", g.max_busy_ns},
                      {"fused_lanes.sum_busy_ns", g.sum_busy_ns}});
    ok &= artifact.shape(spread <= 1.05,
                         "a mixed-size stream keeps the fused lanes' busy "
                         "times within 5% of each other");
  }

  double legacy_ns = protocol_ns(false, 8);
  double ring1_ns = protocol_ns(true, 8);
  std::printf("protocol cost, 8 CH calls at 352x240: per-call %.0f ns, "
              "batch-of-one ring %.0f ns (%.3fx)\n\n",
              legacy_ns, ring1_ns, ring1_ns / legacy_ns);
  artifact.set_metric("protocol.percall_ns", legacy_ns);
  artifact.set_metric("protocol.ring1_ns", ring1_ns);

  ok &= artifact.shape(
      multi_ring16_ips > multi_percall_ips,
      "MultiSPE ring dispatch at batch 16 beats per-call analyze()");
  ok &= artifact.shape(pipeline_wins,
                       "every batch size admitting >= 2 windows beats "
                       "per-call in the parallel scenarios");
  ok &= artifact.shape(
      multi_ring64_doorbells > 0 &&
          multi_ring64_doorbells * 8 <= multi_ring1_doorbells,
      "growing the batch 1 -> 64 collapses MultiSPE doorbells by >= 8x");
  ok &= artifact.shape(ring1_ns <= legacy_ns * 1.01 &&
                           ring1_ns >= legacy_ns * 0.99,
                       "a batch-of-one ring request costs within 1% of a "
                       "legacy per-call request");
  artifact.write();
  obs.finish();
  return ok ? 0 : 1;
}
