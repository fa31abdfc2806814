// google-benchmark microbenchmarks of the simulator substrate itself
// (host-side throughput of the emulation layers — useful when sizing
// larger experiments; simulated time is deterministic regardless).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "balance/digest.h"
#include "features/color_histogram.h"
#include "img/codec.h"
#include "img/color.h"
#include "img/huffman.h"
#include "img/synth.h"
#include "kernels/cc_window.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_edge.h"
#include "kernels/hsv_simd.h"
#include "kernels/messages.h"
#include "kernels/row_convert.h"
#include "marvel/dataset.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "shard/reducer.h"
#include "sim/machine.h"
#include "support/aligned.h"

namespace {

using namespace cellport;

void BM_MailboxRoundTrip(benchmark::State& state) {
  sim::Mailbox mb("bench", 4);
  for (auto _ : state) {
    mb.write(42, 0.0);
    benchmark::DoNotOptimize(mb.read());
  }
}
BENCHMARK(BM_MailboxRoundTrip);

port::KernelModule& nop_module() {
  static port::KernelModule mod("bench_nop", 1024);
  static bool init =
      (mod.add_function(1, +[](std::uint64_t) { return 0; }), true);
  (void)init;
  return mod;
}

// The cellstream protocol question in isolation: what does one request
// cost through the legacy two-mailbox-word call versus through the
// command ring, on a kernel that does no work? The `sim_ns_per_req`
// counter carries the *simulated* protocol cost (deterministic); the
// wall-clock column is the host-side overhead of each emulated path.

void BM_DispatchPerCallMailbox(benchmark::State& state) {
  sim::Machine machine(sim::Machine::Config{1});
  port::SPEInterface iface(nop_module());
  sim::SimTime t0 = machine.ppe().now_ns();
  std::int64_t reqs = 0;
  for (auto _ : state) {
    iface.SendAndWait(1, 0);
    ++reqs;
  }
  state.counters["sim_ns_per_req"] =
      reqs > 0 ? (machine.ppe().now_ns() - t0) / static_cast<double>(reqs)
               : 0;
}
BENCHMARK(BM_DispatchPerCallMailbox);

void BM_DispatchRingDoorbell(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  sim::Machine machine(sim::Machine::Config{1});
  port::SPEInterface iface(nop_module());
  iface.set_ring_capacity(static_cast<std::uint32_t>(batch < 2 ? 2 : batch));
  sim::SimTime t0 = machine.ppe().now_ns();
  std::int64_t reqs = 0;
  std::vector<int> res;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) iface.Enqueue(1, 0);
    iface.FlushBatch();
    iface.WaitBatch(&res);
    reqs += batch;
  }
  state.counters["sim_ns_per_req"] =
      reqs > 0 ? (machine.ppe().now_ns() - t0) / static_cast<double>(reqs)
               : 0;
}
BENCHMARK(BM_DispatchRingDoorbell)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_ReferenceColorHistogram(benchmark::State& state) {
  img::RgbImage image = img::synth_image(img::SceneKind::kShapes, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::extract_color_histogram(image));
  }
}
BENCHMARK(BM_ReferenceColorHistogram)->Unit(benchmark::kMillisecond);

void BM_SpeColorHistogramKernel(benchmark::State& state) {
  img::RgbImage image = img::synth_image(img::SceneKind::kShapes, 1);
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
  for (auto _ : state) {
    iface.SendAndWait(kernels::SPU_Run, msg.ea());
  }
}
BENCHMARK(BM_SpeColorHistogramKernel)->Unit(benchmark::kMillisecond);

// The cellshard reduction question in isolation: what does merging n
// shard partials cost the PPE per image? These drive the planner's
// shard_overhead calibration and back the latency bench's claim that
// the reduction is noise against the extraction time it saves. The
// `sim_ns_per_merge` counter carries the deterministic simulated cost;
// wall-clock is the host-side overhead of the emulated scalar path.

void BM_ShardReduceCh(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Machine machine(sim::Machine::Config{1});
  std::vector<std::vector<std::uint32_t>> partials(n);
  std::vector<const std::uint32_t*> parts(n);
  for (int i = 0; i < n; ++i) {
    partials[i].resize(kernels::kShardChWords);
    for (int j = 0; j < kernels::kShardChWords; ++j) {
      partials[i][j] = static_cast<std::uint32_t>((i * 37 + j) % 101);
    }
    parts[i] = partials[i].data();
  }
  std::vector<float> out(kernels::kShardChWords);
  sim::SimTime t0 = machine.ppe().now_ns();
  std::int64_t merges = 0;
  for (auto _ : state) {
    shard::reduce_ch(parts.data(), n, 352, 240, out.data(),
                     &machine.ppe());
    ++merges;
  }
  state.counters["sim_ns_per_merge"] =
      merges > 0
          ? (machine.ppe().now_ns() - t0) / static_cast<double>(merges)
          : 0;
}
BENCHMARK(BM_ShardReduceCh)->Arg(2)->Arg(4)->Arg(8);

void BM_ShardReduceCc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Machine machine(sim::Machine::Config{1});
  std::vector<std::vector<std::uint32_t>> partials(n);
  std::vector<const std::uint32_t*> parts(n);
  for (int i = 0; i < n; ++i) {
    partials[i].resize(kernels::kShardCcWords);
    for (int j = 0; j < kernels::kShardCcWords; ++j) {
      partials[i][j] = static_cast<std::uint32_t>((i * 53 + j) % 211 + 1);
    }
    parts[i] = partials[i].data();
  }
  std::vector<float> out(kernels::kShardCcWords / 2);
  sim::SimTime t0 = machine.ppe().now_ns();
  std::int64_t merges = 0;
  for (auto _ : state) {
    shard::reduce_cc(parts.data(), n, out.data(), &machine.ppe());
    ++merges;
  }
  state.counters["sim_ns_per_merge"] =
      merges > 0
          ? (machine.ppe().now_ns() - t0) / static_cast<double>(merges)
          : 0;
}
BENCHMARK(BM_ShardReduceCc)->Arg(2)->Arg(4)->Arg(8);

void BM_ShardReduceTx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Machine machine(sim::Machine::Config{1});
  // A 352x240 frame yields 15 wavelet tiles; split them across n shards
  // the way split_tiles does (near-equal, tile-aligned).
  const int total_tiles = kernels::tx_num_tiles(240);
  std::vector<std::vector<double>> partials(n);
  std::vector<const double*> parts(n);
  std::vector<int> doubles(n);
  int assigned = 0;
  for (int i = 0; i < n; ++i) {
    int tiles = (total_tiles - assigned) / (n - i);
    assigned += tiles;
    partials[i].resize(static_cast<std::size_t>(tiles) *
                       kernels::kTxTileDoubles);
    for (std::size_t j = 0; j < partials[i].size(); ++j) {
      partials[i][j] = 1.0 + 0.001 * static_cast<double>(i * 17 + j);
    }
    parts[i] = partials[i].data();
    doubles[i] = static_cast<int>(partials[i].size());
  }
  std::vector<float> out(16);
  sim::SimTime t0 = machine.ppe().now_ns();
  std::int64_t merges = 0;
  for (auto _ : state) {
    shard::reduce_tx(parts.data(), doubles.data(), n, 352, 240,
                     out.data(), &machine.ppe());
    ++merges;
  }
  state.counters["sim_ns_per_merge"] =
      merges > 0
          ? (machine.ppe().now_ns() - t0) / static_cast<double>(merges)
          : 0;
}
BENCHMARK(BM_ShardReduceTx)->Arg(2)->Arg(4)->Arg(8);

void BM_ShardConcatScores(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Machine machine(sim::Machine::Config{1});
  // The standard library's 166 models split into n detection blocks;
  // each staging block is padded to an even count like the kernel's
  // score DMA.
  const int total_models = 166;
  std::vector<std::vector<double>> partials(n);
  std::vector<const double*> parts(n);
  std::vector<int> counts(n);
  int assigned = 0;
  for (int i = 0; i < n; ++i) {
    counts[i] = (total_models - assigned) / (n - i);
    assigned += counts[i];
    partials[i].resize(cellport::round_up(
        static_cast<std::size_t>(counts[i]), std::size_t{2}));
    for (std::size_t j = 0; j < partials[i].size(); ++j) {
      partials[i][j] = 0.01 * static_cast<double>(i * 31 + j);
    }
    parts[i] = partials[i].data();
  }
  std::vector<double> out(total_models);
  sim::SimTime t0 = machine.ppe().now_ns();
  std::int64_t merges = 0;
  for (auto _ : state) {
    shard::concat_scores(parts.data(), counts.data(), n, out.data(),
                         &machine.ppe());
    ++merges;
  }
  state.counters["sim_ns_per_merge"] =
      merges > 0
          ? (machine.ppe().now_ns() - t0) / static_cast<double>(merges)
          : 0;
}
BENCHMARK(BM_ShardConcatScores)->Arg(2)->Arg(4)->Arg(8);

// The percall decode path: a SIC carrier decoded with its cost charged
// to a PPE context.
img::SicEncoded decode_carrier() {
  return img::sic_encode(img::synth_image(img::SceneKind::kTexture, 2), 70);
}

void BM_SicDecode(benchmark::State& state) {
  const img::SicEncoded enc = decode_carrier();
  sim::ScalarContext ppe(sim::cell_ppe());
  for (auto _ : state) {
    ppe.reset();
    benchmark::DoNotOptimize(img::sic_decode(enc, &ppe));
  }
}
BENCHMARK(BM_SicDecode)->Unit(benchmark::kMillisecond);

// The entropy stage alone: the carrier's Huffman stream, which starts
// after the "SIC2" magic and three header varints.
void BM_HuffmanDecode(benchmark::State& state) {
  const img::SicEncoded enc = decode_carrier();
  std::size_t start = 4;
  for (int field = 0; field < 3; ++field) {
    while ((enc.bytes[start] & 0x80) != 0) ++start;
    ++start;
  }
  sim::ScalarContext ppe(sim::cell_ppe());
  for (auto _ : state) {
    ppe.reset();
    std::size_t pos = start;
    benchmark::DoNotOptimize(img::huffman_decode(enc.bytes, pos, &ppe));
  }
}
BENCHMARK(BM_HuffmanDecode)->Unit(benchmark::kMillisecond);

// The cache key over the serve path's carrier: a 352x240 PPM frame.
// The feature cache keys with content_digest; fnv1a64, the byte-serial
// digest it replaced, is kept for comparison.
img::SicEncoded digest_carrier() {
  return img::ppm_encode(img::synth_image(img::SceneKind::kTexture, 2));
}

void BM_ContentDigest(benchmark::State& state) {
  const img::SicEncoded enc = digest_carrier();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        balance::content_digest(enc.bytes.data(), enc.bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(enc.bytes.size()));
}
BENCHMARK(BM_ContentDigest)->Unit(benchmark::kMicrosecond);

void BM_Fnv1a64(benchmark::State& state) {
  const img::SicEncoded enc = digest_carrier();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        balance::fnv1a64(enc.bytes.data(), enc.bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(enc.bytes.size()));
}
BENCHMARK(BM_Fnv1a64)->Unit(benchmark::kMicrosecond);

// The fused pass's row bodies alone, each over every row of four 352x240
// dataset frames (one iteration is all four frames, which share one
// width): cellbench times them only inside whole kernels. No SPE context
// is current, so the rows' charges are no-ops and the time is their host
// lanes'.
const std::vector<img::RgbImage>& row_frames() {
  static const std::vector<img::RgbImage> frames = [] {
    std::vector<img::RgbImage> out;
    for (const img::SicEncoded& enc : marvel::make_dataset(4).images) {
      out.push_back(img::sic_decode(enc));
    }
    return out;
  }();
  return frames;
}

// One frame's converted rows laid out as a kernel's ring rows (a band of
// kRingOrigin bytes before each row and 24 after), every row kept: a row
// body's ring pointers are aimed at the rows it reads instead of refilled.
struct RingPlane {
  RingPlane(int w, int h, std::uint8_t band)
      : row_bytes(cellport::round_up(
            static_cast<std::size_t>(kernels::kRingOrigin + w + 24), 16)),
        buf(row_bytes * static_cast<std::size_t>(h)) {
    std::memset(buf.data(), band, buf.size());
  }
  std::uint8_t* row(int y) {
    return buf.data() + static_cast<std::size_t>(y) * row_bytes;
  }
  std::size_t row_bytes;
  cellport::AlignedBuffer<std::uint8_t> buf;
};

void BM_RowQuantize(benchmark::State& state) {
  const kernels::HsvConstants hsv_c = kernels::HsvConstants::load();
  cellport::AlignedBuffer<std::uint8_t> dst(512);
  std::vector<std::uint32_t> counts(4 * 256);
  std::uint32_t* const banks[4] = {&counts[0], &counts[256], &counts[512],
                                   &counts[768]};
  const std::vector<img::RgbImage>& frames = row_frames();
  for (auto _ : state) {
    for (const img::RgbImage& f : frames) {
      for (int y = 0; y < f.height(); ++y) {
        kernels::quantize_row_counted(f.row(y), f.width(), dst.data(), hsv_c,
                                      banks);
      }
    }
    benchmark::DoNotOptimize(dst.data());
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RowQuantize)->Unit(benchmark::kMillisecond);

void BM_RowGray(benchmark::State& state) {
  cellport::AlignedBuffer<std::uint8_t> dst(512);
  const std::vector<img::RgbImage>& frames = row_frames();
  for (auto _ : state) {
    for (const img::RgbImage& f : frames) {
      for (int y = 0; y < f.height(); ++y) {
        kernels::gray_row_simd(f.row(y), f.width(), dst.data());
      }
    }
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RowGray)->Unit(benchmark::kMillisecond);

void BM_RowCcWindow(benchmark::State& state) {
  const std::vector<img::RgbImage>& frames = row_frames();
  std::vector<RingPlane> planes;
  for (const img::RgbImage& f : frames) {
    planes.emplace_back(f.width(), f.height(), kernels::kCcSentinel);
    for (int y = 0; y < f.height(); ++y) {
      kernels::quantize_row_simd(f.row(y), f.width(),
                                 planes.back().row(y) + kernels::kRingOrigin,
                                 kernels::HsvConstants::load());
    }
  }
  const int w = frames[0].width();
  std::vector<std::uint16_t> cols(static_cast<std::size_t>(w));
  for (int x = 0; x < w; ++x) {
    cols[static_cast<std::size_t>(x)] = static_cast<std::uint16_t>(
        std::min(w - 1, x + kernels::kCcRadius) -
        std::max(0, x - kernels::kCcRadius) + 1);
  }
  std::vector<std::uint32_t> same(256), possible(256);
  for (auto _ : state) {
    for (std::size_t i = 0; i < planes.size(); ++i) {
      const int h = frames[i].height();
      kernels::CcState st;
      st.row_bytes = static_cast<int>(planes[i].row_bytes);
      st.same = same.data();
      st.possible = possible.data();
      st.cols_clamped = cols.data();
      for (int y = 0; y < h; ++y) {
        for (int yy = std::max(0, y - kernels::kCcRadius);
             yy <= std::min(h - 1, y + kernels::kCcRadius); ++yy) {
          st.ring[yy % kernels::kCcRingRows] = planes[i].row(yy);
        }
        kernels::cc_produce_row(st, y, w, h);
      }
    }
    benchmark::DoNotOptimize(same.data());
    benchmark::DoNotOptimize(possible.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RowCcWindow)->Unit(benchmark::kMillisecond);

void BM_RowEdge(benchmark::State& state) {
  const std::vector<img::RgbImage>& frames = row_frames();
  std::vector<RingPlane> planes;
  for (const img::RgbImage& f : frames) {
    planes.emplace_back(f.width(), f.height(), 0);
    for (int y = 0; y < f.height(); ++y) {
      kernels::gray_row_simd(f.row(y), f.width(),
                             planes.back().row(y) + kernels::kRingOrigin);
    }
  }
  const kernels::EhConstants ec = kernels::EhConstants::load();
  std::vector<std::uint32_t> counts(features::kEdgeAngleBins *
                                    features::kEdgeMagBins);
  for (auto _ : state) {
    for (std::size_t i = 0; i < planes.size(); ++i) {
      kernels::EhState st;
      st.counts = counts.data();
      st.w = frames[i].width();
      st.h = frames[i].height();
      // Interior rows: the image's first and last rows run the scalar
      // border path only.
      for (int y = 1; y < st.h - 1; ++y) {
        for (int yy = y - 1; yy <= y + 1; ++yy) {
          st.ring[yy % kernels::kEhRingRows] = planes[i].row(yy);
        }
        kernels::eh_produce_row_simd(st, y, ec);
      }
    }
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RowEdge)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
