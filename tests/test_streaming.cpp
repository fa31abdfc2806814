// Tests for the SPE-side streaming helpers: RowStreamer multi-buffering,
// bulk DMA splitting, unaligned vector loads, and MFC queue-depth
// behavior under load.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <tuple>

#include "kernels/common.h"
#include "port/dispatcher.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "sim/machine.h"
#include "support/aligned.h"
#include "support/rng.h"

namespace cellport::kernels {
namespace {

// A kernel that streams `rows x stride` bytes with a given block size and
// buffering depth, and writes the byte sum back — exercising RowStreamer
// against every geometry.
struct alignas(16) StreamMsg {
  std::uint64_t base_ea = 0;
  std::uint64_t sum_ea = 0;
  std::int32_t rows = 0;
  std::int32_t stride = 0;
  std::int32_t rows_per_block = 0;
  std::int32_t depth = 0;
};

int stream_sum_kernel(std::uint64_t ea) {
  auto* msg = static_cast<StreamMsg*>(sim::spu_ls_alloc(sizeof(StreamMsg)));
  fetch_msg(msg, ea);
  RowStreamer stream(msg->base_ea,
                     static_cast<std::uint32_t>(msg->stride), 0, msg->rows,
                     msg->rows_per_block, msg->depth);
  std::uint64_t sum = 0;
  int rows_seen = 0;
  int expected_first = 0;
  while (stream.has_next()) {
    RowStreamer::Block blk = stream.next();
    // Blocks must arrive in order, covering every row exactly once.
    if (blk.first_row != expected_first) return 1;
    expected_first += blk.rows;
    rows_seen += blk.rows;
    for (int r = 0; r < blk.rows; ++r) {
      const std::uint8_t* row =
          blk.data + static_cast<std::size_t>(r) * msg->stride;
      for (int x = 0; x < msg->stride; ++x) sum += row[x];
    }
  }
  if (rows_seen != msg->rows) return 2;
  auto* out = sim::spu_ls_alloc_array<std::uint64_t>(2);
  out[0] = sum;
  out[1] = 0;
  sim::mfc_put(out, msg->sum_ea, 16, 0);
  sim::mfc_write_tag_mask(1);
  sim::mfc_read_tag_status_all();
  return 0;
}

port::KernelModule& stream_module() {
  static port::KernelModule m("stream_sum", 4096);
  static bool init = (m.add_function(1, &stream_sum_kernel), true);
  (void)init;
  return m;
}

class RowStreamerSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RowStreamerSweep, StreamsEveryRowOnceInOrder) {
  auto [rows, rows_per_block, depth] = GetParam();
  const int stride = 256;
  cellport::AlignedBuffer<std::uint8_t> data(
      static_cast<std::size_t>(rows) * stride);
  Rng rng(static_cast<std::uint64_t>(rows * 100 + depth));
  std::uint64_t expect = 0;
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
    expect += b;
  }
  cellport::AlignedBuffer<std::uint64_t> sum(2);

  sim::Machine machine(sim::Machine::Config{1});
  port::SPEInterface iface(stream_module());
  port::WrappedMessage<StreamMsg> msg;
  msg->base_ea = reinterpret_cast<std::uint64_t>(data.data());
  msg->sum_ea = reinterpret_cast<std::uint64_t>(sum.data());
  msg->rows = rows;
  msg->stride = stride;
  msg->rows_per_block = rows_per_block;
  msg->depth = depth;
  EXPECT_EQ(iface.SendAndWait(1, msg.ea()), 0);
  EXPECT_EQ(sum[0], expect);
}

// Sharded kernel calls stream odd sub-ranges with whatever block shape
// the message carries, so RowStreamer itself must hold the local-store
// line: an oversized rows_per_block is clamped to what the remaining LS
// can actually hold, and a row too wide for even one buffer fails with
// a loud ConfigError instead of blowing up the LS bump allocator.
TEST(RowStreamerBudget, OversizedBlockRequestIsClampedToTheLocalStore) {
  // 16 KiB rows: double-buffering 10'000 of them would need ~320 MB of
  // local store. The streamer must clamp to the handful that fit and
  // still deliver every row exactly once, in order.
  const int rows = 20;
  const int stride = 16 * 1024;
  cellport::AlignedBuffer<std::uint8_t> data(
      static_cast<std::size_t>(rows) * stride);
  Rng rng(99);
  std::uint64_t expect = 0;
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
    expect += b;
  }
  cellport::AlignedBuffer<std::uint64_t> sum(2);

  sim::Machine machine(sim::Machine::Config{1});
  port::SPEInterface iface(stream_module());
  port::WrappedMessage<StreamMsg> msg;
  msg->base_ea = reinterpret_cast<std::uint64_t>(data.data());
  msg->sum_ea = reinterpret_cast<std::uint64_t>(sum.data());
  msg->rows = rows;
  msg->stride = stride;
  msg->rows_per_block = 10000;
  msg->depth = 2;
  EXPECT_EQ(iface.SendAndWait(1, msg.ea()), 0);
  EXPECT_EQ(sum[0], expect);
}

TEST(RowStreamerBudget, RowWiderThanTheLocalStoreFailsLoudly) {
  // A 300 KiB row cannot fit one buffer in the 256 KiB local store at
  // any block shape; the constructor must refuse before allocating.
  cellport::AlignedBuffer<std::uint8_t> data(300 * 1024);
  cellport::AlignedBuffer<std::uint64_t> sum(2);

  sim::Machine machine(sim::Machine::Config{1});
  port::SPEInterface iface(stream_module());
  port::WrappedMessage<StreamMsg> msg;
  msg->base_ea = reinterpret_cast<std::uint64_t>(data.data());
  msg->sum_ea = reinterpret_cast<std::uint64_t>(sum.data());
  msg->rows = 1;
  msg->stride = 300 * 1024;
  msg->rows_per_block = 1;
  msg->depth = 1;
  try {
    iface.SendAndWait(1, msg.ea());
    FAIL() << "oversized row was accepted";
  } catch (const cellport::Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "local store cannot hold even one row per buffer"),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RowStreamerSweep,
    ::testing::Combine(::testing::Values(1, 7, 24, 240),  // rows
                       ::testing::Values(1, 5, 16),       // rows/block
                       ::testing::Values(1, 2, 3)),       // depth
    [](const auto& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "_b" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param));
    });

// ---- dma_in splitting ----

struct alignas(16) BigDmaMsg {
  std::uint64_t src_ea = 0;
  std::uint64_t ok_ea = 0;
  std::int32_t bytes = 0;
  std::int32_t pad = 0;
};

int big_dma_kernel(std::uint64_t ea) {
  auto* msg = static_cast<BigDmaMsg*>(sim::spu_ls_alloc(sizeof(BigDmaMsg)));
  fetch_msg(msg, ea);
  auto* buf = static_cast<std::uint8_t*>(sim::spu_ls_alloc(
      static_cast<std::size_t>(msg->bytes), 16));
  // One logical transfer far above the 16 KiB MFC limit: dma_in must
  // split it into legal commands.
  dma_in(buf, msg->src_ea, static_cast<std::uint32_t>(msg->bytes), 2);
  sim::mfc_write_tag_mask(1u << 2);
  sim::mfc_read_tag_status_all();
  std::uint64_t sum = 0;
  for (int i = 0; i < msg->bytes; ++i) sum += buf[i];
  auto* out = sim::spu_ls_alloc_array<std::uint64_t>(2);
  out[0] = sum;
  out[1] = 0;
  sim::mfc_put(out, msg->ok_ea, 16, 0);
  sim::mfc_write_tag_mask(1);
  sim::mfc_read_tag_status_all();
  return 0;
}

TEST(BulkDma, SplitsOversizedTransfers) {
  static port::KernelModule mod("bigdma", 4096);
  static bool init = (mod.add_function(1, &big_dma_kernel), true);
  (void)init;

  constexpr int kBytes = 100 * 1024;  // 100 KiB: 7 MFC commands
  cellport::AlignedBuffer<std::uint8_t> data(kBytes);
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
    expect += data[i];
  }
  cellport::AlignedBuffer<std::uint64_t> out(2);

  sim::Machine machine(sim::Machine::Config{1});
  port::SPEInterface iface(mod);
  port::WrappedMessage<BigDmaMsg> msg;
  msg->src_ea = reinterpret_cast<std::uint64_t>(data.data());
  msg->ok_ea = reinterpret_cast<std::uint64_t>(out.data());
  msg->bytes = kBytes;
  EXPECT_EQ(iface.SendAndWait(1, msg.ea()), 0);
  EXPECT_EQ(out[0], expect);
  // 100 KiB / 16 KiB -> 7 input commands (+1 wrapper fetch, +1 put).
  EXPECT_GE(iface.spe().mfc().stats().transfers, 9u);
}

// ---- MFC queue depth ----

int queue_stress_kernel(std::uint64_t ea) {
  auto* msg = static_cast<BigDmaMsg*>(sim::spu_ls_alloc(sizeof(BigDmaMsg)));
  fetch_msg(msg, ea);
  // 32 outstanding commands on one tag: twice the hardware queue depth.
  // The simulator must stall (not fault) when the queue fills.
  auto* buf = static_cast<std::uint8_t*>(sim::spu_ls_alloc(32 * 64, 16));
  for (int i = 0; i < 32; ++i) {
    sim::mfc_get(buf + i * 64, msg->src_ea + static_cast<unsigned>(i) * 64,
                 64, 5);
  }
  sim::mfc_write_tag_mask(1u << 5);
  sim::mfc_read_tag_status_all();
  for (int i = 0; i < 32 * 64; ++i) {
    if (buf[i] != static_cast<std::uint8_t>(i & 0xFF)) return 1;
  }
  return 0;
}

TEST(MfcQueue, OverfillStallsButCompletes) {
  static port::KernelModule mod("qstress", 4096);
  static bool init = (mod.add_function(1, &queue_stress_kernel), true);
  (void)init;

  cellport::AlignedBuffer<std::uint8_t> data(32 * 64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i & 0xFF);
  }
  sim::Machine machine(sim::Machine::Config{1});
  port::SPEInterface iface(mod);
  port::WrappedMessage<BigDmaMsg> msg;
  msg->src_ea = reinterpret_cast<std::uint64_t>(data.data());
  EXPECT_EQ(iface.SendAndWait(1, msg.ea()), 0);
}

}  // namespace
}  // namespace cellport::kernels
