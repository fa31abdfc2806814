#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/calibration.h"
#include "sim/core_model.h"
#include "sim/libspe.h"
#include "sim/machine.h"
#include "sim/report.h"
#include "sim/scalar_context.h"
#include "sim/spu_mfcio.h"
#include "support/aligned.h"
#include "support/error.h"

namespace cellport::sim {
namespace {

// ---- core models ----

TEST(CoreModel, CrossMachineRatiosMatchSection52) {
  // For any op mix, time(PPE) = 2.5 * time(Laptop) = 3.2 * time(Desktop).
  CoreModel d = desktop_pentium_d();
  CoreModel l = laptop_pentium_m();
  CoreModel p = cell_ppe();
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    auto op = static_cast<OpClass>(i);
    double td = d.ns_for(op, 1000);
    double tl = l.ns_for(op, 1000);
    double tp = p.ns_for(op, 1000);
    EXPECT_NEAR(tp / td, 3.2, 1e-9) << op_class_name(op);
    EXPECT_NEAR(tp / tl, 2.5, 1e-9) << op_class_name(op);
  }
}

TEST(CoreModel, IoFactorsMatchSection52) {
  // Preprocessing (I/O bound) slows down 1.2x Laptop->PPE, 1.4x
  // Desktop->PPE.
  EXPECT_NEAR(cell_ppe().io_factor / laptop_pentium_m().io_factor, 1.2,
              1e-9);
  EXPECT_NEAR(cell_ppe().io_factor / desktop_pentium_d().io_factor, 1.4,
              1e-9);
}

TEST(ScalarContext, ChargeAdvancesClock) {
  ScalarContext ctx(desktop_pentium_d());
  EXPECT_EQ(ctx.now_ns(), 0.0);
  ctx.charge(OpClass::kIntAlu, 340);  // 340 * 0.5 cycles @ 3.4 GHz = 50ns
  EXPECT_NEAR(ctx.now_ns(), 50.0, 1e-9);
  EXPECT_EQ(ctx.meter().count(OpClass::kIntAlu), 340u);
}

TEST(ScalarContext, SyncToOnlyMovesForward) {
  ScalarContext ctx(cell_ppe());
  ctx.advance_ns(100);
  ctx.sync_to(50);
  EXPECT_EQ(ctx.now_ns(), 100.0);
  ctx.sync_to(300);
  EXPECT_EQ(ctx.now_ns(), 300.0);
}

TEST(ScalarContext, IoChargeUsesMachineFactor) {
  ScalarContext d(desktop_pentium_d());
  ScalarContext p(cell_ppe());
  d.charge_io(600000);  // 600 KB at 60 MB/s = 10 ms
  p.charge_io(600000);
  EXPECT_NEAR(d.now_ns(), 1e7, 1);
  EXPECT_NEAR(p.now_ns(), 1.4e7, 1);
}

/// The clock's bits and every meter count of a context.
std::vector<std::uint64_t> charge_state(const ScalarContext& ctx) {
  std::vector<std::uint64_t> s{std::bit_cast<std::uint64_t>(ctx.now_ns())};
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    s.push_back(ctx.meter().count(static_cast<OpClass>(c)));
  }
  return s;
}

TEST(ScalarContext, ChargeRunMatchesChargeByCharge) {
  // Mixed classes and counts, some priced once and reused, some priced
  // per call. The clock is a running double sum that has grown large,
  // so a merged or reordered add would show in its low bits.
  struct Step {
    OpClass c;
    std::uint64_t n;
  };
  std::vector<Step> steps;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    steps.push_back({static_cast<OpClass>(i * 7 % kNumOpClasses),
                     i % 5 == 0 ? 2 : (i * 7919) % 97 + 1});
  }
  for (const std::size_t cut : {steps.size(), std::size_t{1234}}) {
    for (const CoreModel& core : {cell_ppe(), desktop_pentium_d()}) {
      ScalarContext want(core);
      ScalarContext got(core);
      for (ScalarContext* ctx : {&want, &got}) {
        ctx->advance_ns(1e6 / 3);
        ctx->charge(OpClass::kMul, 3);
      }
      for (std::size_t i = 0; i < cut; ++i) {
        want.charge(steps[i].c, steps[i].n);
      }
      // The cut run ends by a throw: the unwinding writes it back.
      try {
        ScalarContext::ChargeRun run(&got);
        const auto twice = run.fixed(steps[0].c, 2);
        for (std::size_t i = 0; i < steps.size(); ++i) {
          if (i == cut) throw IoError("cut short");
          if (steps[i].n == 2 && steps[i].c == twice.c) {
            run.charge(twice);
          } else {
            run.charge(steps[i].c, steps[i].n);
          }
        }
      } catch (const IoError&) {
        EXPECT_LT(cut, steps.size());
      }
      EXPECT_EQ(charge_state(got), charge_state(want))
          << core.name << ", cut at " << cut;
      // The context goes on charging from the written-back state.
      want.charge(OpClass::kLoad, 5);
      got.charge(OpClass::kLoad, 5);
      EXPECT_EQ(charge_state(got), charge_state(want)) << core.name;
    }
  }
  // A run over no context charges nothing.
  ScalarContext::ChargeRun none(nullptr);
  none.charge(OpClass::kDiv, 9);
  EXPECT_EQ(none.fixed(OpClass::kDiv, 9).ns, 0.0);
}

// ---- cost meter ----

TEST(CostMeter, ReplaysAgainstDifferentCores) {
  CostMeter m;
  m.charge(OpClass::kFloatAlu, 1000);
  m.charge(OpClass::kDiv, 10);
  double desktop_ns = m.ns_on(desktop_pentium_d());
  double ppe_ns = m.ns_on(cell_ppe());
  EXPECT_NEAR(ppe_ns / desktop_ns, 3.2, 1e-9);
  EXPECT_EQ(m.total_ops(), 1010u);
  m.reset();
  EXPECT_EQ(m.total_ops(), 0u);
}

// ---- local store ----

TEST(LocalStore, AllocatesWithinCapacity) {
  LocalStore ls;
  ls.load_code(32 * 1024);
  void* a = ls.alloc(1024, 16);
  void* b = ls.alloc(1024, 128);
  EXPECT_TRUE(ls.contains(a, 1024));
  EXPECT_TRUE(ls.contains(b, 1024));
  EXPECT_TRUE(is_aligned(b, 128));
  EXPECT_GT(ls.peak_bytes(), 33u * 1024);
}

TEST(LocalStore, OverflowThrows) {
  LocalStore ls;
  ls.load_code(64 * 1024);
  ls.alloc(150 * 1024);
  EXPECT_THROW(ls.alloc(64 * 1024), LocalStoreError);
}

TEST(LocalStore, CodeTooBigThrows) {
  LocalStore ls;
  EXPECT_THROW(ls.load_code(260 * 1024), LocalStoreError);
}

TEST(LocalStore, ResetDataKeepsCode) {
  LocalStore ls;
  ls.load_code(16 * 1024);
  ls.alloc(100 * 1024);
  ls.reset_data();
  EXPECT_EQ(ls.data_bytes_used(), 0u);
  void* p = ls.alloc(100 * 1024);
  EXPECT_NE(p, nullptr);
}

TEST(LocalStore, RejectsSmallAlignment) {
  LocalStore ls;
  EXPECT_THROW(ls.alloc(64, 8), LocalStoreError);
  EXPECT_THROW(ls.alloc(64, 24), LocalStoreError);
}

// ---- mailbox ----

TEST(Mailbox, FifoWithTimestamps) {
  Mailbox mb("t", 4);
  mb.write(1, 10.0);
  mb.write(2, 20.0);
  EXPECT_EQ(mb.count(), 2u);
  auto e1 = mb.read();
  EXPECT_EQ(e1.value, 1u);
  EXPECT_EQ(e1.ts, 10.0);
  auto e2 = mb.read();
  EXPECT_EQ(e2.value, 2u);
  EXPECT_EQ(mb.count(), 0u);
}

TEST(Mailbox, WriteOrThrowRespectsDepth) {
  Mailbox mb("t", 2);
  mb.write_or_throw(1, 0);
  mb.write_or_throw(2, 0);
  EXPECT_THROW(mb.write_or_throw(3, 0), MailboxError);
}

// ---- DMA validation (parameterized over the MFC's legality rules) ----

struct DmaCase {
  std::uint32_t size;
  std::size_t ls_off;
  std::size_t ea_off;
  bool legal;
};

class DmaRules : public ::testing::TestWithParam<DmaCase> {};

TEST_P(DmaRules, ValidatesLikeHardware) {
  const DmaCase& c = GetParam();
  Machine m(Machine::Config{1});
  SpeContext& spe = m.spe(0);
  spe.ls().load_code(1024);
  set_current_spe(&spe);
  // Both ends hold the largest legal transfer.
  constexpr std::size_t kSpan = 16 * 1024;
  auto* ls_base = static_cast<std::uint8_t*>(spe.ls().alloc(kSpan, 128));
  AlignedBuffer<std::uint8_t> host(kSpan);
  auto run = [&] {
    spe.mfc().get(ls_base + c.ls_off,
                  reinterpret_cast<std::uint64_t>(host.data()) + c.ea_off,
                  c.size, 0);
  };
  if (c.legal) {
    EXPECT_NO_THROW(run());
  } else {
    EXPECT_THROW(run(), DmaError);
  }
  set_current_spe(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    MfcLegality, DmaRules,
    ::testing::Values(
        // Quadword-multiple transfers with 16-byte alignment: legal.
        DmaCase{16, 0, 0, true}, DmaCase{1024, 16, 32, true},
        DmaCase{16 * 1024, 0, 0, true},
        // Over 16 KiB: illegal.
        DmaCase{16 * 1024 + 16, 0, 0, false},
        // Multiple of 16 but misaligned: illegal.
        DmaCase{32, 8, 0, false}, DmaCase{32, 0, 8, false},
        // Small naturally-aligned transfers with matching quadword
        // offsets: legal.
        DmaCase{4, 4, 4, true}, DmaCase{8, 8, 8, true},
        DmaCase{1, 3, 3, true}, DmaCase{2, 2, 2, true},
        // Small transfers with mismatched quadword offsets: illegal.
        DmaCase{4, 4, 8, false}, DmaCase{8, 0, 8, false},
        // Small transfer, unnatural alignment: illegal.
        DmaCase{4, 2, 2, false},
        // Irregular size: illegal.
        DmaCase{24, 0, 0, false}, DmaCase{0, 0, 0, false}));

TEST(Dma, FunctionalCopyAndTiming) {
  Machine m(Machine::Config{1});
  SpeContext& spe = m.spe(0);
  spe.ls().load_code(1024);
  set_current_spe(&spe);
  AlignedBuffer<std::uint8_t> host(4096);
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i] = static_cast<std::uint8_t>(i & 0xFF);
  }
  auto* ls = static_cast<std::uint8_t*>(spe.ls().alloc(4096, 128));
  spe.mfc().get(ls, reinterpret_cast<std::uint64_t>(host.data()), 4096, 3);
  spe.mfc().write_tag_mask(1u << 3);
  spe.mfc().read_tag_status_all();
  for (std::size_t i = 0; i < 4096; ++i) EXPECT_EQ(ls[i], host[i]);
  // Timing: 4096 B at 25.6 B/ns + 250 ns latency.
  double expect = 4096 / calib::kDmaBandwidthBytesPerNs +
                  calib::kDmaLatencyNs;
  EXPECT_NEAR(spe.now_ns(), expect, 1.0);
  EXPECT_EQ(spe.mfc().stats().bytes, 4096u);
  EXPECT_EQ(m.eib().total_bytes(), 4096u);
  set_current_spe(nullptr);
}

TEST(Dma, TagsCompleteIndependently) {
  Machine m(Machine::Config{1});
  SpeContext& spe = m.spe(0);
  spe.ls().load_code(1024);
  set_current_spe(&spe);
  AlignedBuffer<std::uint8_t> host(32 * 1024);
  auto* ls = static_cast<std::uint8_t*>(spe.ls().alloc(32 * 1024, 128));
  spe.mfc().get(ls, reinterpret_cast<std::uint64_t>(host.data()), 16, 1);
  spe.mfc().get(ls + 16, reinterpret_cast<std::uint64_t>(host.data()) + 16,
                16 * 1024, 2);
  // Waiting on tag 1 should not require tag 2's big transfer.
  spe.mfc().write_tag_mask(1u << 1);
  spe.mfc().read_tag_status_all();
  double t1 = spe.now_ns();
  spe.mfc().write_tag_mask(1u << 2);
  spe.mfc().read_tag_status_all();
  double t2 = spe.now_ns();
  EXPECT_LT(t1, t2);
  set_current_spe(nullptr);
}

TEST(Dma, StatusAnyCompletesOnTheEarliestTag) {
  Machine m(Machine::Config{1});
  SpeContext& spe = m.spe(0);
  spe.ls().load_code(1024);
  set_current_spe(&spe);
  AlignedBuffer<std::uint8_t> host(32 * 1024);
  auto* ls = static_cast<std::uint8_t*>(spe.ls().alloc(32 * 1024, 128));
  // Tag 1: tiny transfer. Tag 2: large one (completes much later).
  spe.mfc().get(ls, reinterpret_cast<std::uint64_t>(host.data()), 16, 1);
  spe.mfc().get(ls + 16, reinterpret_cast<std::uint64_t>(host.data()) + 16,
                16 * 1024, 2);
  spe.mfc().write_tag_mask((1u << 1) | (1u << 2));
  std::uint32_t done = spe.mfc().read_tag_status_any();
  double t_any = spe.now_ns();
  EXPECT_TRUE(done & (1u << 1));   // the small transfer is done
  EXPECT_FALSE(done & (1u << 2));  // the big one is still in flight
  spe.mfc().read_tag_status_all();
  EXPECT_GT(spe.now_ns(), t_any);  // waiting for all costs more
  set_current_spe(nullptr);
}

TEST(Dma, ListTransfers) {
  Machine m(Machine::Config{1});
  SpeContext& spe = m.spe(0);
  spe.ls().load_code(1024);
  set_current_spe(&spe);
  AlignedBuffer<std::uint8_t> a(64);
  AlignedBuffer<std::uint8_t> b(64);
  a[0] = 0xAA;
  b[0] = 0xBB;
  auto* ls = static_cast<std::uint8_t*>(spe.ls().alloc(256, 128));
  MfcListElement list[2] = {
      {reinterpret_cast<std::uint64_t>(a.data()), 64},
      {reinterpret_cast<std::uint64_t>(b.data()), 64}};
  spe.mfc().get_list(ls, list, 0);
  spe.mfc().write_tag_mask(1);
  spe.mfc().read_tag_status_all();
  EXPECT_EQ(ls[0], 0xAA);
  EXPECT_EQ(ls[64], 0xBB);
  EXPECT_EQ(spe.mfc().stats().list_elements, 2u);
  set_current_spe(nullptr);
}

// ---- SPE pipeline accounting ----

TEST(SpePipelines, DualIssueOverlap) {
  Machine m(Machine::Config{1});
  SpeContext& spe = m.spe(0);
  spe.charge_even(100);
  spe.charge_odd(60);
  // max(100, 60) cycles at 3.2 GHz.
  EXPECT_NEAR(spe.now_ns(), 100 / 3.2, 1e-9);
  EXPECT_NEAR(spe.pipe_stats().slack_cycles, 40.0, 1e-9);
}

TEST(SpePipelines, DoublePrecisionPenalty) {
  Machine m(Machine::Config{1});
  SpeContext& spe = m.spe(0);
  spe.charge_double(2);  // 2 ops * 3.5 cycles
  EXPECT_NEAR(spe.now_ns(), 7.0 / 3.2, 1e-9);
}

TEST(SpePipelines, BranchMissPenalty) {
  Machine m(Machine::Config{1});
  SpeContext& spe = m.spe(0);
  spe.charge_branch_miss(1);
  EXPECT_NEAR(spe.now_ns(), calib::kSpuBranchMissCycles / 3.2, 1e-9);
}

// ---- machine / libspe ----

int echo_main(std::uint64_t /*spe_id*/, std::uint64_t /*argv*/) {
  for (;;) {
    std::uint64_t v = spu_read_in_mbox();
    if (v == 0) return 42;
    spu_write_out_mbox(v * 2);
  }
}

TEST(Machine, EchoKernelThroughMailboxes) {
  Machine m;
  SpeProgram prog{"echo", 4096, &echo_main};
  speid_t id = spe_create_thread(prog);
  spe_write_in_mbox(id, 21);
  EXPECT_EQ(spe_read_out_mbox(id), 42u);
  spe_write_in_mbox(id, 100);
  EXPECT_EQ(spe_read_out_mbox(id), 200u);
  spe_write_in_mbox(id, 0);
  EXPECT_EQ(spe_wait(id), 42);
}

TEST(Machine, MailboxTimestampsDriveSimulatedTime) {
  Machine m;
  SpeProgram prog{"echo", 4096, &echo_main};
  speid_t id = spe_create_thread(prog);
  double t0 = m.ppe().now_ns();
  spe_write_in_mbox(id, 5);
  spe_read_out_mbox(id);
  double t1 = m.ppe().now_ns();
  // At minimum: two mailbox wire latencies + MMIO costs.
  EXPECT_GE(t1 - t0, 2 * calib::kMailboxLatencyNs);
  spe_write_in_mbox(id, 0);
  spe_wait(id);
}

TEST(MachineReport, SnapshotAndFormat) {
  Machine m;
  SpeProgram prog{"echo", 4096, &echo_main};
  speid_t id = spe_create_thread(prog);
  spe_write_in_mbox(id, 5);
  spe_read_out_mbox(id);
  spe_write_in_mbox(id, 0);
  spe_wait(id);

  MachineReport r = snapshot(m);
  ASSERT_EQ(r.spes.size(), 8u);
  EXPECT_GT(r.ppe_ns, 0.0);
  std::string text = format_report(r);
  EXPECT_NE(text.find("Machine report"), std::string::npos);
  EXPECT_NE(text.find("EIB"), std::string::npos);
  // cellfuse: the dual-issue slack summary line is always present.
  EXPECT_NE(text.find("Pipe slack:"), std::string::npos);
}

TEST(MachineReport, AgreesWithMetricsRegistrySeries) {
  Machine m;
  SpeProgram prog{"echo", 4096, &echo_main};
  speid_t id = spe_create_thread(prog);
  spe_write_in_mbox(id, 5);
  spe_read_out_mbox(id);
  spe_write_in_mbox(id, 0);
  spe_wait(id);

  MachineReport r = snapshot(m);
  const trace::MetricsRegistry& reg = m.metrics();
  EXPECT_EQ(r.ppe_ns, reg.value("ppe.elapsed_ns"));
  for (const SpeReport& s : r.spes) {
    const std::string p = "spe" + std::to_string(s.id);
    EXPECT_EQ(s.busy_ns, reg.value(p + ".busy_ns"));
    EXPECT_EQ(s.even_cycles, reg.value(p + ".pipe.even_cycles"));
    EXPECT_EQ(s.odd_cycles, reg.value(p + ".pipe.odd_cycles"));
    EXPECT_EQ(s.slack_cycles, reg.value(p + ".pipe.slack_cycles"));
    const double issued = std::max(s.even_cycles, s.odd_cycles);
    EXPECT_EQ(reg.value(p + ".pipe.slack_share"),
              issued > 0 ? s.slack_cycles / issued : 0.0);
    EXPECT_EQ(static_cast<double>(s.dma_transfers),
              reg.value(p + ".dma.transfers"));
    EXPECT_EQ(static_cast<double>(s.dma_bytes),
              reg.value(p + ".dma.bytes"));
    EXPECT_EQ(s.dma_stall_ns, reg.value(p + ".dma.stall_ns"));
    EXPECT_EQ(static_cast<double>(s.ls_peak_bytes),
              reg.value(p + ".ls.peak_bytes"));
  }
  EXPECT_EQ(static_cast<double>(r.eib_bytes), reg.value("eib.bytes"));
  EXPECT_EQ(static_cast<double>(r.eib_transfers),
            reg.value("eib.transfers"));
  EXPECT_EQ(r.eib_utilization, reg.value("eib.utilization"));
  // The mailbox series exist too (SPE0 carried the echo traffic: the PPE
  // wrote 5 then the terminating 0, and the kernel read both).
  EXPECT_EQ(reg.value("spe0.mbox.in_writes"), 2.0);
  EXPECT_EQ(reg.value("spe0.mbox.in_writes"),
            reg.value("spe0.mbox.in_reads"));
}

TEST(Machine, SpawnLimits) {
  Machine m(Machine::Config{2});
  SpeProgram prog{"echo", 4096, &echo_main};
  speid_t a = m.spawn(prog);
  speid_t b = m.spawn(prog);
  EXPECT_THROW(m.spawn(prog), ConfigError);
  for (speid_t id : {a, b}) {
    spe_write_in_mbox(id, 0);
    m.join(id);
  }
}

TEST(Machine, ConfigValidation) {
  EXPECT_THROW(Machine(Machine::Config{0}), ConfigError);
  EXPECT_THROW(Machine(Machine::Config{9}), ConfigError);
}

}  // namespace
}  // namespace cellport::sim
