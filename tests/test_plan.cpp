// cellexec: the plan builder's contract over every scenario x strategy x
// image shape x carrier. Ingest tasks (a PPM carrier with feed on) tile
// the image's rows over distinct detection lanes, extraction tasks hold
// only non-empty ranges that tile the image per slot (per lane group for
// fused and balanced plans), detection tasks tile each model set, and the
// per-call and stream paths build the same task lists for the same
// image.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "img/codec.h"
#include "marvel/cell_engine.h"
#include "marvel/stream_engine.h"
#include "sim/machine.h"
#include "testutil.h"

namespace cellport::marvel {
namespace {

enum class Strategy { kPerFeature, kFused, kBalanced };

struct Shape {
  int width;
  int height;
  int spes;
};

// 64x48 on the full machine; the 66x33 image on 5 SPEs, where the fused
// split leaves lanes idle; and the 16x16 floor of the wavelet texture.
constexpr Shape kShapes[] = {{64, 48, 8}, {66, 33, 5}, {16, 16, 8}};
constexpr Scenario kScenarios[] = {Scenario::kSingleSPE, Scenario::kMultiSPE,
                                   Scenario::kMultiSPE2, Scenario::kSharded};
constexpr Strategy kStrategies[] = {Strategy::kPerFeature, Strategy::kFused,
                                    Strategy::kBalanced};

class PlanBuilder : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_plan_models.bin");
  }
  static void TearDownTestSuite() { delete library_; }

  static testutil::TempLibrary* library_;
};

testutil::TempLibrary* PlanBuilder::library_ = nullptr;

void set_strategy(CellEngine& engine, Strategy s) {
  engine.set_fused(s == Strategy::kFused);
  engine.set_balanced(s == Strategy::kBalanced);
}

/// Every field of a task and of the message it sends that does not name
/// a per-plan buffer.
using TaskKey = std::tuple<int, int, int, int, int, int, int,
                           std::vector<std::int32_t>>;

TaskKey key(const Task& t) {
  std::vector<std::int32_t> msg;
  if (t.kind == TaskKind::kFeed) {
    const auto& m = *reinterpret_cast<const kernels::FeedMsg*>(t.msg_ea);
    msg = {m.width,     m.height,  m.dst_stride,   m.buffering,
           m.row_begin, m.row_end, m.rows_per_tile};
  } else if (t.kind < TaskKind::kDetect) {
    const auto& m = *reinterpret_cast<const kernels::ImageMsg*>(t.msg_ea);
    msg = {m.width,     m.height,     m.stride,    m.buffering,
           m.out_count, m.block_rows, m.row_begin, m.row_end};
  } else {
    const auto& m = *reinterpret_cast<const kernels::DetectMsg*>(t.msg_ea);
    msg = {m.dim, m.num_models, m.buffering, m.model_begin};
  }
  return {static_cast<int>(t.kind), t.slot, t.index, t.lane, t.opcode,
          t.range.begin, t.range.end, msg};
}

std::vector<TaskKey> keys(const Stage& stage) {
  std::vector<TaskKey> out;
  for (const Task& t : stage.tasks) out.push_back(key(t));
  return out;
}

/// The lanes a stage drives: its bound tasks' lanes, ascending.
std::vector<int> lanes(const Stage& stage) {
  std::vector<int> out;
  for (const Task& t : stage.tasks) {
    if (t.lane >= 0) out.push_back(t.lane);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// `ranges` are non-empty, ascending and cover [0, end) exactly.
void expect_tiles(const std::vector<shard::Range>& ranges, int end) {
  int next = 0;
  for (const shard::Range& r : ranges) {
    EXPECT_FALSE(r.empty());
    EXPECT_EQ(r.begin, next);
    next = r.end;
  }
  EXPECT_EQ(next, end);
}

void expect_well_formed(const ImagePlan& p, int height, bool fed,
                        const int (&models)[4]) {
  // Ingest: one row range per detection lane that has rows.
  std::vector<shard::Range> rows;
  for (const Task& t : p.ingest.tasks) {
    EXPECT_EQ(t.kind, TaskKind::kFeed);
    rows.push_back(t.range);
  }
  EXPECT_EQ(rows.empty(), !fed);
  if (fed) expect_tiles(rows, height);
  EXPECT_EQ(lanes(p.ingest).size(), p.ingest.tasks.size());
  // Extraction: one range group per slot, or one for the fused lanes.
  // A static stage runs one task per lane, so no lane it drives is
  // idle; a balanced stage's tasks stay unbound.
  std::map<int, std::vector<shard::Range>> groups;
  for (const Task& t : p.extract.tasks) {
    EXPECT_EQ(t.kind, p.partials);
    EXPECT_EQ(t.lane < 0, p.stolen);
    groups[t.slot].push_back(t.range);
  }
  EXPECT_EQ(lanes(p.extract).size(),
            p.stolen ? 0u : p.extract.tasks.size());
  EXPECT_EQ(groups.size(), p.partials == TaskKind::kFused ? 1u : 4u);
  for (const auto& [slot, ranges] : groups) {
    // TX shards cover the even-height region the Haar tiles read.
    const bool tx_shards =
        p.partials == TaskKind::kShard && slot == shard::kSlotTx;
    expect_tiles(ranges, tx_shards ? 2 * (height / 2) : height);
  }
  // Detection: the blocks (or the one whole-set task) tile every slot's
  // model set.
  std::map<int, std::vector<shard::Range>> blocks;
  for (const Task& t : p.detect.tasks) blocks[t.slot].push_back(t.range);
  ASSERT_EQ(blocks.size(), 4u);
  for (const auto& [slot, ranges] : blocks) expect_tiles(ranges, models[slot]);
}

TEST_F(PlanBuilder, TasksTileTheImageAndBothPathsBuildTheSameList) {
  // The SIC carrier decodes on the PPE; the PPM one is fed (feed on).
  for (const bool fed : {false, true}) {
    for (const Shape& shape : kShapes) {
      const img::RgbImage pixels =
          testutil::seeded_image(4100, shape.width, shape.height);
      const img::SicEncoded image =
          fed ? img::ppm_encode(pixels) : img::sic_encode(pixels);
      for (Scenario scenario : kScenarios) {
        // kMultiSPE2 pins eight SPEs.
        const int spes = scenario == Scenario::kMultiSPE2 ? 8 : shape.spes;
        for (Strategy strategy : kStrategies) {
          SCOPED_TRACE(std::string(fed ? "fed " : "") +
                       std::to_string(shape.width) + "x" +
                       std::to_string(shape.height) + " on " +
                       std::to_string(spes) + " SPEs, scenario " +
                       std::to_string(static_cast<int>(scenario)) +
                       " strategy " +
                       std::to_string(static_cast<int>(strategy)));
          sim::Machine m1(sim::Machine::Config{spes});
          CellEngine per_call(m1, library_->path(), scenario);
          set_strategy(per_call, strategy);
          per_call.set_feed(fed);
          per_call.analyze(image);

          sim::Machine m2(sim::Machine::Config{spes});
          CellEngine streaming(m2, library_->path(), scenario);
          set_strategy(streaming, strategy);
          streaming.set_feed(fed);
          StreamOptions opts;
          opts.batch = 1;
          StreamEngine stream(streaming, opts);
          stream.run({image});

          int models[4];
          const learn::MarvelModels& mm = per_call.models();
          const learn::ConceptModelSet* sets[4] = {
              &mm.color_histogram, &mm.color_correlogram, &mm.texture,
              &mm.edge_histogram};
          for (int s = 0; s < 4; ++s) {
            models[s] = static_cast<int>(sets[s]->models.size());
          }
          const ImagePlan& a = per_call.plan();
          const ImagePlan& b = stream.plan(0, 0);
          expect_well_formed(a, shape.height, fed, models);
          EXPECT_EQ(keys(a.ingest), keys(b.ingest));
          EXPECT_EQ(keys(a.extract), keys(b.extract));
          EXPECT_EQ(keys(a.detect), keys(b.detect));
          for (Stage ImagePlan::*stage :
               {&ImagePlan::ingest, &ImagePlan::extract, &ImagePlan::detect}) {
            EXPECT_EQ(lanes(a.*stage), lanes(b.*stage));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cellport::marvel
