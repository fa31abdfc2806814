// cellbalance tests: the steal-queue arithmetic (task splits, the
// TaskQueue arm/steal ledger, the peek-driven argmin), the content
// cache (LRU eviction under a byte budget, digest determinism), and the
// headline properties — a balanced CellEngine is bit-exact with the
// static fused plans in every scenario (including streamed windows and
// guarded fault runs), and a cache hit is
// bit-identical to the cold run it replaces. Also pins the cellbalance
// satellites: dup_fraction dataset determinism, the p99.9 histogram
// column's error bound, and the report hint suppression for cache-only
// runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "balance/content_cache.h"
#include "balance/digest.h"
#include "balance/steal.h"
#include "guard/guarded_interface.h"
#include "img/codec.h"
#include "img/synth.h"
#include "kernels/messages.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "sim/machine.h"
#include "sim/report.h"
#include "sim/time.h"
#include "trace/metrics.h"
#include "testutil.h"

namespace cellport::marvel {
namespace {

using testutil::expect_bitwise_equal;

// ---- task split arithmetic ----

TEST(BalanceSplit, TaskCountIsTilesCappedAtGrainTimesLanes) {
  // 240 rows = 15 Haar tiles; 3 lanes * grain 4 = 12 < 15.
  EXPECT_EQ(balance::task_count(240, 3), 12);
  // 48 rows = 3 tiles; tasks can never outnumber tiles.
  EXPECT_EQ(balance::task_count(48, 3), 3);
  // Sub-tile images still get one task.
  EXPECT_EQ(balance::task_count(9, 3), 1);
  EXPECT_EQ(balance::task_count(1, 8), 1);
}

TEST(BalanceSplit, TasksCoverAllRowsTileAligned) {
  for (int h : {240, 241, 37, 17, 16, 33, 319}) {
    for (int lanes : {1, 2, 3, 5}) {
      std::vector<shard::Range> tasks = balance::split_tasks(h, lanes);
      ASSERT_EQ(tasks.size(),
                static_cast<std::size_t>(balance::task_count(h, lanes)));
      int next = 0;
      for (const auto& r : tasks) {
        EXPECT_FALSE(r.empty()) << "h=" << h << " lanes=" << lanes;
        EXPECT_EQ(r.begin, next);
        if (h >= kernels::kTxTileRows) {
          EXPECT_EQ(r.begin % kernels::kTxTileRows, 0);
        }
        next = r.end;
      }
      EXPECT_EQ(next, h) << "h=" << h << " lanes=" << lanes;
    }
  }
}

// ---- the TaskQueue ledger ----

TEST(BalanceQueue, ArmsThenStealsThenDrains) {
  balance::TaskQueue q(5, 2);
  EXPECT_FALSE(q.done());
  // First issue per lane is an arm.
  EXPECT_EQ(q.issue(0), 0u);
  EXPECT_EQ(q.issue(1), 1u);
  EXPECT_EQ(q.arms(), 2u);
  EXPECT_EQ(q.steals(), 0u);
  EXPECT_TRUE(q.busy(0));
  EXPECT_EQ(q.task_of(1), 1u);
  // Completing frees the lane; the next issue is a steal.
  q.complete(1);
  EXPECT_FALSE(q.busy(1));
  EXPECT_EQ(q.issue(1), 2u);
  EXPECT_EQ(q.steals(), 1u);
  q.complete(0);
  EXPECT_EQ(q.issue(0), 3u);
  q.complete(0);
  EXPECT_EQ(q.issue(0), 4u);
  EXPECT_TRUE(q.all_issued());
  q.complete(1);
  EXPECT_EQ(q.issue(1), balance::TaskQueue::kNone);
  EXPECT_FALSE(q.done());  // lane 0 still in flight
  q.complete(0);
  EXPECT_TRUE(q.done());
  EXPECT_EQ(q.tasks(), 5u);
  EXPECT_EQ(q.arms() + q.steals(), 5u);
}

TEST(BalanceQueue, FewerTasksThanLanesLeavesLanesIdle) {
  balance::TaskQueue q(1, 4);
  EXPECT_EQ(q.issue(0), 0u);
  EXPECT_EQ(q.issue(1), balance::TaskQueue::kNone);
  EXPECT_FALSE(q.busy(1));
  q.complete(0);
  EXPECT_TRUE(q.done());
}

TEST(BalanceSteal, PickEarliestIsDeterministicArgmin) {
  balance::TaskQueue q(4, 3);
  q.issue(0);
  q.issue(1);
  q.issue(2);
  // Plain argmin.
  EXPECT_EQ(balance::pick_earliest({30.0, 10.0, 20.0}, q), 1u);
  // Ties break toward the lowest lane index.
  EXPECT_EQ(balance::pick_earliest({10.0, 10.0, 10.0}, q), 0u);
  // A hung lane's kNeverNs peek loses to every live lane.
  EXPECT_EQ(balance::pick_earliest({sim::kNeverNs, 50.0, 40.0}, q), 2u);
  // Idle lanes are ignored even with the smallest stamp.
  q.complete(0);
  EXPECT_EQ(balance::pick_earliest({0.0, 50.0, 40.0}, q), 2u);
  q.complete(1);
  q.complete(2);
  EXPECT_EQ(balance::pick_earliest({1.0, 2.0, 3.0}, q),
            balance::TaskQueue::kNone);
}

// ---- digest + cache ----

TEST(BalanceDigest, Fnv1a64IsTheReferenceFunction) {
  // Empty input = the FNV-1a 64-bit offset basis.
  EXPECT_EQ(balance::fnv1a64(nullptr, 0), 14695981039346656037ull);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(balance::fnv1a64(a, 1), 0xaf63dc4c8601ec8cull);
  const std::uint8_t b[] = {'a', 'b', 'c'};
  EXPECT_EQ(balance::fnv1a64(b, 3), 0xe71fa2190541574bull);
  // Deterministic and byte-sensitive.
  const std::uint8_t c[] = {'a', 'b', 'd'};
  EXPECT_EQ(balance::fnv1a64(b, 3), balance::fnv1a64(b, 3));
  EXPECT_NE(balance::fnv1a64(b, 3), balance::fnv1a64(c, 3));
}

TEST(BalanceDigest, ContentDigestIsPinned) {
  // Any change to the function must be deliberate. The digest is
  // XXH64 with seed 0: the first three are its published values.
  EXPECT_EQ(balance::content_digest(nullptr, 0), 0xef46db3751d8e999ull);
  const std::uint8_t abc[] = {'a', 'b', 'c'};
  EXPECT_EQ(balance::content_digest(abc, 1), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(balance::content_digest(abc, 3), 0x44bc2cf5ad770999ull);
  // The half-word and word tails, one stripe, and stripes plus tails.
  std::vector<std::uint8_t> seq(100);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    seq[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  EXPECT_EQ(balance::content_digest(seq.data(), 15), 0x90a9714eb00e8d29ull);
  EXPECT_EQ(balance::content_digest(seq.data(), 32), 0xcc6b8aaada790b2dull);
  EXPECT_EQ(balance::content_digest(seq.data(), 100), 0x4826e367566ea023ull);
}

TEST(BalanceDigest, ContentDigestSeesEveryBitAndLength) {
  std::vector<std::uint8_t> buf(4096);
  std::uint64_t x = 88172645463325252ull;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  const std::uint64_t base = balance::content_digest(buf.data(), buf.size());
  for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
    buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ASSERT_NE(balance::content_digest(buf.data(), buf.size()), base)
        << "bit " << bit;
    buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  // Every prefix length through the word and byte tails, and zero
  // bytes that only the length tells apart.
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= 300; ++n) {
    seen.insert(balance::content_digest(buf.data(), n));
  }
  EXPECT_EQ(seen.size(), 301u);
  const std::vector<std::uint8_t> zeros(300, 0);
  seen.clear();
  for (std::size_t n = 0; n <= zeros.size(); ++n) {
    seen.insert(balance::content_digest(zeros.data(), n));
  }
  EXPECT_EQ(seen.size(), 301u);
}

TEST(BalanceDigest, ContentDigestKeysEveryCarrierApart) {
  // Every distinct carrier of the mixed-size SIC and PPM sets, at three
  // seeds, gets its own key.
  std::map<std::uint64_t, std::vector<std::uint8_t>> keys;
  std::set<std::vector<std::uint8_t>> carriers;
  for (std::uint64_t seed : {7u, 61u, 2007u}) {
    for (const Dataset& set : {make_mixed_size_dataset(12, seed),
                               make_mixed_size_ppm_dataset(12, seed)}) {
      for (const img::SicEncoded& im : set.images) {
        const auto it = keys.emplace(
            balance::content_digest(im.bytes.data(), im.bytes.size()),
            im.bytes).first;
        EXPECT_EQ(it->second, im.bytes) << "digest collision";
        carriers.insert(im.bytes);
      }
    }
  }
  EXPECT_EQ(keys.size(), carriers.size());
  EXPECT_GE(carriers.size(), 60u);
}

TEST(BalanceCache, LruEvictsUnderTheByteBudget) {
  balance::ContentCache<int> cache(100);
  cache.insert(1, 10, 40);
  cache.insert(2, 20, 40);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.entries(), 2u);
  // Freshen key 1 so key 2 is the LRU victim.
  ASSERT_NE(cache.find(1), nullptr);
  cache.insert(3, 30, 40);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(3), 30);
  // A value over the whole budget is never cached.
  cache.insert(4, 40, 101);
  EXPECT_EQ(cache.find(4), nullptr);
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(BalanceCache, ZeroBudgetDisablesEverything) {
  balance::ContentCache<int> cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(1, 10, 1);
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// ---- dup_fraction datasets ----

TEST(BalanceDataset, DupFractionIsPureAndProducesDuplicates) {
  Dataset a = make_mixed_size_dataset(24, 11, 70, 0.5);
  Dataset b = make_mixed_size_dataset(24, 11, 70, 0.5);
  ASSERT_EQ(a.images.size(), 24u);
  for (std::size_t i = 0; i < a.images.size(); ++i) {
    EXPECT_EQ(a.images[i].bytes, b.images[i].bytes);
  }
  // Roughly half the positions repeat an earlier encoded stream.
  int dups = 0;
  for (std::size_t i = 1; i < a.images.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (a.images[i].bytes == a.images[j].bytes) {
        ++dups;
        break;
      }
    }
  }
  EXPECT_GE(dups, 6);
  EXPECT_LE(dups, 18);
  // dup_fraction 0 is byte-identical to the pre-knob builder output.
  Dataset plain = make_mixed_size_dataset(8, 11);
  Dataset zero = make_mixed_size_dataset(8, 11, 70, 0.0);
  for (std::size_t i = 0; i < plain.images.size(); ++i) {
    EXPECT_EQ(plain.images[i].bytes, zero.images[i].bytes);
  }
}

// ---- p99.9 column (cellbalance satellite) ----

TEST(BalanceHistogram, P999WithinBucketErrorBound) {
  trace::Histogram h;
  for (int i = 1; i <= 10000; ++i) h.record(static_cast<double>(i));
  // True p99.9 of 1..10000 is ~9990; log buckets bound relative error
  // at ~1.6%.
  const double p = h.percentile(99.9);
  EXPECT_NEAR(p, 9990.0, 0.016 * 9990.0);
  // Monotone against the neighbors and clamped to the true max.
  EXPECT_GE(p, h.percentile(99.0));
  EXPECT_LE(p, h.max());
  EXPECT_EQ(h.percentile(100.0), 10000.0);
}

TEST(BalanceHistogram, P999LandsInTextAndJson) {
  trace::MetricsRegistry m;
  m.histogram("serve.latency_ns.interactive").record(1e6);
  const std::string text = m.format_text();
  EXPECT_NE(text.find("p99.9"), std::string::npos);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"p99_9\""), std::string::npos);
}

// ---- end to end ----

class BalancedEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_balance_models.bin", 2);
    dataset_ = new Dataset(make_dataset(2, 4242));
  }
  static void TearDownTestSuite() {
    delete library_;
    delete dataset_;
  }
  static const std::string& library_path() { return library_->path(); }

  static testutil::TempLibrary* library_;
  static Dataset* dataset_;
};

testutil::TempLibrary* BalancedEngine::library_ = nullptr;
Dataset* BalancedEngine::dataset_ = nullptr;

TEST_F(BalancedEngine, BitExactInEveryScenario) {
  for (Scenario scenario : {Scenario::kSingleSPE, Scenario::kMultiSPE,
                            Scenario::kMultiSPE2, Scenario::kSharded}) {
    SCOPED_TRACE(static_cast<int>(scenario));
    sim::Machine m1;
    CellEngine plain(m1, library_path(), scenario);
    sim::Machine m2;
    CellEngine balanced(m2, library_path(), scenario);
    balanced.set_balanced(true);
    for (const auto& image : dataset_->images) {
      expect_bitwise_equal(balanced.analyze(image), plain.analyze(image));
    }
    // Every image dispatched through the steal queue.
    EXPECT_GT(m2.metrics().counter("steal.tasks").value(), 0u);
    EXPECT_GT(m2.metrics().counter("steal.arms").value(), 0u);
  }
}

TEST_F(BalancedEngine, StealsBeyondTheArmWave) {
  // kSharded gives multiple lanes; 240 rows split into more tasks than
  // lanes, so the post-completion steals must be non-zero.
  sim::Machine machine;
  CellEngine engine(machine, library_path(), Scenario::kSharded);
  engine.set_balanced(true);
  engine.analyze(dataset_->images[0]);
  EXPECT_GT(machine.metrics().counter("steal.steals").value(), 0u);
  EXPECT_EQ(machine.metrics().counter("steal.tasks").value(),
            machine.metrics().counter("steal.arms").value() +
                machine.metrics().counter("steal.steals").value());
}

TEST_F(BalancedEngine, BitExactOnAwkwardImageShapes) {
  const struct {
    int w, h;
  } shapes[] = {{63, 37}, {33, 17}, {96, 19}, {352, 31}, {47, 16}};
  sim::Machine m1;
  CellEngine plain(m1, library_path(), Scenario::kMultiSPE);
  sim::Machine m2;
  CellEngine balanced(m2, library_path(), Scenario::kSharded);
  balanced.set_balanced(true);
  for (const auto& s : shapes) {
    img::SicEncoded enc = img::sic_encode(
        img::synth_image(img::SceneKind::kGradient, 77, s.w, s.h));
    expect_bitwise_equal(balanced.analyze(enc), plain.analyze(enc));
  }
}

TEST_F(BalancedEngine, StreamMatchesPerImageCalls) {
  Dataset data = make_mixed_size_dataset(6, 99);
  sim::Machine m1;
  CellEngine per_call(m1, library_path(), Scenario::kSharded);
  sim::Machine m2;
  CellEngine streaming(m2, library_path(), Scenario::kSharded);
  streaming.set_balanced(true);
  StreamStats stats;
  StreamOptions opts;
  opts.batch = 3;
  std::vector<AnalysisResult> streamed =
      streaming.analyze_stream(data.images, opts, &stats);
  ASSERT_EQ(streamed.size(), data.images.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    expect_bitwise_equal(streamed[i], per_call.analyze(data.images[i]));
  }
  // The window pool spans images, so steals cross image boundaries:
  // more steals than a per-image dispatch could account for.
  EXPECT_GT(m2.metrics().counter("steal.steals").value(), 0u);
}

TEST_F(BalancedEngine, GuardedStreamStealsAroundAFaultedLane) {
  Dataset data = make_mixed_size_dataset(4, 7);
  sim::Machine plain;
  CellEngine baseline(plain, library_path(), Scenario::kSharded);

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  sim::FaultInjection f;
  f.dma_error_after = 2;  // transient fault mid-window on a lane SPE
  machine.spe(1).inject_fault(f);
  CellEngine engine(machine, library_path(), Scenario::kSharded,
                    kernels::kDoubleBuffer, false, guard);
  engine.set_balanced(true);
  StreamStats stats;
  StreamOptions opts;
  opts.batch = 2;
  std::vector<AnalysisResult> streamed =
      engine.analyze_stream(data.images, opts, &stats);
  ASSERT_EQ(streamed.size(), data.images.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    expect_bitwise_equal(streamed[i], baseline.analyze(data.images[i]));
  }
  EXPECT_GE(stats.request_retries, 1u);
}

TEST_F(BalancedEngine, QuarantinedLaneDrainsThroughTheOthers) {
  sim::Machine plain;
  CellEngine baseline(plain, library_path(), Scenario::kSharded);
  AnalysisResult want = baseline.analyze(dataset_->images[0]);

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  sim::FaultInjection f;
  f.hang_after = 0;  // lane 0's SPE never answers again
  f.hang_sticky = true;
  f.clears_on_restart = false;
  machine.spe(0).inject_fault(f);
  CellEngine engine(machine, library_path(), Scenario::kSharded,
                    kernels::kDoubleBuffer, false, guard);
  engine.set_balanced(true);
  AnalysisResult got = engine.analyze(dataset_->images[0]);
  // The hung lane's task degrades to the PPE fallback; every OTHER task
  // steals onto live lanes and the reduction still matches bit-exactly.
  expect_bitwise_equal(got, want);
  ASSERT_GE(got.degraded.size(), 4u);
  EXPECT_EQ(got.degraded[0], "fuse:color_histogram");
}

// ---- the content cache in the engine ----

TEST_F(BalancedEngine, CacheHitIsBitIdenticalToTheColdRun) {
  sim::Machine machine;
  CellEngine engine(machine, library_path(), Scenario::kSharded);
  engine.set_cache(1 << 20);
  AnalysisResult cold = engine.analyze(dataset_->images[0]);
  EXPECT_EQ(machine.metrics().counter("cache.misses").value(), 1u);
  AnalysisResult hit = engine.analyze(dataset_->images[0]);
  expect_bitwise_equal(hit, cold);
  EXPECT_EQ(machine.metrics().counter("cache.hits").value(), 1u);
  EXPECT_GT(machine.metrics().gauge("cache.bytes").value(), 0.0);
  EXPECT_EQ(machine.metrics().gauge("cache.entries").value(), 1.0);
  // And a hit costs less simulated time than the cold run it replaces.
  // (The engine charges only the digest + copy-out on the hit path.)
  ASSERT_NE(engine.cache(), nullptr);
  EXPECT_EQ(engine.cache()->stats().hits, 1u);
}

TEST_F(BalancedEngine, CacheKeySeesOneChangedByte) {
  // Identical bytes hit; a carrier that differs in one pixel byte
  // misses and gets its own cold result.
  const img::SicEncoded carrier =
      make_mixed_size_ppm_dataset(1, 5).images[0];
  img::SicEncoded changed = carrier;
  changed.bytes[changed.bytes.size() / 2] ^= 0x01;
  sim::Machine machine;
  CellEngine engine(machine, library_path(), Scenario::kSharded);
  engine.set_cache(8 << 20);
  const AnalysisResult cold = engine.analyze(carrier);
  expect_bitwise_equal(engine.analyze(img::SicEncoded(carrier)), cold);
  EXPECT_EQ(machine.metrics().counter("cache.hits").value(), 1u);
  engine.analyze(changed);
  EXPECT_EQ(machine.metrics().counter("cache.hits").value(), 1u);
  EXPECT_EQ(machine.metrics().counter("cache.misses").value(), 2u);
  engine.analyze(changed);
  EXPECT_EQ(machine.metrics().counter("cache.hits").value(), 2u);
}

TEST_F(BalancedEngine, TinyBudgetEvictsAndStillMatches) {
  sim::Machine machine;
  CellEngine engine(machine, library_path(), Scenario::kSharded);
  engine.set_cache(1);  // nothing fits: every insert is dropped
  expect_bitwise_equal(engine.analyze(dataset_->images[0]),
                       engine.analyze(dataset_->images[0]));
  EXPECT_EQ(machine.metrics().counter("cache.hits").value(), 0u);
  EXPECT_EQ(machine.metrics().counter("cache.misses").value(), 2u);
}

TEST_F(BalancedEngine, DuplicatesHitOnThePerCallPath) {
  // analyze() stores each undegraded result before the next call, so
  // duplicated uploads inside one dataset hit immediately.
  Dataset data = make_mixed_size_dataset(10, 31, 70, 0.5);
  sim::Machine m1;
  CellEngine plain(m1, library_path(), Scenario::kSharded);
  sim::Machine m2;
  CellEngine cached(m2, library_path(), Scenario::kSharded);
  cached.set_balanced(true);
  cached.set_cache(8 << 20);
  std::uint64_t uniques = 0;
  for (std::size_t i = 0; i < data.images.size(); ++i) {
    bool dup = false;
    for (std::size_t j = 0; j < i && !dup; ++j) {
      dup = data.images[i].bytes == data.images[j].bytes;
    }
    if (!dup) ++uniques;
    expect_bitwise_equal(cached.analyze(data.images[i]),
                         plain.analyze(data.images[i]));
  }
  EXPECT_EQ(m2.metrics().counter("cache.hits").value(),
            data.images.size() - uniques);
  EXPECT_EQ(m2.metrics().counter("cache.misses").value(), uniques);
}

TEST_F(BalancedEngine, ReplayedStreamServesEntirelyFromCache) {
  // A streamed batch digests every image up front (before any cold
  // result lands), so first contact misses; the replay hits on all of
  // them and stays bit-identical.
  Dataset data = make_mixed_size_dataset(6, 31, 70, 0.5);
  sim::Machine m1;
  CellEngine per_call(m1, library_path(), Scenario::kSharded);
  sim::Machine m2;
  CellEngine cached(m2, library_path(), Scenario::kSharded);
  cached.set_balanced(true);
  cached.set_cache(8 << 20);
  StreamOptions opts;
  opts.batch = 3;
  std::vector<AnalysisResult> first =
      cached.analyze_stream(data.images, opts, nullptr);
  EXPECT_EQ(m2.metrics().counter("cache.hits").value(), 0u);
  StreamStats warm;
  std::vector<AnalysisResult> second =
      cached.analyze_stream(data.images, opts, &warm);
  EXPECT_GE(m2.metrics().counter("cache.hits").value(),
            data.images.size());
  ASSERT_EQ(second.size(), data.images.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    AnalysisResult want = per_call.analyze(data.images[i]);
    expect_bitwise_equal(first[i], want);
    expect_bitwise_equal(second[i], want);
  }
  EXPECT_EQ(warm.images, data.images.size());
}

TEST_F(BalancedEngine, DegradedResultsAreNotCached) {
  // Lane 0's SPE hangs for good, so every image degrades to the PPE on
  // that lane. A degraded result never enters the cache — a later
  // identical image must see the guard accounting a cold run gives it —
  // so the same image misses again, per call and streamed.
  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  sim::FaultInjection f;
  f.hang_after = 0;
  f.hang_sticky = true;
  f.clears_on_restart = false;
  machine.spe(0).inject_fault(f);
  CellEngine engine(machine, library_path(), Scenario::kSharded,
                    kernels::kDoubleBuffer, false, guard);
  engine.set_balanced(true);
  engine.set_cache(8 << 20);
  const std::vector<img::SicEncoded> one = {dataset_->images[0]};
  EXPECT_FALSE(engine.analyze(one[0]).degraded.empty());
  EXPECT_FALSE(engine.analyze(one[0]).degraded.empty());
  EXPECT_FALSE(engine.analyze_stream(one)[0].degraded.empty());
  EXPECT_FALSE(engine.analyze_stream(one)[0].degraded.empty());
  EXPECT_EQ(machine.metrics().counter("cache.hits").value(), 0u);
  EXPECT_EQ(machine.metrics().counter("cache.misses").value(), 4u);
  EXPECT_EQ(machine.metrics().gauge("cache.entries").value(), 0.0);
}

TEST_F(BalancedEngine, ConceptClampedStreamsBypassTheCache) {
  // A clamped stream scores a prefix of each model set, so it neither
  // serves nor stores full-set entries: the cache counters stay put.
  Dataset data = make_mixed_size_dataset(4, 31, 70, 0.5);
  sim::Machine machine;
  CellEngine engine(machine, library_path(), Scenario::kSharded);
  engine.set_cache(8 << 20);
  StreamOptions opts;
  opts.batch = 2;
  opts.max_models = 1;
  engine.analyze_stream(data.images, opts, nullptr);
  engine.analyze_stream(data.images, opts, nullptr);
  EXPECT_EQ(machine.metrics().counter("cache.hits").value(), 0u);
  EXPECT_EQ(machine.metrics().counter("cache.misses").value(), 0u);
  EXPECT_EQ(machine.metrics().gauge("cache.entries").value(), 0.0);
}

// ---- report integration ----

TEST(BalanceReport, CacheOnlyRunSuppressesTheDmaListHint) {
  testutil::TempLibrary library("cellport_balance_report_models.bin", 2);
  sim::Machine machine;
  CellEngine engine(machine, library.path(), Scenario::kSharded);
  engine.set_cache(1 << 20);
  Dataset data = make_dataset(1, 5);
  engine.analyze(data.images[0]);
  engine.analyze(data.images[0]);  // the hit
  sim::MachineReport report = sim::snapshot(machine);
  EXPECT_GT(report.cache_hits, 0u);
  // Nothing fed through the SPE ingest kernels, but the run was (partly)
  // served from cache — the "DMA lists unused" nudge would be noise.
  report.feed_images = 0;
  report.dma_list_elements = 0;
  std::string text = sim::format_report(report);
  EXPECT_EQ(text.find("DMA lists unused"), std::string::npos);
  // With no cache traffic the hint stays.
  report.cache_hits = 0;
  text = sim::format_report(report);
  EXPECT_NE(text.find("DMA lists unused"), std::string::npos);
}

}  // namespace
}  // namespace cellport::marvel
