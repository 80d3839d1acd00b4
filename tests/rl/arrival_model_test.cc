#include "rl/arrival_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

namespace crowdrl {
namespace {

TEST(GapHistogramTest, RestoredHistogramBitMatchesLiveQueries) {
  // The CDF is maintained eagerly on Add via a full prefix-sum rebuild —
  // the same float-op order Load uses — so a checkpoint-restored histogram
  // answers every query bit-identically to the live one it was saved from.
  GapHistogram live(0, 600, 5);
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    live.Add(static_cast<SimTime>(rng.UniformInt(700)));  // some truncate
  }
  std::stringstream buf;
  ASSERT_TRUE(live.Save(&buf).ok());
  GapHistogram restored(0, 600, 5);
  ASSERT_TRUE(restored.Load(&buf).ok());

  for (SimTime g = 0; g <= 600; g += 3) {
    ASSERT_EQ(live.MassBefore(g), restored.MassBefore(g)) << "g=" << g;
    ASSERT_EQ(live.Prob(g), restored.Prob(g)) << "g=" << g;
  }
  ASSERT_EQ(live.Mean(), restored.Mean());
  // And both keep matching after identical further updates.
  live.Add(42);
  restored.Add(42);
  ASSERT_EQ(live.MassBefore(300), restored.MassBefore(300));
}

TEST(GapHistogramTest, ProbNormalizesOverSupport) {
  GapHistogram h(0, 99, 10, /*laplace=*/0.0);
  h.Add(5);
  h.Add(15);
  h.Add(15);
  h.Add(95);
  EXPECT_NEAR(h.Prob(5), 0.25, 1e-9);
  EXPECT_NEAR(h.Prob(15), 0.5, 1e-9);
  EXPECT_NEAR(h.Prob(95), 0.25, 1e-9);
  EXPECT_EQ(h.Prob(200), 0.0);  // out of support
}

TEST(GapHistogramTest, LaplaceSmoothingAvoidsZeros) {
  GapHistogram h(0, 99, 10, /*laplace=*/0.5);
  h.Add(5);
  EXPECT_GT(h.Prob(95), 0.0);
  EXPECT_GT(h.Prob(5), h.Prob(95));
}

TEST(GapHistogramTest, MassBetweenSumsBins) {
  GapHistogram h(0, 99, 10, 0.0);
  for (int g = 0; g < 100; g += 10) h.Add(g);  // one sample per bin
  EXPECT_NEAR(h.MassBetween(0, 99), 1.0, 1e-9);
  EXPECT_NEAR(h.MassBetween(0, 49), 0.5, 1e-9);
  EXPECT_NEAR(h.MassBetween(20, 39), 0.2, 1e-9);
  // Clipping works.
  EXPECT_NEAR(h.MassBetween(-50, 1000), 1.0, 1e-9);
  EXPECT_EQ(h.MassBetween(60, 10), 0.0);
}

TEST(GapHistogramTest, MeanTracksData) {
  GapHistogram h(0, 999, 10, 0.0);
  for (int i = 0; i < 100; ++i) h.Add(200);
  EXPECT_NEAR(h.Mean(), 205.0, 1.0);  // bin midpoint
}

TEST(GapHistogramTest, TruncationIsCounted) {
  GapHistogram h(0, 60, 1, 0.0);
  h.Add(30);
  h.Add(90);   // beyond support
  h.Add(120);  // beyond support
  EXPECT_NEAR(h.truncated_fraction(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(h.Prob(30), 1.0, 1e-9);  // normalized within support
}

TEST(GapHistogramTest, SampleStaysInSupport) {
  GapHistogram h(1, 10080, 10, 0.5);
  h.Add(1440);
  h.Add(2880);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const SimTime g = h.SampleGap(&rng);
    EXPECT_GE(g, 1);
    EXPECT_LE(g, 10080);
  }
}

TEST(ArrivalModelTest, PhiSupportMatchesPaper) {
  ArrivalModel model;
  EXPECT_EQ(model.same_worker_gap().min_gap(), 1);
  EXPECT_EQ(model.same_worker_gap().max_gap(), kMaxSameWorkerGap);
  EXPECT_EQ(model.any_gap().min_gap(), 0);
  EXPECT_EQ(model.any_gap().max_gap(), kMaxAnyWorkerGap);
}

TEST(ArrivalModelTest, TracksSameWorkerGaps) {
  ArrivalModel model;
  model.RecordArrival(7, 100);
  model.RecordArrival(7, 100 + 1440);  // returns after one day
  model.RecordArrival(7, 100 + 2 * 1440);
  const auto& phi = model.same_worker_gap();
  EXPECT_GT(phi.Prob(1440), phi.Prob(5000));
  EXPECT_EQ(model.LastArrivalOf(7), 100 + 2 * 1440);
  EXPECT_EQ(model.LastArrivalOf(99), -1);
}

TEST(ArrivalModelTest, TracksAnyWorkerGaps) {
  ArrivalModel model;
  model.RecordArrival(1, 0);
  model.RecordArrival(2, 10);
  model.RecordArrival(3, 20);
  const auto& varphi = model.any_gap();
  EXPECT_GT(varphi.Prob(10), 0.0);
  EXPECT_EQ(varphi.sample_count(), 2.0);
}

TEST(ArrivalModelTest, NewWorkerRateDecaysTowardObservedRate) {
  ArrivalModelConfig cfg;
  cfg.new_rate_window = 50;
  ArrivalModel model(cfg);
  // First 10 arrivals: all new workers.
  for (int i = 0; i < 10; ++i) model.RecordArrival(i, i * 10);
  EXPECT_GT(model.new_worker_rate(), 0.9);
  // Then 200 arrivals all from worker 0.
  for (int i = 0; i < 200; ++i) model.RecordArrival(0, 1000 + i * 10);
  EXPECT_LT(model.new_worker_rate(), 0.1);
}

TEST(ArrivalModelTest, SeenWorkersPreservesInsertionOrder) {
  ArrivalModel model;
  model.RecordArrival(5, 0);
  model.RecordArrival(3, 1);
  model.RecordArrival(5, 2);
  ASSERT_EQ(model.seen_workers().size(), 2u);
  EXPECT_EQ(model.seen_workers()[0], 5);
  EXPECT_EQ(model.seen_workers()[1], 3);
  EXPECT_EQ(model.num_arrivals(), 3);
}

// Header fields of a saved GapHistogram: min, max, width (SimTime),
// laplace, in-support and out-of-support weight (double), bin count
// (uint64), then the counts.
constexpr size_t kGapHeaderBytes = 3 * sizeof(SimTime) + 3 * sizeof(double);

std::string SavedHistogram(const GapHistogram& h) {
  std::stringstream ss;
  EXPECT_TRUE(h.Save(&ss).ok());
  return ss.str();
}

template <typename T>
void Patch(std::string* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(&(*bytes)[offset], &value, sizeof(T));
}

Status LoadHistogram(const std::string& bytes, GapHistogram* h) {
  std::stringstream ss(bytes);
  return h->Load(&ss);
}

TEST(GapHistogramTest, LoadRejectsABinCountThatDisagreesWithTheHeader) {
  GapHistogram live(0, 60, 1, 0.5);  // 61 bins
  live.Add(10);
  live.Add(30);
  const std::string bytes = SavedHistogram(live);
  for (uint64_t n : {uint64_t{0}, uint64_t{5}, uint64_t{60}, uint64_t{62}}) {
    std::string patched = bytes;
    Patch(&patched, kGapHeaderBytes, n);
    GapHistogram h(0, 60, 1, 0.5);
    const Status st = LoadHistogram(patched, &h);
    EXPECT_EQ(st.code(), StatusCode::kIoError) << "n = " << n;
    // Rejected, so untouched: still the constructor's empty 61 bins.
    EXPECT_EQ(h.num_bins(), 61u) << "n = " << n;
    EXPECT_EQ(h.sample_count(), 0.0) << "n = " << n;
    EXPECT_EQ(h.MassBefore(30), 30.0 / 61.0) << "n = " << n;
  }
  GapHistogram h(0, 60, 1, 0.5);
  ASSERT_TRUE(LoadHistogram(bytes, &h).ok());
  EXPECT_EQ(h.MassBefore(30), live.MassBefore(30));
}

TEST(GapHistogramTest, LoadRejectsNegativeOrNonFiniteCounts) {
  GapHistogram live(1, 100, 10, 0.5);  // 10 bins
  live.Add(15);
  const std::string bytes = SavedHistogram(live);
  const size_t counts = kGapHeaderBytes + sizeof(uint64_t);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Corruption {
    size_t offset;
    double value;
    const char* what;
  };
  for (const Corruption& c :
       {Corruption{counts + 3 * sizeof(double), -1.0, "negative bin"},
        Corruption{counts, nan, "NaN bin"},
        Corruption{counts + 9 * sizeof(double), inf, "infinite bin"},
        Corruption{3 * sizeof(SimTime) + sizeof(double), -2.0,
                   "negative in-support weight"},
        Corruption{3 * sizeof(SimTime), nan, "NaN laplace"}}) {
    std::string patched = bytes;
    Patch(&patched, c.offset, c.value);
    GapHistogram h(1, 100, 10, 0.5);
    EXPECT_EQ(LoadHistogram(patched, &h).code(), StatusCode::kIoError)
        << c.what;
    EXPECT_EQ(h.sample_count(), 0.0) << c.what;
  }
}

TEST(ArrivalModelTest, SeenLastArrivalsAlignWithSeenWorkers) {
  ArrivalModel model;
  Rng rng(12);
  SimTime t = 0;
  for (int i = 0; i < 300; ++i) {
    t += rng.UniformInt(0, 20);
    model.RecordArrival(static_cast<int>(rng.UniformInt(40)), t);
  }
  auto expect_aligned = [](const ArrivalModel& m, const char* what) {
    const auto& seen = m.seen_workers();
    const auto& last = m.seen_last_arrivals();
    ASSERT_EQ(last.size(), seen.size()) << what;
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(last[i], m.LastArrivalOf(seen[i])) << what << " i=" << i;
    }
  };
  expect_aligned(model, "live");
  std::stringstream ss;
  ASSERT_TRUE(model.Save(&ss).ok());
  ArrivalModel restored;
  ASSERT_TRUE(restored.Load(&ss).ok());
  expect_aligned(restored, "restored");
  EXPECT_EQ(restored.seen_last_arrivals(), model.seen_last_arrivals());
  // A returning and a new worker after the restore stay aligned.
  restored.RecordArrival(restored.seen_workers()[0], t + 5);
  restored.RecordArrival(1000, t + 6);
  expect_aligned(restored, "restored, then two arrivals");
  EXPECT_EQ(restored.seen_last_arrivals()[0], t + 5);
  EXPECT_EQ(restored.seen_last_arrivals().back(), t + 6);
}

TEST(ArrivalModelTest, LoadRejectsAWorkerListedTwice) {
  ArrivalModel model;
  model.RecordArrival(5, 0);
  model.RecordArrival(3, 10);
  model.RecordArrival(5, 20);
  std::stringstream ss;
  ASSERT_TRUE(model.Save(&ss).ok());
  std::string bytes = ss.str();
  // The record ends with one (int64 id, SimTime last) entry per seen
  // worker, in seen order: rewrite worker 3's id as 5.
  const size_t entry = sizeof(int64_t) + sizeof(SimTime);
  Patch(&bytes, bytes.size() - entry, int64_t{5});

  std::stringstream corrupt(bytes);
  ArrivalModel restored;
  const Status st = restored.Load(&corrupt);
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();

  std::stringstream intact(ss.str());
  ASSERT_TRUE(restored.Load(&intact).ok());
  EXPECT_EQ(restored.seen_workers(), (std::vector<int>{5, 3}));
}

TEST(ArrivalModelDeathTest, RejectsOutOfOrderArrivals) {
  ArrivalModel model;
  model.RecordArrival(1, 100);
  EXPECT_DEATH(model.RecordArrival(2, 50), "time order");
}

}  // namespace
}  // namespace crowdrl
