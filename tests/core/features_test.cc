#include "core/features.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace crowdrl {
namespace {

FeatureConfig SmallConfig() {
  FeatureConfig cfg;
  cfg.num_categories = 4;
  cfg.num_domains = 3;
  cfg.award_buckets = 2;
  cfg.history_halflife_days = 7.0;
  return cfg;
}

Task MakeTask(int id, int cat, int dom, double award) {
  Task t;
  t.id = id;
  t.category = cat;
  t.domain = dom;
  t.award = award;
  return t;
}

TEST(FeatureBuilderTest, DimsFollowConfig) {
  FeatureBuilder fb(SmallConfig(), 5, 10);
  EXPECT_EQ(fb.task_dim(), 4u + 3u + 2u);
  EXPECT_EQ(fb.worker_dim(), fb.task_dim());
}

TEST(FeatureBuilderTest, TaskFeatureIsThreeHot) {
  FeatureBuilder fb(SmallConfig(), 5, 10);
  const Task t = MakeTask(0, 2, 1, 50.0);
  const auto& f = fb.TaskFeature(t);
  ASSERT_EQ(f.size(), 9u);
  double sum = 0;
  for (float v : f) sum += v;
  EXPECT_DOUBLE_EQ(sum, 3.0);  // one-hot in each of 3 groups
  EXPECT_EQ(f[2], 1.0f);       // category 2
  EXPECT_EQ(f[4 + 1], 1.0f);   // domain 1
}

TEST(FeatureBuilderTest, TaskFeatureIsCachedAndStable) {
  FeatureBuilder fb(SmallConfig(), 5, 10);
  const Task t = MakeTask(3, 1, 0, 400.0);
  const auto* first = &fb.TaskFeature(t);
  const auto* second = &fb.TaskFeature(t);
  EXPECT_EQ(first, second);
}

TEST(FeatureBuilderTest, AwardBucketsAreMonotoneAndClamped) {
  FeatureBuilder fb(SmallConfig(), 1, 1);
  EXPECT_EQ(fb.AwardBucket(1.0), 0);        // below range → clamp
  EXPECT_EQ(fb.AwardBucket(1e9), 1);        // above range → clamp
  EXPECT_LE(fb.AwardBucket(50), fb.AwardBucket(1000));
}

TEST(FeatureBuilderTest, ColdWorkerHasZeroFeature) {
  FeatureBuilder fb(SmallConfig(), 3, 10);
  auto f = fb.WorkerFeature(0, 1000);
  for (float v : f) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(fb.WorkerHistoryWeight(0, 1000), 0.0);
}

TEST(FeatureBuilderTest, CompletionHistoryBecomesDistribution) {
  FeatureBuilder fb(SmallConfig(), 3, 10);
  fb.RecordCompletion(0, MakeTask(0, 1, 0, 50), 0);
  fb.RecordCompletion(0, MakeTask(1, 1, 2, 50), 0);
  auto f = fb.WorkerFeature(0, 0);
  double sum = 0;
  for (float v : f) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-5);  // L1-normalized
  // Category 1 appeared twice out of two completions → weight 2/6 of mass.
  EXPECT_NEAR(f[1], 2.0 / 6.0, 1e-5);
  EXPECT_NEAR(f[4 + 0], 1.0 / 6.0, 1e-5);
  EXPECT_NEAR(f[4 + 2], 1.0 / 6.0, 1e-5);
}

TEST(FeatureBuilderTest, HistoryDecaysWithHalfLife) {
  FeatureConfig cfg = SmallConfig();
  cfg.history_halflife_days = 7.0;
  FeatureBuilder fb(cfg, 2, 10);
  fb.RecordCompletion(0, MakeTask(0, 0, 0, 50), 0);
  const double w0 = fb.WorkerHistoryWeight(0, 0);
  const double w7 = fb.WorkerHistoryWeight(0, 7 * kMinutesPerDay);
  EXPECT_NEAR(w7, w0 / 2.0, 1e-6);
  const double w14 = fb.WorkerHistoryWeight(0, 14 * kMinutesPerDay);
  EXPECT_NEAR(w14, w0 / 4.0, 1e-6);
}

TEST(FeatureBuilderTest, RecentCompletionsDominateOldOnes) {
  FeatureBuilder fb(SmallConfig(), 2, 10);
  fb.RecordCompletion(0, MakeTask(0, 0, 0, 50), 0);  // old: category 0
  fb.RecordCompletion(0, MakeTask(1, 3, 0, 50),
                      30 * kMinutesPerDay);  // recent: category 3
  auto f = fb.WorkerFeature(0, 30 * kMinutesPerDay);
  EXPECT_GT(f[3], f[0]);
}

TEST(FeatureBuilderTest, WorkerFeatureIntoAvoidsReallocation) {
  FeatureBuilder fb(SmallConfig(), 2, 10);
  fb.RecordCompletion(1, MakeTask(0, 2, 1, 100), 0);
  std::vector<float> buf;
  fb.WorkerFeatureInto(1, 0, &buf);
  ASSERT_EQ(buf.size(), fb.worker_dim());
  auto copy = fb.WorkerFeature(1, 0);
  for (size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], copy[i]);
}

TEST(FeatureBuilderTest, DistinctWorkersAreIndependent) {
  FeatureBuilder fb(SmallConfig(), 2, 10);
  fb.RecordCompletion(0, MakeTask(0, 1, 1, 50), 0);
  auto f1 = fb.WorkerFeature(1, 0);
  for (float v : f1) EXPECT_EQ(v, 0.0f);
}

TEST(FeatureBuilderTest, ConcurrentFirstFillIsRaceFreeAndStable) {
  // Regression for the double-checked task-cache fill: many threads race
  // to be the first reader of every task id. Each must observe a fully
  // built feature at a stable address (the winner fills under the lock;
  // losers either wait or take the published fast path). Most meaningful
  // under TSan/ASan CI, but the cross-thread address and value agreement
  // checks below fail on torn fills even in a plain build.
  constexpr int kTasks = 64;
  constexpr int kThreads = 8;
  FeatureBuilder fb(SmallConfig(), 1, kTasks);
  std::vector<std::vector<const std::vector<float>*>> seen(
      kThreads, std::vector<const std::vector<float>*>(kTasks, nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Staggered orders so first-touch of each id rotates across threads.
      for (int k = 0; k < kTasks; ++k) {
        const int id = (k + t * (kTasks / kThreads)) % kTasks;
        const Task task = MakeTask(id, id % 4, id % 3, 50.0 * (id + 1));
        const auto& f = fb.TaskFeature(task);
        ASSERT_EQ(f.size(), fb.task_dim());
        float sum = 0;
        for (float v : f) sum += v;
        ASSERT_EQ(sum, 3.0f) << "torn fill for task " << id;
        seen[t][id] = &f;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int id = 0; id < kTasks; ++id) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][id], seen[0][id])
          << "task " << id << " cached at different addresses";
    }
  }
}

}  // namespace
}  // namespace crowdrl
