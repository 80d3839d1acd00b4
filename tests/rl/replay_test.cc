#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "rl/prioritized_replay.h"

namespace crowdrl {
namespace {

Transition MakeTransition(float tag) {
  Transition t;
  t.state = Matrix::FromRows({{tag, 1.0f}, {0.0f, tag}});
  t.valid_n = 2;
  t.action_row = 0;
  t.target = tag;
  return t;
}

PrioritizedReplayConfig SmallConfig(size_t capacity) {
  PrioritizedReplayConfig cfg;
  cfg.capacity = capacity;
  cfg.alpha = 1.0;  // proportional exactly to |td|
  cfg.beta0 = 0.4;
  return cfg;
}

void Update(PrioritizedReplay* replay, size_t slot, double td_error) {
  replay->UpdatePriorities({slot}, {td_error});
}

TEST(PrioritizedReplayTest, AddAndRetrieve) {
  PrioritizedReplay replay(SmallConfig(4), 1);
  EXPECT_EQ(replay.size(), 0u);
  const size_t slot = replay.Add(MakeTransition(0.5f));
  EXPECT_EQ(replay.size(), 1u);
  PrioritizedReplay::Batch batch;
  Rng rng(1);
  ASSERT_TRUE(replay.SampleBatchInto(&batch, &rng));
  EXPECT_EQ(batch.slot(0), slot);
  EXPECT_EQ(batch.item(0).target, 0.5);
}

TEST(PrioritizedReplayTest, WrapsAtCapacity) {
  PrioritizedReplay replay(SmallConfig(2), 1);
  replay.Add(MakeTransition(0));
  replay.Add(MakeTransition(1));
  const size_t slot = replay.Add(MakeTransition(2));
  EXPECT_EQ(slot, 0u);
  EXPECT_EQ(replay.size(), 2u);
}

TEST(PrioritizedReplayTest, SampleReturnsFalseBelowOneBatch) {
  PrioritizedReplay replay(SmallConfig(8), 4);
  Rng rng(1);
  PrioritizedReplay::Batch batch;
  EXPECT_FALSE(replay.SampleBatchInto(&batch, &rng));  // empty
  replay.Add(MakeTransition(0));
  EXPECT_FALSE(replay.SampleBatchInto(&batch, &rng));  // below batch_size
  for (int i = 0; i < 3; ++i) replay.Add(MakeTransition(i));
  EXPECT_TRUE(replay.SampleBatchInto(&batch, &rng));
  EXPECT_EQ(batch.size(), 4u);
}

TEST(PrioritizedReplayTest, HighPrioritySamplesDominate) {
  PrioritizedReplay replay(SmallConfig(8), 8);
  for (int i = 0; i < 8; ++i) replay.Add(MakeTransition(i));
  // Slot 3 gets a huge TD error; everything else tiny.
  for (int i = 0; i < 8; ++i) Update(&replay, i, i == 3 ? 10.0 : 0.01);
  Rng rng(2);
  PrioritizedReplay::Batch batch;
  int hits = 0, total = 0;
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(replay.SampleBatchInto(&batch, &rng));
    for (size_t slot : batch.slots()) {
      hits += slot == 3;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(hits) / total, 0.8);
}

TEST(PrioritizedReplayTest, WeightsAreNormalizedToAtMostOne) {
  PrioritizedReplay replay(SmallConfig(8), 8);
  for (int i = 0; i < 8; ++i) replay.Add(MakeTransition(i));
  for (int i = 0; i < 8; ++i) Update(&replay, i, 0.1 * (i + 1));
  Rng rng(3);
  PrioritizedReplay::Batch batch;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(replay.SampleBatchInto(&batch, &rng));
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_GT(batch.weight(i), 0.0f);
      EXPECT_LE(batch.weight(i), 1.0f + 1e-6f);
    }
  }
}

TEST(PrioritizedReplayTest, RareItemsGetLargerWeights) {
  PrioritizedReplay replay(SmallConfig(4), 4);
  for (int i = 0; i < 4; ++i) replay.Add(MakeTransition(i));
  Update(&replay, 0, 10.0);
  for (int i = 1; i < 4; ++i) Update(&replay, i, 0.1);
  Rng rng(4);
  PrioritizedReplay::Batch batch;
  float common_weight = -1, rare_weight = -1;
  for (int round = 0; round < 40 && (common_weight < 0 || rare_weight < 0);
       ++round) {
    ASSERT_TRUE(replay.SampleBatchInto(&batch, &rng));
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch.slot(i) == 0) common_weight = batch.weight(i);
      if (batch.slot(i) != 0) rare_weight = batch.weight(i);
    }
  }
  ASSERT_GE(common_weight, 0);
  ASSERT_GE(rare_weight, 0);
  // The frequently-sampled (high-priority) item is down-weighted.
  EXPECT_LT(common_weight, rare_weight + 1e-6f);
}

TEST(PrioritizedReplayTest, BetaAnnealsTowardOne) {
  PrioritizedReplayConfig cfg = SmallConfig(4);
  cfg.beta_anneal_steps = 100;
  PrioritizedReplay replay(cfg, 4);
  for (int i = 0; i < 4; ++i) replay.Add(MakeTransition(i));
  const double beta0 = replay.beta();
  Rng rng(5);
  PrioritizedReplay::Batch batch;
  for (int i = 0; i < 10; ++i) replay.SampleBatchInto(&batch, &rng);
  EXPECT_GT(replay.beta(), beta0);
  EXPECT_LT(replay.beta(), 1.0);
  for (int i = 0; i < 100; ++i) replay.SampleBatchInto(&batch, &rng);
  EXPECT_NEAR(replay.beta(), 1.0, 1e-9);
}

TEST(PrioritizedReplayTest, UniformFallbackAdvancesBetaSchedule) {
  // Regression: with zero total priority (min_priority == 0 and all TD
  // errors zeroed) the uniform-fallback branch returned without advancing
  // sample_steps_, freezing beta at beta0 while the main path annealed.
  PrioritizedReplayConfig cfg = SmallConfig(4);
  cfg.min_priority = 0.0;
  cfg.beta_anneal_steps = 64;
  PrioritizedReplay degenerate(cfg, 4);
  PrioritizedReplay healthy(cfg, 4);
  for (int i = 0; i < 4; ++i) {
    degenerate.Add(MakeTransition(i));
    healthy.Add(MakeTransition(i));
  }
  for (int i = 0; i < 4; ++i) {
    Update(&degenerate, i, 0.0);  // total mass collapses to zero
    Update(&healthy, i, 1.0);
  }
  ASSERT_LE(degenerate.total_priority(), 0.0);
  Rng rng_a(8), rng_b(9);
  PrioritizedReplay::Batch batch;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(degenerate.SampleBatchInto(&batch, &rng_a));
    EXPECT_TRUE(batch.uniform());
    EXPECT_EQ(batch.size(), 4u);
    for (size_t slot : batch.slots()) EXPECT_LT(slot, 4u);
    ASSERT_TRUE(healthy.SampleBatchInto(&batch, &rng_b));
  }
  // Both paths must have annealed identically.
  EXPECT_DOUBLE_EQ(degenerate.beta(), healthy.beta());
  EXPECT_GT(degenerate.beta(), cfg.beta0);
}

TEST(PrioritizedReplayTest, MinPriorityPreventsStarvation) {
  PrioritizedReplay replay(SmallConfig(4), 4);
  for (int i = 0; i < 4; ++i) replay.Add(MakeTransition(i));
  for (int i = 0; i < 4; ++i) Update(&replay, i, 0.0);  // all zero TD
  EXPECT_GT(replay.total_priority(), 0.0);
  Rng rng(6);
  PrioritizedReplay::Batch batch;
  ASSERT_TRUE(replay.SampleBatchInto(&batch, &rng));
  EXPECT_FALSE(batch.uniform());
  EXPECT_EQ(batch.size(), 4u);
}

TEST(PrioritizedReplayTest, NonPowerOfTwoCapacity) {
  PrioritizedReplay replay(SmallConfig(5), 5);
  for (int i = 0; i < 7; ++i) replay.Add(MakeTransition(i));
  EXPECT_EQ(replay.size(), 5u);
  Rng rng(7);
  PrioritizedReplay::Batch batch;
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(replay.SampleBatchInto(&batch, &rng));
    for (size_t slot : batch.slots()) EXPECT_LT(slot, 5u);
  }
}

// ---- non-finite TD errors ----

const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

// Regression: a NaN TD error made the total mass NaN (every draw then
// landed on the last slot with a NaN weight), and ±inf became the max-seen
// priority for good, so every later Add inserted an infinite leaf.
TEST(ProportionalSamplerTest, NonFiniteTdErrorKeepsTreeFinite) {
  for (double bad : kNonFinite) {
    SCOPED_TRACE(bad);
    ProportionalSampler sampler(SmallConfig(8));
    for (int i = 0; i < 8; ++i) sampler.Add();
    for (size_t i = 0; i < 8; ++i) sampler.UpdatePriority(i, 0.5);
    const double total = sampler.total_priority();
    const double leaf = sampler.LeafPriority(3);

    sampler.UpdatePriority(3, bad);
    EXPECT_EQ(sampler.total_priority(), total);
    EXPECT_EQ(sampler.LeafPriority(3), leaf);

    // The next add overwrites slot 0 with the max-seen priority, which
    // must still be the finite 1.0 it started at.
    EXPECT_EQ(sampler.Add(), 0u);
    EXPECT_EQ(sampler.LeafPriority(0), 1.0);
    EXPECT_TRUE(std::isfinite(sampler.total_priority()));

    Rng rng(11);
    std::vector<size_t> slots;
    std::vector<double> raw_weights;
    std::vector<float> weights;
    EXPECT_TRUE(sampler.SampleBatchInto(8, &rng, &slots, &raw_weights,
                                        &weights));
    float min_weight = 1.0f;
    for (float w : weights) {
      EXPECT_TRUE(std::isfinite(w));
      EXPECT_GT(w, 0.0f);
      EXPECT_LE(w, 1.0f);
      min_weight = std::min(min_weight, w);
    }
    // Slot 0 (priority 1.0) outweighs the 0.5 slots, so the batch is not
    // a collapse onto one slot with unit weights.
    EXPECT_LT(min_weight, 1.0f);
  }
}

TEST(PrioritizedReplayTest, NonFiniteTdErrorsAreSkippedAndCounted) {
  PrioritizedReplay replay(SmallConfig(8), 8);
  for (int i = 0; i < 8; ++i) replay.Add(MakeTransition(i));
  replay.UpdatePriorities({0, 1, 2, 3, 4, 5, 6, 7},
                          {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5});
  const double total = replay.total_priority();
  EXPECT_EQ(replay.nonfinite_td_errors(), 0u);

  // Finite updates in the same call still apply.
  replay.UpdatePriorities({1, 2, 3, 4},
                          {kNonFinite[0], kNonFinite[1], kNonFinite[2], 0.25});
  EXPECT_EQ(replay.nonfinite_td_errors(), 3u);
  EXPECT_EQ(replay.LeafPriority(2), 0.5);
  EXPECT_EQ(replay.LeafPriority(4), 0.25);
  EXPECT_EQ(replay.total_priority(), total - 0.25);

  replay.Add(MakeTransition(8));
  EXPECT_EQ(replay.LeafPriority(0), 1.0);
  Rng rng(12);
  PrioritizedReplay::Batch batch;
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(replay.SampleBatchInto(&batch, &rng));
    EXPECT_FALSE(batch.uniform());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(std::isfinite(batch.weight(i)));
      EXPECT_GT(batch.weight(i), 0.0f);
      EXPECT_LE(batch.weight(i), 1.0f);
    }
  }
  EXPECT_TRUE(std::isfinite(replay.total_priority()));
}

}  // namespace
}  // namespace crowdrl
