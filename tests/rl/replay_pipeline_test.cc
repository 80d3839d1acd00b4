// The replay's add -> sample -> update-priorities sequence, checked step by
// step against an independent reference built from the same sampler.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "rl/prioritized_replay.h"

namespace crowdrl {
namespace {

Transition MakeTransition(float tag) {
  Transition t;
  t.state = std::make_shared<const Matrix>(
      Matrix::FromRows({{tag, 1.0f}, {0.0f, tag}}));
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

// ---- independent reference: a bare ProportionalSampler plus a vector of
// transitions, driven with the same operations and RNG stream ----

struct ReferenceReplay {
  explicit ReferenceReplay(const PrioritizedReplayConfig& cfg)
      : sampler(cfg), items(cfg.capacity) {}

  void Add(Transition t) { items[sampler.Add()] = std::move(t); }

  ProportionalSampler sampler;
  std::vector<Transition> items;
  std::vector<size_t> slots;
  std::vector<double> raw_weights;
  std::vector<float> weights;
};

// The replay must produce bit-identical slot/weight streams to the bare
// sampler when fed identical operations and RNG streams — the invariant
// that keeps the serial == 1-actor == sharded-1×1 equivalence chain on the
// sampler's arithmetic.
TEST(ReplayPipelineTest, BitExactAgainstReferenceSampler) {
  const size_t kBatch = 8;
  PrioritizedReplayConfig cfg = SmallConfig(16);
  cfg.beta_anneal_steps = 64;
  ReferenceReplay reference(cfg);
  PrioritizedReplay replay(cfg, kBatch);
  Rng rng_ref(42), rng_replay(42), rng_ops(7);

  for (int i = 0; i < 12; ++i) {
    reference.Add(MakeTransition(i));
    replay.Add(MakeTransition(i));
  }
  PrioritizedReplay::Batch batch;
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(reference.sampler.SampleBatchInto(
        kBatch, &rng_ref, &reference.slots, &reference.raw_weights,
        &reference.weights));
    ASSERT_TRUE(replay.SampleBatchInto(&batch, &rng_replay));
    ASSERT_EQ(batch.size(), kBatch);
    std::vector<double> tds;
    for (size_t i = 0; i < kBatch; ++i) {
      const size_t slot = reference.slots[i];
      EXPECT_EQ(batch.slot(i), slot) << "round " << round;
      EXPECT_EQ(batch.weight(i), reference.weights[i]) << "round " << round;
      EXPECT_EQ(batch.item(i).target, reference.items[slot].target);
      tds.push_back(rng_ops.Uniform() * 3.0);
    }
    for (size_t i = 0; i < kBatch; ++i) {
      reference.sampler.UpdatePriority(reference.slots[i], tds[i]);
    }
    replay.UpdatePriorities(reference.slots, tds);
    // Interleave adds so ring eviction paths are exercised identically.
    if (round % 3 == 0) {
      reference.Add(MakeTransition(100 + round));
      replay.Add(MakeTransition(100 + round));
    }
    EXPECT_EQ(replay.size(), reference.sampler.size());
    EXPECT_EQ(replay.beta(), reference.sampler.beta());
    EXPECT_EQ(replay.total_priority(), reference.sampler.total_priority());
    for (size_t s = 0; s < cfg.capacity; ++s) {
      EXPECT_EQ(replay.LeafPriority(s), reference.sampler.LeafPriority(s));
    }
  }
  EXPECT_EQ(replay.size(), cfg.capacity);  // the ring wrapped
}

TEST(ReplayPipelineTest, UniformFallbackMatchesReference) {
  // Zero total mass (min_priority == 0, all TD errors zeroed) must take the
  // sampler's uniform fallback — same slots from the same RNG stream, unit
  // weights, and an identically advanced beta clock.
  PrioritizedReplayConfig cfg = SmallConfig(4);
  cfg.min_priority = 0.0;
  cfg.beta_anneal_steps = 64;
  const size_t kBatch = 4;
  ReferenceReplay reference(cfg);
  PrioritizedReplay replay(cfg, kBatch);
  std::vector<size_t> slots;
  std::vector<double> zeros;
  for (int i = 0; i < 4; ++i) {
    reference.Add(MakeTransition(i));
    replay.Add(MakeTransition(i));
    slots.push_back(i);
    zeros.push_back(0.0);
  }
  for (int i = 0; i < 4; ++i) reference.sampler.UpdatePriority(i, 0.0);
  replay.UpdatePriorities(slots, zeros);
  ASSERT_LE(replay.total_priority(), 0.0);
  Rng rng_ref(9), rng_replay(9);
  PrioritizedReplay::Batch batch;
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(reference.sampler.SampleBatchInto(
        kBatch, &rng_ref, &reference.slots, &reference.raw_weights,
        &reference.weights));
    ASSERT_TRUE(replay.SampleBatchInto(&batch, &rng_replay));
    EXPECT_TRUE(batch.uniform());
    for (size_t i = 0; i < kBatch; ++i) {
      EXPECT_EQ(batch.slot(i), reference.slots[i]);
      EXPECT_EQ(batch.weight(i), 1.0f);
      EXPECT_EQ(batch.item(i).target,
                reference.items[reference.slots[i]].target);
    }
  }
  EXPECT_EQ(replay.beta(), reference.sampler.beta());
  EXPECT_EQ(replay.total_priority(), reference.sampler.total_priority());
}

}  // namespace
}  // namespace crowdrl
