// Bit-level reproducibility guarantees: identically-seeded RNG streams are
// identical, and a short DQN training run is bit-for-bit reproducible across
// two invocations with the same seed (including the multi-threaded learner,
// whose per-chunk gradients are reduced in a fixed order).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/dqn_agent.h"

namespace crowdrl {
namespace {

TEST(DeterminismTest, IdenticallySeededRngStreamsMatch) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64()) << "draw " << i;
  }
  // Mixed-distribution draws consume state identically too.
  Rng c(7), d(7);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(c.Uniform(), d.Uniform());
    ASSERT_EQ(c.Normal(), d.Normal());
    ASSERT_EQ(c.UniformInt(1000), d.UniformInt(1000));
    ASSERT_EQ(c.Poisson(3.5), d.Poisson(3.5));
  }
}

TEST(DeterminismTest, ForkedStreamsAreReproducibleAndIndependent) {
  Rng parent1(99), parent2(99);
  Rng child1 = parent1.Fork();
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(child1.NextU64(), child2.NextU64());
  }
  // The fork consumed exactly one parent draw, so parents stay in lockstep.
  ASSERT_EQ(parent1.NextU64(), parent2.NextU64());
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_EQ(equal, 0);
}

DqnAgentConfig TrainingConfig() {
  DqnAgentConfig cfg;
  cfg.net.input_dim = 6;
  cfg.net.hidden_dim = 16;
  cfg.net.num_heads = 2;
  cfg.batch_size = 8;
  cfg.replay.capacity = 64;
  cfg.gamma = 0.5;
  cfg.target_sync_every = 7;
  cfg.seed = 321;
  return cfg;
}

// Stores `n` transitions drawn from `seed` and runs `steps` learner steps.
// Heap-allocated: DqnAgent is pinned in place by its replay pipeline.
std::unique_ptr<DqnAgent> TrainOnce(int n, int steps, uint64_t seed) {
  auto agent_ptr = std::make_unique<DqnAgent>(TrainingConfig());
  DqnAgent& agent = *agent_ptr;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Transition t;
    t.state = Matrix::Uniform(4, 6, &rng);
    t.valid_n = 4;
    t.action_row = static_cast<int>(rng.UniformInt(4));
    t.target = rng.Uniform();
    agent.Store(std::move(t));
  }
  for (int i = 0; i < steps; ++i) agent.LearnStep();
  return agent_ptr;
}

void ExpectBitIdentical(const SetQNetwork& x, const SetQNetwork& y) {
  auto px = x.Params();
  auto py = y.Params();
  ASSERT_EQ(px.size(), py.size());
  for (size_t i = 0; i < px.size(); ++i) {
    ASSERT_EQ(px[i]->rows(), py[i]->rows());
    ASSERT_EQ(px[i]->cols(), py[i]->cols());
    EXPECT_EQ(std::memcmp(px[i]->data(), py[i]->data(),
                          px[i]->size() * sizeof(float)),
              0)
        << "parameter matrix " << i << " differs";
  }
}

TEST(DeterminismTest, DqnTrainingIsBitReproducible) {
  auto first = TrainOnce(24, 30, 2024);
  auto second = TrainOnce(24, 30, 2024);
  ASSERT_EQ(first->learn_steps(), second->learn_steps());
  ASSERT_GT(first->learn_steps(), 0);
  EXPECT_EQ(first->last_loss(), second->last_loss());
  ExpectBitIdentical(first->online(), second->online());
  ExpectBitIdentical(first->target_net(), second->target_net());

  // Bit-identical weights imply bit-identical decisions on a fresh state.
  Rng probe_rng(55);
  Matrix probe = Matrix::Uniform(5, 6, &probe_rng);
  auto q1 = first->Scores(probe, 5);
  auto q2 = second->Scores(probe, 5);
  ASSERT_EQ(q1.size(), q2.size());
  for (size_t i = 0; i < q1.size(); ++i) EXPECT_EQ(q1[i], q2[i]);
}

TEST(DeterminismTest, DqnTrainingDependsOnSeed) {
  auto first = TrainOnce(24, 10, 1);
  auto second = TrainOnce(24, 10, 2);
  Rng probe_rng(55);
  Matrix probe = Matrix::Uniform(5, 6, &probe_rng);
  auto q1 = first->Scores(probe, 5);
  auto q2 = second->Scores(probe, 5);
  bool any_diff = false;
  for (size_t i = 0; i < q1.size(); ++i) any_diff |= (q1[i] != q2[i]);
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace crowdrl
