// The architecture-ablation switch: without attention the Q-network must
// degenerate to independent per-task scoring — the design of prior DQN
// recommenders the paper argues against.
#include <gtest/gtest.h>

#include "nn/grad_check.h"
#include "nn/set_qnetwork.h"

namespace crowdrl {
namespace {

SetQNetwork MakeNet(bool attention, uint64_t seed) {
  SetQNetworkConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden_dim = 8;
  cfg.num_heads = 2;
  cfg.use_attention = attention;
  Rng rng(seed);
  return SetQNetwork(cfg, &rng);
}

TEST(ArchAblationTest, WithoutAttentionScoresAreIndependentPerTask) {
  auto net = MakeNet(false, 3);
  Rng rng(4);
  Matrix x = Matrix::Uniform(5, 6, &rng);
  auto q_full = net.QValues(x, 5);
  // Removing other tasks must NOT change a task's value.
  for (size_t keep = 1; keep <= 5; ++keep) {
    auto q_prefix = net.QValues(x.SliceRows(0, keep), keep);
    for (size_t r = 0; r < keep; ++r) {
      EXPECT_NEAR(q_prefix[r], q_full[r], 1e-6)
          << "independent scoring must ignore pool composition";
    }
  }
}

TEST(ArchAblationTest, WithAttentionScoresDependOnPool) {
  auto net = MakeNet(true, 3);
  Rng rng(4);
  Matrix x = Matrix::Uniform(5, 6, &rng);
  auto q_full = net.QValues(x, 5);
  auto q_small = net.QValues(x.SliceRows(0, 3), 3);
  double shift = 0;
  for (size_t r = 0; r < 3; ++r) shift += std::fabs(q_full[r] - q_small[r]);
  EXPECT_GT(shift, 1e-7);
}

TEST(ArchAblationTest, NoAttentionGradientsStillMatchNumeric) {
  auto net = MakeNet(false, 9);
  Rng rng(10);
  Matrix x = Matrix::Uniform(4, 6, &rng, -0.5f, 0.5f);
  auto loss = [&]() {
    auto q = net.QValues(x, 4);
    const double delta = q[1] - 0.3;
    return delta * delta;
  };
  SetQNetwork::Cache cache;
  const Matrix& q = net.ForwardInto(x, 4, &cache);
  Matrix dq(4, 1);
  dq(1, 0) = static_cast<float>(2.0 * (q(1, 0) - 0.3));
  auto grads = net.MakeGradients();
  net.Backward(x, dq, cache, &grads);
  // Only the row-wise layers receive gradient; attention grads stay zero.
  auto params = net.Params();
  for (size_t p : {4u, 5u, 6u, 7u, 10u, 11u, 12u, 13u}) {
    EXPECT_EQ(grads.g[p].SquaredNorm(), 0.0) << "attention grad " << p;
  }
  for (size_t p : {0u, 1u, 2u, 3u, 8u, 9u, 14u, 15u}) {
    auto res = CheckGradient(params[p], grads.g[p], loss, 1e-3f, 16);
    EXPECT_LT(res.max_rel_err, 8e-2f) << "param " << p;
  }
}

TEST(ArchAblationTest, SaveLoadPreservesTheSwitch) {
  auto net = MakeNet(false, 21);
  std::stringstream ss;
  ASSERT_TRUE(net.Save(&ss).ok());
  SetQNetwork restored;
  ASSERT_TRUE(restored.Load(&ss).ok());
  EXPECT_FALSE(restored.config().use_attention);
}

}  // namespace
}  // namespace crowdrl
