// Property-style sweeps over the Q-network: the paper's two architectural
// invariants (permutation invariance, whole-pool sensitivity) plus numeric
// stability must hold across pool sizes, widths, head counts and seeds —
// not just at one lucky configuration.
#include <gtest/gtest.h>

#include "nn/set_qnetwork.h"

namespace crowdrl {
namespace {

struct QNetParams {
  size_t pool;
  size_t input_dim;
  size_t hidden;
  size_t heads;
  uint64_t seed;
};

class QNetworkPropertyTest : public ::testing::TestWithParam<QNetParams> {};

TEST_P(QNetworkPropertyTest, PermutationInvarianceHolds) {
  const auto p = GetParam();
  SetQNetworkConfig cfg;
  cfg.input_dim = p.input_dim;
  cfg.hidden_dim = p.hidden;
  cfg.num_heads = p.heads;
  Rng rng(p.seed);
  SetQNetwork net(cfg, &rng);
  Matrix x = Matrix::Uniform(p.pool, p.input_dim, &rng);
  auto q = net.QValues(x, p.pool);

  // Reverse permutation (a worst case for any order-sensitive bug).
  Matrix xr(p.pool, p.input_dim);
  for (size_t r = 0; r < p.pool; ++r) xr.SetRow(r, x, p.pool - 1 - r);
  auto qr = net.QValues(xr, p.pool);
  for (size_t r = 0; r < p.pool; ++r) {
    EXPECT_NEAR(qr[r], q[p.pool - 1 - r], 1e-3)
        << "pool=" << p.pool << " row=" << r;
  }
}

TEST_P(QNetworkPropertyTest, OutputsAreFiniteAndBoundedish) {
  const auto p = GetParam();
  SetQNetworkConfig cfg;
  cfg.input_dim = p.input_dim;
  cfg.hidden_dim = p.hidden;
  cfg.num_heads = p.heads;
  Rng rng(p.seed ^ 0xF1F1);
  SetQNetwork net(cfg, &rng);
  Matrix x = Matrix::Uniform(p.pool, p.input_dim, &rng, -3.0f, 3.0f);
  auto q = net.QValues(x, p.pool);
  for (double v : q) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::fabs(v), 1e4) << "Xavier-initialized net exploded";
  }
}

TEST_P(QNetworkPropertyTest, PoolCompositionAffectsValues) {
  const auto p = GetParam();
  if (p.pool < 3) GTEST_SKIP();
  SetQNetworkConfig cfg;
  cfg.input_dim = p.input_dim;
  cfg.hidden_dim = p.hidden;
  cfg.num_heads = p.heads;
  Rng rng(p.seed ^ 0xABCD);
  SetQNetwork net(cfg, &rng);
  Matrix x = Matrix::Uniform(p.pool, p.input_dim, &rng);
  auto q_full = net.QValues(x, p.pool);
  auto q_minus_one = net.QValues(x.SliceRows(0, p.pool - 1), p.pool - 1);
  double total_shift = 0;
  for (size_t r = 0; r + 1 < p.pool; ++r) {
    total_shift += std::fabs(q_full[r] - q_minus_one[r]);
  }
  EXPECT_GT(total_shift, 1e-7)
      << "removing a competitor task must shift remaining Q values";
}

TEST_P(QNetworkPropertyTest, GradientsStayFiniteUnderTraining) {
  const auto p = GetParam();
  SetQNetworkConfig cfg;
  cfg.input_dim = p.input_dim;
  cfg.hidden_dim = p.hidden;
  cfg.num_heads = p.heads;
  Rng rng(p.seed ^ 0x77);
  SetQNetwork net(cfg, &rng);
  Matrix x = Matrix::Uniform(p.pool, p.input_dim, &rng);
  SetQNetwork::Cache cache;
  const Matrix& q = net.ForwardInto(x, p.pool, &cache);
  Matrix dq(p.pool, 1);
  dq(0, 0) = 2.0f * (q(0, 0) - 1.0f);
  auto grads = net.MakeGradients();
  net.Backward(x, dq, cache, &grads);
  for (const auto& g : grads.g) {
    EXPECT_FALSE(g.HasNonFinite());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QNetworkPropertyTest,
    ::testing::Values(QNetParams{1, 6, 8, 2, 1}, QNetParams{2, 6, 8, 1, 2},
                      QNetParams{5, 10, 16, 4, 3},
                      QNetParams{13, 12, 32, 4, 4},
                      QNetParams{31, 8, 16, 2, 5},
                      QNetParams{64, 20, 32, 8, 6}),
    [](const ::testing::TestParamInfo<QNetParams>& info) {
      return "pool" + std::to_string(info.param.pool) + "_h" +
             std::to_string(info.param.hidden) + "_heads" +
             std::to_string(info.param.heads);
    });

}  // namespace
}  // namespace crowdrl
