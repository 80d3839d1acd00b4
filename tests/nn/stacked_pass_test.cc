// The stacked pass: several states, concatenated row-wise and described by
// a RowSegment list, go through one forward and one backward. Its Q values,
// input gradients and accumulated weight gradients must equal a serial
// one-state-at-a-time loop bit for bit — the property that makes the
// learner's result independent of how its batch is blocked.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/attention.h"
#include "nn/set_qnetwork.h"

namespace crowdrl {
namespace {

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct State {
  Matrix x;
  size_t valid_n;
};

/// States of the given row counts; `padded` leaves the last rows of every
/// multi-row state as padding.
std::vector<State> MakeStates(const std::vector<size_t>& rows, size_t dim,
                              bool padded, uint64_t seed) {
  Rng rng(seed);
  std::vector<State> states;
  for (size_t n : rows) {
    const size_t valid = padded && n > 1 ? n - 1 - n / 3 : n;
    Matrix x = Matrix::Uniform(n, dim, &rng);
    // Zero the padding rows, as the state builder does.
    for (size_t r = valid; r < n; ++r) {
      for (size_t c = 0; c < dim; ++c) x(r, c) = 0.0f;
    }
    states.push_back({std::move(x), valid});
  }
  return states;
}

void Stack(const std::vector<State>& states, Matrix* x,
           std::vector<RowSegment>* segments) {
  size_t rows = 0;
  for (const State& s : states) rows += s.x.rows();
  x->Resize(rows, states[0].x.cols());
  segments->clear();
  size_t begin = 0;
  for (const State& s : states) {
    std::memcpy(x->row_data(begin), s.x.data(), s.x.size() * sizeof(float));
    segments->push_back({begin, s.x.rows(), s.valid_n});
    begin += s.x.rows();
  }
}

/// The rows [begin, begin + rows) of `m`.
Matrix Rows(const Matrix& m, size_t begin, size_t rows) {
  return m.SliceRows(begin, begin + rows);
}

// Rows per state: single rows, a typical replay mix, and one state above
// the learner's 64-row block bound.
const std::vector<size_t> kRows = {5, 1, 9, 3, 70, 4, 2};

class StackedQNetworkTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(StackedQNetworkTest, EqualsPerStateLoopBitForBit) {
  const auto [masked, use_attention, padded] = GetParam();
  SetQNetworkConfig cfg;
  cfg.input_dim = 11;
  cfg.hidden_dim = 24;
  cfg.num_heads = 3;
  cfg.masked_attention = masked;
  cfg.use_attention = use_attention;
  Rng rng(17);
  const SetQNetwork net(cfg, &rng);
  const std::vector<State> states = MakeStates(kRows, cfg.input_dim, padded, 3);

  Matrix x;
  std::vector<RowSegment> segments;
  Stack(states, &x, &segments);
  Matrix dq = Matrix::Uniform(x.rows(), 1, &rng);

  SetQNetwork::BackwardWorkspace ws;
  net.PrepareBackward(&ws);
  SetQNetwork::Cache stacked_cache;
  const Matrix q = net.ForwardInto(x, segments, &stacked_cache);
  SetQNetwork::Gradients stacked = net.MakeGradients();
  net.BackwardInto(dq, stacked_cache, &ws, &stacked);

  // The reference: one state at a time, accumulating into one store.
  SetQNetwork::Gradients serial = net.MakeGradients();
  SetQNetwork::Cache cache;
  for (const RowSegment& seg : segments) {
    const Matrix xs = Rows(x, seg.begin, seg.rows);
    const Matrix qs = net.ForwardInto(xs, seg.valid_n, &cache);
    EXPECT_TRUE(BitIdentical(qs, Rows(q, seg.begin, seg.rows)));
    net.BackwardInto(Rows(dq, seg.begin, seg.rows), cache, &ws, &serial);
  }
  for (size_t i = 0; i < serial.g.size(); ++i) {
    EXPECT_TRUE(BitIdentical(stacked.g[i], serial.g[i])) << "param " << i;
  }
  EXPECT_FALSE(stacked.HasNonFinite());
}

INSTANTIATE_TEST_SUITE_P(
    MaskAttentionPadding, StackedQNetworkTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()));

TEST(StackedQNetworkTest, OneSegmentIsTheOneStatePass) {
  SetQNetworkConfig cfg;
  cfg.input_dim = 7;
  cfg.hidden_dim = 16;
  cfg.num_heads = 4;
  Rng rng(5);
  const SetQNetwork net(cfg, &rng);
  const Matrix x = Matrix::Uniform(6, cfg.input_dim, &rng);
  SetQNetwork::Cache a, b;
  const Matrix q_one = net.ForwardInto(x, 4, &a);
  const Matrix q_seg =
      net.ForwardInto(x, std::vector<RowSegment>{{0, 6, 4}}, &b);
  EXPECT_TRUE(BitIdentical(q_one, q_seg));

  // The allocating Backward equals the workspace-backed one.
  const Matrix dq = Matrix::Uniform(6, 1, &rng);
  SetQNetwork::Gradients g1 = net.MakeGradients();
  SetQNetwork::Gradients g2 = net.MakeGradients();
  net.Backward(dq, a, &g1);
  SetQNetwork::BackwardWorkspace ws;
  net.PrepareBackward(&ws);
  net.BackwardInto(dq, b, &ws, &g2);
  for (size_t i = 0; i < g1.g.size(); ++i) {
    EXPECT_TRUE(BitIdentical(g1.g[i], g2.g[i])) << "param " << i;
  }
}

class StackedAttentionTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(StackedAttentionTest, EqualsPerStateLoopBitForBit) {
  const auto [masked, padded] = GetParam();
  Rng rng(23);
  const MultiHeadSelfAttention layer(12, 4, &rng, masked);
  const std::vector<State> states = MakeStates(kRows, 12, padded, 8);
  Matrix x;
  std::vector<RowSegment> segments;
  Stack(states, &x, &segments);
  const Matrix dy = Matrix::Uniform(x.rows(), 12, &rng);

  MultiHeadSelfAttention::BackwardWorkspace ws;
  layer.TransposeWeightsInto(&ws);
  MultiHeadSelfAttention::Cache stacked_cache;
  Matrix y;
  layer.ForwardInto(x, segments, &stacked_cache, &y);
  MultiHeadSelfAttention::Grads stacked = layer.MakeGrads();
  Matrix dx(x.rows(), 12);
  layer.BackwardInto(dy, stacked_cache, &ws,
                     {&stacked.dwq, &stacked.dwk, &stacked.dwv, &stacked.dwo},
                     &dx);

  MultiHeadSelfAttention::Grads serial = layer.MakeGrads();
  MultiHeadSelfAttention::Cache cache;
  Matrix ys;
  for (const RowSegment& seg : segments) {
    layer.ForwardInto(Rows(x, seg.begin, seg.rows), seg.valid_n, &cache, &ys);
    EXPECT_TRUE(BitIdentical(ys, Rows(y, seg.begin, seg.rows)));
    Matrix dxs(seg.rows, 12);
    layer.BackwardInto(Rows(dy, seg.begin, seg.rows), cache, &ws,
                       {&serial.dwq, &serial.dwk, &serial.dwv, &serial.dwo},
                       &dxs);
    EXPECT_TRUE(BitIdentical(dxs, Rows(dx, seg.begin, seg.rows)));
  }
  EXPECT_TRUE(BitIdentical(stacked.dwq, serial.dwq));
  EXPECT_TRUE(BitIdentical(stacked.dwk, serial.dwk));
  EXPECT_TRUE(BitIdentical(stacked.dwv, serial.dwv));
  EXPECT_TRUE(BitIdentical(stacked.dwo, serial.dwo));
}

INSTANTIATE_TEST_SUITE_P(MaskAndPadding, StackedAttentionTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(StackedAttentionTest, NoRowAttendsAcrossASegmentBoundary) {
  // Changing one state's rows leaves every other state's output alone.
  Rng rng(29);
  const MultiHeadSelfAttention layer(8, 2, &rng);
  std::vector<State> states = MakeStates({4, 3, 5}, 8, false, 9);
  Matrix x, y1, y2;
  std::vector<RowSegment> segments;
  MultiHeadSelfAttention::Cache cache;
  Stack(states, &x, &segments);
  layer.ForwardInto(x, segments, &cache, &y1);
  states[1].x = Matrix::Uniform(3, 8, &rng);
  Stack(states, &x, &segments);
  layer.ForwardInto(x, segments, &cache, &y2);
  EXPECT_TRUE(BitIdentical(Rows(y1, 0, 4), Rows(y2, 0, 4)));
  EXPECT_FALSE(BitIdentical(Rows(y1, 4, 3), Rows(y2, 4, 3)));
  EXPECT_TRUE(BitIdentical(Rows(y1, 7, 5), Rows(y2, 7, 5)));
}

TEST(StackedAttentionTest, SegmentsMustTileTheRows) {
  EXPECT_TRUE(SegmentsTile({{0, 3, 3}, {3, 2, 1}}, 5));
  EXPECT_FALSE(SegmentsTile({{0, 3, 3}, {3, 2, 1}}, 6));  // rows uncovered
  EXPECT_FALSE(SegmentsTile({{0, 3, 3}, {4, 1, 1}}, 5));  // a gap
  EXPECT_FALSE(SegmentsTile({{0, 3, 4}}, 3));             // valid_n > rows
  EXPECT_TRUE(SegmentsTile({}, 0));
}

}  // namespace
}  // namespace crowdrl
