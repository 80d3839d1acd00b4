// The stacked pass: several states, concatenated row-wise and described by
// a RowSegment list, go through one forward and one backward. Its Q values,
// input gradients and accumulated weight gradients must equal a serial
// one-state-at-a-time loop bit for bit — the property that makes the
// learner's result independent of how its batch is blocked.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/set_qnetwork.h"
#include "tensor/ops.h"

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
  net.BackwardInto(x, dq, stacked_cache, &ws, &stacked);

  // The reference: one state at a time, accumulating into one store.
  SetQNetwork::Gradients serial = net.MakeGradients();
  SetQNetwork::Cache cache;
  for (const RowSegment& seg : segments) {
    const Matrix xs = Rows(x, seg.begin, seg.rows);
    const Matrix qs = net.ForwardInto(xs, seg.valid_n, &cache);
    EXPECT_TRUE(BitIdentical(qs, Rows(q, seg.begin, seg.rows)));
    net.BackwardInto(xs, Rows(dq, seg.begin, seg.rows), cache, &ws, &serial);
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
  net.Backward(x, dq, a, &g1);
  SetQNetwork::BackwardWorkspace ws;
  net.PrepareBackward(&ws);
  net.BackwardInto(x, dq, b, &ws, &g2);
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
  layer.BackwardInto(x, dy, stacked_cache, &ws,
                     {&stacked.dwq, &stacked.dwk, &stacked.dwv, &stacked.dwo},
                     &dx);

  MultiHeadSelfAttention::Grads serial = layer.MakeGrads();
  MultiHeadSelfAttention::Cache cache;
  Matrix ys;
  for (const RowSegment& seg : segments) {
    // The backward pass takes the forward input again, so it must outlive
    // the pair.
    const Matrix xs = Rows(x, seg.begin, seg.rows);
    layer.ForwardInto(xs, seg.valid_n, &cache, &ys);
    EXPECT_TRUE(BitIdentical(ys, Rows(y, seg.begin, seg.rows)));
    Matrix dxs(seg.rows, 12);
    layer.BackwardInto(xs, Rows(dy, seg.begin, seg.rows), cache, &ws,
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

// ---- the in-place heads against the staging loop they replaced ----

/// Rows [r0, r0 + rows) × columns [c0, c0 + cols) of `m`, copied.
Matrix CopyBlock(const Matrix& m, size_t r0, size_t rows, size_t c0,
                 size_t cols) {
  Matrix out(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) out(r, c) = m(r0 + r, c0 + c);
  }
  return out;
}

/// Overwrites the block of `m` at (r0, c0) with `block`.
void SetBlock(Matrix* m, size_t r0, size_t c0, const Matrix& block) {
  for (size_t r = 0; r < block.rows(); ++r) {
    for (size_t c = 0; c < block.cols(); ++c) {
      (*m)(r0 + r, c0 + c) = block(r, c);
    }
  }
}

void ZeroPadding(Matrix* m, const std::vector<RowSegment>& segments) {
  for (const RowSegment& s : segments) {
    for (size_t r = s.begin + s.valid_n; r < s.begin + s.rows; ++r) {
      for (size_t c = 0; c < m->cols(); ++c) (*m)(r, c) = 0.0f;
    }
  }
}

/// The attention pass as it ran before its heads worked in place: every
/// (segment, head) block of q/k/v copied out, multiplied as a whole
/// matrix, and its result copied back. Kept as the reference the in-place
/// layer must match bit for bit.
struct StagingAttention {
  const MultiHeadSelfAttention& layer;
  Matrix q, k, v, concat;
  std::vector<Matrix> probs;

  size_t hd() const { return layer.dim() / layer.num_heads(); }
  float scale() const {
    return 1.0f / std::sqrt(static_cast<float>(hd()));
  }

  Matrix Forward(const Matrix& x, const std::vector<RowSegment>& segments) {
    const size_t heads = layer.num_heads();
    q = Matmul(x, layer.wq());
    k = Matmul(x, layer.wk());
    v = Matmul(x, layer.wv());
    probs.assign(segments.size() * heads, Matrix());
    concat = Matrix(x.rows(), layer.dim());
    for (size_t si = 0; si < segments.size(); ++si) {
      const RowSegment& seg = segments[si];
      std::vector<uint8_t> mask(seg.rows, 0);
      std::fill(mask.begin(), mask.begin() + static_cast<long>(seg.valid_n),
                1);
      for (size_t h = 0; h < heads; ++h) {
        const Matrix qh = CopyBlock(q, seg.begin, seg.rows, h * hd(), hd());
        const Matrix kh = CopyBlock(k, seg.begin, seg.rows, h * hd(), hd());
        const Matrix vh = CopyBlock(v, seg.begin, seg.rows, h * hd(), hd());
        Matrix& p = probs[si * heads + h];
        MatmulTransposeBInto(qh, kh, &p);
        ScaledMaskedSoftmaxRowsInPlace(
            &p, scale(), layer.use_mask() ? &mask : nullptr,
            layer.use_mask() ? static_cast<long>(seg.valid_n) : -1);
        SetBlock(&concat, seg.begin, h * hd(), Matmul(p, vh));
      }
    }
    Matrix y = Matmul(concat, layer.wo());
    if (layer.use_mask()) ZeroPadding(&y, segments);
    return y;
  }

  void Backward(const Matrix& x, const Matrix& grad_out,
                const std::vector<RowSegment>& segments,
                MultiHeadSelfAttention::Grads* g, Matrix* dx) const {
    const size_t heads = layer.num_heads();
    Matrix dy = grad_out;
    if (layer.use_mask()) ZeroPadding(&dy, segments);
    MatmulTransposeAAccumulate(concat, dy, &g->dwo);
    const Matrix dconcat = Matmul(dy, layer.wo().Transpose());
    Matrix dq(x.rows(), layer.dim()), dk(x.rows(), layer.dim()),
        dv(x.rows(), layer.dim());
    for (size_t si = 0; si < segments.size(); ++si) {
      const RowSegment& seg = segments[si];
      for (size_t h = 0; h < heads; ++h) {
        const size_t c0 = h * hd();
        const Matrix doh = CopyBlock(dconcat, seg.begin, seg.rows, c0, hd());
        const Matrix qh = CopyBlock(q, seg.begin, seg.rows, c0, hd());
        const Matrix kh = CopyBlock(k, seg.begin, seg.rows, c0, hd());
        const Matrix vh = CopyBlock(v, seg.begin, seg.rows, c0, hd());
        const Matrix& p = probs[si * heads + h];
        const Matrix dprobs = MatmulTransposeB(doh, vh);
        SetBlock(&dv, seg.begin, c0, MatmulTransposeA(p, doh));
        Matrix dscores = SoftmaxRowsBackward(p, dprobs);
        dscores *= scale();
        SetBlock(&dq, seg.begin, c0, Matmul(dscores, kh));
        SetBlock(&dk, seg.begin, c0, MatmulTransposeA(dscores, qh));
      }
    }
    MatmulTransposeAAccumulate(x, dq, &g->dwq);
    MatmulTransposeAAccumulate(x, dk, &g->dwk);
    MatmulTransposeAAccumulate(x, dv, &g->dwv);
    MatmulAccumulate(dq, layer.wq().Transpose(), dx);
    MatmulAccumulate(dk, layer.wk().Transpose(), dx);
    MatmulAccumulate(dv, layer.wv().Transpose(), dx);
  }
};

struct HeadCase {
  size_t dim, heads;
  bool masked, padded, nan_in_padding;
};

class InPlaceHeadsTest : public ::testing::TestWithParam<HeadCase> {};

TEST_P(InPlaceHeadsTest, EqualsTheStagingLoopBitForBit) {
  const HeadCase hc = GetParam();
  Rng rng(31);
  const MultiHeadSelfAttention layer(hc.dim, hc.heads, &rng, hc.masked);
  std::vector<State> states = MakeStates(kRows, hc.dim, hc.padded, 12);
  if (hc.nan_in_padding) {
    // The 9-row state's last row is padding.
    ASSERT_LT(states[2].valid_n, states[2].x.rows());
    states[2].x(states[2].x.rows() - 1, 1) = std::nanf("");
  }
  Matrix x;
  std::vector<RowSegment> segments;
  Stack(states, &x, &segments);
  Matrix dy = Matrix::Uniform(x.rows(), hc.dim, &rng);
  if (hc.nan_in_padding) {
    // And in the upstream gradient of a padding row, which the mask must
    // keep out of every result.
    const RowSegment& seg = segments[2];
    dy(seg.begin + seg.rows - 1, 0) = std::nanf("");
  }
  const Matrix dx0 = Matrix::Uniform(x.rows(), hc.dim, &rng);

  MultiHeadSelfAttention::Cache cache;
  MultiHeadSelfAttention::BackwardWorkspace ws;
  layer.TransposeWeightsInto(&ws);
  {
    // Warm every buffer with a pass over other segments first, as the
    // learner's reused cache and workspace are: no result may rely on a
    // freshly zeroed buffer.
    const std::vector<RowSegment> whole = {{0, x.rows(), x.rows()}};
    Matrix y_warm, dx_warm(x.rows(), hc.dim);
    layer.ForwardInto(x, whole, &cache, &y_warm);
    MultiHeadSelfAttention::Grads g = layer.MakeGrads();
    layer.BackwardInto(x, dy, cache, &ws, {&g.dwq, &g.dwk, &g.dwv, &g.dwo},
                       &dx_warm);
  }
  Matrix y;
  layer.ForwardInto(x, segments, &cache, &y);
  MultiHeadSelfAttention::Grads got = layer.MakeGrads();
  Matrix dx = dx0;
  layer.BackwardInto(x, dy, cache, &ws,
                     {&got.dwq, &got.dwk, &got.dwv, &got.dwo}, &dx);

  StagingAttention staging{layer, {}, {}, {}, {}, {}};
  const Matrix y_ref = staging.Forward(x, segments);
  MultiHeadSelfAttention::Grads want = layer.MakeGrads();
  Matrix dx_ref = dx0;
  staging.Backward(x, dy, segments, &want, &dx_ref);

  EXPECT_TRUE(BitIdentical(y, y_ref));
  EXPECT_TRUE(BitIdentical(dx, dx_ref));
  EXPECT_TRUE(BitIdentical(got.dwq, want.dwq));
  EXPECT_TRUE(BitIdentical(got.dwk, want.dwk));
  EXPECT_TRUE(BitIdentical(got.dwv, want.dwv));
  EXPECT_TRUE(BitIdentical(got.dwo, want.dwo));

  // The upstream gradient may be the accumulation target itself (the
  // residual branch's gradient, as SetQNetwork passes it).
  MultiHeadSelfAttention::Grads aliased = layer.MakeGrads();
  Matrix residual = dy;
  layer.BackwardInto(x, residual, cache, &ws,
                     {&aliased.dwq, &aliased.dwk, &aliased.dwv, &aliased.dwo},
                     &residual);
  MultiHeadSelfAttention::Grads separate = layer.MakeGrads();
  Matrix dx_separate = dy;
  layer.BackwardInto(x, dy, cache, &ws,
                     {&separate.dwq, &separate.dwk, &separate.dwv,
                      &separate.dwo},
                     &dx_separate);
  EXPECT_TRUE(BitIdentical(residual, dx_separate));
  EXPECT_TRUE(BitIdentical(aliased.dwq, separate.dwq));
  EXPECT_TRUE(BitIdentical(aliased.dwo, separate.dwo));
}

// head_dim 3 (dim 12, 4 heads) runs every product in its k tail; head_dim
// 16 (dim 64, 4 heads) is the learner's shape. kRows includes 1-row states.
INSTANTIATE_TEST_SUITE_P(
    Heads, InPlaceHeadsTest,
    ::testing::Values(HeadCase{12, 4, true, true, false},
                      HeadCase{12, 4, true, false, false},
                      HeadCase{12, 4, false, true, false},
                      HeadCase{12, 4, false, false, false},
                      HeadCase{64, 4, true, true, false},
                      HeadCase{64, 4, false, true, false},
                      HeadCase{64, 4, true, false, false},
                      HeadCase{12, 4, true, true, true},
                      HeadCase{64, 4, true, true, true},
                      HeadCase{64, 4, false, true, true}),
    [](const ::testing::TestParamInfo<HeadCase>& info) {
      const HeadCase& c = info.param;
      return "hd" + std::to_string(c.dim / c.heads) +
             (c.masked ? "_masked" : "_unmasked") +
             (c.padded ? "_padded" : "_full") +
             (c.nan_in_padding ? "_nan" : "");
    });

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
