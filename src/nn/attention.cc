#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

namespace crowdrl {

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t dim, size_t num_heads,
                                               Rng* rng, bool use_mask)
    : wq_(Matrix::Xavier(dim, dim, rng)),
      wk_(Matrix::Xavier(dim, dim, rng)),
      wv_(Matrix::Xavier(dim, dim, rng)),
      wo_(Matrix::Xavier(dim, dim, rng)),
      num_heads_(num_heads),
      use_mask_(use_mask) {
  CROWDRL_CHECK_MSG(dim % num_heads == 0, "dim must divide into heads");
}

namespace {

/// Zeroes each segment's padding rows (index >= valid_n within it).
void ZeroPadRows(Matrix* m, const std::vector<RowSegment>& segments) {
  for (const RowSegment& s : segments) {
    for (size_t r = s.begin + s.valid_n; r < s.begin + s.rows; ++r) {
      float* row = m->row_data(r);
      std::fill(row, row + m->cols(), 0.0f);
    }
  }
}

/// `src` with each segment's padding rows zeroed, in one pass into `*out`.
void MaskedCopyInto(const Matrix& src, const std::vector<RowSegment>& segments,
                    Matrix* out) {
  out->Resize(src.rows(), src.cols());
  for (const RowSegment& s : segments) {
    const size_t valid_end = s.begin + s.valid_n;
    std::copy(src.row_data(s.begin), src.row_data(valid_end),
              out->row_data(s.begin));
    std::fill(out->row_data(valid_end), out->row_data(s.begin + s.rows),
              0.0f);
  }
}

}  // namespace

void MultiHeadSelfAttention::ForwardInto(const Matrix& x, size_t valid_n,
                                         Cache* cache, Matrix* out) const {
  CROWDRL_CHECK(valid_n <= x.rows());
  cache->segments.assign(1, RowSegment{0, x.rows(), valid_n});
  const std::vector<RowSegment>& segments = cache->segments;
  ForwardInto(x, segments, cache, out);
}

void MultiHeadSelfAttention::ForwardInto(
    const Matrix& x, const std::vector<RowSegment>& segments, Cache* cache,
    Matrix* out) const {
  CROWDRL_CHECK(x.cols() == dim());
  CROWDRL_CHECK(out != &x);
  // Every row belongs to one segment, so every output row is written.
  CROWDRL_CHECK(SegmentsTile(segments, x.rows()));
  const size_t n = x.rows();
  const size_t hd = head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  if (&segments != &cache->segments) cache->segments = segments;
  MatmulInto(x, wq_, &cache->q);
  MatmulInto(x, wk_, &cache->k);
  MatmulInto(x, wv_, &cache->v);
  const size_t blocks = segments.size() * num_heads_;
  if (cache->probs.size() < blocks) cache->probs.resize(blocks);
  cache->concat.Resize(n, dim());

  for (size_t si = 0; si < segments.size(); ++si) {
    const RowSegment& seg = segments[si];
    if (use_mask_) {
      cache->col_mask.assign(seg.rows, 0);
      std::fill(cache->col_mask.begin(),
                cache->col_mask.begin() + static_cast<long>(seg.valid_n), 1);
    }
    for (size_t h = 0; h < num_heads_; ++h) {
      const size_t c0 = h * hd;
      Matrix* scores = &cache->probs[si * num_heads_ + h];
      scores->Resize(seg.rows, seg.rows);
      MatmulTransposeBInto(Block(cache->q, seg.begin, seg.rows, c0, hd),
                           Block(cache->k, seg.begin, seg.rows, c0, hd),
                           scores);
      // With masking on, padded columns get zero probability and padded
      // rows produce all-zero distributions; without it we reproduce the
      // paper's raw zero-padding (padding rows still score exp(0) mass).
      ScaledMaskedSoftmaxRowsInPlace(
          scores, scale, use_mask_ ? &cache->col_mask : nullptr,
          use_mask_ ? static_cast<long>(seg.valid_n) : -1);
      MatmulInto(*scores, Block(cache->v, seg.begin, seg.rows, c0, hd),
                 Block(&cache->concat, seg.begin, seg.rows, c0, hd));
    }
  }

  MatmulInto(cache->concat, wo_, out);
  if (use_mask_) ZeroPadRows(out, segments);
}

Matrix MultiHeadSelfAttention::Forward(const Matrix& x, size_t valid_n,
                                       Cache* cache) const {
  Matrix out;
  ForwardInto(x, valid_n, cache, &out);
  return out;
}

Matrix MultiHeadSelfAttention::Backward(const Matrix& x,
                                        const Matrix& grad_out,
                                        const Cache& cache,
                                        Grads* grads) const {
  BackwardWorkspace ws;
  TransposeWeightsInto(&ws);
  Matrix dx(grad_out.rows(), dim());
  BackwardInto(x, grad_out, cache, &ws,
               {&grads->dwq, &grads->dwk, &grads->dwv, &grads->dwo}, &dx);
  return dx;
}

void MultiHeadSelfAttention::TransposeWeightsInto(
    BackwardWorkspace* ws) const {
  wq_.TransposeInto(&ws->wq_t);
  wk_.TransposeInto(&ws->wk_t);
  wv_.TransposeInto(&ws->wv_t);
  wo_.TransposeInto(&ws->wo_t);
}

void MultiHeadSelfAttention::BackwardInto(const Matrix& x,
                                          const Matrix& grad_out,
                                          const Cache& cache,
                                          BackwardWorkspace* ws,
                                          const GradRefs& grads,
                                          Matrix* dx) const {
  const size_t n = x.rows();
  const size_t hd = head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  CROWDRL_CHECK(x.cols() == dim() && cache.q.rows() == n);
  CROWDRL_CHECK(grad_out.rows() == n && grad_out.cols() == dim());
  CROWDRL_CHECK(dx->rows() == n && dx->cols() == dim());
  CROWDRL_CHECK(ws->wq_t.rows() == dim() && ws->wo_t.cols() == dim());

  // grad_out is read only here, before dx is written: it may be *dx.
  const Matrix* dy = &grad_out;
  if (use_mask_) {
    MaskedCopyInto(grad_out, cache.segments, &ws->dy);
    dy = &ws->dy;
  }

  // out = concat · W_O.
  MatmulTransposeAAccumulate(cache.concat, *dy, grads.dwo);
  MatmulInto(*dy, ws->wo_t, &ws->dconcat);

  // Every (segment, head) block of dq/dk/dv is written below.
  ws->dq.Resize(n, dim());
  ws->dk.Resize(n, dim());
  ws->dv.Resize(n, dim());
  for (size_t si = 0; si < cache.segments.size(); ++si) {
    const RowSegment& seg = cache.segments[si];
    for (size_t h = 0; h < num_heads_; ++h) {
      const size_t c0 = h * hd;
      const ConstMatrixView doh =
          Block(ws->dconcat, seg.begin, seg.rows, c0, hd);
      const ConstMatrixView qh = Block(cache.q, seg.begin, seg.rows, c0, hd);
      const ConstMatrixView kh = Block(cache.k, seg.begin, seg.rows, c0, hd);
      const ConstMatrixView vh = Block(cache.v, seg.begin, seg.rows, c0, hd);
      const Matrix& probs = cache.probs[si * num_heads_ + h];

      // o = P·V.
      ws->dprobs.Resize(seg.rows, seg.rows);
      MatmulTransposeBInto(doh, vh, &ws->dprobs);
      MatmulTransposeAInto(probs, doh,
                           Block(&ws->dv, seg.begin, seg.rows, c0, hd));
      // P = softmax(S); rows that were fully masked have P ≡ 0 and the
      // softmax backward then yields exactly 0 — no special-casing needed.
      SoftmaxRowsBackwardInto(probs, ws->dprobs, &ws->dscores);
      ws->dscores *= scale;
      // S = Q·Kᵀ (pre-scale): dQ = dS·K, dK = dSᵀ·Q.
      MatmulInto(ws->dscores, kh, Block(&ws->dq, seg.begin, seg.rows, c0, hd));
      MatmulTransposeAInto(ws->dscores, qh,
                           Block(&ws->dk, seg.begin, seg.rows, c0, hd));
    }
  }

  MatmulTransposeAAccumulate(x, ws->dq, grads.dwq);
  MatmulTransposeAAccumulate(x, ws->dk, grads.dwk);
  MatmulTransposeAAccumulate(x, ws->dv, grads.dwv);

  // dx += dq·W_Qᵀ + dk·W_Kᵀ + dv·W_Vᵀ, one chain per element.
  MatmulAccumulate(ws->dq, ws->wq_t, dx);
  MatmulAccumulate(ws->dk, ws->wk_t, dx);
  MatmulAccumulate(ws->dv, ws->wv_t, dx);
}

MultiHeadSelfAttention::Grads MultiHeadSelfAttention::MakeGrads() const {
  Grads g;
  g.dwq = Matrix(wq_.rows(), wq_.cols());
  g.dwk = Matrix(wk_.rows(), wk_.cols());
  g.dwv = Matrix(wv_.rows(), wv_.cols());
  g.dwo = Matrix(wo_.rows(), wo_.cols());
  return g;
}

Status MultiHeadSelfAttention::Save(std::ostream* os) const {
  CROWDRL_RETURN_NOT_OK(wq_.Save(os));
  CROWDRL_RETURN_NOT_OK(wk_.Save(os));
  CROWDRL_RETURN_NOT_OK(wv_.Save(os));
  CROWDRL_RETURN_NOT_OK(wo_.Save(os));
  uint64_t meta[2] = {num_heads_, use_mask_ ? 1ULL : 0ULL};
  os->write(reinterpret_cast<const char*>(meta), sizeof(meta));
  if (!os->good()) return Status::IoError("attention write failed");
  return Status::OK();
}

Status MultiHeadSelfAttention::Load(std::istream* is) {
  CROWDRL_ASSIGN_OR_RETURN(wq_, Matrix::Load(is));
  CROWDRL_ASSIGN_OR_RETURN(wk_, Matrix::Load(is));
  CROWDRL_ASSIGN_OR_RETURN(wv_, Matrix::Load(is));
  CROWDRL_ASSIGN_OR_RETURN(wo_, Matrix::Load(is));
  uint64_t meta[2];
  is->read(reinterpret_cast<char*>(meta), sizeof(meta));
  if (!is->good()) return Status::IoError("attention read failed");
  // A truncated or corrupted checkpoint must not install an inconsistent
  // layer: zero heads divides by zero in head_dim(), a non-dividing head
  // count slices out of bounds, and mismatched weight shapes break every
  // matmul downstream. Reject here instead.
  const size_t d = wq_.rows();
  if (wq_.cols() != d || wk_.rows() != d || wk_.cols() != d ||
      wv_.rows() != d || wv_.cols() != d || wo_.rows() != d ||
      wo_.cols() != d) {
    return Status::IoError("attention checkpoint has mismatched weights");
  }
  if (meta[0] == 0 || meta[0] > d || d % meta[0] != 0) {
    return Status::IoError("attention checkpoint has invalid head count");
  }
  if (meta[1] > 1) {
    return Status::IoError("attention checkpoint has invalid mask flag");
  }
  num_heads_ = meta[0];
  use_mask_ = meta[1] != 0;
  return Status::OK();
}

}  // namespace crowdrl
