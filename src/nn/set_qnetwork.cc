#include "nn/set_qnetwork.h"

#include <fstream>

namespace crowdrl {

namespace {

/// out = a + b, one pass.
void SumInto(const Matrix& a, const Matrix& b, Matrix* out) {
  CROWDRL_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  out->Resize(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  for (size_t i = 0; i < out->size(); ++i) po[i] = pa[i] + pb[i];
}

}  // namespace

SetQNetwork::SetQNetwork(const SetQNetworkConfig& config, Rng* rng)
    : config_(config),
      rff1_(config.input_dim, config.hidden_dim, Linear::Activation::kRelu,
            rng),
      rff2_(config.hidden_dim, config.hidden_dim, Linear::Activation::kRelu,
            rng),
      rff3_(config.hidden_dim, config.hidden_dim, Linear::Activation::kRelu,
            rng),
      out_(config.hidden_dim, 1, Linear::Activation::kIdentity, rng),
      attn1_(config.hidden_dim, config.num_heads, rng,
             config.masked_attention),
      attn2_(config.hidden_dim, config.num_heads, rng,
             config.masked_attention) {
  CROWDRL_CHECK(config.input_dim > 0);
  CROWDRL_CHECK(config.hidden_dim % config.num_heads == 0);
}

const Matrix& SetQNetwork::ForwardInto(const Matrix& x, size_t valid_n,
                                       Cache* c) const {
  CROWDRL_CHECK(valid_n <= x.rows());
  c->segments.assign(1, RowSegment{0, x.rows(), valid_n});
  const std::vector<RowSegment>& segments = c->segments;
  return ForwardInto(x, segments, c);
}

const Matrix& SetQNetwork::ForwardInto(const Matrix& x,
                                       const std::vector<RowSegment>& segments,
                                       Cache* c) const {
  CROWDRL_CHECK(x.cols() == config_.input_dim);
  CROWDRL_CHECK(SegmentsTile(segments, x.rows()));
  if (&segments != &c->segments) c->segments = segments;
  rff1_.ForwardInto(x, &c->h1);
  rff2_.ForwardInto(c->h1, &c->h2);
  // Without attention each residual is its branch's input (the per-task
  // ablation: no cross-task interaction).
  const Matrix* r1 = &c->h2;
  if (config_.use_attention) {
    attn1_.ForwardInto(c->h2, segments, &c->attn1, &c->a1);
    SumInto(c->h2, c->a1, &c->r1);
    r1 = &c->r1;
  }
  rff3_.ForwardInto(*r1, &c->h3);
  const Matrix* r2 = &c->h3;
  if (config_.use_attention) {
    attn2_.ForwardInto(c->h3, segments, &c->attn2, &c->a2);
    SumInto(c->h3, c->a2, &c->r2);
    r2 = &c->r2;
  }
  out_.ForwardInto(*r2, &c->q_out);
  return c->q_out;
}

std::vector<double> SetQNetwork::QValues(const Matrix& x,
                                         size_t valid_n) const {
  Cache cache;
  std::vector<double> out;
  QValuesInto(x, valid_n, &cache, &out);
  return out;
}

void SetQNetwork::QValuesInto(const Matrix& x, size_t valid_n, Cache* cache,
                              std::vector<double>* out) const {
  const Matrix& q = ForwardInto(x, valid_n, cache);
  out->resize(valid_n);
  for (size_t i = 0; i < valid_n; ++i) (*out)[i] = q(i, 0);
}

void SetQNetwork::Backward(const Matrix& x, const Matrix& grad_q,
                           const Cache& cache, Gradients* grads) const {
  BackwardWorkspace ws;
  PrepareBackward(&ws);
  BackwardInto(x, grad_q, cache, &ws, grads);
}

void SetQNetwork::PrepareBackward(BackwardWorkspace* ws) const {
  rff2_.weights().TransposeInto(&ws->rff2_t);
  rff3_.weights().TransposeInto(&ws->rff3_t);
  out_.weights().TransposeInto(&ws->out_t);
  if (config_.use_attention) {
    attn1_.TransposeWeightsInto(&ws->attn1);
    attn2_.TransposeWeightsInto(&ws->attn2);
  }
}

void SetQNetwork::BackwardInto(const Matrix& x, const Matrix& grad_q,
                               const Cache& cache, BackwardWorkspace* ws,
                               Gradients* grads) const {
  CROWDRL_CHECK(grads->g.size() == 16);
  CROWDRL_CHECK(x.rows() == cache.h1.rows() && x.cols() == config_.input_dim);
  std::vector<Matrix>& g = grads->g;
  // Gradient store layout (must match Params()):
  //  0: rff1.W  1: rff1.b   2: rff2.W  3: rff2.b
  //  4..7:  attn1 {Wq, Wk, Wv, Wo}
  //  8: rff3.W  9: rff3.b
  // 10..13: attn2 {Wq, Wk, Wv, Wo}
  // 14: out.W 15: out.b
  const bool attention = config_.use_attention;
  const Matrix& r1 = attention ? cache.r1 : cache.h2;
  const Matrix& r2 = attention ? cache.r2 : cache.h3;
  out_.BackwardInto(r2, cache.q_out, grad_q, &ws->dz, &g[14], &g[15],
                    &ws->out_t, &ws->dh3);
  if (attention) {
    // R2 = H3 + MHSA2(H3): gradient flows through both branches. dh3 holds
    // dR2, the residual branch's share; the attention branch reads it as
    // its upstream gradient and accumulates onto it.
    attn2_.BackwardInto(cache.h3, ws->dh3, cache.attn2, &ws->attn2,
                        {&g[10], &g[11], &g[12], &g[13]}, &ws->dh3);
  }

  rff3_.BackwardInto(r1, cache.h3, ws->dh3, &ws->dz, &g[8], &g[9],
                     &ws->rff3_t, &ws->dh2);
  if (attention) {
    attn1_.BackwardInto(cache.h2, ws->dh2, cache.attn1, &ws->attn1,
                        {&g[4], &g[5], &g[6], &g[7]}, &ws->dh2);
  }

  rff2_.BackwardInto(cache.h1, cache.h2, ws->dh2, &ws->dz, &g[2], &g[3],
                     &ws->rff2_t, &ws->dh1);
  // The input gradient of rFF1 is d(loss)/d(state): nothing consumes it.
  rff1_.BackwardInto(x, cache.h1, ws->dh1, &ws->dz, &g[0], &g[1],
                     nullptr, nullptr);
}

SetQNetwork::Gradients SetQNetwork::MakeGradients() const {
  Gradients grads;
  for (const Matrix* p : Params()) {
    grads.g.emplace_back(p->rows(), p->cols());
  }
  return grads;
}

std::array<Matrix*, 16> SetQNetwork::ParamArray() {
  return {&rff1_.weights(), &rff1_.bias(),
          &rff2_.weights(), &rff2_.bias(),
          &attn1_.wq(),     &attn1_.wk(),
          &attn1_.wv(),     &attn1_.wo(),
          &rff3_.weights(), &rff3_.bias(),
          &attn2_.wq(),     &attn2_.wk(),
          &attn2_.wv(),     &attn2_.wo(),
          &out_.weights(),  &out_.bias()};
}

std::vector<Matrix*> SetQNetwork::Params() {
  const std::array<Matrix*, 16> params = ParamArray();
  return {params.begin(), params.end()};
}

std::vector<const Matrix*> SetQNetwork::Params() const {
  const std::array<Matrix*, 16> params =
      const_cast<SetQNetwork*>(this)->ParamArray();
  return {params.begin(), params.end()};
}

void SetQNetwork::CopyFrom(const SetQNetwork& other) {
  const std::array<Matrix*, 16> dst = ParamArray();
  const std::array<Matrix*, 16> src =
      const_cast<SetQNetwork&>(other).ParamArray();
  for (size_t i = 0; i < dst.size(); ++i) *dst[i] = *src[i];
}

size_t SetQNetwork::NumParameters() const {
  size_t n = 0;
  for (const Matrix* p : Params()) n += p->size();
  return n;
}

Status SetQNetwork::Save(std::ostream* os) const {
  uint64_t meta[5] = {config_.input_dim, config_.hidden_dim,
                      config_.num_heads,
                      config_.masked_attention ? 1ULL : 0ULL,
                      config_.use_attention ? 1ULL : 0ULL};
  os->write(reinterpret_cast<const char*>(meta), sizeof(meta));
  CROWDRL_RETURN_NOT_OK(rff1_.Save(os));
  CROWDRL_RETURN_NOT_OK(rff2_.Save(os));
  CROWDRL_RETURN_NOT_OK(attn1_.Save(os));
  CROWDRL_RETURN_NOT_OK(rff3_.Save(os));
  CROWDRL_RETURN_NOT_OK(attn2_.Save(os));
  CROWDRL_RETURN_NOT_OK(out_.Save(os));
  if (!os->good()) return Status::IoError("qnetwork write failed");
  return Status::OK();
}

Status SetQNetwork::Load(std::istream* is) {
  uint64_t meta[5];
  is->read(reinterpret_cast<char*>(meta), sizeof(meta));
  if (!is->good()) return Status::IoError("qnetwork header read failed");
  // Validate before installing: a corrupt header with zero dims or a head
  // count that does not divide hidden_dim would CHECK-crash or slice out
  // of bounds at first use instead of failing the load cleanly.
  if (meta[0] == 0 || meta[1] == 0 || meta[2] == 0 || meta[1] % meta[2] != 0 ||
      meta[3] > 1 || meta[4] > 1) {
    return Status::IoError("qnetwork header is invalid");
  }
  config_.input_dim = meta[0];
  config_.hidden_dim = meta[1];
  config_.num_heads = meta[2];
  config_.masked_attention = meta[3] != 0;
  config_.use_attention = meta[4] != 0;
  CROWDRL_RETURN_NOT_OK(rff1_.Load(is));
  CROWDRL_RETURN_NOT_OK(rff2_.Load(is));
  CROWDRL_RETURN_NOT_OK(attn1_.Load(is));
  CROWDRL_RETURN_NOT_OK(rff3_.Load(is));
  CROWDRL_RETURN_NOT_OK(attn2_.Load(is));
  CROWDRL_RETURN_NOT_OK(out_.Load(is));
  return Status::OK();
}

Status SetQNetwork::SaveToFile(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f.is_open()) return Status::IoError("cannot open " + path);
  return Save(&f);
}

Status SetQNetwork::LoadFromFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) return Status::IoError("cannot open " + path);
  return Load(&f);
}

}  // namespace crowdrl
