#include "nn/mlp.h"

#include <istream>
#include <ostream>

namespace crowdrl {

Mlp::Mlp(const std::vector<size_t>& dims, Rng* rng) {
  CROWDRL_CHECK_MSG(dims.size() >= 2, "MLP needs at least input+output dims");
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = i + 2 == dims.size();
    layers_.emplace_back(dims[i], dims[i + 1],
                         last ? Linear::Activation::kIdentity
                              : Linear::Activation::kRelu,
                         rng);
  }
}

Matrix Mlp::Forward(const Matrix& x, Cache* cache) const {
  Cache local;
  Cache* c = cache != nullptr ? cache : &local;
  c->x = x;
  // resize (not assign) so a warm cache keeps its buffers.
  if (c->act.size() != layers_.size()) c->act.resize(layers_.size());
  const Matrix* cur = &c->x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].ForwardInto(*cur, &c->act[i]);
    cur = &c->act[i];
  }
  return c->act.back();
}

double Mlp::Predict(const std::vector<float>& row) const {
  Matrix x(1, row.size());
  x.SetRow(0, row);
  Matrix y = Forward(x);
  return y(0, 0);
}

Matrix Mlp::Backward(const Matrix& grad_out, const Cache& cache,
                     std::vector<Matrix>* grads) const {
  CROWDRL_CHECK(grads->size() == 2 * layers_.size());
  Matrix dy = grad_out;
  for (size_t i = layers_.size(); i-- > 0;) {
    const Matrix& input = i == 0 ? cache.x : cache.act[i - 1];
    dy = layers_[i].Backward(input, cache.act[i], dy, &(*grads)[2 * i],
                             &(*grads)[2 * i + 1]);
  }
  return dy;
}

std::vector<Matrix*> Mlp::Params() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    out.push_back(&layer.weights());
    out.push_back(&layer.bias());
  }
  return out;
}

std::vector<Matrix> Mlp::MakeGradients() const {
  std::vector<Matrix> out;
  for (const auto& layer : layers_) {
    out.emplace_back(layer.weights().rows(), layer.weights().cols());
    out.emplace_back(1, layer.bias().cols());
  }
  return out;
}

Status Mlp::Save(std::ostream* os) const {
  uint64_t n = layers_.size();
  os->write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (const auto& layer : layers_) CROWDRL_RETURN_NOT_OK(layer.Save(os));
  if (!os->good()) return Status::IoError("mlp write failed");
  return Status::OK();
}

Status Mlp::Load(std::istream* is) {
  uint64_t n = 0;
  is->read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!is->good()) return Status::IoError("mlp header read failed");
  // Guard against a corrupt header before allocating n layers.
  if (n == 0 || n > 1024) return Status::IoError("mlp header is invalid");
  layers_.assign(n, Linear());
  for (auto& layer : layers_) CROWDRL_RETURN_NOT_OK(layer.Load(is));
  return Status::OK();
}

}  // namespace crowdrl
