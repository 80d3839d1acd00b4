#include "nn/linear.h"

#include <istream>
#include <ostream>

namespace crowdrl {

void Linear::ForwardInto(const Matrix& x, Matrix* out) const {
  CROWDRL_CHECK(out != &x);
  MatmulInto(x, w_, out);
  // Bias and activation in one pass over the product.
  const float* b = b_.data();
  const size_t cols = out->cols();
  for (size_t r = 0; r < out->rows(); ++r) {
    float* row = out->row_data(r);
    if (act_ == Activation::kRelu) {
      for (size_t c = 0; c < cols; ++c) {
        const float v = row[c] + b[c];
        row[c] = v > 0.0f ? v : 0.0f;
      }
    } else {
      for (size_t c = 0; c < cols; ++c) row[c] += b[c];
    }
  }
}

Matrix Linear::Forward(const Matrix& x) const {
  Matrix out;
  ForwardInto(x, &out);
  return out;
}

Matrix Linear::Backward(const Matrix& x, const Matrix& y,
                        const Matrix& grad_out, Matrix* dw, Matrix* db) const {
  const Matrix w_t = w_.Transpose();
  Matrix dz, dx;
  BackwardInto(x, y, grad_out, &dz, dw, db, &w_t, &dx);
  return dx;
}

void Linear::BackwardInto(const Matrix& x, const Matrix& y,
                          const Matrix& grad_out, Matrix* dz, Matrix* dw,
                          Matrix* db, const Matrix* w_t, Matrix* dx) const {
  CROWDRL_CHECK(dw->rows() == w_.rows() && dw->cols() == w_.cols());
  CROWDRL_CHECK(db->rows() == 1 && db->cols() == b_.cols());
  const Matrix* g = &grad_out;
  if (act_ == Activation::kRelu) {
    CROWDRL_CHECK(y.rows() == grad_out.rows() && y.cols() == grad_out.cols());
    dz->Resize(grad_out.rows(), grad_out.cols());
    const float* out = y.data();
    const float* up = grad_out.data();
    float* d = dz->data();
    const size_t n = dz->size();
    // Multiply by the 0/1 mask rather than select: a NaN upstream gradient
    // stays NaN on an inactive unit, as it always has.
    for (size_t i = 0; i < n; ++i) {
      const float mask = out[i] > 0.0f ? 1.0f : 0.0f;
      d[i] = up[i] * mask;
    }
    g = dz;
  }
  // dW += xᵀ · dz ; db += column-sum(dz) ; dx = dz · Wᵀ.
  MatmulTransposeAAccumulate(x, *g, dw);
  float* acc = db->row_data(0);
  const size_t cols = g->cols();
  for (size_t r = 0; r < g->rows(); ++r) {
    const float* row = g->row_data(r);
    for (size_t c = 0; c < cols; ++c) acc[c] += row[c];
  }
  if (dx != nullptr) {
    CROWDRL_CHECK(w_t != nullptr && w_t->rows() == w_.cols() &&
                  w_t->cols() == w_.rows());
    MatmulInto(*g, *w_t, dx);
  }
}

Status Linear::Save(std::ostream* os) const {
  CROWDRL_RETURN_NOT_OK(w_.Save(os));
  CROWDRL_RETURN_NOT_OK(b_.Save(os));
  uint8_t act = act_ == Activation::kRelu ? 1 : 0;
  os->write(reinterpret_cast<const char*>(&act), 1);
  if (!os->good()) return Status::IoError("linear write failed");
  return Status::OK();
}

Status Linear::Load(std::istream* is) {
  CROWDRL_ASSIGN_OR_RETURN(w_, Matrix::Load(is));
  CROWDRL_ASSIGN_OR_RETURN(b_, Matrix::Load(is));
  uint8_t act = 0;
  is->read(reinterpret_cast<char*>(&act), 1);
  if (!is->good()) return Status::IoError("linear read failed");
  act_ = act ? Activation::kRelu : Activation::kIdentity;
  return Status::OK();
}

}  // namespace crowdrl
