#include "nn/linear.h"

#include <istream>
#include <ostream>

namespace crowdrl {

void Linear::ForwardInto(const Matrix& x, Matrix* pre_activation,
                         Matrix* out) const {
  CROWDRL_CHECK(out != &x && out != pre_activation);
  MatmulInto(x, w_, out);
  out->AddRowBroadcast(b_);
  if (pre_activation != nullptr) *pre_activation = *out;
  if (act_ == Activation::kRelu) {
    float* d = out->data();
    for (size_t i = 0; i < out->size(); ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
  }
}

Matrix Linear::Forward(const Matrix& x, Matrix* pre_activation) const {
  Matrix out;
  ForwardInto(x, pre_activation, &out);
  return out;
}

Matrix Linear::Backward(const Matrix& x, const Matrix& pre_activation,
                        const Matrix& grad_out, Matrix* dw, Matrix* db) const {
  const Matrix w_t = w_.Transpose();
  Matrix dz, dx;
  BackwardInto(x, pre_activation, grad_out, &dz, dw, db, &w_t, &dx);
  return dx;
}

void Linear::BackwardInto(const Matrix& x, const Matrix& pre_activation,
                          const Matrix& grad_out, Matrix* dz, Matrix* dw,
                          Matrix* db, const Matrix* w_t, Matrix* dx) const {
  CROWDRL_CHECK(dw->rows() == w_.rows() && dw->cols() == w_.cols());
  CROWDRL_CHECK(db->rows() == 1 && db->cols() == b_.cols());
  const Matrix* g = &grad_out;
  if (act_ == Activation::kRelu) {
    CROWDRL_CHECK(pre_activation.rows() == grad_out.rows() &&
                  pre_activation.cols() == grad_out.cols());
    dz->Resize(grad_out.rows(), grad_out.cols());
    const float* pre = pre_activation.data();
    const float* up = grad_out.data();
    float* d = dz->data();
    const size_t n = dz->size();
    // Multiply by the 0/1 mask rather than select: a NaN upstream gradient
    // stays NaN on an inactive unit, as it always has.
    for (size_t i = 0; i < n; ++i) {
      const float mask = pre[i] > 0.0f ? 1.0f : 0.0f;
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
