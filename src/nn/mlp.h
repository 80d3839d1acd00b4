#ifndef CROWDRL_NN_MLP_H_
#define CROWDRL_NN_MLP_H_

#include <vector>

#include "nn/linear.h"

namespace crowdrl {

/// \brief Plain multi-layer perceptron with ReLU hidden layers and a linear
/// scalar (or vector) output.
///
/// This is the "neural network of two hidden-layers" the paper uses for the
/// Greedy+NN supervised baseline, and also a building block for tests. Like
/// the other layers it keeps no per-pass state, so shared-weight concurrent
/// inference is safe.
class Mlp {
 public:
  struct Cache {
    Matrix x;
    std::vector<Matrix> act;  // activations per layer (excl. input)
  };

  Mlp() = default;

  /// `dims` = {input, hidden..., output}. Hidden layers get ReLU, the final
  /// layer is linear.
  Mlp(const std::vector<size_t>& dims, Rng* rng);

  size_t input_dim() const { return layers_.front().in_dim(); }
  size_t output_dim() const { return layers_.back().out_dim(); }

  /// Forward over an n×input batch.
  Matrix Forward(const Matrix& x, Cache* cache = nullptr) const;

  /// Scalar convenience: forward a single row, return output(0,0).
  double Predict(const std::vector<float>& row) const;

  /// Backward; accumulates into `grads` (aligned with Params()).
  /// Returns d(loss)/d(input).
  Matrix Backward(const Matrix& grad_out, const Cache& cache,
                  std::vector<Matrix>* grads) const;

  std::vector<Matrix*> Params();
  std::vector<Matrix> MakeGradients() const;

  Status Save(std::ostream* os) const;
  Status Load(std::istream* is);

 private:
  std::vector<Linear> layers_;
};

}  // namespace crowdrl

#endif  // CROWDRL_NN_MLP_H_
