#ifndef CROWDRL_NN_SET_QNETWORK_H_
#define CROWDRL_NN_SET_QNETWORK_H_

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/linear.h"

namespace crowdrl {

/// Hyper-parameters of the paper's Q-network (Fig. 3).
struct SetQNetworkConfig {
  size_t input_dim = 0;    ///< |f_t| + |f_w| (+2 quality channels for MDP(r)).
  size_t hidden_dim = 128; ///< "dimension of output features in each layer".
  size_t num_heads = 4;    ///< Fig. 3 shows h = 4.
  bool masked_attention = true;  ///< false = paper's raw zero-padding.
  /// Ablation of the paper's core architectural claim: when false, both
  /// attention layers are skipped and each task is scored by the row-wise
  /// stack alone — the "independent per-task value" design of prior DQN
  /// recommenders ([36],[37]) that the paper argues cannot model task
  /// competition.
  bool use_attention = true;
};

/// \brief The paper's permutation-invariant set Q-network (Fig. 3):
///
///   H1 = rFF_relu(X)            — task-worker rows → hidden
///   H2 = rFF_relu(H1)
///   R1 = H2 + MHSA₁(H2)         — "adding to the original features … helps
///   H3 = rFF_relu(R1)             keeping the network stable" (residual)
///   R2 = H3 + MHSA₂(H3)         — second attention: higher-order interaction
///   q  = rFF_linear(R2) → n×1   — one Q value per task slot
///
/// Row r of the input X is the concatenation [f_w ⊕ f_{t_r}] produced by the
/// StateTransformer; the output row r is Q(s, t_r). Because all layers are
/// permutation-equivariant, Q(s, t_r) does not depend on the ordering of the
/// task set — but *does* depend on which other tasks are present (tasks are
/// "competitive"), which is the architectural point of the paper.
///
/// The network is stateless across calls: all activations live in a
/// caller-owned `Cache`, so one (const) network can serve many threads
/// concurrently. Several states can run as one stacked pass (a `RowSegment`
/// per state): every row-wise layer is then one product over all rows, and
/// only attention's scores run per state.
class SetQNetwork {
 public:
  /// Per-pass activation cache (intermediates for backprop; the input is
  /// not copied, so Backward takes it again). A warm cache makes
  /// ForwardInto allocation-free: every member resizes in place, so
  /// steady-state inference touches no heap.
  struct Cache {
    Matrix h1, h2;  // rFF1, rFF2 outputs
    MultiHeadSelfAttention::Cache attn1;
    Matrix a1, r1;  // attention 1 output, residual R1 = H2 + A1
    Matrix h3;      // rFF3 output
    MultiHeadSelfAttention::Cache attn2;
    Matrix a2, r2;  // attention 2 output, residual R2 = H3 + A2
    Matrix q_out;  // n×1 Q column, owned here so ForwardInto returns a view
    std::vector<RowSegment> segments;
  };

  /// Backward's buffers: the transposed weights the input gradients are
  /// formed against (refreshed by PrepareBackward) and the gradient
  /// scratch. A warm workspace makes BackwardInto allocation-free.
  struct BackwardWorkspace {
    Matrix rff2_t, rff3_t, out_t;  // weights transposed
    MultiHeadSelfAttention::BackwardWorkspace attn1, attn2;
    Matrix dz;                     // a row-wise layer's pre-activation grad
    Matrix dh3, dh2, dh1;
  };

  /// Flat gradient store; entry order matches Params().
  struct Gradients {
    std::vector<Matrix> g;

    void SetZero() {
      for (auto& m : g) m.SetZero();
    }
    /// True if any entry is NaN or Inf.
    bool HasNonFinite() const {
      for (const Matrix& m : g) {
        if (m.HasNonFinite()) return true;
      }
      return false;
    }
  };

  SetQNetwork() = default;
  SetQNetwork(const SetQNetworkConfig& config, Rng* rng);

  const SetQNetworkConfig& config() const { return config_; }

  /// Forward pass over an n×input_dim state; rows >= valid_n are padding.
  /// Returns the n×1 column of Q values (only the first valid_n entries are
  /// meaningful). All activations and the returned Q column live in
  /// `*cache` (resized in place). With a warm cache the call is
  /// allocation-free — this is the serve hot path. The returned reference
  /// is `cache->q_out` and stays valid until the next pass through the
  /// cache.
  const Matrix& ForwardInto(const Matrix& x, size_t valid_n,
                            Cache* cache) const;

  /// Stacked ForwardInto: `x` holds several states' rows back to back,
  /// tiled in order by `segments`. Returns the Q column over all stacked
  /// rows; each segment's entries equal a one-state pass over that state,
  /// bit for bit. The one-state ForwardInto is the one-segment case.
  const Matrix& ForwardInto(const Matrix& x,
                            const std::vector<RowSegment>& segments,
                            Cache* cache) const;

  /// Convenience: forward and extract Q values of the valid rows.
  std::vector<double> QValues(const Matrix& x, size_t valid_n) const;

  /// Allocation-free QValues: forwards through `*cache` and writes the
  /// valid-row Q values into `*out` (resized in place).
  void QValuesInto(const Matrix& x, size_t valid_n, Cache* cache,
                   std::vector<double>* out) const;

  /// Backprop `grad_q` (n×1, zeros on non-action rows) through the network,
  /// accumulating parameter gradients into `grads`. `x` and `cache` are the
  /// input and cache of the forward pass being differentiated.
  void Backward(const Matrix& x, const Matrix& grad_q, const Cache& cache,
                Gradients* grads) const;

  /// Copies the weights BackwardInto forms input gradients against,
  /// transposed, into `ws`. Call it again after every parameter change.
  void PrepareBackward(BackwardWorkspace* ws) const;

  /// Workspace-backed Backward over every segment `cache` was filled with;
  /// `ws` must be prepared (PrepareBackward) since the last parameter
  /// change. Each weight gradient is accumulated as one k-ascending chain
  /// over the stacked rows, onto the gradient's current value — the same
  /// chain a per-state Backward loop over the segments builds, so the
  /// result is bit-identical to that loop. rFF1's input gradient is not
  /// formed.
  void BackwardInto(const Matrix& x, const Matrix& grad_q, const Cache& cache,
                    BackwardWorkspace* ws, Gradients* grads) const;

  /// Zeroed gradient store with shapes matching Params().
  Gradients MakeGradients() const;

  /// Mutable parameter list in canonical order (optimizer + target sync).
  std::vector<Matrix*> Params();
  std::vector<const Matrix*> Params() const;

  /// Hard copy of all parameters from `other` (target-network sync:
  /// "parameters θ̃ are slowly copied from parameters θ"). Allocation-free
  /// when the shapes already match.
  void CopyFrom(const SetQNetwork& other);

  /// Total scalar parameter count.
  size_t NumParameters() const;

  Status Save(std::ostream* os) const;
  Status Load(std::istream* is);
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

 private:
  /// Params() in a fixed-size array: no heap, for the per-step paths.
  std::array<Matrix*, 16> ParamArray();

  SetQNetworkConfig config_;
  Linear rff1_, rff2_, rff3_, out_;
  MultiHeadSelfAttention attn1_, attn2_;
};

}  // namespace crowdrl

#endif  // CROWDRL_NN_SET_QNETWORK_H_
