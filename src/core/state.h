#ifndef CROWDRL_CORE_STATE_H_
#define CROWDRL_CORE_STATE_H_

#include <vector>

#include "core/policy.h"
#include "tensor/matrix.h"

namespace crowdrl {

/// StateTransformer configuration (paper Sec. IV-B2).
struct StateConfig {
  /// maxT: hard cap on the number of task rows in a state. When the pool
  /// exceeds it, only the maxT tasks with the *latest deadlines* are kept
  /// (they stay actionable longest). 0 = unlimited.
  size_t max_tasks = 512;
  /// When true, states are physically zero-padded to exactly `max_tasks`
  /// rows as in the paper's fixed-size formulation. When false (default),
  /// states carry exactly valid_n rows — mathematically identical under
  /// masked attention and cheaper on CPU. Kept as a switch for the
  /// fidelity/ablation tests.
  bool pad_to_max = false;
  /// MDP(r) appends the two quality channels [q_w, q_t] to every row.
  bool include_quality = false;
  /// Append the elementwise interaction block f_w ∘ f_t to every row.
  /// The paper feeds raw [f_w ⊕ f_t] and lets the (GPU-sized, per-feedback
  /// trained) network learn the match nonlinearly; at CPU scale the
  /// explicit product channel recovers that capacity cheaply. Disable to
  /// reproduce the paper's raw representation (ablation).
  bool include_interaction = true;
};

/// A built state: the n×d input matrix of the Q-network plus bookkeeping
/// mapping rows back to tasks.
struct BuiltState {
  Matrix matrix;
  size_t valid_n = 0;
  /// row → index into the Observation's task vector.
  std::vector<int> row_to_task;
};

/// \brief The "State Transformer" box of Fig. 2: concatenates the worker
/// feature with each available task's feature into the set-state matrix
/// f_s = [[f_w ⊕ f_t1 (⊕ q)], [f_w ⊕ f_t2 (⊕ q)], …].
class StateTransformer {
 public:
  StateTransformer(const StateConfig& config, size_t worker_dim,
                   size_t task_dim);

  const StateConfig& config() const { return config_; }

  /// Total row width: worker_dim + task_dim (+ 2 quality channels).
  size_t input_dim() const;

  /// Builds the state for an observation (row order = obs.tasks order,
  /// possibly truncated to the maxT latest-deadline tasks).
  BuiltState Build(const Observation& obs) const;

  /// Destination-passing Build: reuses `out`'s matrix and row_to_task
  /// buffers, so a warm BuiltState rebuilds without heap allocation (the
  /// serve shard keeps one per batch slot).
  void BuildInto(const Observation& obs, BuiltState* out) const;

  /// Builds a state from explicit components — used by the future-state
  /// predictors, which substitute a *hypothetical* worker feature/quality.
  /// `order` selects and orders the tasks (indices into `obs.tasks`).
  BuiltState BuildWithWorker(const std::vector<float>& worker_features,
                             double worker_quality, const Observation& obs,
                             const std::vector<int>& order,
                             const std::vector<double>* quality_override =
                                 nullptr) const;

  /// Destination-passing BuildWithWorker. `order` may alias
  /// `out->row_to_task` (BuildInto stages the order there).
  void BuildWithWorkerInto(const std::vector<float>& worker_features,
                           double worker_quality, const Observation& obs,
                           const std::vector<int>& order,
                           const std::vector<double>* quality_override,
                           BuiltState* out) const;

 private:
  StateConfig config_;
  size_t worker_dim_;
  size_t task_dim_;
};

}  // namespace crowdrl

#endif  // CROWDRL_CORE_STATE_H_
