#ifndef CROWDRL_RL_TRANSITION_H_
#define CROWDRL_RL_TRANSITION_H_

#include <memory>
#include <utility>
#include <vector>

#include "tensor/matrix.h"

namespace crowdrl {

/// \brief Distribution over the *future states* of one feedback event: the
/// future-state predictor's output, from which the event's Bellman targets
/// are formed (FutureValueUnder) before its transitions are stored.
///
/// The paper replaces the sampled next state of vanilla DQN with an explicit
/// expectation over predicted future states (Eq. 3 / Eq. 6). A future state
/// differs from the current one only in (a) the worker feature component of
/// each row and (b) which tasks have expired by the (stochastic) future
/// timestamp. Because tasks expire monotonically in deadline order, all
/// possible future pools are *prefixes* of a branch's `base` matrix when its
/// rows are sorted by deadline descending. Each (valid_n, prob) segment
/// encodes "with probability `prob`, the future pool is the first `valid_n`
/// rows" — the paper's observation that "the maximum times we compute
/// max Q is maxT".
///
/// Branches capture the next-*worker* uncertainty of MDP(r): the default
/// expectation method uses a single branch whose worker feature is
/// E[f_{w_{i+1}}]; the exact top-K method uses one branch per candidate
/// worker. MDP(w) always has exactly one branch (the same worker returns).
///
/// Σ over all branches/segments of `prob` is ≤ 1: probability mass beyond
/// the gap-distribution support contributes no future term, exactly as the
/// paper truncates φ at one week and ϕ at one hour.
struct FutureStateSpec {
  struct Branch {
    Matrix base;  ///< future-state rows, deadline-descending order
    std::vector<std::pair<size_t, float>> segments;  ///< (valid_n, prob)
  };
  std::vector<Branch> branches;

  bool empty() const { return branches.empty(); }
  /// Total probability mass across all segments.
  double TotalMass() const {
    double m = 0;
    for (const auto& b : branches) {
      for (const auto& seg : b.segments) m += seg.second;
    }
    return m;
  }
};

/// \brief One stored experience: the state, the acted-on row and the
/// Bellman target the learner regresses Q(s, a) onto. The target is set
/// when the transition is minted (r + γ × the future-state expectation,
/// Eq. 3 / Eq. 6), so every field here is one the learner step reads.
///
/// The state is shared and immutable: one feedback event yields a
/// transition for every task the worker examined (the completion and the
/// skipped prefix), all over the same state, and they hold one matrix
/// between them instead of a copy each. The learner reads it through the
/// pointer, so sharing changes no bit of what it computes.
struct Transition {
  std::shared_ptr<const Matrix> state;  ///< n×d, from the StateTransformer
  size_t valid_n = 0;  ///< number of real (non-padding) task rows
  int action_row = -1; ///< row index of the acted-on task within `state`
  double target = 0.0; ///< Bellman target y

  /// Bytes of the state's payload (0 without a state), sized on live
  /// elements, not vector capacity. A state shared by several transitions
  /// is one payload: see PrioritizedReplay::ApproxBytes.
  size_t StateBytes() const {
    return state ? state->size() * sizeof(float) : 0;
  }
};

}  // namespace crowdrl

#endif  // CROWDRL_RL_TRANSITION_H_
