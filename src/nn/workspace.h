#ifndef CROWDRL_NN_WORKSPACE_H_
#define CROWDRL_NN_WORKSPACE_H_

#include <vector>

#include "nn/set_qnetwork.h"

namespace crowdrl {

/// \brief Thread-local scratch for the inference hot path.
///
/// One warm SetQNetwork::Cache plus the per-network score vectors: after
/// the first pass on a thread, every buffer has reached its steady-state
/// capacity and subsequent scoring through it performs zero heap
/// allocations (see tests/nn/allocation_free_test.cc). Serve batch leaders
/// and the mint path's future-value passes all route through `ThreadLocal()`,
/// so a thread pays the warm-up exactly once regardless of how many
/// decisions it scores.
///
/// The cache is reused across *different* networks (worker vs. requester
/// MDP): that is safe because every member is resized in place on each
/// pass and nothing is read before being written.
struct InferenceWorkspace {
  SetQNetwork::Cache cache;
  std::vector<double> qw;  // worker-MDP Q values
  std::vector<double> qr;  // requester-MDP Q values
  // FutureValueUnder's buffers (the mint path), kept apart from qw/qr so a
  // scoring pass's Q values survive a future-value evaluation.
  Matrix future_pool;                   // valid rows of one future segment
  std::vector<double> future_online_q;  // online-net Q over future_pool
  std::vector<double> future_target_q;  // target-net Q over future_pool

  static InferenceWorkspace& ThreadLocal() {
    thread_local InferenceWorkspace ws;
    return ws;
  }
};

/// \brief Thread-local scratch for the learner step (DqnAgent::LearnStep).
///
/// One stacked block of sampled states, its segment list, the forward
/// cache, the backward workspace (with the transposed weights of the net
/// being trained) and the per-sample TD buffers. A warm workspace makes a
/// learner step allocation-free.
///
/// Both agents of a framework train on the same thread in turn, so they
/// share one workspace rather than each keeping a cache: every member is
/// resized in place and rewritten before it is read, and each step
/// refreshes the transposed weights for its own net.
struct LearnerWorkspace {
  Matrix x;                          // stacked states of one block
  std::vector<RowSegment> segments;  // one per stacked state
  SetQNetwork::Cache cache;
  SetQNetwork::BackwardWorkspace backward;
  Matrix dq;                         // d(loss)/dQ over the block's rows
  std::vector<double> td;            // per-sample TD error
  std::vector<double> weighted_sq;   // per-sample IS-weighted squared error

  static LearnerWorkspace& ThreadLocal() {
    thread_local LearnerWorkspace ws;
    return ws;
  }
};

}  // namespace crowdrl

#endif  // CROWDRL_NN_WORKSPACE_H_
