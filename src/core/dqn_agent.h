#ifndef CROWDRL_CORE_DQN_AGENT_H_
#define CROWDRL_CORE_DQN_AGENT_H_

#include <vector>

#include "nn/optimizer.h"
#include "nn/set_qnetwork.h"
#include "rl/prioritized_replay.h"
#include "rl/transition.h"

namespace crowdrl {

/// \brief Read-only (online, target) network pair to score and bootstrap
/// against — either a live agent's current nets or an immutable published
/// snapshot of them (the arrangement service's actors never touch the
/// learner's live parameters).
struct QNetView {
  const SetQNetwork* online = nullptr;
  const SetQNetwork* target = nullptr;
  explicit operator bool() const { return online != nullptr; }
};

/// The expectation-form future value
///   Σ_branch Σ_segment prob × Q̃(s', argmax_{a'} Q(s', a'))
/// evaluated against an explicit network pair: the live agent's nets in the
/// serial path, or a consistent parameter snapshot in the serving path.
/// Transitions are minted with target r + γ × this value.
double FutureValueUnder(const QNetView& view, const FutureStateSpec& future,
                        bool double_q);

/// Configuration of one DQN (there are two: Q-network(w) and Q-network(r)).
/// Defaults follow Sec. VII-B1: buffer 1000, target copy every 100
/// iterations, lr 1e-3, batch 64, γ = 0.3 (workers) / 0.5 (requesters).
struct DqnAgentConfig {
  SetQNetworkConfig net;
  OptimizerConfig opt;
  PrioritizedReplayConfig replay;
  double gamma = 0.3;
  size_t batch_size = 64;
  /// Run a learner step every k-th stored transition; >1 trades fidelity
  /// for CPU time. It counts transitions, not feedback events: one
  /// feedback stores a completed transition plus up to
  /// `FrameworkConfig::max_failed_stored` failed ones per agent, and each
  /// may trigger a step, so 1 runs several steps per feedback (4.48 on
  /// the calibrated replay), not the paper's one update per feedback.
  int learn_every = 1;
  int target_sync_every = 100;
  /// Double DQN action selection (paper uses [27]); false = vanilla DQN
  /// (max over the target network) for the ablation bench.
  bool double_q = true;
  uint64_t seed = 1234;
};

/// \brief One Deep Q-Network learner (the "Q-Network + Memory + Learner +
/// Future-State-Predictor output" column of Fig. 2).
///
/// Differences from textbook DQN, per the paper:
///  * the Bellman target is an *expectation over predicted future states*
///    (Eq. 3 / Eq. 6) — a FutureStateSpec enumerates (pool, probability)
///    outcomes, and the target sums prob × Q̃(s', argmax_a Q). It is formed
///    once, when the transition is minted (FutureValueUnder), and stored
///    with it;
///  * double Q-learning decouples action selection (online net) from
///    evaluation (target net);
///  * prioritized experience replay with importance-sampling correction.
///
/// A learner step runs serially on the calling thread. It stacks the
/// sampled states into blocks of at most 64 rows, runs each block through
/// the online net as one forward and one backward pass, and accumulates
/// every block into one gradient store, in sample order, before one Adam
/// step. The weight gradients come out bit-identical to a per-sample loop,
/// so the learned network does not depend on the host's core count.
class DqnAgent {
 public:
  explicit DqnAgent(const DqnAgentConfig& config);

  const DqnAgentConfig& config() const { return config_; }

  /// Q values of the first `valid_n` rows of `state` under the online net.
  std::vector<double> Scores(const Matrix& state, size_t valid_n) const;

  /// Stores a transition whose target the caller set, at max priority.
  /// Targets are formed where transitions are minted (the framework, or a
  /// remote actor against its snapshot replica); the agent only buffers
  /// and trains. A transition whose target is NaN or infinite is dropped
  /// and counted in `nonfinite_targets()`.
  void Store(Transition t);

  /// View of the current (online, target) parameters for const scoring.
  QNetView View() const { return {&online_, &target_}; }

  /// Runs a learner step when the learn_every counter fires and the buffer
  /// has at least one batch. Returns whether a gradient step happened.
  bool MaybeLearn();

  /// Forces one minibatch gradient step (if the buffer allows). A step
  /// whose loss or gradient is NaN or infinite still updates the finite
  /// priorities but applies no gradient, leaves `online_version()` and
  /// `learn_steps()` unchanged, counts in `nonfinite_steps()` and returns
  /// false.
  bool LearnStep();

  /// Mutable access to the online net (tests, ablations). Direct mutation
  /// bypasses the version counters below, so snapshot delta-publication
  /// must not be combined with out-of-band parameter writes.
  SetQNetwork& online() { return online_; }
  const SetQNetwork& online() const { return online_; }
  const SetQNetwork& target_net() const { return target_; }

  /// Hard-copies θ̃ ← θ immediately (used after restoring a checkpoint).
  void SyncTarget() {
    target_.CopyFrom(online_);
    ++target_version_;
  }

  /// Restores θ from a checkpointed copy and hard-syncs θ̃ — the one
  /// sanctioned external parameter write (TaskArrangementFramework::
  /// LoadState), so both version counters advance.
  void RestoreOnline(const SetQNetwork& net) {
    online_.CopyFrom(net);
    ++online_version_;
    SyncTarget();
  }

  /// Mutation counters of the two parameter sets: online bumps on every
  /// applied gradient step, target on every hard sync. They let a snapshot
  /// publisher reuse the previous immutable copy of any net that has not
  /// changed since the last publish (delta-publication) instead of deep-
  /// copying every network on every publish.
  uint64_t online_version() const { return online_version_; }
  uint64_t target_version() const { return target_version_; }

  int64_t learn_steps() const { return learn_steps_; }
  int64_t stored() const { return store_count_; }
  size_t buffer_size() const { return replay_.size(); }
  /// Mean weighted squared TD error of the last learner step.
  double last_loss() const { return last_loss_; }

  /// Replay capacity-planning counters (atomic-backed; safe to read from
  /// a stats thread while the learner trains).
  size_t replay_transitions() const { return replay_.size(); }
  size_t replay_bytes() const { return replay_.ApproxBytes(); }
  /// TD errors the replay refused because they were NaN or infinite (the
  /// affected slots keep their previous priority).
  uint64_t nonfinite_td_errors() const {
    return replay_.nonfinite_td_errors();
  }

  /// Transitions `Store` dropped for a non-finite target.
  uint64_t nonfinite_targets() const { return nonfinite_targets_; }
  /// Learner steps skipped because their loss or gradient was non-finite.
  uint64_t nonfinite_steps() const { return nonfinite_steps_; }

  /// The replay buffer (tests).
  const PrioritizedReplay& replay() const { return replay_; }

 private:
  DqnAgentConfig config_;
  Rng rng_;
  SetQNetwork online_;
  SetQNetwork target_;
  Adam optimizer_;
  PrioritizedReplay replay_;
  PrioritizedReplay::Batch batch_;
  int64_t store_count_ = 0;
  int64_t learn_steps_ = 0;
  uint64_t online_version_ = 0;
  uint64_t target_version_ = 0;
  double last_loss_ = 0;
  uint64_t nonfinite_targets_ = 0;
  uint64_t nonfinite_steps_ = 0;
  /// The step's gradient store, kept across steps.
  SetQNetwork::Gradients grads_;
};

}  // namespace crowdrl

#endif  // CROWDRL_CORE_DQN_AGENT_H_
