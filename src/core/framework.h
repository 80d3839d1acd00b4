#ifndef CROWDRL_CORE_FRAMEWORK_H_
#define CROWDRL_CORE_FRAMEWORK_H_

#include <map>
#include <memory>
#include <string>

#include "core/aggregator.h"
#include "core/dqn_agent.h"
#include "core/env_view.h"
#include "core/future_predictor.h"
#include "core/policy.h"
#include "core/state.h"
#include "rl/arrival_model.h"
#include "rl/explorer.h"

namespace crowdrl {

/// Full configuration of the end-to-end DRL framework (Fig. 2).
struct FrameworkConfig {
  Objective objective = Objective::kBalanced;
  /// w in Q = w·Q_w + (1−w)·Q_r when `objective == kBalanced`
  /// (kWorkerBenefit forces w = 1, kRequesterBenefit w = 0).
  double worker_weight = 0.25;
  ActionMode action_mode = ActionMode::kRankList;

  DqnAgentConfig worker_dqn;     ///< γ defaults to 0.3 (Sec. VII-B1)
  DqnAgentConfig requester_dqn;  ///< γ defaults to 0.5
  ExplorerConfig explorer;
  ArrivalModelConfig arrival;
  PredictorConfig predictor;
  /// Shared structural knobs (maxT, padding). `include_quality` is managed
  /// internally (off for the MDP(w) state, on for MDP(r)).
  StateConfig state;

  /// How many *seen-but-skipped* suggestions to store as failed transitions
  /// per feedback (the paper stores all of them; capping bounds CPU cost).
  size_t max_failed_stored = 3;
  /// Warm-start the DQNs from initialization-month completions.
  bool learn_from_history = true;
  /// Extra learner steps fired at OnInitEnd to digest the warm-up buffer
  /// ("we use the data in the first month to initialize … the learning
  /// model").
  int warmup_learn_steps = 300;

  uint64_t seed = 99;

  /// Fills in derived defaults (γ values, seeds) for any field left at its
  /// zero value.
  static FrameworkConfig Defaults();
};

/// \brief Everything the framework computed at decision (Rank) time that
/// feedback-time learning needs again: the built set-states per MDP plus
/// the task↔row mapping. The serial framework keeps these in its pending
/// map; the arrangement service hands them back to the caller as a ticket
/// so concurrent sessions never share decision state.
struct DecisionContext {
  BuiltState worker_built;
  BuiltState requester_built;
  /// row index within the built state per obs.tasks index (-1 if the task
  /// was truncated away by maxT).
  std::vector<int> task_to_row;
};

/// \brief The networks a decision is scored (and its Bellman targets
/// bootstrapped) against: the live agents' current parameters in the
/// serial path, or an immutable published snapshot in the serving path.
/// A view is unset (null) when the objective disables that MDP's network.
struct ScoringView {
  QNetView worker;
  QNetView requester;
};

/// \brief The transitions minted from one feedback event, per MDP.
/// Producing them (MakeTransitions — const, snapshot-scored) is separated
/// from consuming them (ApplyTransitions — learner-state mutation), which
/// is what lets an asynchronous service mint experience on actor threads
/// and train on a dedicated learner thread.
struct TransitionBlocks {
  std::vector<Transition> worker;
  std::vector<Transition> requester;
  bool empty() const { return worker.empty() && requester.empty(); }
  size_t size() const { return worker.size() + requester.size(); }
};

/// \brief The paper's end-to-end Deep-RL task-arrangement framework —
/// Fig. 2 in executable form.
///
/// On each arrival the state transformer builds the set-state, the two
/// DQNs (Q-network(w) for the workers' benefit, Q-network(r) for the
/// requesters') score every available task, the aggregator/balancer blends
/// the two value estimates, and the explorer injects (annealed) randomness.
/// After the worker's feedback, two feedback transformers quantify the
/// reward per MDP, the future-state predictors attach explicit transition
/// distributions (Eq. 3 / Eq. 6), transitions land in the prioritized
/// memories, and both learners take a double-DQN gradient step — all within
/// the single worker interaction, which is what makes the framework
/// real-time (Table I).
class TaskArrangementFramework : public Policy {
 public:
  /// `env` must outlive the framework (it is the read-only window onto the
  /// shared feature store and quality estimates).
  TaskArrangementFramework(const FrameworkConfig& config, const EnvView* env,
                           size_t worker_feature_dim, size_t task_feature_dim);

  std::string name() const override;

  void OnArrival(const Observation& obs) override;
  std::vector<int> Rank(const Observation& obs) override;
  void OnFeedback(const Observation& obs, const std::vector<int>& ranking,
                  const Feedback& feedback) override;
  void OnHistory(const Observation& obs, const std::vector<int>& browse_order,
                 int completed_pos, double quality_gain) override;
  void OnInitEnd() override;

  // ---- Introspection (tests, ablations, diagnostics) ----
  const DqnAgent* worker_agent() const { return worker_agent_.get(); }
  const DqnAgent* requester_agent() const { return requester_agent_.get(); }
  const ArrivalModel& arrival_model() const { return arrivals_; }
  const Explorer& explorer() const { return explorer_; }
  const FrameworkConfig& config() const { return config_; }
  int64_t transitions_stored() const;
  /// Decisions awaiting feedback (delayed-feedback scenario); bounded by
  /// kMaxPendingDecisions.
  size_t pending_decisions() const { return pending_.size(); }
  /// Oldest-first eviction bound on the Rank→OnFeedback backlog.
  static constexpr size_t kMaxPendingDecisions = 128;

  /// Greedy (exploration-free) combined scores for a state — used by tests
  /// and the ablation benches.
  std::vector<double> CombinedScores(const Observation& obs) const;

  // ---- Decision primitives (the actor/learner split surface) ----
  //
  // Rank(obs) ≡ RankDecision(obs, ctx, ScoreDecision(ctx, LiveView()))
  // with ctx = BuildDecision(obs) kept in the pending map, and
  // OnFeedback ≡ ApplyTransitions(MakeTransitions(..., LiveView())).
  // The service calls the same primitives with a published snapshot view
  // instead of LiveView() so actor threads never read live parameters.
  //
  // Thread-safety contract: BuildDecision / ScoreDecision / MakeTransitions
  // are const and touch only (a) the observation, (b) the view's networks,
  // (c) the EnvView and the arrival statistics — (c) must be externally
  // synchronized against writers. RankDecision mutates the exploration
  // state (single decision thread). ApplyTransitions mutates the agents
  // (single learner thread).

  /// Builds the per-MDP set-states and the task↔row mapping for one
  /// observation. Pure with respect to the framework.
  DecisionContext BuildDecision(const Observation& obs) const;

  /// Destination-passing BuildDecision: a warm `ctx` is rebuilt with zero
  /// heap allocations (the serve shard keeps one per batch slot).
  void BuildDecisionInto(const Observation& obs, DecisionContext* ctx) const;

  /// Combined (aggregated) scores of a built decision against `view`.
  std::vector<double> ScoreDecision(const DecisionContext& ctx,
                                    const ScoringView& view) const;

  /// Destination-passing ScoreDecision through the calling thread's
  /// InferenceWorkspace: with warm thread-local buffers and a warm `out`
  /// the whole scoring pass (two Q-network forwards + aggregation) is
  /// allocation-free. This is the serve hot path.
  void ScoreDecisionInto(const DecisionContext& ctx, const ScoringView& view,
                         std::vector<double>* out) const;

  /// Turns combined scores into a full ranking of obs.tasks indices,
  /// injecting the annealed exploration. Mutates the explorer — call from
  /// one thread at a time (the serial caller, or a serve batch leader
  /// under its shard's scoring lock).
  std::vector<int> RankDecision(const Observation& obs,
                                const DecisionContext& ctx,
                                const std::vector<double>& combined);

  /// Quantifies one feedback event into prioritized-replay-ready
  /// transitions, Bellman targets computed against `view`. Const: reads
  /// the env (post-feedback features/qualities) and arrival statistics but
  /// mutates nothing.
  TransitionBlocks MakeTransitions(const Observation& obs,
                                   const DecisionContext& ctx,
                                   const std::vector<int>& ranking,
                                   const Feedback& feedback,
                                   const ScoringView& view) const;

  /// Learner-side consumption: stores each transition and fires the
  /// per-transition learner cadence, exactly like the serial per-feedback
  /// update loop.
  void ApplyTransitions(TransitionBlocks blocks);

  /// View over the live agents' current networks.
  ScoringView LiveView() const;

  /// Persists the learned state (both online Q-networks and the arrival
  /// statistics) so an arrangement service survives process restarts
  /// without forgetting months of online learning. Replay memories are
  /// deliberately not persisted — they are a transient training aid, and
  /// the paper's buffer holds only the most recent 1,000 transitions.
  Status SaveState(const std::string& path) const;
  /// Restores a SaveState checkpoint, all or nothing. The network configs
  /// and parameter shapes must match this framework's and every parameter
  /// must be finite; a checkpoint that is truncated, corrupt, followed by
  /// trailing bytes or fails those checks returns a non-OK Status and
  /// changes nothing.
  Status LoadState(const std::string& path);

 private:
  bool use_worker_net() const {
    return config_.objective != Objective::kRequesterBenefit;
  }
  bool use_requester_net() const {
    return config_.objective != Objective::kWorkerBenefit;
  }

  /// Positions of `ranking` the worker actually examined under the cascade
  /// model (prefix up to and including the completed one, the whole list on
  /// a skip), together with the reward of each.
  std::vector<std::pair<int, float>> ExaminedOutcomes(
      const std::vector<int>& ranking, const Feedback& feedback,
      bool quality_reward) const;

  FrameworkConfig config_;
  const EnvView* env_;
  StateTransformer worker_state_;
  StateTransformer requester_state_;
  FutureStatePredictor predictor_w_;
  FutureStatePredictor predictor_r_;
  std::unique_ptr<DqnAgent> worker_agent_;
  std::unique_ptr<DqnAgent> requester_agent_;
  Aggregator aggregator_;
  ArrivalModel arrivals_;
  Explorer explorer_;
  Rng rng_;

  /// Decision context between Rank and OnFeedback. Keyed by arrival index
  /// so that *delayed* feedback (the paper's future-work scenario: a worker
  /// arrives while previous workers are still completing their tasks) can
  /// settle out of order; bounded so abandoned decisions don't accumulate.
  std::map<int64_t, DecisionContext> pending_;
};

}  // namespace crowdrl

#endif  // CROWDRL_CORE_FRAMEWORK_H_
