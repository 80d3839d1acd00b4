#include "core/framework.h"

#include <gtest/gtest.h>

namespace crowdrl {
namespace {

/// A self-contained environment fixture: a FeatureBuilder with a few tasks
/// and workers plus an EnvView over it.
class FixtureEnv : public EnvView {
 public:
  FixtureEnv()
      : fb_([] {
          FeatureConfig cfg;
          cfg.num_categories = 3;
          cfg.num_domains = 2;
          cfg.award_buckets = 2;
          return cfg;
        }(), /*num_workers=*/6, /*num_tasks=*/12) {
    for (int i = 0; i < 12; ++i) {
      Task t;
      t.id = i;
      t.category = i % 3;
      t.domain = i % 2;
      t.award = 100.0 + i * 30;
      tasks_.push_back(t);
    }
  }

  const FeatureBuilder& features() const override { return fb_; }
  double WorkerQuality(WorkerId) const override { return 0.6; }
  double TaskQuality(TaskId id) const override {
    return task_quality_.count(id) ? task_quality_.at(id) : 0.0;
  }
  SimTime now() const override { return now_; }

  Observation MakeObservation(WorkerId worker, int64_t arrival_index,
                              std::vector<int> task_ids, SimTime time) {
    now_ = time;
    Observation obs;
    obs.time = time;
    obs.arrival_index = arrival_index;
    obs.worker = worker;
    obs.worker_quality = 0.6;
    obs.worker_features = fb_.WorkerFeature(worker, time);
    for (int id : task_ids) {
      TaskSnapshot snap;
      snap.id = id;
      snap.category = tasks_[id].category;
      snap.domain = tasks_[id].domain;
      snap.award = tasks_[id].award;
      snap.deadline = time + 5000 + 1000 * id;
      snap.features = &fb_.TaskFeature(tasks_[id]);
      snap.quality = TaskQuality(id);
      obs.tasks.push_back(snap);
    }
    return obs;
  }

  void ApplyCompletion(WorkerId worker, TaskId task, SimTime time,
                       double gain) {
    fb_.RecordCompletion(worker, tasks_[task], time);
    task_quality_[task] += gain;
  }

  FeatureBuilder fb_;
  std::vector<Task> tasks_;
  std::map<TaskId, double> task_quality_;
  SimTime now_ = 0;
};

FrameworkConfig SmallFrameworkConfig(Objective objective) {
  FrameworkConfig cfg = FrameworkConfig::Defaults();
  cfg.objective = objective;
  cfg.worker_dqn.net.hidden_dim = 16;
  cfg.worker_dqn.net.num_heads = 2;
  cfg.worker_dqn.batch_size = 4;
  cfg.worker_dqn.replay.capacity = 64;
  cfg.requester_dqn.net.hidden_dim = 16;
  cfg.requester_dqn.net.num_heads = 2;
  cfg.requester_dqn.batch_size = 4;
  cfg.requester_dqn.replay.capacity = 64;
  cfg.seed = 5;
  return cfg;
}

TEST(FrameworkTest, NamesReflectObjective) {
  FixtureEnv env;
  TaskArrangementFramework worker_fw(
      SmallFrameworkConfig(Objective::kWorkerBenefit), &env,
      env.fb_.worker_dim(), env.fb_.task_dim());
  EXPECT_EQ(worker_fw.name(), "DDQN");
  TaskArrangementFramework balanced(
      SmallFrameworkConfig(Objective::kBalanced), &env, env.fb_.worker_dim(),
      env.fb_.task_dim());
  EXPECT_EQ(balanced.name(), "DDQN(w=0.25)");
}

TEST(FrameworkTest, ObjectiveControlsWhichNetsExist) {
  FixtureEnv env;
  TaskArrangementFramework worker_fw(
      SmallFrameworkConfig(Objective::kWorkerBenefit), &env,
      env.fb_.worker_dim(), env.fb_.task_dim());
  EXPECT_NE(worker_fw.worker_agent(), nullptr);
  EXPECT_EQ(worker_fw.requester_agent(), nullptr);

  TaskArrangementFramework requester_fw(
      SmallFrameworkConfig(Objective::kRequesterBenefit), &env,
      env.fb_.worker_dim(), env.fb_.task_dim());
  EXPECT_EQ(requester_fw.worker_agent(), nullptr);
  EXPECT_NE(requester_fw.requester_agent(), nullptr);

  TaskArrangementFramework balanced(
      SmallFrameworkConfig(Objective::kBalanced), &env, env.fb_.worker_dim(),
      env.fb_.task_dim());
  EXPECT_NE(balanced.worker_agent(), nullptr);
  EXPECT_NE(balanced.requester_agent(), nullptr);
}

TEST(FrameworkTest, RankReturnsFullPermutation) {
  FixtureEnv env;
  TaskArrangementFramework fw(SmallFrameworkConfig(Objective::kWorkerBenefit),
                              &env, env.fb_.worker_dim(), env.fb_.task_dim());
  Observation obs = env.MakeObservation(0, 0, {0, 1, 2, 3, 4}, 100);
  fw.OnArrival(obs);
  auto ranking = fw.Rank(obs);
  auto sorted = ranking;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FrameworkTest, EmptyPoolRanksEmpty) {
  FixtureEnv env;
  TaskArrangementFramework fw(SmallFrameworkConfig(Objective::kWorkerBenefit),
                              &env, env.fb_.worker_dim(), env.fb_.task_dim());
  Observation obs = env.MakeObservation(0, 0, {}, 100);
  fw.OnArrival(obs);
  EXPECT_TRUE(fw.Rank(obs).empty());
}

TEST(FrameworkTest, FeedbackStoresTransitionsInBothMemories) {
  FixtureEnv env;
  TaskArrangementFramework fw(SmallFrameworkConfig(Objective::kBalanced),
                              &env, env.fb_.worker_dim(), env.fb_.task_dim());
  Observation obs = env.MakeObservation(0, 0, {0, 1, 2, 3}, 100);
  fw.OnArrival(obs);
  auto ranking = fw.Rank(obs);

  Feedback fb;
  fb.completed_pos = 1;
  fb.completed_index = ranking[1];
  fb.quality_gain = 0.5;
  env.ApplyCompletion(0, obs.tasks[fb.completed_index].id, 100, 0.5);
  fw.OnFeedback(obs, ranking, fb);

  // Cascade prefix of length 2 (one skip + one completion) → 2 transitions
  // per MDP.
  EXPECT_EQ(fw.worker_agent()->stored(), 2);
  EXPECT_EQ(fw.requester_agent()->stored(), 2);
}

TEST(FrameworkTest, OneEventsTransitionsShareOneStatePerAgent) {
  FixtureEnv env;
  FrameworkConfig cfg = SmallFrameworkConfig(Objective::kBalanced);
  cfg.max_failed_stored = 3;
  TaskArrangementFramework fw(cfg, &env, env.fb_.worker_dim(),
                              env.fb_.task_dim());
  Observation obs = env.MakeObservation(0, 0, {0, 1, 2, 3, 4}, 100);
  fw.OnArrival(obs);
  const DecisionContext ctx = fw.BuildDecision(obs);
  const std::vector<int> ranking =
      fw.RankDecision(obs, ctx, fw.ScoreDecision(ctx, fw.LiveView()));
  Feedback fb;
  fb.completed_pos = 3;
  fb.completed_index = ranking[3];
  fb.quality_gain = 0.5;
  env.ApplyCompletion(0, obs.tasks[fb.completed_index].id, 100, 0.5);
  const TransitionBlocks blocks =
      fw.MakeTransitions(obs, ctx, ranking, fb, fw.LiveView());

  // Three skips and the completion per MDP, all over one state: the same
  // pointer, holding the bytes of the decision's built state.
  ASSERT_EQ(blocks.worker.size(), 4u);
  ASSERT_EQ(blocks.requester.size(), 4u);
  for (const std::vector<Transition>* block :
       {&blocks.worker, &blocks.requester}) {
    ASSERT_NE(block->front().state, nullptr);
    for (const Transition& t : *block) {
      EXPECT_EQ(t.state, block->front().state);
    }
  }
  EXPECT_NE(blocks.worker.front().state, blocks.requester.front().state);
  EXPECT_EQ(Matrix::MaxAbsDiff(*blocks.worker.front().state,
                               ctx.worker_built.matrix),
            0.0f);
  EXPECT_EQ(Matrix::MaxAbsDiff(*blocks.requester.front().state,
                               ctx.requester_built.matrix),
            0.0f);
  // The shared state is a copy, not an alias of the decision context.
  EXPECT_NE(blocks.worker.front().state->data(),
            ctx.worker_built.matrix.data());
}

TEST(FrameworkTest, SkipAllStoresCappedFailures) {
  FixtureEnv env;
  FrameworkConfig cfg = SmallFrameworkConfig(Objective::kWorkerBenefit);
  cfg.max_failed_stored = 2;
  TaskArrangementFramework fw(cfg, &env, env.fb_.worker_dim(),
                              env.fb_.task_dim());
  Observation obs = env.MakeObservation(0, 0, {0, 1, 2, 3, 4, 5}, 100);
  fw.OnArrival(obs);
  auto ranking = fw.Rank(obs);
  Feedback skip_all;  // completed_pos = -1
  fw.OnFeedback(obs, ranking, skip_all);
  EXPECT_EQ(fw.worker_agent()->stored(), 2);  // capped
}

TEST(FrameworkTest, FeedbackWithoutRankIsIgnored) {
  FixtureEnv env;
  TaskArrangementFramework fw(SmallFrameworkConfig(Objective::kWorkerBenefit),
                              &env, env.fb_.worker_dim(), env.fb_.task_dim());
  Observation obs = env.MakeObservation(0, 7, {0, 1}, 100);
  Feedback fb;
  fb.completed_pos = 0;
  fb.completed_index = 0;
  fw.OnFeedback(obs, {0, 1}, fb);  // no matching Rank call
  EXPECT_EQ(fw.worker_agent()->stored(), 0);
}

TEST(FrameworkTest, OutOfOrderFeedbackSettlesEveryPendingDecision) {
  // Delayed-feedback scenario: several workers are ranked before any of
  // their feedback arrives, and the feedback settles out of order. Every
  // decision context must be matched by arrival index and released.
  FixtureEnv env;
  TaskArrangementFramework fw(SmallFrameworkConfig(Objective::kWorkerBenefit),
                              &env, env.fb_.worker_dim(), env.fb_.task_dim());
  std::vector<Observation> obs;
  std::vector<std::vector<int>> rankings;
  for (int64_t i = 0; i < 4; ++i) {
    obs.push_back(env.MakeObservation(i % 3, i, {0, 1, 2, 3}, 100 + 10 * i));
    fw.OnArrival(obs.back());
    rankings.push_back(fw.Rank(obs.back()));
  }
  EXPECT_EQ(fw.pending_decisions(), 4u);

  int64_t stored_before = 0;
  for (int64_t i : {2, 0, 3, 1}) {  // settle out of order
    Feedback fb;
    fb.completed_pos = 0;
    fb.completed_index = rankings[i][0];
    fb.quality_gain = 0.1;
    fw.OnFeedback(obs[i], rankings[i], fb);
    const int64_t stored_now = fw.worker_agent()->stored();
    EXPECT_GT(stored_now, stored_before) << "feedback " << i << " ignored";
    stored_before = stored_now;
  }
  EXPECT_EQ(fw.pending_decisions(), 0u);
}

TEST(FrameworkTest, PendingBacklogEvictsOldestFirst) {
  // More in-flight decisions than kMaxPendingDecisions: the oldest are
  // dropped, their late feedback is ignored gracefully, and the newest
  // still settle normally.
  FixtureEnv env;
  TaskArrangementFramework fw(SmallFrameworkConfig(Objective::kWorkerBenefit),
                              &env, env.fb_.worker_dim(), env.fb_.task_dim());
  const int64_t total =
      static_cast<int64_t>(TaskArrangementFramework::kMaxPendingDecisions) + 8;
  std::vector<Observation> obs;
  std::vector<std::vector<int>> rankings;
  for (int64_t i = 0; i < total; ++i) {
    obs.push_back(env.MakeObservation(i % 3, i, {0, 1, 2}, 100 + i));
    fw.OnArrival(obs.back());
    rankings.push_back(fw.Rank(obs.back()));
    EXPECT_LE(fw.pending_decisions(),
              TaskArrangementFramework::kMaxPendingDecisions);
  }
  EXPECT_EQ(fw.pending_decisions(),
            TaskArrangementFramework::kMaxPendingDecisions);

  Feedback fb;
  fb.completed_pos = 0;
  // Arrival 0 was evicted (oldest-first): its feedback must be a no-op.
  fb.completed_index = rankings[0][0];
  const int64_t stored_before = fw.worker_agent()->stored();
  fw.OnFeedback(obs[0], rankings[0], fb);
  EXPECT_EQ(fw.worker_agent()->stored(), stored_before);
  EXPECT_EQ(fw.pending_decisions(),
            TaskArrangementFramework::kMaxPendingDecisions);

  // The newest decision survived and settles.
  fb.completed_index = rankings[total - 1][0];
  fw.OnFeedback(obs[total - 1], rankings[total - 1], fb);
  EXPECT_GT(fw.worker_agent()->stored(), stored_before);
  EXPECT_EQ(fw.pending_decisions(),
            TaskArrangementFramework::kMaxPendingDecisions - 1);
}

TEST(FrameworkTest, HistoryWarmStartStoresPrefixOutcomes) {
  FixtureEnv env;
  TaskArrangementFramework fw(SmallFrameworkConfig(Objective::kBalanced),
                              &env, env.fb_.worker_dim(), env.fb_.task_dim());
  Observation obs = env.MakeObservation(1, 0, {0, 1, 2}, 50);
  fw.OnArrival(obs);
  env.ApplyCompletion(1, 2, 50, 0.7);
  // Worker browsed 1, 0, then completed 2: one skip + one positive ... the
  // examined prefix of length 3 stores 3 transitions per MDP.
  fw.OnHistory(obs, {1, 0, 2}, /*completed_pos=*/2, 0.7);
  EXPECT_EQ(fw.worker_agent()->stored(), 3);
  EXPECT_EQ(fw.requester_agent()->stored(), 3);

  FrameworkConfig no_history = SmallFrameworkConfig(Objective::kBalanced);
  no_history.learn_from_history = false;
  TaskArrangementFramework cold(no_history, &env, env.fb_.worker_dim(),
                                env.fb_.task_dim());
  cold.OnHistory(obs, {1, 0, 2}, 2, 0.7);
  EXPECT_EQ(cold.worker_agent()->stored(), 0);
}

TEST(FrameworkTest, InitEndDigestsWarmupBuffer) {
  FixtureEnv env;
  FrameworkConfig cfg = SmallFrameworkConfig(Objective::kWorkerBenefit);
  cfg.warmup_learn_steps = 10;
  TaskArrangementFramework fw(cfg, &env, env.fb_.worker_dim(),
                              env.fb_.task_dim());
  // Feed enough history for at least one batch (batch_size = 4).
  for (int i = 0; i < 6; ++i) {
    Observation obs = env.MakeObservation(1, i, {0, 1, 2}, 50 + i);
    fw.OnArrival(obs);
    fw.OnHistory(obs, {0, 1, 2}, /*completed_pos=*/1, 0.2);
  }
  const int64_t before = fw.worker_agent()->learn_steps();
  fw.OnInitEnd();
  EXPECT_GE(fw.worker_agent()->learn_steps(), before + 10);
}

TEST(FrameworkTest, ArrivalModelFedByOnArrival) {
  FixtureEnv env;
  TaskArrangementFramework fw(SmallFrameworkConfig(Objective::kWorkerBenefit),
                              &env, env.fb_.worker_dim(), env.fb_.task_dim());
  fw.OnArrival(env.MakeObservation(0, 0, {0}, 100));
  fw.OnArrival(env.MakeObservation(1, 1, {0}, 130));
  fw.OnArrival(env.MakeObservation(0, 2, {0}, 160));
  EXPECT_EQ(fw.arrival_model().num_arrivals(), 3);
  EXPECT_EQ(fw.arrival_model().LastArrivalOf(0), 160);
}

TEST(FrameworkTest, CombinedScoresBlendByWeight) {
  FixtureEnv env;
  FrameworkConfig cfg = SmallFrameworkConfig(Objective::kBalanced);
  cfg.worker_weight = 0.25;
  TaskArrangementFramework fw(cfg, &env, env.fb_.worker_dim(),
                              env.fb_.task_dim());
  Observation obs = env.MakeObservation(0, 0, {0, 1, 2}, 100);
  auto combined = fw.CombinedScores(obs);
  ASSERT_EQ(combined.size(), 3u);
  // Check Q = w·Qw + (1−w)·Qr against the individual agents.
  StateConfig wcfg;
  StateTransformer st_w(wcfg, env.fb_.worker_dim(), env.fb_.task_dim());
  StateConfig rcfg;
  rcfg.include_quality = true;
  StateTransformer st_r(rcfg, env.fb_.worker_dim(), env.fb_.task_dim());
  auto sw = st_w.Build(obs);
  auto sr = st_r.Build(obs);
  auto qw = fw.worker_agent()->Scores(sw.matrix, sw.valid_n);
  auto qr = fw.requester_agent()->Scores(sr.matrix, sr.valid_n);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(combined[i], 0.25 * qw[i] + 0.75 * qr[i], 1e-9);
  }
}

TEST(FrameworkTest, AssignModePutsExplorerChoiceFirst) {
  FixtureEnv env;
  FrameworkConfig cfg = SmallFrameworkConfig(Objective::kWorkerBenefit);
  cfg.action_mode = ActionMode::kAssignOne;
  // Fully exploit so the choice is the argmax deterministically.
  cfg.explorer.assign_follow_start = 1.0;
  cfg.explorer.assign_follow_end = 1.0;
  TaskArrangementFramework fw(cfg, &env, env.fb_.worker_dim(),
                              env.fb_.task_dim());
  Observation obs = env.MakeObservation(0, 0, {0, 1, 2, 3}, 100);
  fw.OnArrival(obs);
  auto ranking = fw.Rank(obs);
  auto scores = fw.CombinedScores(obs);
  const int argmax = static_cast<int>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
  EXPECT_EQ(ranking[0], argmax);
}

TEST(FrameworkTest, LearningFromFeedbackChangesQValues) {
  FixtureEnv env;
  FrameworkConfig cfg = SmallFrameworkConfig(Objective::kWorkerBenefit);
  cfg.worker_dqn.batch_size = 4;
  TaskArrangementFramework fw(cfg, &env, env.fb_.worker_dim(),
                              env.fb_.task_dim());
  Observation probe = env.MakeObservation(0, 999, {0, 1, 2}, 90);
  auto before = fw.CombinedScores(probe);

  for (int i = 0; i < 12; ++i) {
    Observation obs = env.MakeObservation(0, i, {0, 1, 2}, 100 + i * 10);
    fw.OnArrival(obs);
    auto ranking = fw.Rank(obs);
    Feedback fb;
    fb.completed_pos = 0;
    fb.completed_index = ranking[0];
    env.ApplyCompletion(0, obs.tasks[ranking[0]].id, obs.time, 0.3);
    fw.OnFeedback(obs, ranking, fb);
  }
  auto after = fw.CombinedScores(probe);
  double diff = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    diff += std::fabs(after[i] - before[i]);
  }
  EXPECT_GT(diff, 1e-6) << "learner steps must move the Q function";
  EXPECT_GT(fw.worker_agent()->learn_steps(), 0);
}

}  // namespace
}  // namespace crowdrl
