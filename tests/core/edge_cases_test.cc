// Boundary conditions across the core framework that the main suites don't
// exercise: single-task pools, workers with no history, rewards at the
// extremes, and truncation interplay.
#include <gtest/gtest.h>

#include <memory>

#include "core/dqn_agent.h"
#include "core/framework.h"

namespace crowdrl {
namespace {

// Reuse a minimal env fixture (structured like framework_test's).
class EdgeEnv : public EnvView {
 public:
  EdgeEnv()
      : fb_([] {
          FeatureConfig cfg;
          cfg.num_categories = 2;
          cfg.num_domains = 2;
          cfg.award_buckets = 2;
          return cfg;
        }(), 4, 8) {
    for (int i = 0; i < 8; ++i) {
      Task t;
      t.id = i;
      t.category = i % 2;
      t.domain = (i / 2) % 2;
      t.award = 100 + 10 * i;
      tasks_.push_back(t);
    }
  }
  const FeatureBuilder& features() const override { return fb_; }
  double WorkerQuality(WorkerId) const override { return 0.5; }
  double TaskQuality(TaskId) const override { return 0.25; }
  SimTime now() const override { return 500; }

  Observation MakeObs(int64_t arrival, std::vector<int> ids) {
    Observation obs;
    obs.time = 500;
    obs.arrival_index = arrival;
    obs.worker = 0;
    obs.worker_quality = 0.5;
    obs.worker_features = fb_.WorkerFeature(0, 500);
    for (int id : ids) {
      TaskSnapshot snap;
      snap.id = id;
      snap.category = tasks_[id].category;
      snap.domain = tasks_[id].domain;
      snap.award = tasks_[id].award;
      snap.deadline = 500 + 4000 + id;
      snap.features = &fb_.TaskFeature(tasks_[id]);
      snap.quality = 0.25;
      obs.tasks.push_back(snap);
    }
    return obs;
  }

  FeatureBuilder fb_;
  std::vector<Task> tasks_;
};

FrameworkConfig TinyConfig(Objective objective) {
  FrameworkConfig cfg = FrameworkConfig::Defaults();
  cfg.objective = objective;
  for (DqnAgentConfig* dqn : {&cfg.worker_dqn, &cfg.requester_dqn}) {
    dqn->net.hidden_dim = 8;
    dqn->net.num_heads = 2;
    dqn->batch_size = 4;
    dqn->replay.capacity = 16;
  }
  cfg.seed = 77;
  return cfg;
}

TEST(EdgeCasesTest, SingleTaskPoolRanksAndLearns) {
  EdgeEnv env;
  TaskArrangementFramework fw(TinyConfig(Objective::kWorkerBenefit), &env,
                              env.fb_.worker_dim(), env.fb_.task_dim());
  for (int i = 0; i < 6; ++i) {
    Observation obs = env.MakeObs(i, {3});
    fw.OnArrival(obs);
    auto ranking = fw.Rank(obs);
    ASSERT_EQ(ranking, (std::vector<int>{0}));
    Feedback fb;
    fb.completed_pos = i % 2 == 0 ? 0 : -1;
    fb.completed_index = fb.completed_pos >= 0 ? 0 : -1;
    fw.OnFeedback(obs, ranking, fb);
  }
  EXPECT_GT(fw.worker_agent()->stored(), 0);
}

TEST(EdgeCasesTest, TruncatedPoolStillProducesFullRanking) {
  EdgeEnv env;
  FrameworkConfig cfg = TinyConfig(Objective::kWorkerBenefit);
  cfg.state.max_tasks = 3;  // pool of 8 truncated to 3 in-state tasks
  TaskArrangementFramework fw(cfg, &env, env.fb_.worker_dim(),
                              env.fb_.task_dim());
  Observation obs = env.MakeObs(0, {0, 1, 2, 3, 4, 5, 6, 7});
  fw.OnArrival(obs);
  auto ranking = fw.Rank(obs);
  auto sorted = ranking;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  // Feedback on a truncated-away task must not crash or store a bogus row.
  Feedback fb;
  fb.completed_pos = 7;
  fb.completed_index = ranking[7];
  fw.OnFeedback(obs, ranking, fb);
}

TEST(EdgeCasesTest, NegativeAndLargeRewardsKeepTargetsFinite) {
  DqnAgentConfig cfg;
  cfg.net.input_dim = 4;
  cfg.net.hidden_dim = 8;
  cfg.net.num_heads = 2;
  cfg.batch_size = 4;
  cfg.replay.capacity = 16;
  DqnAgent agent(cfg);
  Rng rng(5);
  for (float reward : {-100.0f, 0.0f, 1e6f, 1e-9f}) {
    Transition t;
    t.state = std::make_shared<const Matrix>(Matrix::Uniform(3, 4, &rng));
    t.valid_n = 3;
    t.action_row = 0;
    t.target = reward;
    agent.Store(std::move(t));
  }
  ASSERT_TRUE(agent.LearnStep());
  EXPECT_TRUE(std::isfinite(agent.last_loss()));
  Matrix probe = Matrix::Uniform(3, 4, &rng);
  for (double q : agent.Scores(probe, 3)) {
    EXPECT_TRUE(std::isfinite(q));
  }
}

TEST(EdgeCasesTest, RequesterOnlyFrameworkHandlesColdEverything) {
  // No worker history, fresh tasks, zero qualities: the requester-side
  // pipeline (state + expected-next-worker predictor) must still work.
  EdgeEnv env;
  TaskArrangementFramework fw(TinyConfig(Objective::kRequesterBenefit), &env,
                              env.fb_.worker_dim(), env.fb_.task_dim());
  Observation obs = env.MakeObs(0, {0, 1});
  fw.OnArrival(obs);
  auto ranking = fw.Rank(obs);
  ASSERT_EQ(ranking.size(), 2u);
  Feedback fb;
  fb.completed_pos = 0;
  fb.completed_index = ranking[0];
  fb.quality_gain = 0.5;
  fw.OnFeedback(obs, ranking, fb);
  EXPECT_EQ(fw.requester_agent()->stored(), 1);
}

TEST(EdgeCasesTest, PendingDecisionBacklogIsBounded) {
  EdgeEnv env;
  TaskArrangementFramework fw(TinyConfig(Objective::kWorkerBenefit), &env,
                              env.fb_.worker_dim(), env.fb_.task_dim());
  // Rank 200 arrivals without ever giving feedback; memory must stay
  // bounded (the map caps at kMaxPendingDecisions) and old feedback is
  // silently dropped.
  Observation first = env.MakeObs(0, {0, 1});
  fw.OnArrival(first);
  auto first_ranking = fw.Rank(first);
  for (int i = 1; i < 200; ++i) {
    Observation obs = env.MakeObs(i, {0, 1});
    fw.OnArrival(obs);
    fw.Rank(obs);
  }
  Feedback fb;
  fb.completed_pos = 0;
  fb.completed_index = first_ranking[0];
  const int64_t before = fw.worker_agent()->stored();
  fw.OnFeedback(first, first_ranking, fb);  // decision was evicted
  EXPECT_EQ(fw.worker_agent()->stored(), before);
}

}  // namespace
}  // namespace crowdrl
