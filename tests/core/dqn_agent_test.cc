#include "core/dqn_agent.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/thread_pool.h"

namespace crowdrl {
namespace {

DqnAgentConfig SmallConfig(uint64_t seed = 5) {
  DqnAgentConfig cfg;
  cfg.net.input_dim = 6;
  cfg.net.hidden_dim = 16;
  cfg.net.num_heads = 2;
  cfg.batch_size = 8;
  cfg.replay.capacity = 64;
  cfg.gamma = 0.5;
  cfg.target_sync_every = 10;
  cfg.seed = seed;
  return cfg;
}

Matrix RandomState(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Uniform(n, d, &rng);
}

Transition MakeTransition(double target, uint64_t seed) {
  Transition t;
  t.state = std::make_shared<const Matrix>(RandomState(4, 6, seed));
  t.valid_n = 4;
  t.action_row = static_cast<int>(seed % 4);
  t.target = target;
  return t;
}

/// One branch over a 3-row future pool: all 3 rows with probability 0.6,
/// the first row alone with 0.4.
FutureStateSpec MakeFuture(uint64_t seed) {
  FutureStateSpec future;
  FutureStateSpec::Branch branch;
  branch.base = RandomState(3, 6, seed ^ 0xF00D);
  branch.segments = {{3, 0.6f}, {1, 0.4f}};
  future.branches.push_back(std::move(branch));
  return future;
}

TEST(DqnAgentTest, ScoresMatchOnlineNetwork) {
  DqnAgent agent(SmallConfig());
  Matrix state = RandomState(5, 6, 1);
  auto scores = agent.Scores(state, 5);
  auto direct = agent.online().QValues(state, 5);
  ASSERT_EQ(scores.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(scores[i], direct[i]);
}

TEST(DqnAgentTest, EmptyFutureHasNoValue) {
  DqnAgent agent(SmallConfig());
  const FutureStateSpec empty;
  EXPECT_EQ(FutureValueUnder(agent.View(), empty, /*double_q=*/true), 0.0);
  EXPECT_EQ(FutureValueUnder(agent.View(), empty, /*double_q=*/false), 0.0);
}

TEST(DqnAgentTest, FutureValueIsExpectationOverSegments) {
  const DqnAgentConfig cfg = SmallConfig();
  DqnAgent agent(cfg);
  const FutureStateSpec future = MakeFuture(3);
  const auto& branch = future.branches[0];

  // Manual double-DQN expectation.
  auto value_of = [&](size_t valid_n) {
    Matrix pool = branch.base.SliceRows(0, valid_n);
    auto online_q = agent.online().QValues(pool, valid_n);
    size_t best = std::max_element(online_q.begin(), online_q.end()) -
                  online_q.begin();
    return agent.target_net().QValues(pool, valid_n)[best];
  };
  const double expected = 0.6 * value_of(3) + 0.4 * value_of(1);
  EXPECT_NEAR(FutureValueUnder(agent.View(), future, cfg.double_q), expected,
              1e-6);
}

TEST(DqnAgentTest, VanillaDqnUsesTargetMax) {
  DqnAgentConfig cfg = SmallConfig();
  cfg.double_q = false;
  DqnAgent agent(cfg);
  const FutureStateSpec future = MakeFuture(9);
  const auto& branch = future.branches[0];
  auto value_of = [&](size_t valid_n) {
    Matrix pool = branch.base.SliceRows(0, valid_n);
    auto q = agent.target_net().QValues(pool, valid_n);
    return *std::max_element(q.begin(), q.end());
  };
  const double expected = 0.6 * value_of(3) + 0.4 * value_of(1);
  EXPECT_NEAR(FutureValueUnder(agent.View(), future, cfg.double_q), expected,
              1e-6);
}

TEST(DqnAgentTest, LearnRequiresFullBatch) {
  DqnAgent agent(SmallConfig());
  for (int i = 0; i < 7; ++i) {
    agent.Store(MakeTransition(1.0f, i));
    EXPECT_FALSE(agent.LearnStep()) << "buffer below batch size";
  }
  agent.Store(MakeTransition(1.0f, 99));
  EXPECT_TRUE(agent.LearnStep());
  EXPECT_EQ(agent.learn_steps(), 1);
}

TEST(DqnAgentTest, LearnEveryThrottlesUpdates) {
  DqnAgentConfig cfg = SmallConfig();
  cfg.learn_every = 4;
  DqnAgent agent(cfg);
  for (int i = 0; i < 8; ++i) agent.Store(MakeTransition(1.0f, i));
  int steps = 0;
  for (int i = 0; i < 8; ++i) {
    agent.Store(MakeTransition(0.0f, 100 + i));
    steps += agent.MaybeLearn();
  }
  EXPECT_EQ(steps, 2);  // every 4th store
}

TEST(DqnAgentTest, LearningDrivesQTowardTargets) {
  // All transitions share one state; target 1 for action 0, 0 for action 1
  // (reward alone, no future). Q(s,0) should end well above Q(s,1).
  DqnAgentConfig cfg = SmallConfig(11);
  cfg.opt.learning_rate = 3e-3;
  DqnAgent agent(cfg);
  Matrix state = RandomState(2, 6, 21);
  for (int i = 0; i < 32; ++i) {
    Transition t;
    t.state = std::make_shared<const Matrix>(state);
    t.valid_n = 2;
    t.action_row = i % 2;
    t.target = t.action_row == 0 ? 1.0 : 0.0;
    agent.Store(std::move(t));
  }
  for (int i = 0; i < 300; ++i) agent.LearnStep();
  auto q = agent.Scores(state, 2);
  EXPECT_GT(q[0], q[1] + 0.4) << "q0=" << q[0] << " q1=" << q[1];
  EXPECT_NEAR(q[0], 1.0, 0.35);
  EXPECT_NEAR(q[1], 0.0, 0.35);
}

TEST(DqnAgentTest, TargetNetworkSyncsPeriodically) {
  DqnAgentConfig cfg = SmallConfig(13);
  cfg.target_sync_every = 5;
  DqnAgent agent(cfg);
  Matrix probe = RandomState(3, 6, 31);
  for (int i = 0; i < 8; ++i) agent.Store(MakeTransition(1.0f, i));
  // After 4 steps the target still differs from online; after the 5th they
  // coincide.
  for (int i = 0; i < 4; ++i) agent.LearnStep();
  auto online_q = agent.online().QValues(probe, 3);
  auto target_q = agent.target_net().QValues(probe, 3);
  double diff = 0;
  for (size_t r = 0; r < 3; ++r) diff += std::fabs(online_q[r] - target_q[r]);
  EXPECT_GT(diff, 1e-7);
  agent.LearnStep();  // 5th step → sync
  online_q = agent.online().QValues(probe, 3);
  target_q = agent.target_net().QValues(probe, 3);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(online_q[r], target_q[r]);
  }
}

TEST(DqnAgentTest, LossIsFinite) {
  DqnAgent agent(SmallConfig(17));
  for (int i = 0; i < 16; ++i) {
    agent.Store(MakeTransition(static_cast<double>(i % 3), i));
  }
  agent.LearnStep();
  EXPECT_TRUE(std::isfinite(agent.last_loss()));
  EXPECT_GE(agent.last_loss(), 0.0);
}

TEST(DqnAgentTest, NonFiniteTdErrorIsCountedAndKeepsReplayFinite) {
  // Finite targets, but an infinite output bias makes every Q value, and so
  // every TD error, infinite. The replay must refuse them as priorities
  // (counting them) instead of poisoning the sum tree. (A non-finite state
  // entry would not do: the forward ReLU hides it from Q.)
  DqnAgent agent(SmallConfig(23));
  for (int i = 0; i < 8; ++i) agent.Store(MakeTransition(0.1 * i, i));
  EXPECT_EQ(agent.replay_transitions(), 8u);
  EXPECT_GT(agent.replay_bytes(), 0u);
  EXPECT_EQ(agent.nonfinite_td_errors(), 0u);
  Matrix* out_bias = agent.online().Params().back();
  (*out_bias)(0, 0) = std::numeric_limits<float>::infinity();
  // The step's loss is infinite, so no gradient is applied.
  EXPECT_FALSE(agent.LearnStep());
  EXPECT_EQ(agent.nonfinite_td_errors(), 8u);
  EXPECT_EQ(agent.nonfinite_steps(), 1u);
  EXPECT_EQ(agent.online_version(), 0u);
  EXPECT_TRUE(std::isfinite(agent.replay().total_priority()));
}

size_t NonFiniteParams(const DqnAgent& agent) {
  size_t bad = 0;
  for (const Matrix* p : agent.online().Params()) {
    for (size_t i = 0; i < p->size(); ++i) {
      if (!std::isfinite(p->data()[i])) ++bad;
    }
  }
  return bad;
}

TEST(DqnAgentTest, StoreDropsNonFiniteTargets) {
  DqnAgent agent(SmallConfig(31));
  const double targets[] = {0.5, std::nan(""),
                            std::numeric_limits<double>::infinity(), -1.0};
  for (int i = 0; i < 4; ++i) {
    agent.Store(MakeTransition(targets[i], i));
  }
  EXPECT_EQ(agent.nonfinite_targets(), 2u);
  EXPECT_EQ(agent.replay_transitions(), 2u);
  EXPECT_EQ(agent.stored(), 2);
}

TEST(DqnAgentTest, NonFiniteTargetOrGradientNeverReachesTheParameters) {
  DqnAgent agent(SmallConfig(29));
  // One NaN target among 16 transitions: dropped at Store, counted. Before
  // the guard, 20 learner steps turned every online parameter into NaN.
  for (int i = 0; i < 16; ++i) {
    agent.Store(MakeTransition(i == 7 ? std::nan("") : 0.1 * i, i));
  }
  EXPECT_EQ(agent.nonfinite_targets(), 1u);
  EXPECT_EQ(agent.replay_transitions(), 15u);
  EXPECT_EQ(agent.stored(), 15);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(agent.LearnStep());
  EXPECT_EQ(NonFiniteParams(agent), 0u);
  EXPECT_EQ(agent.nonfinite_steps(), 0u);
  EXPECT_EQ(agent.online_version(), 20u);

  // A finite target over a NaN state feature: the forward ReLU hides the
  // NaN from the loss, the backward pass carries it into the gradient. The
  // first step that samples it applies no gradient.
  Transition poisoned = MakeTransition(0.5, 99);
  Matrix nan_state = *poisoned.state;
  nan_state(poisoned.action_row, 0) = std::nanf("");
  poisoned.state = std::make_shared<const Matrix>(std::move(nan_state));
  agent.Store(std::move(poisoned));
  for (int i = 0; i < 50 && agent.nonfinite_steps() == 0; ++i) {
    const uint64_t version = agent.online_version();
    const int64_t steps = agent.learn_steps();
    const bool stepped = agent.LearnStep();
    EXPECT_EQ(stepped, agent.nonfinite_steps() == 0);
    EXPECT_EQ(agent.online_version(), version + (stepped ? 1 : 0));
    EXPECT_EQ(agent.learn_steps(), steps + (stepped ? 1 : 0));
  }
  EXPECT_EQ(agent.nonfinite_steps(), 1u);
  EXPECT_EQ(agent.nonfinite_targets(), 1u);
  EXPECT_EQ(NonFiniteParams(agent), 0u);
}

// ---- The stacked learner against a per-sample reference ----

bool ParamsBitIdentical(const SetQNetwork& a, const SetQNetwork& b) {
  const auto pa = a.Params();
  const auto pb = b.Params();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->rows() != pb[i]->rows() || pa[i]->cols() != pb[i]->cols() ||
        std::memcmp(pa[i]->data(), pb[i]->data(),
                    pa[i]->size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Transitions with prepared targets and ragged states: 1..12 rows, some
/// padded, and every tenth one above the learner's 64-row block bound.
std::vector<Transition> RaggedTransitions(size_t count, size_t dim,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Transition> out;
  for (size_t i = 0; i < count; ++i) {
    const size_t rows = i % 10 == 9 ? 70 : 1 + rng.UniformInt(12);
    Transition t;
    t.state = std::make_shared<const Matrix>(Matrix::Uniform(rows, dim, &rng));
    t.valid_n = rows - rng.UniformInt((rows + 2) / 3);
    t.action_row = static_cast<int>(rng.UniformInt(t.valid_n));
    t.target = rng.Uniform(-1.0, 2.0);
    out.push_back(std::move(t));
  }
  return out;
}

DqnAgentConfig RaggedConfig(size_t input_dim, uint64_t seed) {
  DqnAgentConfig cfg = SmallConfig(seed);
  cfg.net.input_dim = input_dim;
  cfg.batch_size = 16;
  cfg.replay.capacity = 128;
  cfg.target_sync_every = 7;
  return cfg;
}

/// The learner step as a serial per-sample loop over the public one-state
/// API: the same sampling, targets, loss and Adam step as
/// DqnAgent::LearnStep, one Forward/Backward per sampled state.
class PerSampleLearner {
 public:
  PerSampleLearner(const DqnAgentConfig& cfg, const SetQNetwork& initial)
      : cfg_(cfg),
        rng_(cfg.seed),
        net_(initial),
        optimizer_(net_.Params(), cfg.opt),
        replay_(cfg.replay, cfg.batch_size),
        grads_(net_.MakeGradients()) {}

  void Add(Transition t) { replay_.Add(std::move(t)); }

  bool LearnStep() {
    if (!replay_.SampleBatchInto(&batch_, &rng_)) return false;
    grads_.SetZero();
    std::vector<double> td(cfg_.batch_size);
    double loss = 0;
    for (size_t i = 0; i < cfg_.batch_size; ++i) {
      const Transition& tr = batch_.item(i);
      const double weight = batch_.weight(i);
      SetQNetwork::Cache cache;
      const Matrix& q = net_.ForwardInto(*tr.state, tr.valid_n, &cache);
      const double delta = q(tr.action_row, 0) - tr.target;
      td[i] = delta;
      loss += weight * delta * delta;
      Matrix dq(q.rows(), 1);
      dq(tr.action_row, 0) = static_cast<float>(2.0 * weight * delta);
      net_.Backward(*tr.state, dq, cache, &grads_);
    }
    replay_.UpdatePriorities(batch_.slots(), td);
    if (!std::isfinite(loss) || grads_.HasNonFinite()) return false;
    optimizer_.Step(grads_.g, 1.0 / static_cast<double>(cfg_.batch_size));
    return true;
  }

  const SetQNetwork& net() const { return net_; }

 private:
  DqnAgentConfig cfg_;
  Rng rng_;
  SetQNetwork net_;
  Adam optimizer_;
  PrioritizedReplay replay_;
  PrioritizedReplay::Batch batch_;
  SetQNetwork::Gradients grads_;
};

TEST(DqnAgentLearnerTest, StackedStepsEqualPerSampleReferenceBitForBit) {
  for (const bool use_attention : {true, false}) {
    DqnAgentConfig cfg = RaggedConfig(6, 41);
    cfg.net.use_attention = use_attention;
    DqnAgent agent(cfg);
    PerSampleLearner reference(cfg, agent.online());
    for (Transition& t : RaggedTransitions(60, 6, 43)) {
      reference.Add(t);
      agent.Store(std::move(t));
    }
    for (int step = 0; step < 50; ++step) {
      ASSERT_TRUE(agent.LearnStep());
      ASSERT_TRUE(reference.LearnStep());
    }
    EXPECT_TRUE(ParamsBitIdentical(agent.online(), reference.net()))
        << "use_attention=" << use_attention;
    EXPECT_EQ(agent.learn_steps(), 50);
  }
}

TEST(DqnAgentLearnerTest, AgentsSharingTheThreadWorkspaceEqualAgentsAlone) {
  // Two agents of different input widths (the worker and requester nets)
  // step in turn on one thread and share its learner workspace.
  const DqnAgentConfig wc = RaggedConfig(6, 51);
  const DqnAgentConfig rc = RaggedConfig(8, 52);
  const auto fill = [](DqnAgent* agent, size_t dim, uint64_t seed) {
    for (Transition& t : RaggedTransitions(40, dim, seed)) {
      agent->Store(std::move(t));
    }
  };
  DqnAgent w_shared(wc), r_shared(rc), w_alone(wc), r_alone(rc);
  fill(&w_shared, 6, 53);
  fill(&w_alone, 6, 53);
  fill(&r_shared, 8, 54);
  fill(&r_alone, 8, 54);
  for (int step = 0; step < 30; ++step) {
    ASSERT_TRUE(w_shared.LearnStep());
    ASSERT_TRUE(r_shared.LearnStep());
  }
  for (int step = 0; step < 30; ++step) ASSERT_TRUE(w_alone.LearnStep());
  for (int step = 0; step < 30; ++step) ASSERT_TRUE(r_alone.LearnStep());
  EXPECT_TRUE(ParamsBitIdentical(w_shared.online(), w_alone.online()));
  EXPECT_TRUE(ParamsBitIdentical(r_shared.online(), r_alone.online()));
}

TEST(DqnAgentLearnerTest, ResultDoesNotDependOnThreadOrPoolSize) {
  // The same training run stepped on this thread, on one pool thread, and
  // spread over the threads of a 4-thread pool (each step on whichever
  // worker takes it, each with its own warm or cold workspace).
  const DqnAgentConfig cfg = RaggedConfig(6, 61);
  const std::vector<Transition> data = RaggedTransitions(40, 6, 62);
  const auto train = [&](ThreadPool* pool) {
    auto agent = std::make_unique<DqnAgent>(cfg);
    for (const Transition& t : data) agent->Store(t);
    for (int step = 0; step < 20; ++step) {
      if (pool == nullptr) {
        agent->LearnStep();
      } else {
        pool->ParallelFor(1, [&](size_t) { agent->LearnStep(); });
      }
    }
    EXPECT_EQ(agent->learn_steps(), 20);
    return agent;
  };
  ThreadPool one(1), four(4);
  const auto serial = train(nullptr);
  EXPECT_TRUE(ParamsBitIdentical(serial->online(), train(&one)->online()));
  EXPECT_TRUE(ParamsBitIdentical(serial->online(), train(&four)->online()));
}

}  // namespace
}  // namespace crowdrl
