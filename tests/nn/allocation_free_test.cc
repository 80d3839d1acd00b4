// The hot-path contract of the `*Into` layer: once a thread's workspace
// and destination buffers are warm, a steady-state batched scoring pass —
// StateTransformer::BuildInto + SetQNetwork forwards + aggregation, i.e.
// exactly what a serve batch leader runs per request — performs ZERO
// heap allocations. So does a warm learner step.
//
// Verified with a counting global operator new. The counter is
// thread-local so pool threads idling in the background cannot perturb it;
// the measured section runs entirely on this test's thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/aggregator.h"
#include "core/dqn_agent.h"
#include "core/policy.h"
#include "core/state.h"
#include "nn/workspace.h"

namespace {
thread_local long g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace crowdrl {
namespace {

Observation MakeObservation(size_t n_tasks, size_t worker_dim,
                            size_t task_dim,
                            std::vector<std::vector<float>>* feature_store) {
  Observation obs;
  obs.worker_features.assign(worker_dim, 0.25f);
  obs.worker_quality = 0.5;
  feature_store->resize(n_tasks);
  obs.tasks.resize(n_tasks);
  for (size_t i = 0; i < n_tasks; ++i) {
    (*feature_store)[i].assign(task_dim, 0.1f * static_cast<float>(i + 1));
    obs.tasks[i].id = static_cast<TaskId>(i);
    obs.tasks[i].features = &(*feature_store)[i];
    obs.tasks[i].deadline = static_cast<SimTime>(100 + i);
    obs.tasks[i].quality = 0.3;
  }
  return obs;
}

TEST(AllocationFreeTest, SteadyStateQNetworkForwardAllocatesNothing) {
  Rng rng(7);
  SetQNetworkConfig cfg;
  cfg.input_dim = 12;
  cfg.hidden_dim = 16;
  cfg.num_heads = 4;
  SetQNetwork net(cfg, &rng);

  Matrix x = Matrix::Uniform(10, 12, &rng);
  InferenceWorkspace& ws = InferenceWorkspace::ThreadLocal();
  // Warm-up: two passes so every buffer reaches steady-state capacity.
  net.QValuesInto(x, 8, &ws.cache, &ws.qw);
  net.QValuesInto(x, 8, &ws.cache, &ws.qw);

  g_allocs = 0;
  for (int i = 0; i < 5; ++i) {
    net.QValuesInto(x, 8, &ws.cache, &ws.qw);
  }
  EXPECT_EQ(g_allocs, 0) << "steady-state forward must not touch the heap";
}

TEST(AllocationFreeTest, SmallerBatchReusesWarmBuffers) {
  // Shrinking valid_n / rows must stay within the warmed capacity.
  Rng rng(8);
  SetQNetworkConfig cfg;
  cfg.input_dim = 12;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  SetQNetwork net(cfg, &rng);

  Matrix big = Matrix::Uniform(12, 12, &rng);
  Matrix small = Matrix::Uniform(5, 12, &rng);
  InferenceWorkspace& ws = InferenceWorkspace::ThreadLocal();
  net.QValuesInto(big, 12, &ws.cache, &ws.qw);
  net.QValuesInto(small, 5, &ws.cache, &ws.qw);

  g_allocs = 0;
  net.QValuesInto(small, 5, &ws.cache, &ws.qw);
  net.QValuesInto(big, 12, &ws.cache, &ws.qw);
  EXPECT_EQ(g_allocs, 0);
}

TEST(AllocationFreeTest, SteadyStateScoringPassAllocatesNothing) {
  // The full per-request scoring pass of a serve batch leader: rebuild the
  // set-state into a warm BuiltState, forward both Q-networks through the
  // thread workspace, aggregate into a warm score vector.
  Rng rng(9);
  const size_t worker_dim = 4, task_dim = 6, n_tasks = 9;

  StateConfig scfg;
  scfg.max_tasks = 16;
  StateTransformer transformer(scfg, worker_dim, task_dim);

  SetQNetworkConfig ncfg;
  ncfg.input_dim = transformer.input_dim();
  ncfg.hidden_dim = 16;
  ncfg.num_heads = 4;
  SetQNetwork worker_net(ncfg, &rng);
  SetQNetwork requester_net(ncfg, &rng);
  Aggregator aggregator(0.25);

  std::vector<std::vector<float>> features;
  Observation obs = MakeObservation(n_tasks, worker_dim, task_dim, &features);

  BuiltState built;
  InferenceWorkspace& ws = InferenceWorkspace::ThreadLocal();
  std::vector<double> combined;
  const auto score_once = [&] {
    transformer.BuildInto(obs, &built);
    worker_net.QValuesInto(built.matrix, built.valid_n, &ws.cache, &ws.qw);
    requester_net.QValuesInto(built.matrix, built.valid_n, &ws.cache,
                              &ws.qr);
    aggregator.CombineInto(ws.qw, ws.qr, &combined);
  };
  score_once();
  score_once();

  g_allocs = 0;
  for (int i = 0; i < 10; ++i) score_once();
  EXPECT_EQ(g_allocs, 0)
      << "steady-state batched scoring must not touch the heap";
  EXPECT_EQ(combined.size(), n_tasks);
}

TEST(AllocationFreeTest, TruncatedPoolScoringIsAllocationFreeToo) {
  // maxT truncation path (nth_element + sort over the staged order).
  Rng rng(10);
  const size_t worker_dim = 3, task_dim = 5, n_tasks = 24;
  StateConfig scfg;
  scfg.max_tasks = 8;
  StateTransformer transformer(scfg, worker_dim, task_dim);

  std::vector<std::vector<float>> features;
  Observation obs = MakeObservation(n_tasks, worker_dim, task_dim, &features);

  BuiltState built;
  transformer.BuildInto(obs, &built);
  EXPECT_EQ(built.valid_n, 8u);

  g_allocs = 0;
  for (int i = 0; i < 5; ++i) transformer.BuildInto(obs, &built);
  EXPECT_EQ(g_allocs, 0);
  EXPECT_EQ(built.valid_n, 8u);
}

// The future value as FutureValueUnder computed it with allocating calls:
// a sliced copy of each segment and fresh-cache QValues.
double AllocatingFutureValue(const QNetView& view,
                             const FutureStateSpec& future, bool double_q) {
  double expectation = 0;
  for (const auto& branch : future.branches) {
    for (const auto& [valid_n, prob] : branch.segments) {
      const Matrix pool = branch.base.SliceRows(0, valid_n);
      const std::vector<double> target_q = view.target->QValues(pool, valid_n);
      size_t best;
      if (double_q) {
        const std::vector<double> online_q =
            view.online->QValues(pool, valid_n);
        best = std::max_element(online_q.begin(), online_q.end()) -
               online_q.begin();
      } else {
        best = std::max_element(target_q.begin(), target_q.end()) -
               target_q.begin();
      }
      expectation += static_cast<double>(prob) * target_q[best];
    }
  }
  return expectation;
}

TEST(AllocationFreeTest, WarmFutureValueUnderAllocatesNothing) {
  // The mint path: every transition target of a feedback event bootstraps
  // from one FutureValueUnder over the predicted future states.
  Rng rng(11);
  SetQNetworkConfig cfg;
  cfg.input_dim = 12;
  cfg.hidden_dim = 16;
  cfg.num_heads = 4;
  const SetQNetwork online(cfg, &rng);
  const SetQNetwork target(cfg, &rng);
  const QNetView view{&online, &target};

  FutureStateSpec future;
  for (size_t rows : {size_t{9}, size_t{5}}) {
    FutureStateSpec::Branch branch;
    branch.base = Matrix::Uniform(rows, cfg.input_dim, &rng);
    branch.segments = {{rows, 0.5f}, {rows - 2, 0.3f}, {1, 0.2f}};
    future.branches.push_back(std::move(branch));
  }
  const double expected_double = AllocatingFutureValue(view, future, true);
  const double expected_vanilla = AllocatingFutureValue(view, future, false);

  // A scoring pass's Q values in the same workspace must survive.
  InferenceWorkspace& ws = InferenceWorkspace::ThreadLocal();
  ws.qw.assign({1.0, 2.0});
  ws.qr.assign({3.0});
  FutureValueUnder(view, future, true);
  FutureValueUnder(view, future, false);

  g_allocs = 0;
  double value_double = 0, value_vanilla = 0;
  for (int i = 0; i < 5; ++i) {
    value_double = FutureValueUnder(view, future, true);
    value_vanilla = FutureValueUnder(view, future, false);
  }
  EXPECT_EQ(g_allocs, 0) << "a warm future-value pass must not touch the heap";
  EXPECT_EQ(value_double, expected_double);
  EXPECT_EQ(value_vanilla, expected_vanilla);
  EXPECT_EQ(ws.qw, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(ws.qr, (std::vector<double>{3.0}));
}

TEST(AllocationFreeTest, WarmLearnStepAllocatesNothing) {
  // The learner step: sample, stack, forward, backward, priority update
  // and Adam, all through the agent's buffers and the thread's learner
  // workspace. Every state has 5 rows, so every step stacks blocks of the
  // same shapes whatever the sampler draws.
  DqnAgentConfig cfg;
  cfg.net.input_dim = 12;
  cfg.net.hidden_dim = 16;
  cfg.net.num_heads = 4;
  cfg.batch_size = 32;
  cfg.replay.capacity = 128;
  cfg.target_sync_every = 3;  // the hard target sync is in the loop too
  DqnAgent agent(cfg);
  Rng rng(12);
  for (int i = 0; i < 96; ++i) {
    Transition t;
    t.state = Matrix::Uniform(5, cfg.net.input_dim, &rng);
    t.valid_n = 2 + static_cast<size_t>(rng.UniformInt(4));
    t.action_row = static_cast<int>(rng.UniformInt(t.valid_n));
    t.target = rng.Uniform();
    agent.Store(std::move(t));
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(agent.LearnStep());

  g_allocs = 0;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(agent.LearnStep());
  EXPECT_EQ(g_allocs, 0) << "a warm learner step must not touch the heap";
}

}  // namespace
}  // namespace crowdrl
