// Google-benchmark micro-benchmarks for the performance-critical kernels:
// matmul, attention forward/backward, full Q-network passes, prioritized
// replay and arrival-model operations. These are the CPU substitutes for
// the paper's GPU kernels; Table I / Fig. 10(d) costs decompose into them.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/linucb.h"
#include "core/dqn_agent.h"
#include "core/future_predictor.h"
#include "nn/set_qnetwork.h"
#include "rl/arrival_model.h"
#include "rl/prioritized_replay.h"
#include "serve/snapshot.h"
#include "serve/workload.h"
#include "tensor/ops.h"

namespace crowdrl {
namespace {

void BM_Matmul(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(1);
  Matrix a = Matrix::Uniform(n, n, &rng);
  Matrix b = Matrix::Uniform(n, n, &rng);
  for (auto _ : state) {
    Matrix c = Matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// ---- kernel A/B pairs: retained scalar reference vs shipped kernel ----
// Same shapes, same inputs; the Ref variants run the naive scalar loops in
// ops.cc's `reference` namespace, the non-Ref variants run the shipped
// kernels the process dispatched to (tiled AVX2/FMA where the CPU has it,
// portable otherwise). check_bench.sh compares the pairs.

void BM_MatmulRef(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(1);
  Matrix a = Matrix::Uniform(n, n, &rng);
  Matrix b = Matrix::Uniform(n, n, &rng);
  for (auto _ : state) {
    Matrix c = reference::Matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulRef)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulTransposeB(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(12);
  Matrix a = Matrix::Uniform(n, n, &rng);
  Matrix b = Matrix::Uniform(n, n, &rng);
  Matrix c;
  for (auto _ : state) {
    MatmulTransposeBInto(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulTransposeB)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulTransposeBRef(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(12);
  Matrix a = Matrix::Uniform(n, n, &rng);
  Matrix b = Matrix::Uniform(n, n, &rng);
  for (auto _ : state) {
    Matrix c = reference::MatmulTransposeB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulTransposeBRef)->Arg(64)->Arg(128)->Arg(256);

void BM_FusedMaskedSoftmax(benchmark::State& state) {
  // The attention scoring shape: scale + prefix column mask + softmax,
  // fused into one pass over each row.
  const size_t n = state.range(0);
  const size_t valid = (3 * n) / 4;
  Rng rng(13);
  Matrix base = Matrix::Uniform(n, n, &rng);
  std::vector<uint8_t> mask(n, 0);
  for (size_t j = 0; j < valid; ++j) mask[j] = 1;
  Matrix m;
  for (auto _ : state) {
    m = base;
    ScaledMaskedSoftmaxRowsInPlace(&m, 0.25f, &mask, static_cast<long>(valid));
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_FusedMaskedSoftmax)->Arg(64)->Arg(256);

void BM_MaskedSoftmaxRef(benchmark::State& state) {
  const size_t n = state.range(0);
  const size_t valid = (3 * n) / 4;
  Rng rng(13);
  Matrix base = Matrix::Uniform(n, n, &rng);
  std::vector<uint8_t> mask(n, 0);
  for (size_t j = 0; j < valid; ++j) mask[j] = 1;
  Matrix m;
  for (auto _ : state) {
    m = base;
    reference::ScaledMaskedSoftmaxRows(&m, 0.25f, &mask,
                                       static_cast<long>(valid));
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_MaskedSoftmaxRef)->Arg(64)->Arg(256);

void BM_QNetworkForwardInto(benchmark::State& state) {
  // The serve hot path variant of BM_QNetworkForward: warm workspace, zero
  // steady-state allocations.
  const size_t pool = state.range(0);
  SetQNetworkConfig cfg;
  cfg.input_dim = 50;
  cfg.hidden_dim = 128;
  cfg.num_heads = 4;
  Rng rng(4);
  SetQNetwork net(cfg, &rng);
  Matrix x = Matrix::Uniform(pool, 50, &rng);
  SetQNetwork::Cache cache;
  std::vector<double> q;
  net.QValuesInto(x, pool, &cache, &q);  // warm
  for (auto _ : state) {
    net.QValuesInto(x, pool, &cache, &q);
    benchmark::DoNotOptimize(q.data());
  }
}
BENCHMARK(BM_QNetworkForwardInto)->Arg(16)->Arg(57)->Arg(128)->Arg(512);

void BM_SoftmaxRows(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(2);
  Matrix base = Matrix::Uniform(n, n, &rng);
  for (auto _ : state) {
    Matrix m = base;
    SoftmaxRowsInPlace(&m);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(256);

void BM_AttentionForward(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(3);
  MultiHeadSelfAttention attn(64, 4, &rng);
  Matrix x = Matrix::Uniform(n, 64, &rng);
  MultiHeadSelfAttention::Cache cache;
  for (auto _ : state) {
    Matrix y = attn.Forward(x, n, &cache);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AttentionForward)->Arg(16)->Arg(57)->Arg(128)->Arg(512);

// Arg: stacked rows, split into 5-row states (the last takes the rest) as
// the replay learner stacks its sampled pools; hidden 64 and 4 heads, the
// learner's shape. One warm, workspace-backed backward through the stack.
void BM_AttentionBackward(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(3);
  MultiHeadSelfAttention attn(64, 4, &rng);
  const Matrix x = Matrix::Uniform(n, 64, &rng);
  std::vector<RowSegment> segments;
  for (size_t begin = 0; begin < n; begin += 5) {
    const size_t rows = std::min<size_t>(5, n - begin);
    segments.push_back({begin, rows, rows});
  }
  MultiHeadSelfAttention::Cache cache;
  Matrix y;
  attn.ForwardInto(x, segments, &cache, &y);
  const Matrix dy = Matrix::Uniform(n, 64, &rng);
  MultiHeadSelfAttention::BackwardWorkspace ws;
  attn.TransposeWeightsInto(&ws);
  MultiHeadSelfAttention::Grads grads = attn.MakeGrads();
  Matrix dx(n, 64);
  for (auto _ : state) {
    attn.BackwardInto(x, dy, cache, &ws,
                      {&grads.dwq, &grads.dwk, &grads.dwv, &grads.dwo}, &dx);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_AttentionBackward)->Arg(16)->Arg(57);

void BM_QNetworkBackward(benchmark::State& state) {
  const size_t pool = state.range(0);
  SetQNetworkConfig cfg;
  cfg.input_dim = 50;
  cfg.hidden_dim = 128;
  cfg.num_heads = 4;
  Rng rng(5);
  SetQNetwork net(cfg, &rng);
  Matrix x = Matrix::Uniform(pool, 50, &rng);
  SetQNetwork::Cache cache;
  net.ForwardInto(x, pool, &cache);
  Matrix dq(pool, 1);
  dq(0, 0) = 1.0f;
  auto grads = net.MakeGradients();
  // The learner's path: transposed weights prepared once per parameter
  // change, then a warm workspace-backed backward.
  SetQNetwork::BackwardWorkspace ws;
  net.PrepareBackward(&ws);
  for (auto _ : state) {
    grads.SetZero();
    net.BackwardInto(x, dq, cache, &ws, &grads);
    benchmark::DoNotOptimize(grads.g[0].data());
  }
}
BENCHMARK(BM_QNetworkBackward)->Arg(16)->Arg(57)->Arg(128);

// Args: (pool rows, input_dim). /5/72 is the learner shape of the paper
// replay workload (perfbench replay_learn): 72-wide states whose sampled
// pools average 4.8 valid rows.
void BM_DqnLearnStep(benchmark::State& state) {
  const size_t pool = state.range(0);
  const size_t input_dim = state.range(1);
  DqnAgentConfig cfg;
  cfg.net.input_dim = input_dim;
  cfg.net.hidden_dim = 64;
  cfg.net.num_heads = 4;
  cfg.batch_size = 32;
  cfg.replay.capacity = 256;
  DqnAgent agent(cfg);
  Rng rng(6);
  for (int i = 0; i < 64; ++i) {
    Transition t;
    t.state = std::make_shared<const Matrix>(
        Matrix::Uniform(pool, input_dim, &rng));
    t.valid_n = pool;
    t.action_row = static_cast<int>(rng.UniformInt(pool));
    t.target = static_cast<float>(rng.Uniform());
    agent.Store(std::move(t));
  }
  for (auto _ : state) {
    agent.LearnStep();
  }
}
BENCHMARK(BM_DqnLearnStep)
    ->Args({16, 50})
    ->Args({57, 50})
    ->Args({5, 72})
    ->UseRealTime();

void BM_PrioritizedReplaySample(benchmark::State& state) {
  PrioritizedReplayConfig cfg;
  cfg.capacity = 1000;  // the paper's buffer size
  PrioritizedReplay replay(cfg, 64);
  Rng rng(7);
  std::vector<size_t> slot(1);
  std::vector<double> td(1);
  for (int i = 0; i < 1000; ++i) {
    Transition t;
    t.state = std::make_shared<const Matrix>(Matrix(4, 8));
    t.valid_n = 4;
    t.action_row = 0;
    slot[0] = replay.Add(std::move(t));
    td[0] = rng.Uniform();
    replay.UpdatePriorities(slot, td);
  }
  PrioritizedReplay::Batch batch;
  for (auto _ : state) {
    replay.SampleBatchInto(&batch, &rng);
    benchmark::DoNotOptimize(batch.weight(0));
  }
}
BENCHMARK(BM_PrioritizedReplaySample);

void BM_ArrivalModelRecord(benchmark::State& state) {
  ArrivalModel model;
  SimTime t = 0;
  Rng rng(8);
  int64_t worker = 0;
  for (auto _ : state) {
    model.RecordArrival(static_cast<int>(worker % 500), t);
    t += static_cast<SimTime>(rng.UniformInt(1, 30));
    ++worker;
  }
}
BENCHMARK(BM_ArrivalModelRecord);

// The MDP(r) future state of one feedback (PredictNextWorker) with
// `state.range(0)` seen workers, at the serve_uds sizing: a 4096-worker,
// 1024-task population with 24-dim features and 12-task pools. Every seen
// worker arrived twice over the 11 days before the frozen instant, so the
// return weights φ(g_w) vary.
void BM_PredictNextWorker(benchmark::State& state) {
  const int num_seen = static_cast<int>(state.range(0));
  ServeWorkloadConfig wl;
  wl.num_workers = 4096;
  wl.num_tasks = 1024;
  wl.pool_size = 12;
  const ServeWorkload workload(wl);
  ArrivalModel arrivals;
  const int num_arrivals = 2 * num_seen;
  for (int k = 0; k < num_arrivals; ++k) {
    const SimTime gap = 2 * static_cast<SimTime>(num_arrivals - k);
    arrivals.RecordArrival(k % num_seen, workload.frozen_now() - gap);
  }
  StateConfig scfg;
  scfg.include_quality = true;
  StateTransformer transformer(scfg, workload.worker_feature_dim(),
                               workload.task_feature_dim());
  FutureStatePredictor predictor(PredictorConfig{}, &transformer);
  Rng rng(12);
  const Observation obs = workload.MakeObservation(0, &rng);
  for (auto _ : state) {
    auto spec = predictor.PredictNextWorker(obs, arrivals, workload);
    benchmark::DoNotOptimize(spec.branches.data());
  }
}
BENCHMARK(BM_PredictNextWorker)->Arg(64)->Arg(1024)->Arg(4096);

void BM_LinUcbScoreAndUpdate(benchmark::State& state) {
  // One arrival cycle at pool size n: score every candidate + one
  // Sherman–Morrison update (the Table I / Fig. 10(d) unit of work).
  const size_t n = state.range(0);
  const size_t wd = 24, td = 24;
  LinUcb policy(Objective::kWorkerBenefit, wd, td, LinUcbConfig{});
  Rng rng(11);
  Observation obs;
  obs.worker = 0;
  obs.worker_quality = 0.5;
  obs.worker_features.resize(wd);
  for (auto& v : obs.worker_features) v = static_cast<float>(rng.Uniform());
  std::vector<std::vector<float>> feats(n, std::vector<float>(td));
  for (auto& f : feats) {
    for (auto& v : f) v = static_cast<float>(rng.Uniform());
  }
  for (size_t i = 0; i < n; ++i) {
    TaskSnapshot snap;
    snap.id = static_cast<TaskId>(i);
    snap.features = &feats[i];
    snap.quality = 0.2;
    obs.tasks.push_back(snap);
  }
  Feedback fb;
  fb.completed_pos = 0;
  fb.completed_index = 0;
  for (auto _ : state) {
    auto ranking = policy.Rank(obs);
    fb.completed_index = ranking[0];
    policy.OnFeedback(obs, ranking, fb);
    benchmark::DoNotOptimize(ranking.data());
  }
}
BENCHMARK(BM_LinUcbScoreAndUpdate)->Arg(57)->Arg(512);

void BM_GapHistogramMass(benchmark::State& state) {
  GapHistogram h(1, kMaxSameWorkerGap, 10);
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    h.Add(rng.UniformInt(1, kMaxSameWorkerGap));
  }
  SimTime lo = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.MassBetween(lo, lo + 500));
    lo = (lo + 37) % 9000 + 1;
  }
}
BENCHMARK(BM_GapHistogramMass);

// Snapshot publish cost at the paper's per-feedback cadence
// (publish_every_events = 1): what one copy-on-write PolicySnapshot
// publication costs. The arg is {learner_active}:
//   {1}  a gradient step between publishes (online nets copy, target
//        nets — half the snapshot bytes — are reused until sync)
//   {0}  idle learner (all four nets reused: the cost floor for publishes
//        that land between learner steps)
void BM_SnapshotPublish(benchmark::State& state) {
  const bool learner_active = state.range(0) != 0;
  DqnAgentConfig cfg;
  cfg.net.input_dim = 50;
  cfg.net.hidden_dim = 64;
  cfg.net.num_heads = 4;
  cfg.batch_size = 32;
  cfg.replay.capacity = 256;
  cfg.target_sync_every = 100;  // the paper's C
  DqnAgent worker(cfg), requester(cfg);
  Rng rng(11);
  for (DqnAgent* agent : {&worker, &requester}) {
    for (int i = 0; i < 64; ++i) {
      Transition t;
      t.state = std::make_shared<const Matrix>(Matrix::Uniform(16, 50, &rng));
      t.valid_n = 16;
      t.action_row = static_cast<int>(rng.UniformInt(16));
      t.target = static_cast<float>(rng.Uniform());
      agent->Store(std::move(t));
    }
  }
  SnapshotBuilder builder;
  uint64_t version = 0;
  for (auto _ : state) {
    if (learner_active) {
      state.PauseTiming();  // measure the publish, not the gradient step
      worker.LearnStep();
      requester.LearnStep();
      state.ResumeTiming();
    }
    auto snapshot = builder.Build(&worker, &requester, ++version);
    benchmark::DoNotOptimize(snapshot.get());
  }
  state.counters["nets_copied_per_publish"] = benchmark::Counter(
      static_cast<double>(builder.nets_copied()),
      benchmark::Counter::kAvgIterations);
  state.counters["nets_shared_per_publish"] = benchmark::Counter(
      static_cast<double>(builder.nets_shared()),
      benchmark::Counter::kAvgIterations);
}
// Fixed iteration count: the learner-active variant pays two (untimed)
// gradient steps per iteration, so letting the library auto-scale
// iterations to fill its measurement window would run for minutes.
BENCHMARK(BM_SnapshotPublish)
    ->Args({1})
    ->Args({0})
    ->Iterations(200)
    ->UseRealTime();

}  // namespace
}  // namespace crowdrl

BENCHMARK_MAIN();
