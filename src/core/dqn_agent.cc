#include "core/dqn_agent.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "nn/workspace.h"

namespace crowdrl {

namespace {
/// Builds a SetQNetwork from config with its own derived RNG stream.
SetQNetwork MakeNet(const SetQNetworkConfig& net_config, uint64_t seed) {
  Rng rng(seed);
  return SetQNetwork(net_config, &rng);
}
}  // namespace

DqnAgent::DqnAgent(const DqnAgentConfig& config)
    : config_(config),
      rng_(config.seed),
      online_(MakeNet(config.net, config.seed ^ 0xA5A5A5A5ULL)),
      target_(MakeNet(config.net, config.seed ^ 0xA5A5A5A5ULL)),
      optimizer_(online_.Params(), config.opt),
      replay_(config.replay, config.batch_size) {
  // Target starts as an exact copy of the online network.
  target_.CopyFrom(online_);
}

std::vector<double> DqnAgent::Scores(const Matrix& state,
                                     size_t valid_n) const {
  return online_.QValues(state, valid_n);
}

double DqnAgent::ComputeTarget(float reward,
                               const FutureStateSpec& future) const {
  return static_cast<double>(reward) +
         config_.gamma * ComputeFutureValue(future);
}

double FutureValueUnder(const QNetView& view, const FutureStateSpec& future,
                        bool double_q) {
  // Every buffer lives in the calling thread's workspace: a warm thread
  // evaluates a future spec without touching the heap.
  InferenceWorkspace& ws = InferenceWorkspace::ThreadLocal();
  double expectation = 0;
  for (const auto& branch : future.branches) {
    for (const auto& [valid_n, prob] : branch.segments) {
      if (valid_n == 0 || prob <= 0) continue;
      branch.base.SliceRowsInto(0, valid_n, &ws.future_pool);
      const std::vector<double>& online_q = ws.future_online_q;
      const std::vector<double>& target_q = ws.future_target_q;
      double value;
      if (double_q) {
        // Double DQN: online net picks the action, target net scores it.
        view.online->QValuesInto(ws.future_pool, valid_n, &ws.cache,
                                 &ws.future_online_q);
        const size_t best =
            std::max_element(online_q.begin(), online_q.end()) -
            online_q.begin();
        view.target->QValuesInto(ws.future_pool, valid_n, &ws.cache,
                                 &ws.future_target_q);
        value = target_q[best];
      } else {
        view.target->QValuesInto(ws.future_pool, valid_n, &ws.cache,
                                 &ws.future_target_q);
        value = *std::max_element(target_q.begin(), target_q.end());
      }
      expectation += static_cast<double>(prob) * value;
    }
  }
  return expectation;
}

double DqnAgent::ComputeFutureValue(const FutureStateSpec& future) const {
  return FutureValueUnder(View(), future, config_.double_q);
}

void DqnAgent::Store(Transition t) {
  if (!config_.recompute_targets_on_replay) {
    t.target = ComputeTarget(t.reward, t.future);
    t.future.Clear();  // the spec served its purpose; free the memory
  }
  StorePrepared(std::move(t));
}

void DqnAgent::StorePrepared(Transition t) {
  // A non-finite target would make every loss that samples it non-finite;
  // drop it at the door rather than keep it in the replay.
  if (!config_.recompute_targets_on_replay && !std::isfinite(t.target)) {
    ++nonfinite_targets_;
    return;
  }
  ++store_count_;
  replay_.Add(std::move(t));
}

bool DqnAgent::MaybeLearn() {
  if (config_.learn_every > 1 &&
      store_count_ % config_.learn_every != 0) {
    return false;
  }
  return LearnStep();
}

bool DqnAgent::LearnStep() {
  const size_t batch = config_.batch_size;
  // Samples inline with the agent's RNG. False = fewer than one batch
  // stored yet: no gradient step.
  if (!replay_.SampleBatchInto(&batch_, &rng_)) return false;

  ThreadPool& pool = ThreadPool::Global();
  const size_t chunks = std::max<size_t>(
      1, std::min({pool.num_threads(), batch, static_cast<size_t>(16)}));
  if (chunk_grads_.size() < chunks) {
    chunk_grads_.resize(chunks);
    for (auto& g : chunk_grads_) {
      if (g.g.empty()) g = online_.MakeGradients();
    }
  }
  for (size_t c = 0; c < chunks; ++c) chunk_grads_[c].SetZero();

  std::vector<double> td(batch, 0.0);
  std::vector<double> weighted_sq(batch, 0.0);
  pool.ParallelFor(chunks, [&](size_t ci) {
    const size_t lo = ci * batch / chunks;
    const size_t hi = (ci + 1) * batch / chunks;
    // Thread-local workspace: the forward pass reuses the same warm
    // buffers the serve path uses on this pool thread.
    SetQNetwork::Cache& cache = InferenceWorkspace::ThreadLocal().cache;
    for (size_t i = lo; i < hi; ++i) {
      const Transition& tr = batch_.item(i);
      const double weight = batch_.weight(i);
      const double y = config_.recompute_targets_on_replay
                           ? ComputeTarget(tr.reward, tr.future)
                           : tr.target;
      const Matrix& q = online_.ForwardInto(tr.state, tr.valid_n, &cache);
      CROWDRL_CHECK(tr.action_row >= 0 &&
                    tr.action_row < static_cast<int>(q.rows()));
      const double delta = q(tr.action_row, 0) - y;
      td[i] = delta;
      weighted_sq[i] = weight * delta * delta;
      // d(w·δ²)/dq = 2·w·δ at the action row; zero elsewhere.
      Matrix dq(q.rows(), 1);
      dq(tr.action_row, 0) = static_cast<float>(2.0 * weight * delta);
      online_.Backward(dq, cache, &chunk_grads_[ci]);
    }
  });

  // The replay refuses any non-finite TD error as a priority (counting it)
  // and takes the rest.
  replay_.UpdatePriorities(batch_.slots(), td);
  double loss = 0;
  for (size_t i = 0; i < batch; ++i) loss += weighted_sq[i];
  last_loss_ = loss / static_cast<double>(batch);

  for (size_t c = 1; c < chunks; ++c) chunk_grads_[0].Add(chunk_grads_[c]);
  // Adam would spread a non-finite gradient into every parameter. A NaN
  // input can reach the gradient with a finite loss (ReLU drops it on the
  // way forward, not on the way back), so check both; on either, skip the
  // step and leave the parameters (and their version) as they are.
  if (!std::isfinite(last_loss_) || chunk_grads_[0].HasNonFinite()) {
    ++nonfinite_steps_;
    return false;
  }
  optimizer_.Step(chunk_grads_[0].g, 1.0 / static_cast<double>(batch));

  ++learn_steps_;
  ++online_version_;
  if (config_.target_sync_every > 0 &&
      learn_steps_ % config_.target_sync_every == 0) {
    SyncTarget();
  }
  return true;
}

}  // namespace crowdrl
