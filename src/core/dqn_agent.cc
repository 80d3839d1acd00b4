#include "core/dqn_agent.h"

#include <algorithm>
#include <cmath>

#include "nn/workspace.h"

namespace crowdrl {

namespace {

/// Row bound of one stacked learner block. Consecutive sampled states are
/// packed until the next would exceed it; a larger state is a block of its
/// own. A fixed constant: blocking changes speed, never values.
constexpr size_t kLearnBlockRows = 64;

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
      replay_(config.replay, config.batch_size),
      grads_(online_.MakeGradients()) {
  // Target starts as an exact copy of the online network.
  target_.CopyFrom(online_);
}

std::vector<double> DqnAgent::Scores(const Matrix& state,
                                     size_t valid_n) const {
  return online_.QValues(state, valid_n);
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

void DqnAgent::Store(Transition t) {
  // A non-finite target would make every loss that samples it non-finite;
  // drop it at the door rather than keep it in the replay.
  if (!std::isfinite(t.target)) {
    ++nonfinite_targets_;
    return;
  }
  CROWDRL_CHECK(t.state != nullptr);
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

  LearnerWorkspace& ws = LearnerWorkspace::ThreadLocal();
  online_.PrepareBackward(&ws.backward);
  grads_.SetZero();
  ws.td.assign(batch, 0.0);
  ws.weighted_sq.assign(batch, 0.0);
  const size_t input_dim = online_.config().input_dim;
  for (size_t lo = 0; lo < batch;) {
    // Pack consecutive samples into one block of stacked rows.
    size_t rows = batch_.item(lo).state->rows();
    size_t hi = lo + 1;
    while (hi < batch &&
           rows + batch_.item(hi).state->rows() <= kLearnBlockRows) {
      rows += batch_.item(hi).state->rows();
      ++hi;
    }
    ws.x.Resize(rows, input_dim);
    ws.segments.clear();
    for (size_t i = lo, begin = 0; i < hi; ++i) {
      const Transition& tr = batch_.item(i);
      const Matrix& state = *tr.state;
      CROWDRL_CHECK(state.cols() == input_dim);
      std::copy(state.data(), state.data() + state.size(),
                ws.x.row_data(begin));
      ws.segments.push_back({begin, state.rows(), tr.valid_n});
      begin += state.rows();
    }

    const Matrix& q = online_.ForwardInto(ws.x, ws.segments, &ws.cache);
    ws.dq.Resize(rows, 1);
    ws.dq.SetZero();
    for (size_t i = lo; i < hi; ++i) {
      const Transition& tr = batch_.item(i);
      const RowSegment& seg = ws.segments[i - lo];
      const double weight = batch_.weight(i);
      CROWDRL_CHECK(tr.action_row >= 0 &&
                    tr.action_row < static_cast<int>(seg.rows));
      const size_t row = seg.begin + static_cast<size_t>(tr.action_row);
      const double delta = q(row, 0) - tr.target;
      ws.td[i] = delta;
      ws.weighted_sq[i] = weight * delta * delta;
      // d(w·δ²)/dq = 2·w·δ at the action row; zero elsewhere.
      ws.dq(row, 0) = static_cast<float>(2.0 * weight * delta);
    }
    online_.BackwardInto(ws.x, ws.dq, ws.cache, &ws.backward, &grads_);
    lo = hi;
  }

  // The replay refuses any non-finite TD error as a priority (counting it)
  // and takes the rest.
  replay_.UpdatePriorities(batch_.slots(), ws.td);
  double loss = 0;
  for (size_t i = 0; i < batch; ++i) loss += ws.weighted_sq[i];
  last_loss_ = loss / static_cast<double>(batch);

  // Adam would spread a non-finite gradient into every parameter. A NaN
  // input can reach the gradient with a finite loss (ReLU drops it on the
  // way forward, not on the way back), so check both; on either, skip the
  // step and leave the parameters (and their version) as they are. The
  // gradient check is the finiteness of the clip norm's one scan.
  if (!std::isfinite(last_loss_) ||
      !optimizer_.StepIfFinite(grads_.g, 1.0 / static_cast<double>(batch))) {
    ++nonfinite_steps_;
    return false;
  }

  ++learn_steps_;
  ++online_version_;
  if (config_.target_sync_every > 0 &&
      learn_steps_ % config_.target_sync_every == 0) {
    SyncTarget();
  }
  return true;
}

}  // namespace crowdrl
