#include "core/framework.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "nn/workspace.h"

namespace crowdrl {

FrameworkConfig FrameworkConfig::Defaults() {
  FrameworkConfig cfg;
  cfg.worker_dqn.gamma = 0.3;     // Sec. VII-B1
  cfg.requester_dqn.gamma = 0.5;  // Sec. VII-B1
  cfg.worker_dqn.seed = 0x1111;
  cfg.requester_dqn.seed = 0x2222;
  return cfg;
}

namespace {

StateConfig WithQuality(StateConfig base, bool include_quality) {
  base.include_quality = include_quality;
  return base;
}

}  // namespace

TaskArrangementFramework::TaskArrangementFramework(
    const FrameworkConfig& config, const EnvView* env,
    size_t worker_feature_dim, size_t task_feature_dim)
    : config_(config),
      env_(env),
      worker_state_(WithQuality(config.state, /*include_quality=*/false),
                    worker_feature_dim, task_feature_dim),
      requester_state_(WithQuality(config.state, /*include_quality=*/true),
                       worker_feature_dim, task_feature_dim),
      predictor_w_(config.predictor, &worker_state_),
      predictor_r_(config.predictor, &requester_state_),
      aggregator_(config.objective == Objective::kWorkerBenefit ? 1.0
                  : config.objective == Objective::kRequesterBenefit
                      ? 0.0
                      : config.worker_weight),
      arrivals_(config.arrival),
      explorer_(config.explorer, config.seed ^ 0xE1ULL),
      rng_(config.seed) {
  CROWDRL_CHECK(env != nullptr);
  if (use_worker_net()) {
    DqnAgentConfig wc = config_.worker_dqn;
    wc.net.input_dim = worker_state_.input_dim();
    worker_agent_ = std::make_unique<DqnAgent>(wc);
    config_.worker_dqn = wc;
  }
  if (use_requester_net()) {
    DqnAgentConfig rc = config_.requester_dqn;
    rc.net.input_dim = requester_state_.input_dim();
    requester_agent_ = std::make_unique<DqnAgent>(rc);
    config_.requester_dqn = rc;
  }
}

std::string TaskArrangementFramework::name() const {
  switch (config_.objective) {
    case Objective::kWorkerBenefit:
      return "DDQN";
    case Objective::kRequesterBenefit:
      return "DDQN";
    case Objective::kBalanced: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "DDQN(w=%.2f)",
                    aggregator_.worker_weight());
      return buf;
    }
  }
  return "DDQN";
}

void TaskArrangementFramework::OnArrival(const Observation& obs) {
  // The "Worker Arrivals' Statistic" of Fig. 2 tracks every arrival, also
  // during warm-up, exactly like the paper initializes φ/ϕ from history.
  arrivals_.RecordArrival(obs.worker, obs.time);
}

ScoringView TaskArrangementFramework::LiveView() const {
  ScoringView view;
  if (worker_agent_) view.worker = worker_agent_->View();
  if (requester_agent_) view.requester = requester_agent_->View();
  return view;
}

DecisionContext TaskArrangementFramework::BuildDecision(
    const Observation& obs) const {
  DecisionContext ctx;
  BuildDecisionInto(obs, &ctx);
  return ctx;
}

void TaskArrangementFramework::BuildDecisionInto(const Observation& obs,
                                                 DecisionContext* ctx) const {
  if (use_worker_net()) worker_state_.BuildInto(obs, &ctx->worker_built);
  if (use_requester_net()) {
    requester_state_.BuildInto(obs, &ctx->requester_built);
  }
  if (use_worker_net() && use_requester_net()) {
    CROWDRL_CHECK(ctx->worker_built.row_to_task ==
                  ctx->requester_built.row_to_task);
  }
  const std::vector<int>& row_to_task =
      use_worker_net() ? ctx->worker_built.row_to_task
                       : ctx->requester_built.row_to_task;
  ctx->task_to_row.assign(obs.tasks.size(), -1);
  for (size_t row = 0; row < row_to_task.size(); ++row) {
    ctx->task_to_row[row_to_task[row]] = static_cast<int>(row);
  }
}

std::vector<double> TaskArrangementFramework::ScoreDecision(
    const DecisionContext& ctx, const ScoringView& view) const {
  std::vector<double> out;
  ScoreDecisionInto(ctx, view, &out);
  return out;
}

void TaskArrangementFramework::ScoreDecisionInto(
    const DecisionContext& ctx, const ScoringView& view,
    std::vector<double>* out) const {
  // The networks' activations and the per-MDP Q vectors live in the
  // calling thread's workspace; `out` is the only buffer the caller sees.
  InferenceWorkspace& ws = InferenceWorkspace::ThreadLocal();
  const bool w = use_worker_net(), r = use_requester_net();
  if (w) {
    view.worker.online->QValuesInto(ctx.worker_built.matrix,
                                    ctx.worker_built.valid_n, &ws.cache,
                                    &ws.qw);
  }
  if (r) {
    view.requester.online->QValuesInto(ctx.requester_built.matrix,
                                       ctx.requester_built.valid_n, &ws.cache,
                                       &ws.qr);
  }
  if (!w) {
    *out = ws.qr;
  } else if (!r) {
    *out = ws.qw;
  } else {
    aggregator_.CombineInto(ws.qw, ws.qr, out);
  }
}

std::vector<double> TaskArrangementFramework::CombinedScores(
    const Observation& obs) const {
  if (obs.tasks.empty()) return {};
  return ScoreDecision(BuildDecision(obs), LiveView());
}

std::vector<int> TaskArrangementFramework::RankDecision(
    const Observation& obs, const DecisionContext& ctx,
    const std::vector<double>& combined) {
  const std::vector<int>& row_to_task = use_worker_net()
                                            ? ctx.worker_built.row_to_task
                                            : ctx.requester_built.row_to_task;
  // Explore: ε-greedy for single assignment, Gaussian Q-noise for lists.
  std::vector<int> row_order;
  if (config_.action_mode == ActionMode::kAssignOne) {
    const int chosen = explorer_.SelectAssign(combined);
    row_order = Explorer::GreedyRank(combined);
    auto it = std::find(row_order.begin(), row_order.end(), chosen);
    std::rotate(row_order.begin(), it, it + 1);
  } else {
    row_order = explorer_.RankList(combined);
  }
  explorer_.Step();

  // Map rows back to observation task indices; truncated-away tasks (pool
  // beyond maxT) go to the back of the list in observation order.
  std::vector<int> ranking;
  ranking.reserve(obs.tasks.size());
  std::vector<uint8_t> in_state(obs.tasks.size(), 0);
  for (int row : row_order) {
    ranking.push_back(row_to_task[row]);
    in_state[row_to_task[row]] = 1;
  }
  for (size_t i = 0; i < obs.tasks.size(); ++i) {
    if (!in_state[i]) ranking.push_back(static_cast<int>(i));
  }
  return ranking;
}

std::vector<int> TaskArrangementFramework::Rank(const Observation& obs) {
  if (obs.tasks.empty()) return {};
  DecisionContext ctx = BuildDecision(obs);
  const std::vector<double> combined = ScoreDecision(ctx, LiveView());
  std::vector<int> ranking = RankDecision(obs, ctx, combined);
  pending_[obs.arrival_index] = std::move(ctx);
  // Bound the backlog: decisions whose feedback never arrives (e.g. a
  // worker who walked away in the delayed-feedback scenario) are dropped
  // oldest-first.
  while (pending_.size() > kMaxPendingDecisions) {
    pending_.erase(pending_.begin());
  }
  return ranking;
}

std::vector<std::pair<int, float>> TaskArrangementFramework::ExaminedOutcomes(
    const std::vector<int>& ranking, const Feedback& feedback,
    bool quality_reward) const {
  // Cascade semantics: the worker examined every position up to the
  // completed one (all of them on a total skip). The completed position
  // yields its reward; the examined-but-skipped prefix yields 0 and is
  // capped at max_failed_stored entries.
  std::vector<std::pair<int, float>> outcomes;
  const int last_seen = feedback.completed_pos >= 0
                            ? feedback.completed_pos
                            : static_cast<int>(ranking.size()) - 1;
  size_t failed = 0;
  for (int pos = 0; pos <= last_seen; ++pos) {
    if (pos == feedback.completed_pos) {
      outcomes.emplace_back(
          ranking[pos],
          quality_reward ? static_cast<float>(feedback.quality_gain) : 1.0f);
    } else if (failed < config_.max_failed_stored) {
      outcomes.emplace_back(ranking[pos], 0.0f);
      ++failed;
    }
  }
  return outcomes;
}

TransitionBlocks TaskArrangementFramework::MakeTransitions(
    const Observation& obs, const DecisionContext& ctx,
    const std::vector<int>& ranking, const Feedback& feedback,
    const ScoringView& view) const {
  TransitionBlocks blocks;

  auto mint = [&](const BuiltState& state, const FutureStateSpec& future,
                  const DqnAgentConfig& agent_cfg, const QNetView& nets,
                  bool quality_reward, std::vector<Transition>* out) {
    // The future value is shared by every transition of the event — the
    // framework evaluates it once and derives each target as r + γ·value.
    const double future_value =
        FutureValueUnder(nets, future, agent_cfg.double_q);
    // So is the state: one immutable copy that every transition holds,
    // made at the first transition (an event may mint none).
    std::shared_ptr<const Matrix> shared_state;
    for (const auto& [task_idx, reward] :
         ExaminedOutcomes(ranking, feedback, quality_reward)) {
      const int row = ctx.task_to_row[task_idx];
      if (row < 0) continue;  // task was truncated out of the state
      if (shared_state == nullptr) {
        shared_state = std::make_shared<const Matrix>(state.matrix);
      }
      Transition t;
      t.state = shared_state;
      t.valid_n = state.valid_n;
      t.action_row = row;
      t.target = static_cast<double>(reward) + agent_cfg.gamma * future_value;
      out->push_back(std::move(t));
    }
  };

  if (use_worker_net()) {
    // Post-feedback worker feature (the FeatureBuilder was already updated
    // by the harness/caller) and post-completion task qualities.
    const auto updated_fw =
        env_->features().WorkerFeature(obs.worker, obs.time);
    const FutureStateSpec future = predictor_w_.PredictSameWorker(
        obs, updated_fw, obs.worker_quality, arrivals_);
    mint(ctx.worker_built, future, config_.worker_dqn, view.worker,
         /*quality_reward=*/false, &blocks.worker);
  }
  if (use_requester_net()) {
    // Post-completion task qualities for the future state rows.
    std::vector<double> quality_now(obs.tasks.size());
    for (size_t i = 0; i < obs.tasks.size(); ++i) {
      quality_now[i] = env_->TaskQuality(obs.tasks[i].id);
    }
    const FutureStateSpec future =
        predictor_r_.PredictNextWorker(obs, arrivals_, *env_, &quality_now);
    mint(ctx.requester_built, future, config_.requester_dqn, view.requester,
         /*quality_reward=*/true, &blocks.requester);
  }
  return blocks;
}

void TaskArrangementFramework::ApplyTransitions(TransitionBlocks blocks) {
  for (Transition& t : blocks.worker) {
    worker_agent_->Store(std::move(t));
    worker_agent_->MaybeLearn();
  }
  for (Transition& t : blocks.requester) {
    requester_agent_->Store(std::move(t));
    requester_agent_->MaybeLearn();
  }
}

void TaskArrangementFramework::OnFeedback(const Observation& obs,
                                          const std::vector<int>& ranking,
                                          const Feedback& feedback) {
  auto it = pending_.find(obs.arrival_index);
  if (it == pending_.end()) {
    return;  // feedback for a decision we did not make (defensive)
  }
  ApplyTransitions(
      MakeTransitions(obs, it->second, ranking, feedback, LiveView()));
  pending_.erase(it);
}

void TaskArrangementFramework::OnHistory(const Observation& obs,
                                         const std::vector<int>& browse_order,
                                         int completed_pos,
                                         double quality_gain) {
  if (!config_.learn_from_history || obs.tasks.empty()) return;
  // Replay the historical arrival exactly like live feedback: the browsed
  // prefix yields one positive transition (the completion) and capped known
  // skips — "we use the data in the first month to initialize … the
  // learning model".
  Feedback feedback;
  if (completed_pos >= 0) {
    CROWDRL_CHECK(completed_pos < static_cast<int>(browse_order.size()));
    feedback.completed_pos = completed_pos;
    feedback.completed_index = browse_order[completed_pos];
    feedback.quality_gain = quality_gain;
  }
  const DecisionContext ctx = BuildDecision(obs);
  ApplyTransitions(
      MakeTransitions(obs, ctx, browse_order, feedback, LiveView()));
}

void TaskArrangementFramework::OnInitEnd() {
  if (!config_.learn_from_history) return;
  for (int i = 0; i < config_.warmup_learn_steps; ++i) {
    bool stepped = false;
    if (worker_agent_) stepped |= worker_agent_->LearnStep();
    if (requester_agent_) stepped |= requester_agent_->LearnStep();
    if (!stepped) break;  // warm-up buffers below one batch
  }
}

int64_t TaskArrangementFramework::transitions_stored() const {
  int64_t n = 0;
  if (worker_agent_) n += worker_agent_->stored();
  if (requester_agent_) n += requester_agent_->stored();
  return n;
}

namespace {
constexpr uint32_t kCheckpointMagic = 0x43445231;  // "CDR1"

/// The fixed checkpoint header (see SaveState).
struct CheckpointHeader {
  uint32_t magic = kCheckpointMagic;
  uint32_t version = TaskArrangementFramework::kCheckpointVersion;
  uint64_t total_bytes = 0;
  uint64_t checksum = 0;
};
static_assert(sizeof(CheckpointHeader) ==
                  TaskArrangementFramework::kCheckpointHeaderBytes,
              "checkpoint header layout");
}  // namespace

uint64_t TaskArrangementFramework::CheckpointChecksum(const char* body,
                                                      size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(body[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Status TaskArrangementFramework::SaveState(const std::string& path) const {
  std::string bytes;
  CROWDRL_RETURN_NOT_OK(SaveStateBytes(&bytes));
  std::ofstream f(path, std::ios::binary);
  if (!f.is_open()) return Status::IoError("cannot open " + path);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f.good()) return Status::IoError("checkpoint write failed");
  return Status::OK();
}

Status TaskArrangementFramework::SaveStateBytes(std::string* out) const {
  std::ostringstream body(std::ios::binary);
  uint8_t nets[2] = {worker_agent_ != nullptr, requester_agent_ != nullptr};
  body.write(reinterpret_cast<const char*>(nets), sizeof(nets));
  if (worker_agent_) {
    CROWDRL_RETURN_NOT_OK(worker_agent_->online().Save(&body));
  }
  if (requester_agent_) {
    CROWDRL_RETURN_NOT_OK(requester_agent_->online().Save(&body));
  }
  CROWDRL_RETURN_NOT_OK(arrivals_.Save(&body));
  if (!body.good()) return Status::IoError("checkpoint write failed");
  const std::string payload = body.str();
  CheckpointHeader header;
  header.total_bytes = sizeof(header) + payload.size();
  header.checksum = CheckpointChecksum(payload.data(), payload.size());
  out->assign(reinterpret_cast<const char*>(&header), sizeof(header));
  out->append(payload);
  return Status::OK();
}

Status TaskArrangementFramework::LoadState(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) return Status::IoError("cannot open " + path);
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  if (f.bad()) return Status::IoError("checkpoint read failed: " + path);
  const Status st = LoadStateBytes(bytes);
  if (st.ok()) return st;
  return Status(st.code(), st.message() + ": " + path);
}

Status TaskArrangementFramework::LoadStateBytes(std::string_view bytes) {
  // The header is checked against the bytes before any of the body is
  // parsed: a truncated, extended or bit-flipped file stops here.
  CheckpointHeader header;
  if (bytes.size() >= sizeof(uint32_t)) {
    std::memcpy(&header.magic, bytes.data(), sizeof(uint32_t));
  }
  if (bytes.size() < sizeof(uint32_t) || header.magic != kCheckpointMagic) {
    return Status::IoError("not a crowdrl checkpoint");
  }
  if (bytes.size() < sizeof(header)) {
    return Status::IoError("checkpoint header truncated");
  }
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.version != kCheckpointVersion) {
    return Status::FailedPrecondition(
        "checkpoint format version " + std::to_string(header.version) +
        ", expected " + std::to_string(kCheckpointVersion));
  }
  if (header.total_bytes != bytes.size()) {
    return Status::IoError("checkpoint length " + std::to_string(bytes.size()) +
                           ", header says " +
                           std::to_string(header.total_bytes));
  }
  if (CheckpointChecksum(bytes.data() + sizeof(header),
                         bytes.size() - sizeof(header)) != header.checksum) {
    return Status::IoError("checkpoint checksum mismatch");
  }
  std::istringstream f(std::string(bytes.substr(sizeof(header))),
                       std::ios::binary);
  uint8_t nets[2];
  f.read(reinterpret_cast<char*>(nets), sizeof(nets));
  if (!f.good()) return Status::IoError("checkpoint body truncated");
  if (static_cast<bool>(nets[0]) != (worker_agent_ != nullptr) ||
      static_cast<bool>(nets[1]) != (requester_agent_ != nullptr)) {
    return Status::InvalidArgument(
        "checkpoint objective does not match this framework's");
  }
  // All or nothing: both nets and the arrival model are read and checked
  // into locals first, and installed only once the whole checkpoint has
  // loaded, so a truncated or corrupt file leaves the framework untouched.
  auto load_net = [&](const DqnAgent& agent, SetQNetwork* net) -> Status {
    CROWDRL_RETURN_NOT_OK(net->Load(&f));
    const SetQNetworkConfig& got = net->config();
    const SetQNetworkConfig& want = agent.online().config();
    bool same = got.input_dim == want.input_dim &&
                got.hidden_dim == want.hidden_dim &&
                got.num_heads == want.num_heads &&
                got.masked_attention == want.masked_attention &&
                got.use_attention == want.use_attention;
    const auto params = net->Params();
    const auto expected = agent.online().Params();
    for (size_t i = 0; same && i < params.size(); ++i) {
      same = params[i]->rows() == expected[i]->rows() &&
             params[i]->cols() == expected[i]->cols();
    }
    if (!same) {
      return Status::InvalidArgument("checkpoint network shape mismatch");
    }
    for (const Matrix* p : params) {
      if (p->HasNonFinite()) {
        return Status::InvalidArgument(
            "checkpoint network has non-finite parameters");
      }
    }
    return Status::OK();
  };
  SetQNetwork worker_net, requester_net;
  if (worker_agent_) {
    CROWDRL_RETURN_NOT_OK(load_net(*worker_agent_, &worker_net));
  }
  if (requester_agent_) {
    CROWDRL_RETURN_NOT_OK(load_net(*requester_agent_, &requester_net));
  }
  ArrivalModel arrivals = arrivals_;  // keeps the config; Load sets the rest
  CROWDRL_RETURN_NOT_OK(arrivals.Load(&f));
  // The arrival model is the last record: anything after it (junk, or a
  // second checkpoint appended) means this is not one checkpoint.
  if (f.peek() != std::istringstream::traits_type::eof()) {
    return Status::IoError("trailing bytes after checkpoint");
  }

  if (worker_agent_) worker_agent_->RestoreOnline(worker_net);
  if (requester_agent_) requester_agent_->RestoreOnline(requester_net);
  arrivals_ = std::move(arrivals);
  return Status::OK();
}

}  // namespace crowdrl
