#include "serve/sharded_service.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace crowdrl {

ShardedArrangementService::ShardedArrangementService(
    std::vector<TaskArrangementFramework*> frameworks,
    const ServiceConfig& shard_config) {
  CROWDRL_CHECK_MSG(!frameworks.empty(), "need at least one shard");
  shards_.reserve(frameworks.size());
  for (TaskArrangementFramework* framework : frameworks) {
    shards_.push_back(std::make_unique<ServiceShard>(framework, shard_config));
  }
}

std::unique_ptr<ShardedArrangementService> ShardedArrangementService::Create(
    const FrameworkConfig& base, const EnvView* env,
    size_t worker_feature_dim, size_t task_feature_dim, int num_shards,
    const ServiceConfig& shard_config) {
  ShardSet set = BuildShardFrameworks(base, env, worker_feature_dim,
                                      task_feature_dim, num_shards);
  auto service = std::unique_ptr<ShardedArrangementService>(
      new ShardedArrangementService(set.Pointers(), shard_config));
  service->owned_ = std::move(set);
  return service;
}

ShardedArrangementService::~ShardedArrangementService() { Stop(); }

void ShardedArrangementService::Start() {
  MutexLock lk(lifecycle_mu_);
  for (auto& shard : shards_) shard->Start();
  started_ = true;
}

void ShardedArrangementService::Stop() {
  MutexLock lk(lifecycle_mu_);
  if (!started_) return;
  // Shards are independent; a sequential drain keeps shutdown simple and
  // each shard's accepted-work guarantees intact.
  for (auto& shard : shards_) shard->Stop();
  started_ = false;
}

void ShardedArrangementService::RecordArrival(const Observation& obs) {
  shards_[ShardOf(obs.worker)]->RecordArrival(obs);
}

std::unique_ptr<ShardedArrangementService::Session>
ShardedArrangementService::NewSession() {
  return std::unique_ptr<Session>(new Session(this));
}

Status ShardedArrangementService::SaveState(const std::string& path) {
  for (size_t k = 0; k < shards_.size(); ++k) {
    CROWDRL_RETURN_NOT_OK(
        shards_[k]->SaveState(path + ".shard" + std::to_string(k)));
  }
  return Status::OK();
}

Status ShardedArrangementService::LoadState(const std::string& path) {
  for (size_t k = 0; k < shards_.size(); ++k) {
    CROWDRL_RETURN_NOT_OK(
        shards_[k]->LoadState(path + ".shard" + std::to_string(k)));
  }
  return Status::OK();
}

void ShardedArrangementService::PublishNow() {
  for (auto& shard : shards_) shard->PublishNow();
}

ShardedServiceStats ShardedArrangementService::stats() const {
  ShardedServiceStats out;
  out.per_shard.reserve(shards_.size());
  PercentileAccumulator merged;
  uint64_t version = 0;
  for (const auto& shard : shards_) {
    // One accumulator copy per shard feeds both its own percentiles and
    // the merged ones.
    PercentileAccumulator latency;
    ServiceStats s = shard->stats(&latency);
    ServiceStats::ForEachField([&](const char*, auto field) {
      out.aggregate.*field += s.*field;
    });
    // Shards version independently; the aggregate reports the most
    // advanced chain (a sum would be meaningless as a version).
    version = std::max(version, s.snapshot_version);
    merged.Merge(latency);
    out.per_shard.push_back(std::move(s));
  }
  // The fields that are not sums overwrite theirs.
  out.aggregate.snapshot_version = version;
  out.aggregate.mean_batch_size =
      out.aggregate.batches > 0
          ? static_cast<double>(out.aggregate.requests) /
                static_cast<double>(out.aggregate.batches)
          : 0.0;
  FillRankLatency(merged, &out.aggregate);
  return out;
}

// ---- Session ----

ShardedArrangementService::Session::Session(
    ShardedArrangementService* service)
    : service_(service), per_shard_(service->num_shards()) {}

ServiceShard::Session* ShardedArrangementService::Session::SessionFor(
    size_t shard) {
  if (!per_shard_[shard]) {
    per_shard_[shard] = service_->shard(shard)->NewSession();
  }
  return per_shard_[shard].get();
}

std::vector<int> ShardedArrangementService::Session::Rank(
    const Observation& obs, Ticket* ticket) {
  CROWDRL_CHECK(ticket != nullptr);
  ticket->shard = service_->ShardOf(obs.worker);
  return SessionFor(ticket->shard)->Rank(obs, &ticket->inner);
}

void ShardedArrangementService::Session::Feedback(
    const Observation& obs, const Ticket& ticket,
    const std::vector<int>& ranking, const crowdrl::Feedback& feedback) {
  // The ticket pins the shard that ranked; it equals ShardOf(obs.worker),
  // so feedback meets the decision's learner.
  SessionFor(ticket.shard)->Feedback(obs, ticket.inner, ranking, feedback);
}

bool ShardedArrangementService::Session::Flush() {
  bool ok = true;
  for (auto& session : per_shard_) {
    if (session) ok = session->Flush() && ok;
  }
  return ok;
}

}  // namespace crowdrl
