#ifndef CROWDRL_SERVE_SERVING_POLICY_H_
#define CROWDRL_SERVE_SERVING_POLICY_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "serve/sharded_service.h"

namespace crowdrl {

/// \brief Adapts the arrangement service to the Policy interface, so the
/// standard ReplayHarness / Experiment tooling drives a *service*
/// end-to-end and the serial framework and the service are directly
/// interchangeable in equivalence tests.
///
/// The replay harness stays a single sequential driver while every
/// Rank/Feedback/arrival is routed to its worker's shard — so the
/// experiment tooling sweeps sharded topologies (`sharded_SxM` methods)
/// next to every other method, and the S = 1 instantiation is bit-equal
/// (with inline learning) to the serial framework. Per-decision tickets
/// are kept between Rank and OnFeedback, bounded exactly like the
/// framework's own pending map; warm-up hooks (OnHistory / OnInitEnd) run
/// in the owning shard's learner context, where mutating the agents is
/// safe.
///
/// `sessions_per_driver` (the M of sharded_SxM) opens that many sharded
/// sessions and rotates them per arrival — deterministic round-robin that
/// exercises the multi-session flush/buffer paths from one driver thread.
class ShardedServingPolicy : public Policy {
 public:
  explicit ShardedServingPolicy(ShardedArrangementService* service,
                                int sessions_per_driver = 1)
      : service_(service) {
    CROWDRL_CHECK(sessions_per_driver >= 1);
    for (int i = 0; i < sessions_per_driver; ++i) {
      sessions_.push_back(service->NewSession());
    }
  }

  std::string name() const override {
    return service_->shard(0)->framework()->name() + "@serve/s" +
           std::to_string(service_->num_shards());
  }

  void OnArrival(const Observation& obs) override {
    service_->RecordArrival(obs);
  }

  std::vector<int> Rank(const Observation& obs) override {
    ShardedArrangementService::Ticket ticket;
    std::vector<int> ranking =
        SessionFor(obs.arrival_index)->Rank(obs, &ticket);
    tickets_.emplace(obs.arrival_index, std::move(ticket));
    while (tickets_.size() > TaskArrangementFramework::kMaxPendingDecisions) {
      tickets_.erase(tickets_.begin());
    }
    return ranking;
  }

  void OnFeedback(const Observation& obs, const std::vector<int>& ranking,
                  const Feedback& feedback) override {
    auto it = tickets_.find(obs.arrival_index);
    if (it == tickets_.end()) return;
    SessionFor(obs.arrival_index)
        ->Feedback(obs, it->second, ranking, feedback);
    tickets_.erase(it);
  }

  void OnHistory(const Observation& obs, const std::vector<int>& browse_order,
                 int completed_pos, double quality_gain) override {
    // Warm-up history is part of the worker's feedback stream: it must
    // reach the owner shard's learner (and only that one), in its learner
    // context so replay stores and gradient steps cannot race training.
    ServiceShard* shard = service_->shard(service_->ShardOf(obs.worker));
    Status st = shard->RunOnLearner([&]() {
      shard->framework()->OnHistory(obs, browse_order, completed_pos,
                                    quality_gain);
      return Status::OK();
    });
    (void)st;
  }

  void OnInitEnd() override {
    // Every shard digests its own warm-up buffer, then republishes so
    // actors rank against warm-started parameters immediately.
    for (size_t k = 0; k < service_->num_shards(); ++k) {
      ServiceShard* shard = service_->shard(k);
      Status st = shard->RunOnLearner([&]() {
        shard->framework()->OnInitEnd();
        return Status::OK();
      });
      (void)st;
    }
    service_->PublishNow();
  }

  /// Flushes all driver sessions (all shards).
  bool FlushAll() {
    bool ok = true;
    for (auto& session : sessions_) ok = session->Flush() && ok;
    return ok;
  }

 private:
  ShardedArrangementService::Session* SessionFor(int64_t arrival_index) {
    return sessions_[static_cast<size_t>(arrival_index) % sessions_.size()]
        .get();
  }

  ShardedArrangementService* service_;
  std::vector<std::unique_ptr<ShardedArrangementService::Session>> sessions_;
  std::map<int64_t, ShardedArrangementService::Ticket> tickets_;
};

}  // namespace crowdrl

#endif  // CROWDRL_SERVE_SERVING_POLICY_H_
