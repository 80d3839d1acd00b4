#ifndef CROWDRL_SERVE_SNAPSHOT_H_
#define CROWDRL_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/framework.h"
#include "nn/set_qnetwork.h"

namespace crowdrl {

/// One agent's (online, target) parameter pair inside a snapshot. The nets
/// are immutable owned copies, held by shared_ptr so consecutive snapshot
/// versions can share any net that did not change between publishes
/// (delta-publication): a target network, for instance, is identical for
/// `target_sync_every` learner steps in a row, and copying it on every
/// per-feedback publish would be pure waste.
struct SharedQNetPair {
  std::shared_ptr<const SetQNetwork> online;
  std::shared_ptr<const SetQNetwork> target;

  bool has_value() const { return online != nullptr; }
  explicit operator bool() const { return has_value(); }
  QNetView View() const { return {online.get(), target.get()}; }
};

/// \brief One immutable, versioned copy of the framework's learned
/// parameters — what the serving actors score against.
///
/// The learner trains on its live networks and periodically publishes a
/// snapshot; actors that loaded version v keep a consistent view for the
/// whole decision (scores and Bellman targets from the same parameters)
/// even while version v+1 is being trained. This generalizes the DQN
/// online/target-network split one level up: target networks stabilize
/// *learning* against a moving bootstrap; snapshots stabilize *serving*
/// against a moving learner. A pair is empty (has_value() false) when the
/// objective disables that MDP's network.
struct PolicySnapshot {
  uint64_t version = 0;
  SharedQNetPair worker;
  SharedQNetPair requester;

  ScoringView View() const {
    ScoringView view;
    if (worker) view.worker = worker.View();
    if (requester) view.requester = requester.View();
    return view;
  }
};

/// \brief Builds PolicySnapshots from live agents with per-net
/// copy-on-write (delta-publication).
///
/// The builder caches, per net, the last published immutable copy together
/// with the agent's mutation counter at publish time. On the next Build,
/// any net whose counter is unchanged reuses the cached shared_ptr — no
/// allocation, no parameter copy — and only genuinely mutated nets are
/// deep-copied. Adam updates every layer of the online net each gradient
/// step, so per-layer tracking would never beat per-net tracking here: the
/// online nets copy whenever a step happened, the target nets (half the
/// snapshot bytes) copy only at sync, and an idle agent copies nothing.
///
/// Not thread-safe: call from the learner context only (the snapshot
/// *channel* is the cross-thread hand-off, not the builder). The copy
/// counters are atomics so stats readers may sample them lock-free.
class SnapshotBuilder {
 public:
  /// Snapshot of `worker`/`requester` (either may be null) labelled with
  /// `version`.
  std::shared_ptr<const PolicySnapshot> Build(const DqnAgent* worker,
                                              const DqnAgent* requester,
                                              uint64_t version) {
    auto snapshot = std::make_shared<PolicySnapshot>();
    snapshot->version = version;
    if (worker != nullptr) {
      snapshot->worker.online =
          Snap(worker->online(), worker->online_version(), &worker_online_);
      snapshot->worker.target = Snap(worker->target_net(),
                                     worker->target_version(), &worker_target_);
    }
    if (requester != nullptr) {
      snapshot->requester.online = Snap(
          requester->online(), requester->online_version(), &requester_online_);
      snapshot->requester.target =
          Snap(requester->target_net(), requester->target_version(),
               &requester_target_);
    }
    return snapshot;
  }

  /// Nets deep-copied / reused across all Build calls so far.
  int64_t nets_copied() const { return copied_.load(); }
  int64_t nets_shared() const { return shared_.load(); }

 private:
  struct CachedNet {
    bool valid = false;
    uint64_t version = 0;
    std::shared_ptr<const SetQNetwork> net;
  };

  std::shared_ptr<const SetQNetwork> Snap(const SetQNetwork& live,
                                          uint64_t version, CachedNet* cache) {
    if (cache->valid && cache->version == version) {
      shared_.fetch_add(1, std::memory_order_relaxed);
      return cache->net;
    }
    copied_.fetch_add(1, std::memory_order_relaxed);
    cache->net = std::make_shared<const SetQNetwork>(live);
    cache->version = version;
    cache->valid = true;
    return cache->net;
  }

  CachedNet worker_online_, worker_target_;
  CachedNet requester_online_, requester_target_;
  std::atomic<int64_t> copied_{0};
  std::atomic<int64_t> shared_{0};
};

/// \brief Single-writer / multi-reader snapshot publication point.
///
/// Publication is an atomic shared_ptr swap: readers take a reference to
/// the current snapshot without blocking the writer and without any reader
/// ever observing a half-copied network; the previous snapshot is freed
/// when its last in-flight reader drops it. Readers therefore never hold a
/// lock across inference, which is the property the whole actor/learner
/// split rests on.
class SnapshotChannel {
 public:
  SnapshotChannel() : current_(std::make_shared<const PolicySnapshot>()) {}

  /// Replaces the current snapshot (learner thread only).
  void Publish(std::shared_ptr<const PolicySnapshot> snapshot) {
    std::atomic_store_explicit(&current_, std::move(snapshot),
                               std::memory_order_release);
  }

  /// The latest published snapshot (any thread). Never null; before the
  /// first Publish it is an empty version-0 snapshot.
  std::shared_ptr<const PolicySnapshot> Load() const {
    return std::atomic_load_explicit(&current_, std::memory_order_acquire);
  }

  uint64_t version() const { return Load()->version; }

 private:
  std::shared_ptr<const PolicySnapshot> current_;
};

}  // namespace crowdrl

#endif  // CROWDRL_SERVE_SNAPSHOT_H_
