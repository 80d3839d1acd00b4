#ifndef CROWDRL_RL_PRIORITIZED_REPLAY_H_
#define CROWDRL_RL_PRIORITIZED_REPLAY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "rl/transition.h"

namespace crowdrl {

/// Hyper-parameters of proportional prioritized replay (Schaul et al. [25]).
struct PrioritizedReplayConfig {
  size_t capacity = 1000;  ///< paper: "buffer size for DDQN is 1000"
  double alpha = 0.6;      ///< priority exponent
  double beta0 = 0.4;      ///< initial importance-sampling exponent
  double beta_anneal_steps = 20000;  ///< linear β → 1 over this many samples
  double min_priority = 1e-3;        ///< floor so nothing starves
};

/// \brief The sum-tree sampling core of proportional prioritized replay,
/// decoupled from transition ownership.
///
/// This class owns everything about *which* slots a batch draws and with
/// what importance-sampling weights — the implicit binary sum tree, the
/// ring-slot cursor, the max-seen priority and the β annealing clock — but
/// nothing about what lives in the slots. `PrioritizedReplay` pairs it with
/// boxed `Transition` slots; the replay tests pair it with a bare vector as
/// an independent reference.
class ProportionalSampler {
 public:
  explicit ProportionalSampler(const PrioritizedReplayConfig& config);

  /// Claims the next ring slot with max-seen priority (new experiences
  /// replay at least once) and returns it. The caller stores the payload.
  size_t Add();

  /// Stratified sample of `batch` slots into the three parallel output
  /// arrays (resized to `batch`; capacity is reused). `raw_weights` holds
  /// the unnormalized (N·P(i))^{−β} terms and `weights` the max-normalized
  /// float weights in (0, 1]. Returns false iff the total mass was zero and
  /// the uniform fallback ran (all weights 1). Advances the β annealing
  /// clock either way.
  bool SampleBatchInto(size_t batch, Rng* rng, std::vector<size_t>* slots,
                       std::vector<double>* raw_weights,
                       std::vector<float>* weights);

  /// Re-prioritizes a slot after its TD error was re-evaluated. A
  /// non-finite TD error (NaN, ±inf) leaves the slot's priority and the
  /// max-seen priority unchanged and returns false: one NaN leaf would make
  /// the total mass NaN, and one infinite one would become the priority of
  /// every later Add.
  bool UpdatePriority(size_t slot, double td_error);

  /// Unnormalized priority mass of one slot (the sum-tree leaf value).
  double LeafPriority(size_t slot) const;

  size_t size() const { return size_; }
  size_t capacity() const { return config_.capacity; }
  double total_priority() const { return tree_[1]; }
  double beta() const;
  const PrioritizedReplayConfig& config() const { return config_; }

 private:
  void SetLeaf(size_t leaf, double value);
  size_t FindPrefix(double mass) const;

  PrioritizedReplayConfig config_;
  size_t leaves_;              // power-of-two leaf count
  std::vector<double> tree_;   // 1-indexed implicit binary tree
  size_t size_ = 0;
  size_t next_ = 0;
  double max_priority_ = 1.0;
  int64_t sample_steps_ = 0;
};

/// \brief Proportional prioritized experience replay: a
/// `ProportionalSampler` over boxed `Transition` slots.
///
/// Priorities are |TD error|^α; sampling is stratified over the cumulative
/// mass; importance-sampling weights (N·P(i))^{−β} / max_j w_j correct the
/// induced bias, with β annealed toward 1. Everything runs inline on the
/// caller's thread with the caller's RNG, so a seeded learner is
/// deterministic. `size()`, `ApproxBytes()` and `nonfinite_td_errors()`
/// are atomic-backed and safe to read while another thread trains.
class PrioritizedReplay {
 public:
  /// One sampled minibatch. Persistent: the learner keeps one `Batch`
  /// across steps so its vectors reach a steady state with zero
  /// allocation.
  class Batch {
   public:
    size_t size() const { return slots_.size(); }
    size_t slot(size_t i) const { return slots_[i]; }
    /// Normalized importance-sampling weight in (0, 1].
    float weight(size_t i) const { return weights_[i]; }
    /// The sampled transition: a pointer into the replay's slot, valid
    /// until the next Add or SampleBatchInto.
    const Transition& item(size_t i) const { return *items_[i]; }
    const std::vector<size_t>& slots() const { return slots_; }
    /// True iff the tree mass was zero and the uniform fallback sampled.
    bool uniform() const { return uniform_; }

   private:
    friend class PrioritizedReplay;
    std::vector<size_t> slots_;
    std::vector<double> raw_weights_;  // unnormalized (N·P)^{−β}
    std::vector<float> weights_;
    std::vector<const Transition*> items_;
    bool uniform_ = false;
  };

  PrioritizedReplay(const PrioritizedReplayConfig& config, size_t batch_size);

  PrioritizedReplay(const PrioritizedReplay&) = delete;
  PrioritizedReplay& operator=(const PrioritizedReplay&) = delete;

  /// Stores a transition with max-seen priority, evicting the oldest when
  /// full. Returns its slot.
  size_t Add(Transition t);

  /// Re-prioritizes `slots[i]` with TD error `td_errors[i]`, in order.
  /// Non-finite TD errors are skipped and counted.
  void UpdatePriorities(const std::vector<size_t>& slots,
                        const std::vector<double>& td_errors);

  /// Fills `*out` with the next minibatch of `batch_size` samples drawn
  /// with `rng`. Returns false (and leaves `*out` alone) while the buffer
  /// holds fewer than one batch.
  bool SampleBatchInto(Batch* out, Rng* rng);

  /// Transitions currently resident.
  size_t size() const { return size_.load(std::memory_order_acquire); }
  /// Approximate bytes held by transition storage (payload + headers).
  size_t ApproxBytes() const {
    return approx_bytes_.load(std::memory_order_acquire);
  }
  /// TD errors UpdatePriorities skipped because they were not finite.
  uint64_t nonfinite_td_errors() const {
    return nonfinite_td_errors_.load(std::memory_order_acquire);
  }
  double beta() const;
  double total_priority() const;
  /// Unnormalized leaf priority of one slot.
  double LeafPriority(size_t slot) const;

 private:
  const size_t batch_size_;

  mutable Mutex mu_;
  ProportionalSampler sampler_ CROWDRL_GUARDED_BY(mu_);
  std::vector<Transition> items_ CROWDRL_GUARDED_BY(mu_);
  std::vector<size_t> slot_bytes_ CROWDRL_GUARDED_BY(mu_);
  size_t bytes_ CROWDRL_GUARDED_BY(mu_) = 0;

  std::atomic<size_t> size_{0};
  std::atomic<size_t> approx_bytes_{0};
  std::atomic<uint64_t> nonfinite_td_errors_{0};
};

}  // namespace crowdrl

#endif  // CROWDRL_RL_PRIORITIZED_REPLAY_H_
