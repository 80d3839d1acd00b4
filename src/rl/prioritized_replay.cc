#include "rl/prioritized_replay.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace crowdrl {

ProportionalSampler::ProportionalSampler(const PrioritizedReplayConfig& config)
    : config_(config) {
  CROWDRL_CHECK(config.capacity > 0);
  leaves_ = 1;
  while (leaves_ < config.capacity) leaves_ <<= 1;
  tree_.assign(2 * leaves_, 0.0);
}

void ProportionalSampler::SetLeaf(size_t leaf, double value) {
  size_t node = leaves_ + leaf;
  tree_[node] = value;
  for (node >>= 1; node >= 1; node >>= 1) {
    tree_[node] = tree_[2 * node] + tree_[2 * node + 1];
    if (node == 1) break;
  }
}

size_t ProportionalSampler::FindPrefix(double mass) const {
  size_t node = 1;
  while (node < leaves_) {
    const double left = tree_[2 * node];
    if (mass < left) {
      node = 2 * node;
    } else {
      mass -= left;
      node = 2 * node + 1;
    }
  }
  size_t leaf = node - leaves_;
  // Guard against floating-point drift selecting an empty slot.
  if (leaf >= size_) leaf = size_ == 0 ? 0 : size_ - 1;
  return leaf;
}

size_t ProportionalSampler::Add() {
  const size_t slot = next_;
  SetLeaf(slot, std::pow(max_priority_, config_.alpha));
  next_ = (next_ + 1) % config_.capacity;
  size_ = std::min(size_ + 1, config_.capacity);
  return slot;
}

double ProportionalSampler::beta() const {
  const double frac =
      std::min(1.0, static_cast<double>(sample_steps_) /
                        std::max(1.0, config_.beta_anneal_steps));
  return config_.beta0 + (1.0 - config_.beta0) * frac;
}

bool ProportionalSampler::SampleBatchInto(size_t batch, Rng* rng,
                                          std::vector<size_t>* slots,
                                          std::vector<double>* raw_weights,
                                          std::vector<float>* weights) {
  CROWDRL_CHECK(size_ > 0);
  slots->resize(batch);
  raw_weights->resize(batch);
  weights->resize(batch);
  const double total = tree_[1];
  // Both branches must advance the annealing clock: the uniform fallback
  // used to skip it, silently stalling the beta schedule whenever the tree
  // mass hit zero (e.g. min_priority == 0 with all-zero TD errors).
  const double b = beta();
  sample_steps_ += static_cast<int64_t>(batch);
  if (total <= 0) {
    for (size_t i = 0; i < batch; ++i) {
      (*slots)[i] = rng->UniformInt(size_);
      (*raw_weights)[i] = 1.0;
      (*weights)[i] = 1.0f;
    }
    return false;
  }
  const double segment = total / static_cast<double>(batch);
  double max_weight = 0.0;
  for (size_t i = 0; i < batch; ++i) {
    // Stratified: one draw per equal-mass segment.
    const double mass = (static_cast<double>(i) + rng->Uniform()) * segment;
    const size_t slot = FindPrefix(std::min(mass, total * (1.0 - 1e-12)));
    const double prob = tree_[leaves_ + slot] / total;
    const double w =
        std::pow(static_cast<double>(size_) * std::max(prob, 1e-12), -b);
    (*slots)[i] = slot;
    (*raw_weights)[i] = w;
    max_weight = std::max(max_weight, w);
  }
  for (size_t i = 0; i < batch; ++i) {
    (*weights)[i] = static_cast<float>((*raw_weights)[i] / max_weight);
  }
  return true;
}

bool ProportionalSampler::UpdatePriority(size_t slot, double td_error) {
  CROWDRL_CHECK(slot < config_.capacity);
  if (!std::isfinite(td_error)) return false;
  const double p = std::max(std::fabs(td_error), config_.min_priority);
  max_priority_ = std::max(max_priority_, p);
  SetLeaf(slot, std::pow(p, config_.alpha));
  return true;
}

double ProportionalSampler::LeafPriority(size_t slot) const {
  CROWDRL_CHECK(slot < config_.capacity);
  return tree_[leaves_ + slot];
}

PrioritizedReplay::PrioritizedReplay(const PrioritizedReplayConfig& config,
                                     size_t batch_size)
    : batch_size_(batch_size < 1 ? 1 : batch_size), sampler_(config) {
  items_.resize(config.capacity);
  state_charge_.resize(config.capacity, 0);
}

size_t PrioritizedReplay::Add(Transition t) {
  MutexLock lk(mu_);
  const size_t capacity = items_.size();
  const size_t slot = sampler_.Add();
  // Evict: the oldest slot of a run hands its state's charge to the next
  // slot when the run goes on there, and releases it otherwise.
  if (const size_t charge = state_charge_[slot]; charge > 0) {
    state_charge_[slot] = 0;
    const size_t next = (slot + 1) % capacity;
    if (next != slot && items_[next].state == items_[slot].state) {
      state_charge_[next] = charge;
    } else {
      state_bytes_ -= charge;
    }
  }
  items_[slot] = std::move(t);
  // Store: a state that continues the newest run is already charged.
  const size_t prev = (slot + capacity - 1) % capacity;
  if (prev == slot || items_[prev].state != items_[slot].state) {
    state_charge_[slot] = items_[slot].StateBytes();
    state_bytes_ += state_charge_[slot];
  }
  approx_bytes_.store(sampler_.size() * sizeof(Transition) + state_bytes_,
                      std::memory_order_release);
  size_.store(sampler_.size(), std::memory_order_release);
  return slot;
}

void PrioritizedReplay::UpdatePriorities(const std::vector<size_t>& slots,
                                         const std::vector<double>& td_errors) {
  CROWDRL_CHECK(slots.size() == td_errors.size());
  MutexLock lk(mu_);
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!sampler_.UpdatePriority(slots[i], td_errors[i])) {
      nonfinite_td_errors_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
}

bool PrioritizedReplay::SampleBatchInto(Batch* out, Rng* rng) {
  MutexLock lk(mu_);
  if (sampler_.size() < batch_size_) return false;
  out->uniform_ = !sampler_.SampleBatchInto(batch_size_, rng, &out->slots_,
                                            &out->raw_weights_, &out->weights_);
  out->items_.resize(batch_size_);
  for (size_t i = 0; i < batch_size_; ++i) {
    out->items_[i] = &items_[out->slots_[i]];
  }
  return true;
}

double PrioritizedReplay::beta() const {
  MutexLock lk(mu_);
  return sampler_.beta();
}

double PrioritizedReplay::total_priority() const {
  MutexLock lk(mu_);
  return sampler_.total_priority();
}

double PrioritizedReplay::LeafPriority(size_t slot) const {
  MutexLock lk(mu_);
  return sampler_.LeafPriority(slot);
}

}  // namespace crowdrl
