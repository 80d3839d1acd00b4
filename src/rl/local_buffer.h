#ifndef CROWDRL_RL_LOCAL_BUFFER_H_
#define CROWDRL_RL_LOCAL_BUFFER_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace crowdrl {

/// \brief Per-producer accumulation buffer — the Ape-X actors' LocalBuffer,
/// generalized over the item type.
///
/// In the actor/learner split, every actor thread mints experience
/// (transition blocks) at feedback time; handing each item to the shared
/// learner individually would pay one queue synchronization per item.
/// A LocalBuffer instead accumulates items with zero synchronization
/// (it is single-producer by construction: one per actor session) and
/// flushes them to the shared sink in blocks of `block_size`, amortizing
/// the cross-thread hand-off.
///
/// The sink is a callback (typically `BoundedQueue<std::vector<T>>::Push`)
/// returning whether the block was accepted; rejected blocks (service shut
/// down) are dropped and counted rather than retried, so producers can
/// always make progress.
template <typename T>
class LocalBuffer {
 public:
  using FlushFn = std::function<bool(std::vector<T>&&)>;

  LocalBuffer(FlushFn sink, size_t block_size)
      : sink_(std::move(sink)), block_size_(block_size < 1 ? 1 : block_size) {
    block_.reserve(block_size_);
  }

  /// Appends one item; flushes automatically when the block is full.
  void Add(T item) {
    block_.push_back(std::move(item));
    ++added_;
    if (block_.size() >= block_size_) Flush();
  }

  /// Pushes the current (possibly partial) block to the sink. Returns true
  /// when there was nothing to flush or the sink accepted the block.
  bool Flush() {
    if (block_.empty()) return true;
    std::vector<T> out;
    out.swap(block_);
    block_.reserve(block_size_);
    const size_t n = out.size();
    if (!sink_(std::move(out))) {
      ++dropped_blocks_;
      dropped_items_ += static_cast<int64_t>(n);
      return false;
    }
    ++flushed_blocks_;
    flushed_items_ += static_cast<int64_t>(n);
    return true;
  }

  size_t pending() const { return block_.size(); }
  size_t block_size() const { return block_size_; }
  int64_t added() const { return added_; }
  int64_t flushed_blocks() const { return flushed_blocks_; }
  int64_t flushed_items() const { return flushed_items_; }
  int64_t dropped_blocks() const { return dropped_blocks_; }
  int64_t dropped_items() const { return dropped_items_; }

 private:
  FlushFn sink_;
  size_t block_size_;
  std::vector<T> block_;
  int64_t added_ = 0;
  int64_t flushed_blocks_ = 0;
  int64_t flushed_items_ = 0;
  int64_t dropped_blocks_ = 0;
  int64_t dropped_items_ = 0;
};

}  // namespace crowdrl

#endif  // CROWDRL_RL_LOCAL_BUFFER_H_
