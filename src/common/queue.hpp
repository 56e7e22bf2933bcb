// The paper's Fig. 2 queue: a single mutex + two condition variables, FIFO,
// blocking. The broker's accept backlog, the generic async fallback and the
// compression pipeline run on it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

namespace remio {

template <class T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity = SIZE_MAX) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false if the queue was closed.
  bool push(T v) {
    std::unique_lock lk(mu_);
    not_full_.wait(lk, [&] { return closed_ || q_.size() < capacity_; });
    if (closed_) return false;
    q_.push_back(std::move(v));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; fails when full or closed.
  bool try_push(T v) {
    std::lock_guard lk(mu_);
    if (closed_ || q_.size() >= capacity_) return false;
    q_.push_back(std::move(v));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Empty optional means closed-and-drained.
  std::optional<T> pop() {
    std::unique_lock lk(mu_);
    not_empty_.wait(lk, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return std::nullopt;
    T v = std::move(q_.front());
    q_.pop_front();
    not_full_.notify_one();
    return v;
  }

  std::optional<T> try_pop() {
    std::lock_guard lk(mu_);
    if (q_.empty()) return std::nullopt;
    T v = std::move(q_.front());
    q_.pop_front();
    not_full_.notify_one();
    return v;
  }

  /// Drains every queued item in one critical section (FIFO order kept).
  /// Wakeup audit: this is the one transition that frees MANY slots at
  /// once, so it must notify_all — a notify_one here strands all but one
  /// of the producers blocked in push() on a full queue (the classic lost
  /// wakeup; see test_common's QueueBulkDrainWakesAllProducers). The
  /// single-item push/pop/try_* paths are 1:1 transitions (one item or one
  /// slot per notify), and close() already broadcasts on both conditions,
  /// so notify_one stays correct there.
  std::deque<T> pop_all() {
    std::deque<T> out;
    {
      std::lock_guard lk(mu_);
      out.swap(q_);
    }
    if (!out.empty()) not_full_.notify_all();
    return out;
  }

  /// After close(), pushes fail and pops drain the remaining items then
  /// return nullopt. Idempotent.
  void close() {
    std::lock_guard lk(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lk(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lk(mu_);
    return q_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> q_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace remio
