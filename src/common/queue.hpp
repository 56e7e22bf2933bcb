// A blocking FIFO under a single mutex + two condition variables. In the
// library its one user is simnet's accept backlog; the paper's Fig. 2 I/O
// queue is semplar::AsyncEngine (core/async_engine.hpp).
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

  /// After close(), pushes fail and pops drain the remaining items then
  /// return nullopt. Idempotent.
  void close() {
    std::lock_guard lk(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> q_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace remio
