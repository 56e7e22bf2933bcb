#include "core/async_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "simnet/timescale.hpp"

namespace remio::semplar {

namespace {

// "No worker has picked this task up yet" sentinel for Span::dequeue.
// Negative so it can never collide with a real timestamp — sim time 0.0 is
// a legitimate dequeue time for the first op of a run.
constexpr double kDequeueUnset = -1.0;

// The engine whose worker this thread is, so a submit from inside a task
// (prefetch chains, nested speculation) never waits for queue room — its
// own worker could be the one that has to make it.
thread_local const AsyncEngine* tls_engine = nullptr;

// Heap order for the deferred replays: the earliest due at the front.
constexpr auto kLaterDue = [](const auto& a, const auto& b) {
  return a.due > b.due;
};

std::exception_ptr shutdown_error() {
  return std::make_exception_ptr(mpiio::IoError("engine shut down"));
}

}  // namespace

struct AsyncEngine::Item {
  Task task;
  std::shared_ptr<mpiio::IoRequest::State> state;
  Completion done;
  bool supervised = false;
  int attempt = 0;         // completed attempts (replay counter)
  std::uint64_t seq = 0;   // submission order for drain(); kept by replays
  double start_sim = 0.0;  // first submission, for the op deadline
  obs::Span span;
};

// ---------------------------------------------------------------------------
// Engine lifecycle

AsyncEngine::AsyncEngine(int io_threads, std::size_t queue_capacity,
                         Stats* stats, const Config::Retry& retry,
                         obs::Tracer* tracer, const Config::Engine&)
    : threads_(io_threads <= 0 ? 1 : io_threads),
      lazy_(io_threads <= 0),
      capacity_(queue_capacity),
      stats_(stats),
      tracer_(tracer),
      retry_(retry),
      backoff_(retry, 0xa57eu) {
  if (io_threads < 0 || io_threads > 256)
    throw std::invalid_argument("AsyncEngine: io_threads out of range [0, 256]");
  if (queue_capacity == 0)
    throw std::invalid_argument("AsyncEngine: queue_capacity must be > 0");
  if (!lazy_) {
    std::lock_guard lk(mu_);
    for (int i = 0; i < threads_; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }
}

AsyncEngine::~AsyncEngine() { shutdown(); }

void AsyncEngine::shutdown() {
  std::lock_guard lifecycle(lifecycle_mu_);
  if (shut_down_) return;
  shut_down_ = true;
  {
    // Stop the replay timer first so nothing re-enters the queue after it
    // closes; the timer fails everything still parked on its way out
    // (shutdown does not wait out backoffs).
    std::lock_guard lk(defer_mu_);
    timer_stop_ = true;
  }
  defer_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  {
    // Once closed, no submit is accepted and no worker is spawned, so
    // workers_ is final; the workers run what is queued, then exit.
    std::lock_guard lk(mu_);
    closed_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void AsyncEngine::drain() {
  // Every task outstanding now has a sequence number below next_seq_, and
  // there are exactly outstanding_ of them; retire() counts them down.
  // Tasks submitted later carry higher numbers and never touch the ticket.
  std::unique_lock lk(mu_);
  DrainTicket ticket{next_seq_, outstanding_};
  if (ticket.remaining == 0) return;
  drains_.push_back(&ticket);
  drain_cv_.wait(lk, [&ticket] { return ticket.remaining == 0; });
  drains_.erase(std::find(drains_.begin(), drains_.end(), &ticket));
}

void AsyncEngine::retire(std::uint64_t seq) {
  bool notify = false;
  {
    std::lock_guard lk(mu_);
    --outstanding_;
    for (DrainTicket* t : drains_)
      if (seq < t->seq && --t->remaining == 0) notify = true;
  }
  if (notify) drain_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Submission

AsyncEngine::ItemPtr AsyncEngine::make_item(
    Task task, std::shared_ptr<mpiio::IoRequest::State> state) {
  auto item = std::make_unique<Item>();
  item->task = std::move(task);
  item->state = std::move(state);
  if (tracer_ != nullptr) {
    item->span.op_id = tracer_->next_op_id();
    item->span.kind = obs::SpanKind::kTask;
    item->span.enqueue = simnet::sim_now();
    item->span.dequeue = kDequeueUnset;
  }
  return item;
}

bool AsyncEngine::enqueue(ItemPtr& item, Room room, bool replay) {
  bool wake = false;
  {
    std::unique_lock lk(mu_);
    while (room == Room::kWait && !closed_ && queue_.size() >= capacity_) {
      ++space_waiters_;
      space_cv_.wait(lk);
      --space_waiters_;
    }
    if (closed_ || (room == Room::kRefuse && queue_.size() >= capacity_))
      return false;
    // §4.3: in the lazy configuration the first asynchronous call spawns
    // the worker.
    if (workers_.empty()) workers_.emplace_back([this] { worker_loop(); });
    if (!replay) {
      item->seq = next_seq_++;
      ++outstanding_;
    }
    queue_.push_back(std::move(item));
    if (stats_ != nullptr) stats_->note_queue_depth(queue_.size());
    // Wake an idle worker unless every idle worker already has a wake on
    // its way; notifying after the unlock spares it an immediate block on
    // mu_.
    wake = idle_ > wakes_pending_;
    if (wake) ++wakes_pending_;
  }
  if (wake) {
    if (stats_ != nullptr) stats_->add_wake();
    work_cv_.notify_one();
  }
  return true;
}

mpiio::IoRequest AsyncEngine::submit_item(Task task, Completion done,
                                          bool supervised) {
  mpiio::IoRequest req = mpiio::IoRequest::make();
  ItemPtr item = make_item(std::move(task), req.state());
  item->done = std::move(done);
  item->supervised = supervised;
  if (supervised) item->start_sim = simnet::sim_now();
  if (stats_ != nullptr) stats_->add_task();
  if (!enqueue(item, tls_engine == this ? Room::kIgnore : Room::kWait,
               /*replay=*/false)) {
    const auto err = shutdown_error();
    mpiio::IoRequest::fail(item->state, err);
    if (item->done) item->done(0, err);
  }
  return req;
}

mpiio::IoRequest AsyncEngine::submit(Task task) {
  return submit_item(std::move(task), {}, /*supervised=*/false);
}

mpiio::IoRequest AsyncEngine::submit_supervised(Task task, Completion done) {
  return submit_item(std::move(task), std::move(done), /*supervised=*/true);
}

bool AsyncEngine::try_submit(Task task) {
  // A discarded request absorbs the completion, keeping the worker loop
  // oblivious to whether anyone waits.
  ItemPtr item = make_item(std::move(task), mpiio::IoRequest::make().state());
  if (!enqueue(item, Room::kRefuse, /*replay=*/false)) return false;
  if (stats_ != nullptr) stats_->add_task();
  return true;
}

// ---------------------------------------------------------------------------
// Workers

void AsyncEngine::worker_loop() {
  tls_engine = this;
  std::unique_lock lk(mu_);
  for (;;) {
    while (queue_.empty() && !closed_) {
      ++idle_;
      if (stats_ != nullptr) stats_->add_park();
      work_cv_.wait(lk);
      --idle_;
      if (wakes_pending_ > 0) --wakes_pending_;
    }
    if (queue_.empty()) break;  // closed and fully run
    ItemPtr item = std::move(queue_.front());
    queue_.pop_front();
    const bool space = space_waiters_ > 0 && queue_.size() < capacity_;
    lk.unlock();
    if (space) space_cv_.notify_one();
    run_item(std::move(item));
    lk.lock();
  }
  tls_engine = nullptr;
}

void AsyncEngine::run_item(ItemPtr item) {
  // First pickup only: a replayed task keeps its original dequeue so the
  // span's queue_wait measures the first queue residency. The sim clock is
  // read only when a tracer consumes the timestamp.
  if (tracer_ != nullptr && item->span.dequeue < 0.0)
    item->span.dequeue = simnet::sim_now();
  std::size_t n = 0;
  std::exception_ptr err;
  {
    // Expose the task span to deeper layers (StreamPool stamps wire_start
    // on the first transfer this task performs).
    obs::ScopedOpSpan op(tracer_ != nullptr ? &item->span : nullptr);
    try {
      n = item->task();
    } catch (...) {
      err = std::current_exception();
    }
  }
  if (err == nullptr)
    finish(std::move(item), n);
  else
    handle_failure(std::move(item), err);
}

// ---------------------------------------------------------------------------
// Completion and supervision

void AsyncEngine::finish(ItemPtr item, std::size_t n) {
  if (tracer_ != nullptr) {
    item->span.bytes = n;
    item->span.wire_end = simnet::sim_now();
    tracer_->record(item->span);
  }
  mpiio::IoRequest::complete(item->state, n);
  if (item->done) item->done(n, nullptr);
  const std::uint64_t seq = item->seq;
  item.reset();  // captures die before a drain() can return
  retire(seq);
}

void AsyncEngine::fail_item(ItemPtr item, std::exception_ptr err) {
  if (tracer_ != nullptr) {
    // Record the failed task too — the no-orphans invariant (every
    // submitted op has a span after drain) holds on the failure path.
    item->span.bytes = 0;
    item->span.wire_end = simnet::sim_now();
    tracer_->record(item->span);
  }
  mpiio::IoRequest::fail(item->state, err);
  if (item->done) item->done(0, err);
  const std::uint64_t seq = item->seq;
  item.reset();
  retire(seq);
}

void AsyncEngine::handle_failure(ItemPtr item, std::exception_ptr err) {
  if (!item->supervised || !retry_.enabled()) {
    fail_item(std::move(item), err);
    return;
  }
  const RetryVerdict v = decide_retry(retry_, backoff_, stats_, err,
                                      item->attempt, item->start_sim);
  if (v.terminal != nullptr) {
    fail_item(std::move(item), v.terminal);
    return;
  }
  ++item->attempt;
  const double now = simnet::sim_now();
  if (tracer_ != nullptr) {
    // The parked interval [now, now + delay): visible in the trace as a
    // backoff lane under the same op id as the task being replayed.
    obs::Span park;
    park.op_id = item->span.op_id;
    park.kind = obs::SpanKind::kBackoff;
    park.enqueue = park.dequeue = park.wire_start = now;
    park.wire_end = now + v.delay;
    tracer_->record(park);
  }
  defer(std::move(item), now + v.delay);
}

void AsyncEngine::defer(ItemPtr item, double due) {
  std::unique_lock lk(defer_mu_);
  if (timer_stop_) {
    lk.unlock();
    fail_item(std::move(item), shutdown_error());
    return;
  }
  if (!timer_.joinable()) timer_ = std::thread([this] { timer_loop(); });
  deferred_.push_back(Deferred{due, std::move(item)});
  std::push_heap(deferred_.begin(), deferred_.end(), kLaterDue);
  defer_cv_.notify_all();
}

void AsyncEngine::timer_loop() {
  std::unique_lock lk(defer_mu_);
  for (;;) {
    if (timer_stop_) {
      // Shutdown: fail what is still parked instead of waiting out backoffs.
      std::vector<Deferred> parked = std::move(deferred_);
      deferred_.clear();
      lk.unlock();
      for (Deferred& d : parked)
        fail_item(std::move(d.item), shutdown_error());
      return;
    }
    if (deferred_.empty()) {
      defer_cv_.wait(lk);
      continue;
    }
    const double due = deferred_.front().due;
    if (simnet::sim_now() < due) {
      defer_cv_.wait_until(lk, simnet::wall_deadline(due));
      continue;
    }
    std::pop_heap(deferred_.begin(), deferred_.end(), kLaterDue);
    ItemPtr item = std::move(deferred_.back().item);
    deferred_.pop_back();
    lk.unlock();
    // Back into the FIFO behind whatever is queued, without waiting for
    // room. The item keeps its sequence number, so drain() keeps waiting.
    if (!enqueue(item, Room::kIgnore, /*replay=*/true))
      fail_item(std::move(item), shutdown_error());
    lk.lock();
  }
}

}  // namespace remio::semplar
