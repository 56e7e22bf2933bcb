// Shared pieces of the transport supervisor: the backoff schedule and the
// retry decision used by both retry loops — the blocking one in StreamPool
// (synchronous verbs) and the non-blocking deferred-replay one in
// AsyncEngine (asynchronous verbs).
//
// Classification itself lives in the error taxonomy (common/error.hpp):
// every library exception carries ErrorInfo, and
// remio::status_from_exception(...).retryable() is the single predicate
// deciding replay vs fail-fast.
#pragma once

#include <cstdint>
#include <exception>
#include <mutex>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"

namespace remio::semplar {

/// Capped exponential backoff with multiplicative jitter. Deterministic for
/// a given seed, thread-safe. delay(k) is the wait before replaying after
/// the (k+1)-th failure: uniform in (d * (1 - jitter), d] where
/// d = min(cap, base * 2^k).
class Backoff {
 public:
  Backoff(const Config::Retry& retry, std::uint64_t seed)
      : retry_(retry), rng_(seed) {}

  double delay(int attempt);

 private:
  Config::Retry retry_;
  std::mutex mu_;
  Rng rng_;
};

/// What a retry loop does after a failed attempt: fail the op with
/// `terminal` when it is set, otherwise replay it after `delay` sim-seconds.
struct RetryVerdict {
  std::exception_ptr terminal;
  double delay = 0.0;
};

/// The supervisor's retry policy for attempt `attempt` (0-based) of an op
/// first submitted at sim time `start`, which failed with `err`. Requires
/// retry.enabled(). A non-retryable error, or the max_attempts-th failure,
/// is terminal as it stands. Otherwise the delay is backoff.delay(attempt);
/// if replaying after it would overrun op_deadline the verdict is a
/// kDeadline error (counted in `stats`), else the replay is counted there.
RetryVerdict decide_retry(const Config::Retry& retry, Backoff& backoff,
                          Stats* stats, std::exception_ptr err, int attempt,
                          double start);

}  // namespace remio::semplar
