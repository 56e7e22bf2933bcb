#include "simnet/faults.hpp"

#include <algorithm>

namespace remio::simnet {

namespace {
bool tag_matches(const std::string& tag, const std::string& needle) {
  return needle.empty() || tag.find(needle) != std::string::npos;
}
}  // namespace

void FaultInjector::set_drop_probability(double p) {
  std::lock_guard lk(mu_);
  drop_p_ = p;
}

void FaultInjector::set_connect_failure_probability(double p) {
  std::lock_guard lk(mu_);
  connect_fail_p_ = p;
}

void FaultInjector::set_latency_spike(double p, double sim_seconds) {
  std::lock_guard lk(mu_);
  spike_p_ = p;
  spike_s_ = sim_seconds;
}

void FaultInjector::set_corrupt_probability(double p,
                                            const std::string& tag_substr) {
  std::lock_guard lk(mu_);
  corrupt_p_ = p;
  corrupt_tag_ = tag_substr;
}

void FaultInjector::set_rot_hook(
    std::function<void(std::uint64_t, std::uint64_t)> hook) {
  std::lock_guard lk(mu_);
  rot_hook_ = std::move(hook);
}

void FaultInjector::rot(std::uint64_t object_id, std::uint64_t offset) {
  std::function<void(std::uint64_t, std::uint64_t)> hook;
  {
    std::lock_guard lk(mu_);
    hook = rot_hook_;
    if (hook) ++rots_;
  }
  // Invoke outside the lock: the hook takes store-side mutexes.
  if (hook) hook(object_id, offset);
}

void FaultInjector::arm_kill(const std::string& tag_substr) {
  std::lock_guard lk(mu_);
  armed_kill_ = tag_substr;
}

void FaultInjector::ban(const std::string& tag_substr) {
  std::lock_guard lk(mu_);
  bans_.push_back(tag_substr);
}

void FaultInjector::unban(const std::string& tag_substr) {
  std::lock_guard lk(mu_);
  bans_.erase(std::remove(bans_.begin(), bans_.end(), tag_substr), bans_.end());
}

std::array<Rng, FaultInjector::kStreamCount> FaultInjector::streams_for(
    std::uint64_t s) {
  std::array<Rng, kStreamCount> streams;
  streams.fill(Rng(s));
  return streams;
}

void FaultInjector::seed(std::uint64_t s) {
  std::lock_guard lk(mu_);
  rng_ = streams_for(s);
}

std::uint64_t FaultInjector::drops() const {
  std::lock_guard lk(mu_);
  return drops_;
}

std::uint64_t FaultInjector::refused_connects() const {
  std::lock_guard lk(mu_);
  return refused_;
}

std::uint64_t FaultInjector::latency_spikes() const {
  std::lock_guard lk(mu_);
  return spikes_;
}

std::uint64_t FaultInjector::corruptions() const {
  std::lock_guard lk(mu_);
  return corruptions_;
}

std::uint64_t FaultInjector::rots() const {
  std::lock_guard lk(mu_);
  return rots_;
}

bool FaultInjector::fail_connect(const std::string& tag) {
  std::lock_guard lk(mu_);
  for (const auto& b : bans_) {
    if (tag_matches(tag, b)) {
      ++refused_;
      return true;
    }
  }
  if (connect_fail_p_ > 0 && rng_[kConnect].chance(connect_fail_p_)) {
    ++refused_;
    return true;
  }
  return false;
}

bool FaultInjector::drop_send(const std::string& tag) {
  std::lock_guard lk(mu_);
  if (armed_kill_ && tag_matches(tag, *armed_kill_)) {
    armed_kill_.reset();
    ++drops_;
    return true;
  }
  if (drop_p_ > 0 && rng_[kDrop].chance(drop_p_)) {
    ++drops_;
    return true;
  }
  return false;
}

bool FaultInjector::corrupt_send(const std::string& tag, std::uint64_t nbits,
                                 std::uint64_t& bit) {
  std::lock_guard lk(mu_);
  if (corrupt_p_ <= 0 || nbits == 0 || !tag_matches(tag, corrupt_tag_))
    return false;
  if (!rng_[kCorrupt].chance(corrupt_p_)) return false;
  bit = rng_[kCorrupt].next() % nbits;
  ++corruptions_;
  return true;
}

double FaultInjector::latency_penalty() {
  std::lock_guard lk(mu_);
  if (spike_p_ > 0 && rng_[kSpike].chance(spike_p_)) {
    ++spikes_;
    return spike_s_;
  }
  return 0.0;
}

}  // namespace remio::simnet
