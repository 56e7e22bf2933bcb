#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

// --- payloads ------------------------------------------------------------------

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t payload_base(std::uint64_t seed, std::uint64_t offset,
                           std::uint32_t version) {
  return mix64(seed ^ mix64(offset ^ mix64(0x632be59bd9b4e019ULL + version)));
}

constexpr std::uint64_t kStep = 0x9e3779b97f4a7c15ULL;

}  // namespace

void fill_payload(std::uint64_t seed, std::uint64_t offset,
                  std::uint32_t version, MutByteSpan out) {
  const std::uint64_t base = payload_base(seed, offset, version);
  const std::size_t words = out.size() / 8;
  char* p = out.data();
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t w = base ^ (i * kStep);
    std::memcpy(p + 8 * i, &w, 8);
  }
  for (std::size_t j = words * 8; j < out.size(); ++j)
    p[j] = static_cast<char>(base >> (8 * (j % 8)));
}

bool check_payload(std::uint64_t seed, std::uint64_t offset,
                   std::uint32_t version, ByteSpan in) {
  const std::uint64_t base = payload_base(seed, offset, version);
  const std::size_t words = in.size() / 8;
  const char* p = in.data();
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, p + 8 * i, 8);
    diff |= w ^ (base ^ (i * kStep));
  }
  for (std::size_t j = words * 8; j < in.size(); ++j)
    diff |= static_cast<std::uint8_t>(p[j] ^ static_cast<char>(base >> (8 * (j % 8))));
  return diff == 0;
}

ObjectModel::ObjectModel(std::uint64_t seed, std::uint64_t object_bytes,
                         std::uint32_t slot_bytes)
    : seed_(seed),
      object_bytes_(object_bytes),
      slot_bytes_(slot_bytes),
      version_(object_bytes / slot_bytes, 0) {}

void ObjectModel::apply(const Op& op, std::vector<std::uint32_t>& versions) {
  const std::size_t first = op.offset / slot_bytes_;
  const std::size_t count = op.len / slot_bytes_;
  versions.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (op.write) ++version_[first + i];
    versions[i] = version_[first + i];
  }
}

void ObjectModel::fill(const Op& op, const std::vector<std::uint32_t>& versions,
                       MutByteSpan out) const {
  for (std::size_t i = 0; i < versions.size(); ++i)
    fill_payload(seed_, op.offset + i * slot_bytes_, versions[i],
                 out.subspan(i * slot_bytes_, slot_bytes_));
}

bool ObjectModel::check(const Op& op, const std::vector<std::uint32_t>& versions,
                        ByteSpan in) const {
  if (in.size() != op.len) return false;
  for (std::size_t i = 0; i < versions.size(); ++i)
    if (!check_payload(seed_, op.offset + i * slot_bytes_, versions[i],
                       in.subspan(i * slot_bytes_, slot_bytes_)))
      return false;
  return true;
}

// --- op streams ----------------------------------------------------------------

OpStream::OpStream(Pattern pattern, std::uint64_t seed,
                   std::uint64_t object_bytes, std::uint32_t op_bytes, int window)
    : pattern_(pattern),
      rng_(seed),
      slots_(object_bytes / op_bytes),
      op_bytes_(op_bytes),
      window_(window) {}

Op OpStream::next() {
  if (pattern_ == Pattern::kMixed) {
    // A request never lands on a slot still in flight: with a FIFO window
    // of W, those are exactly the previous W-1 slots.
    std::uint64_t slot;
    do {
      slot = rng_.below(slots_);
    } while (std::find(recent_.begin(), recent_.end(), slot) != recent_.end());
    recent_.push_back(slot);
    if (static_cast<int>(recent_.size()) >= window_) recent_.pop_front();
    Op op;
    op.write = (rng_.next() >> 63) != 0;
    op.offset = slot * op_bytes_;
    op.len = op_bytes_;
    return op;
  }
  if (pos_ == phase_.size()) refill_phase();
  return phase_[pos_++];
}

void OpStream::refill_phase() {
  phase_.clear();
  pos_ = 0;
  auto permutation = [&] {
    std::vector<std::uint64_t> p(slots_);
    for (std::uint64_t i = 0; i < slots_; ++i) p[i] = i;
    for (std::uint64_t i = slots_; i > 1; --i) std::swap(p[i - 1], p[rng_.below(i)]);
    return p;
  };
  auto add = [&](bool write, std::uint64_t offset, std::uint64_t len,
                 bool barrier) {
    Op op;
    op.write = write;
    op.offset = offset;
    op.len = static_cast<std::uint32_t>(len);
    op.barrier = barrier;
    phase_.push_back(op);
  };
  const std::uint64_t object = slots_ * op_bytes_;
  if (pattern_ == Pattern::kBulk) {
    bool first = true;
    for (const std::uint64_t s : permutation()) {
      add(true, s * op_bytes_, op_bytes_, first);
      first = false;
    }
  } else {
    // Two ranks checkpoint their halves of the grid.
    add(true, 0, object / 2, true);
    add(true, object / 2, object - object / 2, false);
  }
  bool first = true;
  for (const std::uint64_t s : permutation()) {
    add(false, s * op_bytes_, op_bytes_, first);
    first = false;
  }
}

// --- unshaped world ------------------------------------------------------------

UnshapedWorld::UnshapedWorld(const Shape& shape) {
  remio::simnet::HostSpec server;
  server.name = kServerHost;
  fabric_.add_host(server);
  remio::simnet::HostSpec client;
  client.name = kClientHost;
  fabric_.add_host(client);

  remio::srb::ServerConfig scfg;
  scfg.host = kServerHost;
  server_ = std::make_unique<remio::srb::SrbServer>(fabric_, scfg);
  server_->start();

  cfg_.client_host = kClientHost;
  cfg_.server_host = kServerHost;
  cfg_.server_port = scfg.port;
  cfg_.streams_per_node = shape.streams;
  cfg_.io_threads = shape.io_threads;
  cfg_.conn.tcp_window = 0;
  driver_ = std::make_unique<remio::semplar::SrbfsDriver>(fabric_, cfg_);
}

UnshapedWorld::~UnshapedWorld() {
  driver_.reset();
  server_->stop();
  fabric_.shutdown();
}

// --- statistics and output -------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b =
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
  std::printf("  %-28s %14.4f %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
}

void Report::info(const std::string& name, double value, const std::string& unit,
                  const std::string& note) {
  std::printf("  %-28s %14.4f %-6s (info%s%s)\n", name.c_str(), value,
              unit.c_str(), note.empty() ? "" : ": ", note.c_str());
  std::fflush(stdout);
}

void Report::line(const std::string& text) {
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

void Report::print_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool report_tally(Report& rep, const Tally& t) {
  const double ratio =
      t.attempted == 0 ? 0.0
                       : static_cast<double>(t.bad()) / static_cast<double>(t.attempted);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%llu attempted, %llu failed, %llu read back wrong",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.mismatched));
  rep.info("fail_ratio", ratio, "ratio", buf);
  return t.attempted > 0 && t.bad() == 0;
}

}  // namespace perfbench
