// Shared pieces of the benchmark: command line, seeded op streams, the
// payload function reads are verified against, the unshaped world every
// unshaped workload runs in, sample statistics, and result reporting.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/srbfs.hpp"
#include "mpiio/file.hpp"
#include "simnet/fabric.hpp"
#include "srb/server.hpp"

namespace perfbench {

using remio::ByteSpan;
using remio::Bytes;
using remio::MutByteSpan;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
/// Throws std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

/// Restricts this process, and every thread it starts later, to the CPU the
/// calling thread runs on. Returns that CPU, or -1 when it could not.
int pin_to_current_cpu();

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- seeded inputs -----------------------------------------------------------

/// One application request, as the benchmark generates it. `barrier` makes
/// the issuing loop wait for every request in flight first (phase change).
struct Op {
  bool write = false;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  bool barrier = false;
};

/// Fills `out` with the bytes a write of `version` puts at `offset`: a pure
/// function of (seed, offset, version), so any read can be checked without
/// keeping a copy of the object. Cheap enough (one multiply per 8 bytes) to
/// stay small beside a 1 MB transfer.
void fill_payload(std::uint64_t seed, std::uint64_t offset,
                  std::uint32_t version, MutByteSpan out);
bool check_payload(std::uint64_t seed, std::uint64_t offset,
                   std::uint32_t version, ByteSpan in);

/// Version of every slot of one object: bumped by each write, expected by
/// each read. Ops are slot-aligned and a loop never has two requests on one
/// slot in flight, so the expected bytes of a read are known at issue time.
class ObjectModel {
 public:
  ObjectModel(std::uint64_t seed, std::uint64_t object_bytes,
              std::uint32_t slot_bytes);

  /// Versions for each slot `op` covers; bumps them first for a write.
  void apply(const Op& op, std::vector<std::uint32_t>& versions);
  void fill(const Op& op, const std::vector<std::uint32_t>& versions,
            MutByteSpan out) const;
  bool check(const Op& op, const std::vector<std::uint32_t>& versions,
             ByteSpan in) const;

  std::uint64_t object_bytes() const { return object_bytes_; }

 private:
  std::uint64_t seed_;
  std::uint64_t object_bytes_;
  std::uint32_t slot_bytes_;
  std::vector<std::uint32_t> version_;
};

/// How a workload's ops are generated.
enum class Pattern {
  kMixed,    // 50/50 read/write of op_bytes at random aligned offsets
  kBulk,     // write every block in a seeded order, then read every block
  kRestart,  // laplace shape: write each rank's slice, read it back in chunks
};

/// Deterministic op stream: the same seed yields the same ops.
class OpStream {
 public:
  OpStream(Pattern pattern, std::uint64_t seed, std::uint64_t object_bytes,
           std::uint32_t op_bytes, int window);
  Op next();

 private:
  void refill_phase();

  Pattern pattern_;
  remio::Rng rng_;
  std::uint64_t slots_;
  std::uint32_t op_bytes_;
  int window_;
  std::deque<std::uint64_t> recent_;  // slots of the last window-1 ops
  std::vector<Op> phase_;             // kBulk / kRestart: queued ops
  std::size_t pos_ = 0;
};

// --- the unshaped world -----------------------------------------------------

/// How a workload drives the stack.
struct Shape {
  int streams = 1;
  int io_threads = 0;
  bool async = false;
  int window = 1;
};

/// A fabric whose two hosts have zero latency and no token buckets, an
/// unshaped broker store, and a SEMPLAR config with tcp_window = 0; every
/// other Config field keeps its default. At time scale 1 only the code's own
/// cost remains, and the simulated clock runs at wall speed.
class UnshapedWorld {
 public:
  static constexpr const char* kClientHost = "client";
  static constexpr const char* kServerHost = "orion";
  static constexpr const char* kPath = "/bench/object";

  explicit UnshapedWorld(const Shape& shape);
  ~UnshapedWorld();
  UnshapedWorld(const UnshapedWorld&) = delete;
  UnshapedWorld& operator=(const UnshapedWorld&) = delete;

  remio::simnet::Fabric& fabric() { return fabric_; }
  const remio::semplar::Config& config() const { return cfg_; }
  remio::semplar::SrbfsDriver& driver() { return *driver_; }

 private:
  remio::simnet::Fabric fabric_;
  std::unique_ptr<remio::srb::SrbServer> server_;
  remio::semplar::Config cfg_;
  std::unique_ptr<remio::semplar::SrbfsDriver> driver_;
};

/// Writes the whole object once in 1 MB pieces through
/// `write(offset, bytes)`, bumping every slot to version 1.
template <class Write>
void prefill(ObjectModel& model, Write&& write) {
  constexpr std::uint64_t kChunk = 1u << 20;
  Bytes buf(kChunk);
  std::vector<std::uint32_t> versions;
  for (std::uint64_t off = 0; off < model.object_bytes(); off += kChunk) {
    Op op;
    op.write = true;
    op.offset = off;
    op.len = static_cast<std::uint32_t>(std::min(kChunk, model.object_bytes() - off));
    model.apply(op, versions);
    const MutByteSpan out(buf.data(), op.len);
    model.fill(op, versions, out);
    write(op.offset, ByteSpan(out));
  }
}

// --- statistics and output ---------------------------------------------------

double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Collects what a run prints: human-readable lines as it goes, and the
/// metrics that make up the final JSON line.
class Report {
 public:
  /// A metric of the JSON line (and printed).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Printed for information only; `note` says why it is not in the JSON.
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  void line(const std::string& text);
  /// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Outcome counters shared by every workload.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // thrown errors and failed wait_status()
  std::uint64_t mismatched = 0;  // reads whose bytes were wrong

  void add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
  }
  std::uint64_t bad() const { return failed + mismatched; }
};

/// Prints the tally and fail_ratio; returns true when nothing went wrong.
bool report_tally(Report& rep, const Tally& t);

}  // namespace perfbench
