#include "core/compress_pipe.hpp"

#include "obs/tracer.hpp"
#include "simnet/timescale.hpp"

namespace remio::semplar {

CompressPipe::CompressPipe(mpiio::adio::FileHandle& file,
                           const compress::Codec& codec, std::uint64_t base_offset)
    : file_(file), codec_(codec), next_offset_(base_offset) {}

CompressPipe::~CompressPipe() {
  try {
    finish();
  } catch (...) {
    // finish() errors surface on the per-block requests; nothing to add here.
  }
}

mpiio::IoRequest CompressPipe::write(ByteSpan block) {
  mpiio::IoRequest req = mpiio::IoRequest::make();
  Item item;
  item.block.assign(block.begin(), block.end());
  item.state = req.state();
  item.pushed = simnet::sim_now();
  // The block's own request carries its outcome, so the task never throws
  // and the engine's request fails only when finish() shut the engine down.
  const mpiio::IoRequest task =
      engine_.submit([this, item = std::move(item)]() mutable {
        try {
          compress_and_ship(item);
        } catch (...) {
          mpiio::IoRequest::fail(item.state, std::current_exception());
        }
        return std::size_t{0};
      });
  if (!task.error().ok())
    mpiio::IoRequest::fail(req.state(),
                           std::make_exception_ptr(mpiio::IoError("pipe finished")));
  return req;
}

void CompressPipe::compress_and_ship(Item& item) {
  auto frame = std::make_shared<Bytes>();
  const double t0 = simnet::sim_now();
  compress::encode_frame(codec_, ByteSpan(item.block.data(), item.block.size()),
                         *frame);
  const double compress_time = simnet::sim_now() - t0;
  if (obs::Tracer* tracer = file_.tracer(); tracer != nullptr) {
    // Stage-overlap evidence for §7.3: the codec occupancy of block i
    // next to the wire occupancy of block i-1 in the same trace.
    obs::Span s;
    s.op_id = tracer->next_op_id();
    s.kind = obs::SpanKind::kCompress;
    s.bytes = item.block.size();
    s.enqueue = item.pushed;  // queue wait = pipeline backpressure
    s.dequeue = s.wire_start = t0;
    s.wire_end = t0 + compress_time;
    tracer->record(s);
  }

  // Block i is now compressed; only here do we require block i-1's
  // transmission to have finished (pipeline depth 1, like the paper).
  settle_in_flight();

  std::uint64_t offset;
  {
    std::lock_guard lk(stats_mu_);
    stats_.raw_bytes += item.block.size();
    stats_.wire_bytes += frame->size();
    stats_.blocks += 1;
    stats_.compress_sim_seconds += compress_time;
    offset = next_offset_;
    next_offset_ += frame->size();
  }

  in_flight_req_ = file_.iwrite_at(offset, ByteSpan(frame->data(), frame->size()));
  in_flight_frame_ = std::move(frame);
  in_flight_state_ = std::move(item.state);
  // A driver whose async verbs return already complete (ufs) leaves
  // nothing to overlap: complete the block now, not after the next one.
  if (in_flight_req_.test()) settle_in_flight();
}

void CompressPipe::settle_in_flight() {
  if (!in_flight_req_.valid()) return;
  try {
    mpiio::IoRequest::complete(in_flight_state_, in_flight_req_.wait());
  } catch (...) {
    mpiio::IoRequest::fail(in_flight_state_, std::current_exception());
  }
  in_flight_req_ = mpiio::IoRequest();
  in_flight_frame_.reset();
  in_flight_state_.reset();
}

void CompressPipe::finish() {
  {
    std::lock_guard lk(stats_mu_);
    if (finished_) return;
    finished_ = true;
  }
  engine_.shutdown();  // compresses every accepted block, then joins
  settle_in_flight();  // the last frame's write
}

CompressPipeStats CompressPipe::stats() const {
  std::lock_guard lk(stats_mu_);
  return stats_;
}

Bytes read_all_decompressed(mpiio::adio::FileHandle& file) {
  const std::uint64_t n = file.size();
  Bytes raw(n);
  std::size_t got = 0;
  while (got < raw.size()) {
    const std::size_t r =
        file.read_at(got, MutByteSpan(raw.data() + got, raw.size() - got));
    if (r == 0) throw mpiio::IoError("read_all_decompressed: short object");
    got += r;
  }
  return compress::decode_frame_stream(ByteSpan(raw.data(), raw.size()));
}

}  // namespace remio::semplar
