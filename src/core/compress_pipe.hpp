// Asynchronous on-the-fly compression (§7.3): blocks submitted by the
// compute thread are compressed by the one worker of a private AsyncEngine
// (the same Fig. 2 FIFO queue SEMPLAR's I/O runs on) and the resulting
// self-delimiting frames are shipped through the file's asynchronous write
// path — so the compression of block i overlaps the transmission of block
// i-1, the exact pipeline the paper builds with 1 MB blocks, and nothing of
// either runs on the application's critical path.
//
// A compressed object is a back-to-back frame stream; read it back with
// read_all_decompressed() (or compress::decode_frame_stream on raw bytes).
#pragma once

#include <memory>
#include <mutex>

#include "compress/frame.hpp"
#include "core/async_engine.hpp"
#include "mpiio/adio.hpp"

namespace remio::semplar {

struct CompressPipeStats {
  std::uint64_t raw_bytes = 0;       // application payload accepted
  std::uint64_t wire_bytes = 0;      // frame bytes written to the file
  std::uint64_t blocks = 0;
  double compress_sim_seconds = 0.0;  // time spent inside the codec
};

class CompressPipe {
 public:
  /// `file` must outlive the pipe; frames are appended through its
  /// iwrite_at starting at file offset `base_offset`.
  CompressPipe(mpiio::adio::FileHandle& file, const compress::Codec& codec,
               std::uint64_t base_offset = 0);
  ~CompressPipe();

  CompressPipe(const CompressPipe&) = delete;
  CompressPipe& operator=(const CompressPipe&) = delete;

  /// Hands one block to the pipeline and returns immediately (§7.3 writes
  /// 1 MB blocks). The returned request completes when the block's frame
  /// has been written. The block is copied into the pipeline, so the caller
  /// may reuse its buffer at once — compression needs a stable source and
  /// runs off the caller's thread.
  mpiio::IoRequest write(ByteSpan block);

  /// Flushes the pipeline: every accepted block is compressed and written.
  void finish();

  CompressPipeStats stats() const;

 private:
  struct Item {
    Bytes block;
    std::shared_ptr<mpiio::IoRequest::State> state;
    double pushed = 0.0;  // sim time the block entered the pipeline
  };

  /// The compression stage of one block, run as an engine task: compress,
  /// settle block i-1's write, start block i's. Throws only before it hands
  /// the block's request on; the caller then fails that request.
  void compress_and_ship(Item& item);
  /// Waits for the in-flight frame write and completes its block's request.
  void settle_in_flight();

  mpiio::adio::FileHandle& file_;
  const compress::Codec& codec_;
  std::uint64_t next_offset_;

  mutable std::mutex stats_mu_;
  CompressPipeStats stats_;
  bool finished_ = false;

  // The frame whose write is in flight (pipeline depth 1, like the paper).
  // The write path does not copy (§4.3), so the frame stays alive here
  // while the next block compresses. Touched only by the engine's worker,
  // and by finish() after the worker has joined.
  std::shared_ptr<Bytes> in_flight_frame_;
  mpiio::IoRequest in_flight_req_;
  std::shared_ptr<mpiio::IoRequest::State> in_flight_state_;

  // One worker keeps frames in block order; 64 queued blocks of
  // backpressure. Declared last: its worker uses every member above.
  AsyncEngine engine_{1, 64};
};

/// Reads a whole frame-stream object and decompresses it.
Bytes read_all_decompressed(mpiio::adio::FileHandle& file);

}  // namespace remio::semplar
