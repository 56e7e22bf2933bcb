#include "core/config.hpp"

#include <stdexcept>

namespace remio::semplar {

void validate(const Config& cfg) {
  if (cfg.client_host.empty())
    throw std::invalid_argument("semplar::Config: client_host is empty");
  if (cfg.server_host.empty())
    throw std::invalid_argument("semplar::Config: server_host is empty");
  if (cfg.streams_per_node < 1)
    throw std::invalid_argument("semplar::Config: streams_per_node must be >= 1");
  if (cfg.streams_per_node > 64)
    throw std::invalid_argument("semplar::Config: streams_per_node > 64");
  if (cfg.io_threads < 0 || cfg.io_threads > 256)
    throw std::invalid_argument("semplar::Config: io_threads out of range");
  if (cfg.tenant.find('/') != std::string::npos)
    throw std::invalid_argument("semplar::Config: tenant must not contain '/'");
  // stripe_size: any value is legal; Config::kAutoStripe (0) selects the
  // contiguous even split.
  if (cfg.queue_capacity == 0)
    throw std::invalid_argument("semplar::Config: queue_capacity must be > 0");
  if (cfg.cache_block_bytes == 0)
    throw std::invalid_argument("semplar::Config: cache_block_bytes must be > 0");
  if (cfg.cache_bytes != 0 && cfg.cache_bytes < cfg.cache_block_bytes)
    throw std::invalid_argument(
        "semplar::Config: cache_bytes must hold at least one block");
  if (cfg.readahead_blocks < 0 || cfg.readahead_blocks > 1024)
    throw std::invalid_argument("semplar::Config: readahead_blocks out of range");
  if (cfg.cache_bytes == 0 && cfg.readahead_blocks > 0)
    throw std::invalid_argument(
        "semplar::Config: readahead_blocks needs cache_bytes > 0");
  if (cfg.cache_bytes == 0 && cfg.writeback_hwm > 0)
    throw std::invalid_argument(
        "semplar::Config: writeback_hwm needs cache_bytes > 0");
  if (cfg.writeback_hwm > cfg.cache_bytes)
    throw std::invalid_argument(
        "semplar::Config: writeback_hwm exceeds cache_bytes");
  if (cfg.sieve.max_hull_bytes == 0)
    throw std::invalid_argument(
        "semplar::Config: sieve.max_hull_bytes must be > 0");
  if (cfg.sieve.max_extents_per_msg == 0)
    throw std::invalid_argument(
        "semplar::Config: sieve.max_extents_per_msg must be > 0");
  if (cfg.conn.quantum == 0)
    throw std::invalid_argument("semplar::Config: conn.quantum must be > 0");
  if (cfg.conn.buffer_bytes == 0)
    throw std::invalid_argument(
        "semplar::Config: conn.buffer_bytes must be > 0");
  if (cfg.retry.max_attempts < 0 || cfg.retry.max_attempts > 1000)
    throw std::invalid_argument(
        "semplar::Config: retry.max_attempts out of range [0, 1000]");
  if (cfg.retry.backoff_base < 0.0)
    throw std::invalid_argument(
        "semplar::Config: retry.backoff_base must be >= 0");
  if (cfg.retry.backoff_cap < cfg.retry.backoff_base)
    throw std::invalid_argument(
        "semplar::Config: retry.backoff_cap must be >= retry.backoff_base");
  if (cfg.retry.jitter < 0.0 || cfg.retry.jitter >= 1.0)
    throw std::invalid_argument(
        "semplar::Config: retry.jitter must be in [0, 1)");
  if (cfg.retry.op_deadline < 0.0)
    throw std::invalid_argument(
        "semplar::Config: retry.op_deadline must be >= 0");
  if (cfg.obs.enabled && cfg.obs.ring_capacity == 0)
    throw std::invalid_argument(
        "semplar::Config: obs.ring_capacity must be > 0 when obs is enabled");
  if (cfg.obs.ring_capacity > (1u << 24))
    throw std::invalid_argument(
        "semplar::Config: obs.ring_capacity > 2^24 (bound the trace memory)");
}

}  // namespace remio::semplar
