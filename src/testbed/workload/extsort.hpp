// Out-of-core external sort: materialize a synthetic input region, sort it
// in memory-sized runs (read run, modelled sort compute, write run), then
// K-way merge passes until one run remains. The merge reads interleave
// across the K inputs, but each read is one contiguous block (read_at);
// the generator makes no vectored calls.
//
// Params:
//   data-mb     total dataset size, MB          (default 8)
//   mem-mb      in-memory run size, MB          (default 2)
//   fanin       merge fan-in K                  (default 4)
//   block-kb    transfer block size, KiB        (default 256)
//   sort-ms-mb  modelled sort cost, ms per MB   (default 12)
//   merge-ms-mb modelled merge cost, ms per MB  (default 4)
#pragma once

#include <memory>

#include "testbed/workload/generator.hpp"

namespace remio::testbed::workload {

std::unique_ptr<WorkloadGenerator> make_extsort();

}  // namespace remio::testbed::workload
