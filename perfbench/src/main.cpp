// perfbench: the repository benchmark. One process runs one workload for
// --seconds and prints human-readable lines, then one JSON result line:
//
//   perfbench --workload <rpc4k|async4k|bulk1m|laplace_das2> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status is 0 only when every request succeeded and read back the
// bytes the seed says it should.
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 e.what());
    return 2;
  }

  const std::string& w = args.workload;
  const bool unshaped = w == "rpc4k" || w == "async4k" || w == "bulk1m";
  if (!unshaped && w != "laplace_das2") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", w.c_str());
    return 2;
  }

  Report rep;
  Tally tally;
  std::printf("perfbench: workload %s, seed %llu, %.1f s, %s\n", w.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "traced (per-layer metrics)" : "end-to-end metrics");
  if (unshaped && find_unshaped(w)->one_cpu) {
    // Before any thread exists, so every thread of the world inherits it.
    const int cpu = pin_to_current_cpu();
    if (cpu < 0)
      std::printf("  could not pin to one CPU; running unpinned\n");
    else
      std::printf("  pinned to CPU %d with every thread it starts\n", cpu);
  }
  try {
    if (!unshaped)
      run_laplace_das2(args, rep, tally);
    else if (args.trace)
      run_unshaped_trace(*find_unshaped(w), args, rep, tally);
    else
      run_unshaped(*find_unshaped(w), args, rep, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const bool ok = report_tally(rep, tally);
  rep.print_json(ok, tally.attempted, tally.bad());
  return ok ? 0 : 1;
}
