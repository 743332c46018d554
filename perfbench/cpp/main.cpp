//===- perfbench/cpp/main.cpp - Repository benchmark driver ---------------===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// perfbench --workload compile-huge|sweep-paper|serve-mixed --seed N
//           --seconds S --trace 0|1 [--inject-fault reorder]
//
// Runs one workload and prints a report followed by one JSON result line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 measures the
// end-to-end metrics; --trace 1 replays the workload's inputs layer by
// layer and reports the per-layer metrics. --inject-fault corrupts one
// compiled output before the output gate, which must then fail. Exit code
// 0 when the gate passes, 1 when it fails, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile-huge|sweep-paper|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--inject-fault reorder]\n",
               Message);
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0')
    return false;
  Out = Value;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  Opts.HardwareThreads = std::max(1u, std::thread::hardware_concurrency());
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    uint64_t N = 0;
    if (Arg == "--workload") {
      Opts.Workload = Value;
    } else if (Arg == "--seed" && parseUnsigned(Value, N)) {
      Opts.Seed = N;
    } else if (Arg == "--seconds" && parseUnsigned(Value, N) && N >= 1) {
      Opts.Seconds = static_cast<double>(N);
    } else if (Arg == "--trace" && parseUnsigned(Value, N) && N <= 1) {
      Opts.Trace = N == 1;
    } else if (Arg == "--inject-fault" && std::strcmp(Value, "reorder") == 0) {
      Opts.InjectFault = Value;
    } else {
      return usage(("bad argument " + Arg + " " + Value).c_str());
    }
  }
  if (Opts.Workload == "compile-huge")
    return runCompileHuge(Opts);
  if (Opts.Workload == "sweep-paper")
    return runSweepPaper(Opts);
  if (Opts.Workload == "serve-mixed")
    return runServeMixed(Opts);
  return usage("unknown workload");
}
