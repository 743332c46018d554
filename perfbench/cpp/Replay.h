//===- perfbench/cpp/Replay.h - Traced per-layer replay ---------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run of every workload: it replays the workload's inputs
/// through each layer's public functions, one span per layer call, and
/// turns the spans and the library's `bsched.*` counters into the
/// per-layer metrics. The compile replay re-enacts runPipeline's order
/// (pass 1, allocateRegisters, pass 2, with the certifiers where the
/// pipeline runs them) and must produce runPipeline's exact output.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Bench.h"

#include "sim/Processor.h"

namespace perfbench {

/// The inputs a workload hands to the replay.
struct ReplayInputs {
  /// Kernels compiled by the pipeline replay, every pass.
  std::vector<const bsched::Function *> Kernels;
  /// Kernels of the engine layer (a subset of Kernels where those are too
  /// large to repeat).
  std::vector<const bsched::Function *> ServiceKernels;
  /// Requests of the parser and server layers, in the order the workload
  /// sends them. Empty: each service kernel twice, a miss then a hit.
  std::vector<const bsched::Function *> Requests;
  /// Memory systems and processor models of the sim and engine layers.
  std::vector<const bsched::MemorySystem *> Systems;
  std::vector<bsched::ProcessorModel> Models;
  /// Engine jobs and server workers (the workload's own counts).
  unsigned Workers = 1;
};

/// Runs replay passes for about Opts.Seconds, adds every per-layer metric
/// to \p Out (medians over passes), and writes the span trace of the first
/// pass into `.bench_build/`.
void runReplay(const Options &Opts, const ReplayInputs &In, Report &Out);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
