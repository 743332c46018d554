//===- perfbench/cpp/SweepPaper.cpp - The sweep-paper workload ------------===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// The Table 2 matrix (8 Perfect Club programs x the paper's memory-system
// rows x each row's optimistic latencies) under UNLIMITED, MAX-8 and
// LEN-8: 408 cells through ExperimentEngine at a fixed worker count. Each
// pass uses a fresh engine, so its compile cache starts cold, exactly like
// one table binary's run. The Perfect Club generators are fixed by design;
// the seed sets SimulationConfig::Seed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Replay.h"

#include "ir/IrPrinter.h"
#include "pipeline/ExperimentEngine.h"
#include "workload/PerfectClub.h"

#include <map>
#include <memory>
#include <tuple>

using namespace bsched;

namespace perfbench {
namespace {

/// One paper system row: a memory system and the optimistic latencies the
/// traditional scheduler is evaluated with (section 4.5).
struct SystemRow {
  std::unique_ptr<MemorySystem> Memory;
  std::vector<double> OptimisticLatencies;
};

std::vector<SystemRow> paperRows() {
  std::vector<SystemRow> Rows;
  auto Add = [&](MemorySystem *M, std::vector<double> Lats) {
    Rows.push_back({std::unique_ptr<MemorySystem>(M), std::move(Lats)});
  };
  Add(new CacheSystem(0.80, 2, 5), {2, 2.6});
  Add(new CacheSystem(0.80, 2, 10), {2, 3.6});
  Add(new CacheSystem(0.95, 2, 5), {2, 2.15});
  Add(new CacheSystem(0.95, 2, 10), {2, 2.4});
  Add(new NetworkSystem(2, 2), {2});
  Add(new NetworkSystem(3, 2), {3});
  Add(new NetworkSystem(5, 2), {5});
  Add(new NetworkSystem(2, 5), {2});
  Add(new NetworkSystem(3, 5), {3});
  Add(new NetworkSystem(5, 5), {5});
  Add(new NetworkSystem(30, 5), {30});
  Add(new MixedSystem(0.80, 2, 30, 5), {2, 7.6});
  return Rows;
}

bool sameOutcome(const CellOutcome &A, const CellOutcome &B) {
  if (!A.ok() || !B.ok())
    return A.ok() == B.ok();
  const SchedulerComparison &X = *A.Comparison, &Y = *B.Comparison;
  return X.Improvement.MeanPercent == Y.Improvement.MeanPercent &&
         X.Improvement.Ci95.Lo == Y.Improvement.Ci95.Lo &&
         X.Improvement.Ci95.Hi == Y.Improvement.Ci95.Hi &&
         X.CandidateSim.BootstrapRuntimes == Y.CandidateSim.BootstrapRuntimes &&
         X.TraditionalSim.BootstrapRuntimes ==
             Y.TraditionalSim.BootstrapRuntimes &&
         printFunction(X.CandidateCompiled.Compiled) ==
             printFunction(Y.CandidateCompiled.Compiled) &&
         printFunction(X.TraditionalCompiled.Compiled) ==
             printFunction(Y.TraditionalCompiled.Compiled);
}

/// The inputs of a sweep-paper run. Cells point into Programs and Rows,
/// so the struct stays where it was built.
struct SweepInputs {
  std::vector<Function> Programs;
  std::vector<SystemRow> Rows;
  std::vector<ExperimentCell> Cells;
  std::vector<size_t> CellProgram; ///< Index into Programs of each cell.
};

std::unique_ptr<SweepInputs> makeInputs(uint64_t Seed) {
  auto In = std::make_unique<SweepInputs>();
  for (Benchmark B : allBenchmarks())
    In->Programs.push_back(buildBenchmark(B));
  In->Rows = paperRows();
  // One buffer of the final size: a vector grown by doubling crosses the
  // allocator's mmap threshold, and whether those buffers come back as
  // fresh pages (faulted in again on every set-up) depends on allocation
  // history, which made set-up time vary by half from run to run.
  size_t NumCells = 0;
  for (const SystemRow &Row : In->Rows)
    NumCells += 3 * In->Programs.size() * Row.OptimisticLatencies.size();
  In->Cells.reserve(NumCells);
  In->CellProgram.reserve(NumCells);
  for (ProcessorModel Model :
       {ProcessorModel::unlimited(), ProcessorModel::maxOutstanding(8),
        ProcessorModel::maxLength(8)}) {
    SimulationConfig Sim;
    Sim.Processor = Model;
    Sim.NumRuns = 30;
    Sim.NumResamples = 100;
    Sim.Seed = Seed * 0x9E3779B97F4A7C15ull + 0xB5C0FFEE;
    for (const SystemRow &Row : In->Rows)
      for (double OptLat : Row.OptimisticLatencies)
        for (size_t P = 0; P != In->Programs.size(); ++P) {
          In->Cells.push_back({Model.name() + "/" + Row.Memory->name() + "/" +
                                   std::to_string(OptLat) + "/" +
                                   In->Programs[P].name(),
                               &In->Programs[P], Row.Memory.get(), OptLat,
                               SchedulerPolicy::Balanced,
                               PipelineConfig::paperDefault(), Sim});
          In->CellProgram.push_back(P);
        }
  }
  return In;
}

} // namespace

int runSweepPaper(const Options &Opts) {
  Report Rep(Opts);
  const unsigned Workers = Opts.loadThreads();

  SetUpTimer SetUp;
  std::unique_ptr<SweepInputs> Inputs =
      SetUp.time([&] { return makeInputs(Opts.Seed); });
  const std::vector<Function> &Programs = Inputs->Programs;
  const std::vector<SystemRow> &Rows = Inputs->Rows;
  const std::vector<ExperimentCell> &Cells = Inputs->Cells;
  const std::vector<size_t> &CellProgram = Inputs->CellProgram;

  Rep.fact("load shape", "1 process; ExperimentEngine with " +
                             std::to_string(Workers) +
                             " jobs (min(4, nproc=" +
                             std::to_string(Opts.HardwareThreads) +
                             ")); no server, no connections");
  Rep.fact("inputs", std::to_string(Cells.size()) +
                         " cells: 8 Perfect Club programs (generators fixed) "
                         "x 17 system/latency rows x UNLIMITED, MAX-8, LEN-8; "
                         "seed sets SimulationConfig::Seed");

  if (Opts.Trace) {
    ReplayInputs In;
    for (const Function &F : Programs) {
      In.Kernels.push_back(&F);
      In.ServiceKernels.push_back(&F);
    }
    for (const SystemRow &Row : Rows)
      In.Systems.push_back(Row.Memory.get());
    In.Models = {ProcessorModel::unlimited(), ProcessorModel::maxOutstanding(8),
                 ProcessorModel::maxLength(8)};
    In.Workers = Workers;
    runReplay(Opts, In, Rep);
    return Rep.finish();
  }

  Samples PassCellsPerS, CellMs, HitCellMs, MissCellMs;
  EngineResult First;
  unsigned Passes = 0;
  Clock::time_point Start = Clock::now();
  do {
    ExperimentEngine Engine(Workers);
    Clock::time_point T0 = Clock::now();
    EngineResult Result = Engine.run(Cells);
    double Ms = msSince(T0);
    PassCellsPerS.add(1000.0 * static_cast<double>(Cells.size()) / Ms);
    for (size_t I = 0; I != Result.Cells.size(); ++I) {
      const CellOutcome &C = Result.Cells[I];
      Rep.attempt(C.ok());
      if (!C.ok())
        Rep.fail("sweep-paper cell '" + C.Label + "'", C.firstError());
      CellMs.add(C.WallMillis);
      (C.CacheMisses == 0 ? HitCellMs : MissCellMs).add(C.WallMillis);
      if (Passes != 0 && !sameOutcome(C, First.Cells[I]))
        Rep.fail("sweep-paper cell '" + C.Label + "'",
                 "pass " + std::to_string(Passes) +
                     " differs from the first pass");
    }
    if (Passes == 0)
      First = std::move(Result);
    ++Passes;

    // A throwaway set-up between passes, for setup_s.
    (void)SetUp.time([&] { return makeInputs(Opts.Seed); });
  } while (msSince(Start) < Opts.Seconds * 1000.0);

  // The fault goes into the first cell whose balanced compile has a store
  // to move.
  for (CellOutcome &C : First.Cells) {
    if (Opts.InjectFault.empty() || !C.ok())
      break;
    std::string Block = injectFault(C.Comparison->CandidateCompiled.Compiled);
    if (Block.empty())
      continue;
    Rep.fact("injected fault", "moved a store below the redefinition of its "
                               "address register in cell '" + C.Label +
                               "' block '" + Block + "'");
    break;
  }

  // Gate 1 and 2: every distinct compilation of the first pass (the
  // balanced one per program, the traditional one per program and
  // optimistic latency) is interpreted against its input and checked
  // against the simulator identities.
  std::map<std::tuple<size_t, int, double>, bool> Checked;
  double DynInstrs = 0.0, DynSpills = 0.0, GainSum = 0.0;
  unsigned Distinct = 0;
  for (size_t I = 0; I != First.Cells.size(); ++I) {
    const CellOutcome &C = First.Cells[I];
    if (!C.ok())
      continue;
    GainSum += C.Comparison->Improvement.MeanPercent;
    const Function &Input = Programs[CellProgram[I]];
    auto Check = [&](const CompiledFunction &Out, int Policy, double Lat) {
      if (!Checked.emplace(std::make_tuple(CellProgram[I], Policy, Lat), true)
               .second)
        return;
      ++Distinct;
      std::string Where = "sweep-paper cell '" + C.Label + "' kernel '" +
                          Input.name() + "' (" +
                          (Policy ? "balanced" : "traditional") + ")";
      std::string Problem =
          checkSemantics(Input, Out.Compiled, Input.numAliasClasses());
      if (!Problem.empty())
        Rep.fail(Where, Problem);
      Problem = checkSimIdentities(Out.Compiled);
      if (!Problem.empty())
        Rep.fail(Where, Problem);
      if (Policy) {
        DynInstrs += Out.DynamicInstructions;
        DynSpills += Out.DynamicSpills;
      }
    };
    Check(C.Comparison->CandidateCompiled, 1, 0.0);
    Check(C.Comparison->TraditionalCompiled, 0, Cells[I].OptimisticLatency);
  }

  // Gate 3: a spread subset of cells is bit-identical at one worker.
  std::vector<ExperimentCell> Subset;
  std::vector<size_t> SubsetIndex;
  for (size_t I = 0; I < Cells.size(); I += 17) {
    Subset.push_back(Cells[I]);
    SubsetIndex.push_back(I);
  }
  EngineResult Serial = ExperimentEngine(1).run(Subset);
  for (size_t I = 0; I != Subset.size(); ++I)
    if (!sameOutcome(Serial.Cells[I], First.Cells[SubsetIndex[I]]))
      Rep.fail("sweep-paper cell '" + Subset[I].Label + "'",
               "1-worker result differs from the " + std::to_string(Workers) +
                   "-worker result");

  Rep.fact("passes", std::to_string(Passes) + " (fresh engine each)");
  Rep.fact("gate", std::to_string(Distinct) +
                       " distinct compiles interpreted and sim-checked; " +
                       std::to_string(Subset.size()) +
                       " cells re-run at 1 worker");
  Rep.metric("setup_s", SetUp.samples().median(), "s",
             "median of " + std::to_string(SetUp.samples().size()) +
                 " set-ups, one before the run and one after each pass");
  Rep.decileOf("throughput_per_s", PassCellsPerS, "1/s", /*Throughput=*/true);
  Rep.decileOf("latency_ms_p10", CellMs, "ms");
  Rep.decileOf("hit_ms_p10", HitCellMs, "ms");
  Rep.decileOf("miss_ms_p10", MissCellMs, "ms");
  reportGain(Rep, GainSum / static_cast<double>(First.Cells.size()),
             "the first pass's cells");
  Rep.metric("spill_pct", 100.0 * DynSpills / DynInstrs, "%",
             "dynamic spill share of the balanced compiles");
  Rep.metric("ok_ratio",
             1.0 - static_cast<double>(Rep.failed()) /
                       static_cast<double>(Rep.attempted()),
             "ratio", "1 - failed/attempted operations");
  Rep.metric("peak_rss_mb", peakRssMb(), "MB");
  return Rep.finish();
}

} // namespace perfbench
