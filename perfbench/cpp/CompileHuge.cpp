//===- perfbench/cpp/CompileHuge.cpp - The compile-huge workload ----------===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Serial cold runPipeline (paper default, certification on, no cache, no
// WeighterPool) of buildHugeBlock at n = 512, 1024, 2048 and 4096. Each
// round compiles every size a fixed number of times, chosen so each size
// takes a comparable share of the wall time, in an order the seed
// shuffles. Hit operations re-request an already-compiled kernel from a
// CompileCache. The huge-block generator is fixed by design; the seed
// drives the compile order and the simulation seed of
// balanced_runtime_ratio.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Replay.h"

#include "ir/Interpreter.h"
#include "ir/IrPrinter.h"
#include "pipeline/CompileCache.h"
#include "support/Rng.h"
#include "workload/HugeBlocks.h"

#include <algorithm>
#include <cmath>
#include <optional>

using namespace bsched;

namespace perfbench {
namespace {

struct SizeClass {
  unsigned Size;
  unsigned PerRound; ///< Compiles per round (equal wall-time shares).
};

const SizeClass Sizes[] = {{512, 60}, {1024, 22}, {2048, 4}, {4096, 1}};

/// The inputs of a compile-huge run: one kernel per size and a round's
/// compile order.
struct HugeInputs {
  std::vector<Function> Kernels;
  std::vector<size_t> Order; ///< Indices into Kernels.
};

HugeInputs makeInputs(uint64_t Seed) {
  HugeInputs In;
  for (const SizeClass &C : Sizes)
    In.Kernels.push_back(buildHugeBlock(C.Size));
  for (size_t K = 0; K != std::size(Sizes); ++K)
    In.Order.insert(In.Order.end(), Sizes[K].PerRound, K);
  Rng R(Seed);
  for (size_t I = In.Order.size(); I > 1; --I)
    std::swap(In.Order[I - 1], In.Order[R.nextBounded(I)]);
  return In;
}

/// Geometric mean over the sizes of each size's lower decile, so that
/// every size weighs the same however long its compiles take. Appends the
/// per-size deciles to \p Note.
double meanOfDeciles(const std::vector<Samples> &PerSize, std::string &Note) {
  double LogSum = 0.0;
  for (const Samples &S : PerSize) {
    LogSum += std::log(S.quantile(0.1));
    Note += " " + std::to_string(S.quantile(0.1));
  }
  return std::exp(LogSum / static_cast<double>(PerSize.size()));
}

} // namespace

int runCompileHuge(const Options &Opts) {
  Report Rep(Opts);
  constexpr size_t NumSizes = std::size(Sizes);

  SetUpTimer SetUp;
  HugeInputs Inputs = SetUp.time([&] { return makeInputs(Opts.Seed); });
  const std::vector<Function> &Kernels = Inputs.Kernels;

  Rep.fact("load shape", "1 thread (serial compiles, moved round robin over "
                         "the CPUs), no engine, no server, no connections");
  Rep.fact("inputs", "buildHugeBlock n=512x60, 1024x22, 2048x4, 4096x1 per "
                     "round (generator fixed; seed shuffles the order)");

  if (Opts.Trace) {
    ReplayInputs In;
    for (const Function &F : Kernels)
      In.Kernels.push_back(&F);
    In.ServiceKernels = {&Kernels[0]};
    NetworkSystem Network(5, 2);
    In.Systems = {&gainMemory(), &Network};
    In.Models = {ProcessorModel::unlimited(), ProcessorModel::maxOutstanding(8),
                 ProcessorModel::maxLength(8)};
    In.Workers = Opts.loadThreads();
    runReplay(Opts, In, Rep);
    return Rep.finish();
  }

  // The reference memory image of every input block, interpreted once.
  std::vector<Interpreter::MemoryImage> InputImages;
  for (const Function &F : Kernels) {
    Interpreter I;
    I.run(F.block(0));
    InputImages.push_back(I.memoryImage());
  }

  const PipelineConfig Config = PipelineConfig::paperDefault();
  CompileCache Cache(CompileCacheConfig::unlimited());
  std::vector<Samples> ColdMs(NumSizes);
  Samples ColdMsAll;
  std::vector<Samples> HitMs(NumSizes);
  std::vector<std::optional<CompiledFunction>> First(NumSizes);
  std::vector<uint64_t> FirstHash(NumSizes);
  unsigned Rounds = 0;
  bool Injected = false;

  CpuRotation Rotation;

  // Hit probes re-request an already-compiled kernel from a compile cache
  // filled here (untimed). One probe follows each cold compile, cycling
  // through the sizes, so the probes spread over the whole run like the
  // compiles. They are not operations of the workload, so latency_ms_p10
  // is the cold compiles' alone.
  std::vector<uint64_t> CachedHash(NumSizes);
  for (size_t K = 0; K != NumSizes; ++K) {
    ErrorOr<CompiledFunction> Out = Cache.compile(Kernels[K], Config);
    Rep.attempt(Out.has_value());
    if (Out)
      CachedHash[K] = hashText(printFunction(Out->Compiled));
    else
      Rep.fail("compile-huge kernel '" + Kernels[K].name() + "'",
               "cache fill failed: " + Out.errorText());
  }
  size_t Probes = 0;

  Clock::time_point Start = Clock::now();
  do {
    for (size_t K : Inputs.Order) {
      const Function &Input = Kernels[K];
      Rotation.next();
      Clock::time_point T0 = Clock::now();
      ErrorOr<CompiledFunction> Out = runPipeline(Input, Config);
      double Ms = msSince(T0);
      Rep.attempt(Out.has_value());
      std::string Where = "compile-huge kernel '" + Input.name() + "'";
      if (!Out) {
        Rep.fail(Where, "runPipeline failed: " + Out.errorText());
        continue;
      }
      ColdMs[K].add(Ms);
      ColdMsAll.add(Ms);

      // Gate, untimed: every output must print identically to the first
      // compile of its size and is interpreted against the input.
      uint64_t Hash = hashText(printFunction(Out->Compiled));
      if (!First[K]) {
        First[K] = *Out;
        FirstHash[K] = Hash;
      } else if (Hash != FirstHash[K]) {
        Rep.fail(Where, "output differs from the first compile of this size");
      }
      if (!Opts.InjectFault.empty() && !Injected) {
        std::string Block = injectFault(Out->Compiled);
        Injected = !Block.empty();
        if (Injected)
          Rep.fact("injected fault", "moved a store below the redefinition of "
                                     "its address register in " + Where +
                                     " block '" + Block + "'");
      }
      Interpreter After;
      After.run(Out->Compiled.block(0));
      if (After.memoryImageExcluding(Input.numAliasClasses()) !=
          InputImages[K])
        Rep.fail(Where + " block 0 '" + Input.block(0).name() + "'",
                 "memory image differs from the interpreted input");

      size_t P = Probes++ % NumSizes;
      bool Hit = false;
      T0 = Clock::now();
      ErrorOr<CompiledFunction> Again = Cache.compile(Kernels[P], Config, &Hit);
      Ms = msSince(T0);
      Rep.attempt(Again.has_value() && Hit);
      if (!Again || !Hit ||
          hashText(printFunction(Again->Compiled)) != CachedHash[P])
        Rep.fail("compile-huge kernel '" + Kernels[P].name() + "'",
                 "cache re-request was not an identical hit");
      else
        HitMs[P].add(Ms);

      // A throwaway set-up between compiles, for setup_s.
      (void)SetUp.time([&] { return makeInputs(Opts.Seed); });
    }

    ++Rounds;
  } while (msSince(Start) < Opts.Seconds * 1000.0);

  // Gate on the first output of each size: simulator identities, and the
  // balanced-vs-traditional gain behind balanced_runtime_ratio.
  double Instrs = 0.0, ModeledMs = 0.0, DynInstrs = 0.0, DynSpills = 0.0;
  Samples Gains;
  for (size_t K = 0; K != NumSizes; ++K) {
    std::string Where = "compile-huge kernel '" + Kernels[K].name() + "'";
    if (!First[K])
      continue;
    if (CachedHash[K] != FirstHash[K])
      Rep.fail(Where, "cached output differs from the cold compile");
    std::string Problem = checkSimIdentities(First[K]->Compiled);
    if (!Problem.empty())
      Rep.fail(Where, Problem);
    ErrorOr<double> Gain = balancedGain(Kernels[K], *First[K], Opts.Seed);
    if (Gain)
      Gains.add(*Gain);
    else
      Rep.fail(Where, "gain simulation failed: " + Gain.errorText());
    Instrs += static_cast<double>(Sizes[K].PerRound) * Sizes[K].Size;
    ModeledMs += Sizes[K].PerRound * ColdMs[K].quantile(0.1);
    DynInstrs += First[K]->DynamicInstructions;
    DynSpills += First[K]->DynamicSpills;
  }

  std::string PerSize;
  for (size_t K = 0; K != NumSizes; ++K)
    PerSize += (K ? ", n=" : "n=") + std::to_string(Sizes[K].Size) + ": " +
               std::to_string(ColdMs[K].quantile(0.1)) + " / " +
               std::to_string(ColdMs[K].median()) + " / " +
               std::to_string(ColdMs[K].quantile(1)) + " (" +
               std::to_string(ColdMs[K].size()) + ")";
  Rep.fact("cold compile ms", "p10 / median / max (samples): " + PerSize);
  Rep.fact("rounds", std::to_string(Rounds));
  Rep.fact("compiles", std::to_string(ColdMsAll.size()) + " cold, " +
                           std::to_string(Probes) + " hit probes");
  Rep.metric("setup_s", SetUp.samples().median(), "s",
             "median of " + std::to_string(SetUp.samples().size()) +
                 " set-ups, one before the run and one after each compile");
  Rep.metric("throughput_per_s", 1000.0 * Instrs / ModeledMs, "1/s",
             "compile_instr_per_s: instructions per second of cold compile, "
             "from each size's p10 compile time and its per-round count");
  Rep.decileOf("latency_ms_p10", ColdMsAll, "ms");
  std::string HitNote = "geometric mean over the sizes of each size's p10 "
                        "re-request time:";
  double HitMean = meanOfDeciles(HitMs, HitNote);
  Rep.metric("hit_ms_p10", HitMean, "ms", HitNote);
  std::string MissNote = "geometric mean over the sizes of each size's p10 "
                         "cold compile time:";
  double MissMean = meanOfDeciles(ColdMs, MissNote);
  Rep.metric("miss_ms_p10", MissMean, "ms", MissNote);
  reportGain(Rep, Gains.sum() / static_cast<double>(Gains.size()),
             "the 4 sizes on L80(2,10)");
  Rep.metric("spill_pct", 100.0 * DynSpills / DynInstrs, "%",
             "dynamic spill share of the compiled blocks");
  Rep.metric("ok_ratio",
             1.0 - static_cast<double>(Rep.failed()) /
                       static_cast<double>(Rep.attempted()),
             "ratio", "1 - failed/attempted operations");
  Rep.metric("peak_rss_mb", peakRssMb(), "MB");
  return Rep.finish();
}

} // namespace perfbench
