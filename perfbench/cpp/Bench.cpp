//===- perfbench/cpp/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/Interpreter.h"
#include "sim/Simulator.h"
#include "support/Rng.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

using namespace bsched;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Samples and the report
//===----------------------------------------------------------------------===//

double Samples::sum() const {
  double Total = 0.0;
  for (double X : Values)
    Total += X;
  return Total;
}

double Samples::quantile(double Q) const {
  if (Values.empty())
    return 0.0;
  std::vector<double> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  double Rank = std::ceil(Q * static_cast<double>(Sorted.size()));
  size_t Index = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return Sorted[std::min(Index, Sorted.size() - 1)];
}

unsigned Samples::tailPercentile() const {
  for (unsigned P : {99u, 95u, 90u, 75u})
    if (static_cast<double>(Values.size()) * (100 - P) / 100.0 >= 10.0)
      return P;
  return 50;
}

namespace {

std::string formatNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  return Buffer;
}

std::string jsonString(const std::string &Text) {
  std::string Out = "\"";
  for (char C : Text) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buffer[8];
      std::snprintf(Buffer, sizeof(Buffer), "\\u%04x", C);
      Out += Buffer;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

} // namespace

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit, const std::string &Note) {
  Metrics.push_back({Name, Value, Unit, Note});
}

void Report::medianOf(const std::string &Name, const Samples &S,
                      const std::string &Unit) {
  metric(Name, S.median(), Unit,
         "median of " + std::to_string(S.size()) + " samples");
}

void Report::decileOf(const std::string &Name, const Samples &S,
                      const std::string &Unit, bool Throughput) {
  metric(Name, S.quantile(Throughput ? 0.9 : 0.1), Unit,
         std::string(Throughput ? "p90" : "p10") + " of " +
             std::to_string(S.size()) + " samples; median " +
             formatNumber(S.median()) + ", p" +
             std::to_string(S.tailPercentile()) + " " +
             formatNumber(S.tail()));
}

void Report::fact(const std::string &Key, const std::string &Value) {
  Facts.emplace_back(Key, Value);
}

void Report::fail(const std::string &Where, const std::string &What) {
  Failures.push_back(Where + ": " + What);
}

int Report::finish() const {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              Opts.Trace ? 1 : 0);
  for (const auto &[Key, Value] : Facts)
    std::printf("  %-28s %s\n", Key.c_str(), Value.c_str());
  for (const Metric &M : Metrics)
    std::printf("  metric %-36s %-14s %-6s %s\n", M.Name.c_str(),
                formatNumber(M.Value).c_str(), M.Unit.c_str(),
                M.Note.c_str());
  for (const std::string &F : Failures)
    std::printf("  GATE FAILURE %s\n", F.c_str());
  std::printf("  gate: %s (%zu failure%s)\n",
              Failures.empty() ? "pass" : "FAIL", Failures.size(),
              Failures.size() == 1 ? "" : "s");

  std::string Line = "{\"correct\": ";
  Line += Failures.empty() ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      Line += ", ";
    Line += jsonString(Metrics[I].Name) + ": {\"value\": " +
            formatNumber(Metrics[I].Value) +
            ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return Failures.empty() ? 0 : 1;
}

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof(Original), &Original) != 0)
    return;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Original))
      Cpus.push_back(Cpu);
}

void CpuRotation::next() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Next++ % Cpus.size()], &One);
  sched_setaffinity(0, sizeof(One), &One);
}

void CpuRotation::restore() {
  if (Cpus.size() >= 2)
    sched_setaffinity(0, sizeof(Original), &Original);
}

double peakRssMb() {
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0.0;
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

//===----------------------------------------------------------------------===//
// Output gate
//===----------------------------------------------------------------------===//

std::string checkSemantics(const Function &Input, const Function &Compiled,
                           AliasClassId SpillClass) {
  if (Input.numBlocks() != Compiled.numBlocks())
    return "block count " + std::to_string(Compiled.numBlocks()) +
           " differs from the input's " + std::to_string(Input.numBlocks());
  for (unsigned B = 0; B != Input.numBlocks(); ++B) {
    Interpreter Before, After;
    Before.run(Input.block(B));
    After.run(Compiled.block(B));
    if (Before.memoryImage() != After.memoryImageExcluding(SpillClass))
      return "block " + std::to_string(B) + " '" + Input.block(B).name() +
             "': memory image differs from the interpreted input";
  }
  return "";
}

std::string checkSimIdentities(const Function &Compiled) {
  const ProcessorModel Models[] = {ProcessorModel::unlimited(),
                                   ProcessorModel::maxOutstanding(8),
                                   ProcessorModel::maxLength(8)};
  for (unsigned B = 0; B != Compiled.numBlocks(); ++B) {
    const BasicBlock &BB = Compiled.block(B);
    auto Where = [&](const std::string &What) {
      return "block " + std::to_string(B) + " '" + BB.name() + "': " + What;
    };
    bool KnownLatencyLoad = false;
    for (const Instruction &I : BB)
      KnownLatencyLoad |= I.isLoad() && I.hasKnownLatency();

    uint64_t PrevCycles = 0;
    for (unsigned Latency = 1; Latency <= 4; ++Latency) {
      FixedSystem Memory(Latency);
      for (const ProcessorModel &Model : Models) {
        Rng R(Latency);
        BlockSimResult S = simulateBlock(BB, Model, Memory, R);
        if (S.Cycles != S.Instructions + S.InterlockCycles)
          return Where(Model.name() + " fixed(" + std::to_string(Latency) +
                       "): cycles " + std::to_string(S.Cycles) +
                       " != instructions + interlocks");
        if (Model.Kind != ProcessorKind::Unlimited)
          continue;
        if (Latency == 1 && !KnownLatencyLoad &&
            (S.Cycles != BB.size() || S.InterlockCycles != 0))
          return Where("fixed(1) on UNLIMITED took " +
                       std::to_string(S.Cycles) + " cycles for " +
                       std::to_string(BB.size()) + " instructions");
        if (S.Cycles < PrevCycles)
          return Where("cycles fell from " + std::to_string(PrevCycles) +
                       " to " + std::to_string(S.Cycles) +
                       " as the fixed latency rose to " +
                       std::to_string(Latency));
        PrevCycles = S.Cycles;
      }
    }
  }
  return "";
}

std::string injectFault(Function &F) {
  for (BasicBlock &BB : F) {
    std::vector<Instruction> &Instrs = BB.instructions();
    for (size_t J = 0; J != Instrs.size(); ++J) {
      if (!Instrs[J].isStore())
        continue;
      Reg Base = Instrs[J].source(1);
      for (size_t I = J + 1; I < Instrs.size(); ++I) {
        if (Instrs[I].isTerminator())
          break;
        if (!Instrs[I].hasDest() || Instrs[I].dest() != Base)
          continue;
        std::rotate(Instrs.begin() + J, Instrs.begin() + J + 1,
                    Instrs.begin() + I + 1);
        return BB.name();
      }
    }
  }
  return "";
}

uint64_t hashText(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : Text)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ull;
  return H;
}

const MemorySystem &gainMemory() {
  static const CacheSystem Memory(0.80, 2, 10);
  return Memory;
}

ErrorOr<double> balancedGain(const Function &Input,
                             const CompiledFunction &Candidate,
                             uint64_t Seed) {
  SimulationConfig Sim;
  Sim.NumRuns = 30;
  Sim.NumResamples = 100;
  Sim.Seed = Seed;
  ErrorOr<SchedulerComparison> Comparison = runComparisonWith(
      [&](const Function &F,
          const PipelineConfig &Config) -> ErrorOr<CompiledFunction> {
        if (Config.Policy == SchedulerPolicy::Balanced)
          return Candidate;
        return runPipeline(F, Config);
      },
      Input, gainMemory(), gainMemory().optimisticLatency(), Sim);
  if (!Comparison)
    return ErrorOr<double>(Comparison.takeErrors());
  return Comparison->Improvement.MeanPercent;
}

void reportGain(Report &Rep, double GainPct, const std::string &Over) {
  Rep.metric("balanced_runtime_ratio", 1.0 - GainPct / 100.0, "ratio",
             "gain_pct " + std::to_string(GainPct) +
                 ": mean paired balanced-vs-traditional improvement over " +
                 Over);
}

//===----------------------------------------------------------------------===//
// Span recorder
//===----------------------------------------------------------------------===//

int SpanRecorder::begin(const char *Name) {
  double Now = nsBetween(Epoch, Clock::now());
  Spans.push_back({Name, Now, Now, Open});
  Open = static_cast<int>(Spans.size() - 1);
  return Open;
}

void SpanRecorder::end(int Id) {
  Spans[Id].EndNs = nsBetween(Epoch, Clock::now());
  Open = Spans[Id].Parent;
}

double SpanRecorder::totalNs(const std::string &Name) const {
  double Total = 0.0;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Total += S.EndNs - S.StartNs;
  return Total;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buffer[256];
    std::snprintf(Buffer, sizeof(Buffer),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  I ? "," : "", S.Name, S.StartNs / 1000.0,
                  (S.EndNs - S.StartNs) / 1000.0, I, S.Parent);
    Out << Buffer;
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

} // namespace perfbench
