//===- perfbench/cpp/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: run options,
/// order statistics with the benchmark's tail rule, the report that prints
/// the result line, the output gate (interpreter and simulator checks), a
/// fault injector that proves the gate catches corrupted code, and the
/// in-memory span recorder of the traced per-layer replay.
///
/// All measurement is from outside the library: wall clocks around public
/// calls, the library's own result structs, and the `bsched.*` counters a
/// MetricRegistry already exposes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "ir/Function.h"
#include "pipeline/Experiment.h"
#include "sim/MemorySystem.h"

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

inline double nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Non-empty: corrupt one compiled output before the gate runs ("reorder"
  /// moves a store below the redefinition of its address register).
  std::string InjectFault;
  /// Upper bound on threads, engine jobs, server workers and connections;
  /// the run uses min(4, this).
  unsigned HardwareThreads = 1;

  unsigned loadThreads() const {
    return HardwareThreads < 4 ? HardwareThreads : 4;
  }
};

/// A bag of samples with the benchmark's order statistics. Quantiles are
/// nearest-rank. The tail is the highest of p99/p95/p90/p75/p50 that still
/// has at least ten samples above it.
///
/// End-to-end timings are gated on deciles, not medians: on a shared host
/// an identical compile takes anywhere from 12 to 28 ms within seconds, and
/// the share of slow periods differs from run to run, which moves medians
/// by up to a quarter while the lower decile (the program's cost in quiet
/// periods) moves by a few percent. Medians and tails are still reported.
class Samples {
public:
  void add(double X) { Values.push_back(X); }
  size_t size() const { return Values.size(); }
  double sum() const;
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }
  /// The tail percentile (as 99, 95, ...) the rule picks for this count.
  unsigned tailPercentile() const;
  double tail() const { return quantile(tailPercentile() / 100.0); }

private:
  std::vector<double> Values;
};

/// Collects metrics, work counts and gate findings, then prints the human
/// report and the final JSON result line.
class Report {
public:
  explicit Report(const Options &Opts) : Opts(Opts) {}

  /// Records metric \p Name. \p Note says how it was computed (sample
  /// count, percentile); it is printed, not put in the result line.
  void metric(const std::string &Name, double Value, const std::string &Unit,
              const std::string &Note = "");
  /// Records the median of \p S (per-layer metrics).
  void medianOf(const std::string &Name, const Samples &S,
                const std::string &Unit);
  /// Records an end-to-end timing: the lower decile of \p S (of a
  /// throughput, the upper decile), with the sample count, the median and
  /// the tail in the note.
  void decileOf(const std::string &Name, const Samples &S,
                const std::string &Unit, bool Throughput = false);

  /// Load-shape and provenance facts, printed before the result.
  void fact(const std::string &Key, const std::string &Value);

  /// One operation attempted; \p Ok false counts it as failed.
  void attempt(bool Ok = true) {
    ++Attempted;
    Failed += !Ok;
  }

  /// A correctness failure; \p Where names workload, kernel and block.
  void fail(const std::string &Where, const std::string &What);
  bool correct() const { return Failures.empty(); }

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Prints the report and the result line; returns the exit code.
  int finish() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
    std::string Note;
  };
  const Options &Opts;
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Facts;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Moves the calling thread to the next CPU of its affinity mask, round
/// robin. Serial work rotates over every CPU so that contention on one
/// shared CPU (from other tenants of the host) does not decide a run.
/// Threads started while the mask is narrowed inherit it.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void next();
  /// Gives the thread back the mask it had at construction.
  void restore();

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// Times a workload's set-up. The run keeps the state of its first set-up;
/// it repeats the set-up into throwaway state between its operations, so
/// the samples see the same host conditions as the measured work rather
/// than those of the run's first milliseconds, and each repeat runs on the
/// next CPU, so the CPU the main thread happens to sit on does not decide
/// a run. setup_s is their median.
class SetUpTimer {
public:
  /// Calls \p SetUp and returns its result; only the call is timed, not
  /// the destruction of what it returns.
  template <typename SetUpFn> auto time(SetUpFn SetUp) {
    if (S.size() != 0)
      Rotation.next();
    Clock::time_point Start = Clock::now();
    auto Result = SetUp();
    S.add(msSince(Start) / 1000.0);
    Rotation.restore();
    return Result;
  }
  /// Set-up times in seconds.
  const Samples &samples() const { return S; }

private:
  Samples S;
  CpuRotation Rotation;
};

//===----------------------------------------------------------------------===//
// Output gate
//===----------------------------------------------------------------------===//

/// Runs \p Input and \p Compiled block by block through the reference
/// Interpreter and compares memory images, excluding \p SpillClass (spill
/// slots are not program memory). Returns "" or a message naming the
/// first block that differs.
std::string checkSemantics(const bsched::Function &Input,
                           const bsched::Function &Compiled,
                           bsched::AliasClassId SpillClass);

/// Simulator identities that need no second simulator, on every block of
/// \p Compiled: with FixedSystem(1) on UNLIMITED, cycles equal the block's
/// instruction count with no interlocks (skipped for blocks holding a
/// known-latency load, whose latency is not the memory system's); on
/// every processor model cycles = instructions + interlock cycles; and on
/// UNLIMITED cycles never decrease as the fixed latency rises. Returns ""
/// or a message naming the block.
std::string checkSimIdentities(const bsched::Function &Compiled);

/// Corrupts \p F: moves the first store whose address register a later
/// instruction of its block overwrites to just after that instruction, so
/// it writes elsewhere. Returns the block's name, or "" when no block has
/// such a pair.
std::string injectFault(bsched::Function &F);

/// FNV-1a of \p Text, for cheap identity checks of repeated outputs.
uint64_t hashText(const std::string &Text);

/// The memory system the balanced_runtime_ratio of compile-huge and
/// serve-mixed is simulated on: the paper's L80(2,10) data cache.
const bsched::MemorySystem &gainMemory();

/// Paired balanced-vs-traditional improvement (percent, positive means
/// balanced is faster) of an already-compiled balanced \p Candidate of
/// \p Input, simulated on gainMemory() under UNLIMITED with the paper's
/// 30 runs and 100 bootstrap means. The traditional side is compiled here.
bsched::ErrorOr<double> balancedGain(const bsched::Function &Input,
                                     const bsched::CompiledFunction &Candidate,
                                     uint64_t Seed);

/// Reports a mean paired improvement \p GainPct (percent) as the metric
/// balanced_runtime_ratio = 1 - gain/100: balanced runtime as a share of
/// traditional, which stays positive where the gain changes sign.
void reportGain(Report &Rep, double GainPct, const std::string &Over);

//===----------------------------------------------------------------------===//
// Span recorder (traced runs only)
//===----------------------------------------------------------------------===//

/// Spans of the per-layer replay: name, start, end and parent, held in
/// memory and written as a Chrome trace at the end of the run. Disabled,
/// it records nothing and costs one branch per span.
class SpanRecorder {
public:
  struct Span {
    const char *Name;
    double StartNs;
    double EndNs;
    int Parent;
  };

  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  int begin(const char *Name);
  void end(int Id);

  /// Sum of the durations of spans named \p Name, in ns.
  double totalNs(const std::string &Name) const;

  const std::vector<Span> &spans() const { return Spans; }
  void clear() {
    Spans.clear();
    Open = -1;
  }

  /// Writes the spans as Chrome trace-event JSON to \p Path.
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  int Open = -1;
};

class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &Rec, const char *Name)
      : Rec(Rec), Id(Rec.enabled() ? Rec.begin(Name) : -1) {}
  ~ScopedSpan() {
    if (Id >= 0)
      Rec.end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &Rec;
  int Id;
};

//===----------------------------------------------------------------------===//
// Workload entry points
//===----------------------------------------------------------------------===//

int runCompileHuge(const Options &Opts);
int runSweepPaper(const Options &Opts);
int runServeMixed(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
