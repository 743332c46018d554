//===- perfbench/cpp/Replay.cpp - Traced per-layer replay -----------------===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "analysis/AllocationCertifier.h"
#include "analysis/MemDepCertifier.h"
#include "analysis/ScheduleCertifier.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "obs/Metrics.h"
#include "parser/Parser.h"
#include "pipeline/ExperimentEngine.h"
#include "sched/BalancedWeighter.h"
#include "sched/WeighterScratch.h"
#include "server/Server.h"
#include "sim/Simulator.h"
#include "stats/Bootstrap.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "support/Wire.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <map>

using namespace bsched;

namespace perfbench {
namespace {

/// Leaf spans of the compile replay: everything runPipeline does, one
/// layer call each. Their sum against runPipeline's own wall time gives
/// pipeline.unattributed_share.
const char *const CompileLeaves[] = {
    "ir.verify",          "pipeline.copy",
    "dag.build",          "sched.weight",
    "sched.list",         "analysis.certify_sched",
    "analysis.certify_memdep", "sched.apply",
    "pipeline.snapshot",  "regalloc.alloc",
    "analysis.certify_alloc"};

/// Compiles \p Input the way runPipeline does under \p Config (balanced
/// policy, certification on, serial, ungoverned), with one span per layer
/// call. On failure \p Error names the failing step.
Function replayCompile(const Function &Input, const PipelineConfig &Config,
                       SpanRecorder &Rec, std::string &Error) {
  ScopedSpan Top(Rec, "pipeline.replay");
  {
    ScopedSpan S(Rec, "ir.verify");
    if (!verifyClean(verifyFunction(Input)))
      Error = "input failed verification";
  }
  Function F;
  {
    ScopedSpan S(Rec, "pipeline.copy");
    F = Input;
  }
  BalancedWeighter Weighter(Config.Ops, ChancesMethod::ExactLongestPath,
                            static_cast<double>(Config.SchedOptions.IssueWidth),
                            Config.HonorKnownLatency, Config.Closure);
  WeighterScratch Scratch;
  DepDag Dag;

  auto Pass = [&](BasicBlock &BB) {
    {
      ScopedSpan S(Rec, "dag.build");
      buildDagInto(Dag, BB, Config.DagOptions);
    }
    {
      ScopedSpan S(Rec, "sched.weight");
      Weighter.assignWeights(Dag, Scratch);
    }
    Schedule Sched;
    {
      ScopedSpan S(Rec, "sched.list");
      Sched = scheduleDag(Dag, Config.SchedOptions);
    }
    {
      ScopedSpan S(Rec, "analysis.certify_sched");
      if (!certifySchedule(BB, Dag, Sched, Config.Ops, Config.SchedOptions)
               .empty())
        Error = "schedule certificate failed in block '" + BB.name() + "'";
    }
    {
      ScopedSpan S(Rec, "analysis.certify_memdep");
      if (!certifyMemDep(BB, Dag, Config.DagOptions).empty())
        Error = "memdep certificate failed in block '" + BB.name() + "'";
    }
    ScopedSpan S(Rec, "sched.apply");
    applySchedule(BB, Dag, Sched);
  };

  for (BasicBlock &BB : F) {
    Pass(BB);
    BasicBlock PreAlloc;
    {
      ScopedSpan S(Rec, "pipeline.snapshot");
      PreAlloc = BB;
    }
    RegAllocResult Alloc;
    {
      ScopedSpan S(Rec, "regalloc.alloc");
      Alloc = allocateRegisters(F, BB, Config.Target);
    }
    {
      ScopedSpan S(Rec, "analysis.certify_alloc");
      if (!certifyAllocation(PreAlloc, BB, Alloc, Config.Target,
                             F.getOrCreateAliasClass(SpillAliasClassName))
               .empty())
        Error = "allocation certificate failed in block '" + BB.name() + "'";
    }
    Pass(BB);
  }
  {
    ScopedSpan S(Rec, "ir.verify");
    if (!verifyClean(verifyFunction(F)))
      Error = "output failed verification";
  }
  return F;
}

uint64_t counter(const MetricSnapshot &Snap, const std::string &Name) {
  auto It = Snap.Counters.find(Name);
  return It == Snap.Counters.end() ? 0 : It->second;
}

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

/// Per-pass values of every per-layer metric; the report takes medians.
using PassValues = std::map<std::string, Samples>;

/// The compile layers: replay with spans (and once more without, for the
/// tracing overhead), runPipeline itself, and the pipeline's counters.
void compileLayers(const ReplayInputs &In, const std::string &Workload,
                   SpanRecorder &Rec, PassValues &Out,
                   Report &Rep, std::vector<Function> &Compiled) {
  const PipelineConfig Config = PipelineConfig::paperDefault();
  double Instrs = 0.0;
  for (const Function *F : In.Kernels)
    for (const BasicBlock &BB : *F)
      Instrs += BB.size();

  // Traced and untraced replays of each kernel, alternating which goes
  // first so drift does not bias the overhead.
  Compiled.clear();
  double TracedNs = 0.0, UntracedNs = 0.0, PipelineNs = 0.0;
  for (size_t K = 0; K != In.Kernels.size(); ++K) {
    const Function &Input = *In.Kernels[K];
    for (int Round = 0; Round != 2; ++Round) {
      bool Traced = (Round == 0) == (K % 2 == 0);
      Rec.setEnabled(Traced);
      std::string Error;
      Clock::time_point Start = Clock::now();
      Function F = replayCompile(Input, Config, Rec, Error);
      double Ns = nsBetween(Start, Clock::now());
      (Traced ? TracedNs : UntracedNs) += Ns;
      if (!Error.empty())
        Rep.fail(Workload + " replay of '" + Input.name() + "'", Error);
      if (Traced)
        Compiled.push_back(std::move(F));
    }
    Rec.setEnabled(true);

    Clock::time_point Start = Clock::now();
    ErrorOr<CompiledFunction> Reference = runPipeline(Input, Config);
    PipelineNs += nsBetween(Start, Clock::now());
    Rep.attempt(Reference.has_value());
    if (!Reference)
      Rep.fail(Workload + " kernel '" + Input.name() + "'",
               "runPipeline failed: " + Reference.errorText());
    else if (printFunction(Reference->Compiled) !=
             printFunction(Compiled.back()))
      Rep.fail(Workload + " replay of '" + Input.name() + "'",
               "replayed compile differs from runPipeline's output");
  }

  // Layer times from this pass's spans (the recorder is empty at entry).
  double Attributed = 0.0;
  for (const char *Leaf : CompileLeaves)
    Attributed += Rec.totalNs(Leaf);
  auto PerInstr = [&](const char *Name) { return Rec.totalNs(Name) / Instrs; };
  Out["dag.build_ns_per_instr"].add(PerInstr("dag.build"));
  Out["sched.weight_ns_per_instr"].add(PerInstr("sched.weight"));
  Out["sched.list_ns_per_instr"].add(PerInstr("sched.list"));
  Out["analysis.certify_sched_ns_per_instr"].add(
      PerInstr("analysis.certify_sched"));
  Out["analysis.certify_alloc_ns_per_instr"].add(
      PerInstr("analysis.certify_alloc"));
  Out["analysis.certify_memdep_ns_per_instr"].add(
      PerInstr("analysis.certify_memdep"));
  Out["regalloc.alloc_ns_per_instr"].add(PerInstr("regalloc.alloc"));
  Out["pipeline.compile_ns_per_instr"].add(PipelineNs / Instrs);
  Out["pipeline.unattributed_share"].add(1.0 - Attributed / PipelineNs);
  Out["trace.overhead_pct"].add(100.0 * (TracedNs / UntracedNs - 1.0));

  // Work counts from the library's own counters, one metered compile.
  MetricRegistry Reg;
  PipelineConfig Metered = Config;
  Metered.Obs.Metrics = &Reg;
  for (const Function *F : In.Kernels)
    (void)runPipeline(*F, Metered);
  MetricSnapshot Snap = Reg.snapshot();
  Out["dag.edges_per_instr"].add(ratio(
      counter(Snap, "bsched.dag.edges"), counter(Snap, "bsched.dag.nodes")));
  Out["analysis.alias_no_alias_ratio"].add(
      ratio(counter(Snap, "bsched.alias.no_alias"),
            counter(Snap, "bsched.alias.queries")));
  Out["sched.virtual_nops"].add(counter(Snap, "bsched.sched.virtual_nops"));
  Out["regalloc.spill_instructions"].add(
      counter(Snap, "bsched.regalloc.spill_instructions"));
}

/// The sim and stats layers on the compiled blocks.
void simLayers(const ReplayInputs &In, const std::vector<Function> &Compiled,
               uint64_t Seed, PassValues &Out) {
  constexpr unsigned Runs = 30;
  Rng Root(Seed);
  double SimNs = 0.0, Instrs = 0.0, Cycles = 0.0, Interlocks = 0.0;
  uint64_t BlockRuns = 0;
  double StatsNs = 0.0;
  uint64_t StatsBlocks = 0;
  for (const Function &F : Compiled)
    for (const BasicBlock &BB : F)
      for (const MemorySystem *Memory : In.Systems)
        for (const ProcessorModel &Model : In.Models) {
          Rng R = Root.split(BlockRuns);
          std::vector<double> A, B;
          Clock::time_point Start = Clock::now();
          for (unsigned Run = 0; Run != 2 * Runs; ++Run) {
            BlockSimResult S = simulateBlock(BB, Model, *Memory, R);
            Cycles += static_cast<double>(S.Cycles);
            Interlocks += static_cast<double>(S.InterlockCycles);
            Instrs += static_cast<double>(S.Instructions);
            (Run < Runs ? A : B).push_back(static_cast<double>(S.Cycles));
          }
          SimNs += nsBetween(Start, Clock::now());
          BlockRuns += 2 * Runs;

          Start = Clock::now();
          std::vector<double> MeansA = bootstrapMeans(A, 100, R);
          std::vector<double> MeansB = bootstrapMeans(B, 100, R);
          ImprovementEstimate E = pairedImprovement(MeansA, MeansB);
          StatsNs += nsBetween(Start, Clock::now());
          StatsBlocks += !std::isnan(E.MeanPercent);
        }
  Out["sim.block_run_ns"].add(SimNs / static_cast<double>(BlockRuns));
  Out["sim.ns_per_instr"].add(SimNs / Instrs);
  Out["sim.interlock_share"].add(Interlocks / Cycles);
  Out["stats.bootstrap_us_per_block"].add(StatsNs / 1000.0 /
                                          static_cast<double>(StatsBlocks));
}

/// The engine layer: a fresh engine over the service kernels.
void engineLayer(const ReplayInputs &In, uint64_t Seed, PassValues &Out) {
  std::vector<ExperimentCell> Cells;
  for (const Function *F : In.ServiceKernels)
    for (const MemorySystem *Memory : In.Systems)
      for (const ProcessorModel &Model : In.Models) {
        SimulationConfig Sim;
        Sim.Processor = Model;
        Sim.Seed = Seed;
        Cells.push_back({F->name() + "/" + Memory->name(), F, Memory,
                         Memory->optimisticLatency(),
                         SchedulerPolicy::Balanced,
                         PipelineConfig::paperDefault(), Sim});
      }
  MetricRegistry Reg;
  ExperimentEngine Engine(In.Workers, ObsContext{&Reg, nullptr, ""});
  EngineResult Result = Engine.run(Cells);
  Samples CellMs;
  for (const CellOutcome &C : Result.Cells)
    CellMs.add(C.WallMillis);
  MetricSnapshot Snap = Reg.snapshot();
  Out["engine.cell_ms_p50"].add(CellMs.median());
  Out["engine.parallel_efficiency"].add(
      Result.Counters.CellWallMillis /
      (Result.Counters.Workers * Result.Counters.WallMillis));
  double Hits = counter(Snap, "bsched.engine.cache_hits");
  Out["engine.cache_hit_ratio"].add(
      ratio(Hits, Hits + counter(Snap, "bsched.engine.cache_misses")));
}

/// The parser, server and support (JSON codec, wire) layers on the
/// workload's request stream. Every distinct kernel is parsed once; the
/// stream goes through the server twice from an emptied cache, in process
/// and over the socket, so the hit ratio is the stream's own.
void serviceLayers(const ReplayInputs &In, const std::string &Workload,
                   PassValues &Out, Report &Rep) {
  std::vector<const Function *> Requests = In.Requests;
  if (Requests.empty())
    for (int Repeat = 0; Repeat != 2; ++Repeat)
      Requests.insert(Requests.end(), In.ServiceKernels.begin(),
                      In.ServiceKernels.end());

  // Payload index of each request; the payloads are the distinct kernels'.
  std::map<const Function *, size_t> Index;
  std::vector<size_t> Stream;
  std::vector<std::string> Texts, Payloads;
  double Instrs = 0.0;
  for (const Function *F : Requests) {
    auto [It, Fresh] = Index.emplace(F, Payloads.size());
    Stream.push_back(It->second);
    if (!Fresh)
      continue;
    CompileRequest Request;
    Request.Id = F->name();
    Request.Kernel = printFunction(*F);
    Request.WantSchedule = true;
    Texts.push_back(Request.Kernel);
    Payloads.push_back(Request.toJson());
    for (const BasicBlock &BB : *F)
      Instrs += BB.size();
  }

  double ParseNs = 0.0;
  for (const std::string &Text : Texts) {
    Clock::time_point Start = Clock::now();
    ParseResult Parsed = parseIr(Text);
    ParseNs += nsBetween(Start, Clock::now());
    if (!Parsed.ok())
      Rep.fail(Workload + " parser replay", "kernel text failed to parse");
  }
  Out["parser.parse_ns_per_instr"].add(ParseNs / Instrs);

  std::string SocketPath =
      ".bench_build/r" + std::to_string(::getpid()) + ".sock";
  ::unlink(SocketPath.c_str());
  MetricRegistry Reg;
  ServerConfig Config;
  Config.SocketPath = SocketPath;
  Config.Workers = In.Workers;
  BschedServer Server(Config, &Reg);
  if (!Server.start().ok()) {
    Rep.fail(Workload + " server replay", "could not listen on " + SocketPath);
    return;
  }

  // In-process handling of the stream; each kernel's first response is
  // kept for the codec.
  Samples HandleUs, CodecUs;
  std::vector<std::string> Responses(Payloads.size());
  for (size_t P : Stream) {
    Clock::time_point Start = Clock::now();
    std::string Response = Server.handleRequest(Payloads[P]);
    HandleUs.add(nsBetween(Start, Clock::now()) / 1000.0);
    if (Responses[P].empty())
      Responses[P] = std::move(Response);
  }
  for (size_t I = 0; I != Payloads.size(); ++I) {
    ErrorOr<CompileResponse> Parsed = CompileResponse::fromJson(Responses[I]);
    Rep.attempt(Parsed && Parsed->Ok);
    if (!Parsed || !Parsed->Ok) {
      Rep.fail(Workload + " server replay", "request failed");
      continue;
    }
    Clock::time_point Start = Clock::now();
    ErrorOr<CompileRequest> Request = CompileRequest::fromJson(Payloads[I]);
    std::string Encoded = Parsed->toJson();
    CodecUs.add(nsBetween(Start, Clock::now()) / 1000.0);
    if (!Request || Encoded.empty())
      Rep.fail(Workload + " codec replay", "request did not round-trip");
  }
  MetricSnapshot Snap = Reg.snapshot();
  double Hits = counter(Snap, "bsched.engine.cache_hits");
  Out["server.handle_us_p50"].add(HandleUs.median());
  Out["server.codec_us_p50"].add(CodecUs.median());
  Out["server.cache_hit_ratio"].add(
      ratio(Hits, Hits + counter(Snap, "bsched.engine.cache_misses")));

  // Over the socket: round trip minus the server's own handling time.
  Server.cache().clear();
  Samples WaitUs;
  {
    ErrorOr<FdHandle> Conn = connectUnix(SocketPath, /*RetryMs=*/2000);
    std::string Reply;
    for (size_t I = 0; Conn && I != Stream.size(); ++I) {
      Clock::time_point Start = Clock::now();
      if (!writeFrame(Conn->get(), Payloads[Stream[I]]).ok() ||
          readFrame(Conn->get(), Reply, DefaultMaxFrameBytes) !=
              FrameStatus::Frame) {
        Rep.fail(Workload + " server replay", "socket round trip failed");
        break;
      }
      double RoundTripUs = nsBetween(Start, Clock::now()) / 1000.0;
      ErrorOr<CompileResponse> Parsed = CompileResponse::fromJson(Reply);
      if (Parsed)
        WaitUs.add(RoundTripUs - Parsed->WallMs * 1000.0);
    }
    if (!Conn)
      Rep.fail(Workload + " server replay", "could not connect");
  }
  Server.stop();
  ::unlink(SocketPath.c_str());
  Out["server.wait_us_p50"].add(WaitUs.median());
}

} // namespace

void runReplay(const Options &Opts, const ReplayInputs &In, Report &Out) {
  SpanRecorder Rec(true);
  PassValues Values;
  std::vector<Function> Compiled;
  Clock::time_point Start = Clock::now();
  unsigned Passes = 0;
  do {
    compileLayers(In, Opts.Workload, Rec, Values, Out, Compiled);
    if (Passes == 0) {
      std::string Path = ".bench_build/perfbench_spans_" + Opts.Workload +
                         ".json";
      if (Rec.write(Path))
        Out.fact("span trace", Path + " (" +
                                   std::to_string(Rec.spans().size()) +
                                   " spans, first pass)");
      // The output gate on the replayed compiles (runPipeline's exact
      // output, checked above); a requested fault goes into the first one
      // that has a store to move.
      bool Injected = false;
      for (size_t K = 0; K != Compiled.size(); ++K) {
        const Function &Input = *In.Kernels[K];
        std::string Where = Opts.Workload + " kernel '" + Input.name() + "'";
        if (!Opts.InjectFault.empty() && !Injected) {
          std::string Block = injectFault(Compiled[K]);
          Injected = !Block.empty();
          if (Injected)
            Out.fact("injected fault", "moved a store below the redefinition "
                                       "of its address register in " + Where +
                                       " block '" + Block + "'");
        }
        std::string Problem =
            checkSemantics(Input, Compiled[K], Input.numAliasClasses());
        if (Problem.empty())
          Problem = checkSimIdentities(Compiled[K]);
        if (!Problem.empty())
          Out.fail(Where, Problem);
      }
    }
    Rec.clear();
    simLayers(In, Compiled, Opts.Seed + Passes, Values);
    engineLayer(In, Opts.Seed, Values);
    serviceLayers(In, Opts.Workload, Values, Out);
    ++Passes;
  } while (msSince(Start) < Opts.Seconds * 1000.0);

  Out.fact("replay passes", std::to_string(Passes));
  for (const auto &[Name, S] : Values) {
    std::string Unit = "ratio";
    if (Name.ends_with("ns_per_instr"))
      Unit = "ns/instr";
    else if (Name.ends_with("_ns"))
      Unit = "ns";
    else if (Name.ends_with("_us_p50") || Name.ends_with("_us_per_block"))
      Unit = "us";
    else if (Name.ends_with("_ms_p50"))
      Unit = "ms";
    else if (Name.ends_with("_pct"))
      Unit = "%";
    else if (Name == "sched.virtual_nops" ||
             Name == "regalloc.spill_instructions")
      Unit = "count";
    else if (Name == "dag.edges_per_instr")
      Unit = "edges/instr";
    Out.medianOf(Name, S, Unit);
  }
}

} // namespace perfbench
