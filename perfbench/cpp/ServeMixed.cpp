//===- perfbench/cpp/ServeMixed.cpp - The serve-mixed workload ------------===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// A real BschedServer on an AF_UNIX socket inside the checkout, driven in
// a closed loop by persistent client connections (one connect each, never
// per request). Every request is .bsir text with want_schedule. The kernel
// pool mirrors the Perfect Club suite's block sizes. Each round sends two
// legs against an emptied cache, the two server legs of the ROADMAP: a
// cold leg at a 0% hit rate (fresh kernels only: parse, compile, cache
// insert) and a warm leg at a 99% hit rate (repeats: parse, key, lookup,
// with one fresh kernel per hundred requests, so writes still go beside
// reads). Connections persist across rounds. The seed drives the kernel
// pool, the stream and the simulation seed of balanced_runtime_ratio.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Replay.h"

#include "ir/IrPrinter.h"
#include "parser/Parser.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "workload/PerfectClub.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "support/Wire.h"
#include "workload/KernelGen.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

using namespace bsched;

namespace perfbench {
namespace {

/// Pool kernels per Perfect Club block: the pool has 28 x 36 = 1008.
constexpr unsigned KernelsPerBlock = 36;
/// Candidates drawn per pool kernel.
constexpr unsigned CandidatesPerKernel = 4;
/// Requests per fresh kernel in the warm leg: a 99% hit rate.
constexpr unsigned WarmGroup = 100;

/// The block sizes of the Perfect Club suite at its default options,
/// sorted and with repeats: the size distribution of the kernel pool.
std::vector<unsigned> perfectClubBlockSizes() {
  std::vector<unsigned> Sizes;
  for (Benchmark B : allBenchmarks())
    for (const BasicBlock &BB : buildBenchmark(B))
      Sizes.push_back(static_cast<unsigned>(BB.size()));
  std::sort(Sizes.begin(), Sizes.end());
  return Sizes;
}

/// A straight-line kernel from the KernelGen patterns, one to three
/// patterns long, under the Fortran aliasing rules the Perfect Club
/// stand-ins use by default (the paper's section 4.2).
Function makeKernel(Rng &R, unsigned Index) {
  Function F("serve" + std::to_string(Index));
  // Unit frequency: served kernels carry no profile, so spill_pct is the
  // static spill share rather than one dominated by a few hot kernels.
  BasicBlock &BB = F.addBlock("body", 1.0);
  KernelContext Ctx(F, BB, /*FortranAliasing=*/true, R.nextUInt64());
  auto Between = [&](unsigned Lo, unsigned Hi) {
    return Lo + static_cast<unsigned>(R.nextBounded(Hi - Lo + 1));
  };
  unsigned NumPatterns = Between(1, 3);
  for (unsigned P = 0; P != NumPatterns; ++P) {
    switch (R.nextBounded(9)) {
    case 0:
      emitStencil1D(Ctx, "a", "b", Between(2, 5), Between(1, 6));
      break;
    case 1:
      emitStencil2D(Ctx, "g", "h", 4 * Between(2, 6), Between(1, 3));
      break;
    case 2:
      emitDotProduct(Ctx, "x", "y", "dot", Between(1, 8));
      break;
    case 3:
      emitInteraction(Ctx, "pos", "frc", Between(1, 4));
      break;
    case 4:
      emitGatherChase(Ctx, "idx", "dat", "out", Between(1, 5));
      break;
    case 5:
      emitExprTree(Ctx, "in", "tree", Between(4, 16));
      break;
    case 6:
      emitRecurrence(Ctx, "co", "rec", Between(1, 8));
      break;
    case 7:
      emitComplexMatMul3(Ctx, "u", "v", "w");
      break;
    default:
      emitScalarSoup(Ctx, "soup", Between(2, 12), Between(1, 3));
      break;
    }
  }
  Ctx.builder().emitRet();
  return F;
}

/// Everything a serve-mixed run sets up: the kernel pool, the request
/// stream, the server and the client connections.
struct ServeSetup {
  std::vector<Function> Kernels;
  std::vector<std::string> Texts;
  std::vector<std::string> Payloads;
  std::vector<unsigned> Stream; ///< Kernel index of each request.
  size_t ColdLeg = 0;           ///< Requests of the stream's cold leg.
  std::string SocketPath;
  std::unique_ptr<BschedServer> Server;
  std::vector<FdHandle> Conns;

  ~ServeSetup() { tearDown(); }

  void tearDown() {
    Conns.clear();
    if (Server)
      Server->stop();
    Server.reset();
    if (!SocketPath.empty())
      ::unlink(SocketPath.c_str());
  }

  std::string build(uint64_t Seed, unsigned Workers, bool Listen) {
    tearDown();
    Kernels.clear();
    Texts.clear();
    Payloads.clear();

    // A fixed number of candidates, so every seed does the same set-up
    // work; each Perfect Club block then takes, KernelsPerBlock times, the
    // unused candidate nearest to its size (ties to the smaller). Only the
    // sizes are kept; the chosen candidates are generated again.
    std::vector<unsigned> BlockSizes = perfectClubBlockSizes();
    const size_t PoolSize = BlockSizes.size() * KernelsPerBlock;
    std::multimap<unsigned, unsigned> Candidates; ///< Size to candidate.
    Rng Root(Seed);
    for (unsigned C = 0; C != CandidatesPerKernel * PoolSize; ++C) {
      Rng R = Root.split(C);
      Candidates.emplace(makeKernel(R, C).block(0).size(), C);
    }
    for (unsigned Target : BlockSizes)
      for (unsigned I = 0; I != KernelsPerBlock; ++I) {
        auto It = Candidates.lower_bound(Target);
        if (It == Candidates.end() ||
            (It != Candidates.begin() &&
             Target - std::prev(It)->first <= It->first - Target))
          --It;
        Rng R = Root.split(It->second);
        Kernels.push_back(makeKernel(R, It->second));
        Candidates.erase(It);
      }
    Rng R = Root.split(~0ull);
    for (size_t I = Kernels.size(); I > 1; --I)
      std::swap(Kernels[I - 1], Kernels[R.nextBounded(I)]);
    for (const Function &F : Kernels) {
      CompileRequest Request;
      Request.Id = F.name();
      Request.Kernel = printFunction(F);
      Request.WantSchedule = true;
      Texts.push_back(Request.Kernel);
      Payloads.push_back(Request.toJson());
    }

    // The cold leg sends the first kernels of the pool once each; the warm
    // leg has one group of WarmGroup requests per remaining kernel, that
    // kernel fresh at a seeded place in its group and the rest repeats of
    // cold-leg kernels drawn uniformly. The legs are equally long up to
    // rounding.
    const size_t Fresh = PoolSize / (WarmGroup + 1);
    ColdLeg = PoolSize - Fresh;
    Stream.clear();
    for (size_t K = 0; K != ColdLeg; ++K)
      Stream.push_back(static_cast<unsigned>(K));
    for (size_t K = ColdLeg; K != PoolSize; ++K) {
      uint64_t FreshAt = R.nextBounded(WarmGroup);
      for (unsigned I = 0; I != WarmGroup; ++I)
        Stream.push_back(static_cast<unsigned>(
            I == FreshAt ? K : R.nextBounded(ColdLeg)));
    }
    if (!Listen)
      return "";

    static unsigned Instances = 0;
    SocketPath = ".bench_build/s" + std::to_string(::getpid()) + "-" +
                 std::to_string(Instances++) + ".sock";
    ::unlink(SocketPath.c_str());
    ServerConfig Config;
    Config.SocketPath = SocketPath;
    Config.Workers = Workers;
    Server = std::make_unique<BschedServer>(Config);
    Status Started = Server->start();
    if (!Started.ok())
      return "server failed to listen on " + SocketPath;
    for (unsigned C = 0; C != Workers; ++C) {
      ErrorOr<FdHandle> Conn = connectUnix(SocketPath, /*RetryMs=*/2000);
      if (!Conn)
        return "client could not connect to " + SocketPath;
      Conns.push_back(std::move(*Conn));
    }
    return "";
  }
};

/// What the client saw for one request of a round.
struct Reply {
  double Ms = 0.0;
  bool Ok = false;
  bool Hit = false;
  uint64_t ScheduleHash = 0;
  double DynamicInstructions = 0.0;
  double DynamicSpills = 0.0;
  std::string Schedule; ///< Kept in the first round only.
  std::string Error;
};

} // namespace

int runServeMixed(const Options &Opts) {
  Report Rep(Opts);
  // Two server workers and two connections: with every CPU busy, the
  // other tenants of a shared host set the pace; measured run-to-run
  // spreads halved against four.
  const unsigned Workers = std::min(2u, Opts.loadThreads());
  ServeSetup Setup;
  SetUpTimer SetUp;
  std::string SetupError = SetUp.time([&] {
    return Setup.build(Opts.Seed, Workers, /*Listen=*/!Opts.Trace);
  });
  if (!SetupError.empty()) {
    Rep.fail("serve-mixed setup", SetupError);
    return Rep.finish();
  }
  const size_t PoolSize = Setup.Kernels.size();

  Samples Sizes;
  for (const Function &F : Setup.Kernels)
    Sizes.add(F.block(0).size());
  Rep.fact("load shape", "1 process; BschedServer with " +
                             std::to_string(Workers) + " workers, " +
                             std::to_string(Workers) +
                             " persistent client connections (min(2, nproc=" +
                             std::to_string(Opts.HardwareThreads) + "))");
  Rep.fact("inputs",
           std::to_string(PoolSize) + " seeded KernelGen kernels, " +
               std::to_string(KernelsPerBlock) +
               " per Perfect Club block, nearest its size of " +
               std::to_string(CandidatesPerKernel * PoolSize) +
               " candidates (" +
               std::to_string(static_cast<int>(Sizes.quantile(0))) + ".." +
               std::to_string(static_cast<int>(Sizes.quantile(1))) +
               " instrs, median " +
               std::to_string(static_cast<int>(Sizes.median())) +
               "); per round a cold leg of " + std::to_string(Setup.ColdLeg) +
               " fresh requests (0% hits) then a warm leg of " +
               std::to_string(Setup.Stream.size() - Setup.ColdLeg) +
               " requests, one fresh per " + std::to_string(WarmGroup) +
               " (99% hits)");

  if (Opts.Trace) {
    ReplayInputs In;
    for (unsigned K = 0; K != 48; ++K) {
      In.Kernels.push_back(&Setup.Kernels[K]);
      In.ServiceKernels.push_back(&Setup.Kernels[K]);
    }
    for (unsigned K : Setup.Stream)
      In.Requests.push_back(&Setup.Kernels[K]);
    In.Systems = {&gainMemory()};
    In.Models = {ProcessorModel::unlimited(), ProcessorModel::maxOutstanding(8),
                 ProcessorModel::maxLength(8)};
    In.Workers = Workers;
    runReplay(Opts, In, Rep);
    return Rep.finish();
  }

  const size_t M = Setup.Stream.size();
  Samples RoundReqPerS, AllMs, HitMs, MissMs;
  std::vector<std::string> FirstSchedule(PoolSize);
  std::vector<uint64_t> FirstHash(PoolSize);
  std::vector<double> DynInstrs(PoolSize), DynSpills(PoolSize);
  unsigned Rounds = 0;
  Clock::time_point Start = Clock::now();
  do {
    Setup.Server->cache().clear();
    std::vector<Reply> Replies(M);
    std::atomic<size_t> Next{0};
    const bool KeepText = Rounds == 0;
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Clients;
    for (FdHandle &Conn : Setup.Conns)
      Clients.emplace_back([&, Fd = Conn.get()] {
        std::string Payload;
        for (size_t I; (I = Next.fetch_add(1)) < M;) {
          Reply &Out = Replies[I];
          Clock::time_point Sent = Clock::now();
          if (!writeFrame(Fd, Setup.Payloads[Setup.Stream[I]]).ok() ||
              readFrame(Fd, Payload, DefaultMaxFrameBytes) !=
                  FrameStatus::Frame) {
            Out.Error = "transport failure";
            return;
          }
          Out.Ms = msSince(Sent);
          ErrorOr<CompileResponse> Response =
              CompileResponse::fromJson(Payload);
          if (!Response || !Response->Ok) {
            Out.Error = Response ? "request failed: " + Payload
                                 : "unparseable response";
            continue;
          }
          Out.Ok = true;
          Out.Hit = Response->CacheHit;
          Out.ScheduleHash = hashText(Response->Schedule);
          Out.DynamicInstructions = Response->DynamicInstructions;
          Out.DynamicSpills = Response->DynamicSpills;
          if (KeepText)
            Out.Schedule = std::move(Response->Schedule);
        }
      });
    for (std::thread &T : Clients)
      T.join();
    double RoundMs = msSince(T0);

    size_t Answered = 0;
    for (size_t I = 0; I != M; ++I) {
      Reply &R = Replies[I];
      unsigned K = Setup.Stream[I];
      std::string Where = "serve-mixed request " + std::to_string(I) +
                          " kernel '" + Setup.Kernels[K].name() + "'";
      if (R.Ms == 0.0 && R.Error.empty())
        continue; // Never sent: its connection failed earlier.
      Rep.attempt(R.Ok);
      if (!R.Ok) {
        Rep.fail(Where, R.Error);
        continue;
      }
      ++Answered;
      AllMs.add(R.Ms);
      (R.Hit ? HitMs : MissMs).add(R.Ms);
      if (FirstSchedule[K].empty() && KeepText) {
        FirstSchedule[K] = std::move(R.Schedule);
        FirstHash[K] = R.ScheduleHash;
        DynInstrs[K] = R.DynamicInstructions;
        DynSpills[K] = R.DynamicSpills;
      } else if (R.ScheduleHash != FirstHash[K]) {
        Rep.fail(Where, "response differs from the kernel's first response");
      }
    }
    RoundReqPerS.add(1000.0 * static_cast<double>(Answered) / RoundMs);
    ++Rounds;

    // A throwaway set-up between rounds, for setup_s.
    ServeSetup Extra;
    std::string ExtraError =
        SetUp.time([&] { return Extra.build(Opts.Seed, Workers, true); });
    if (!ExtraError.empty())
      Rep.fail("serve-mixed setup", ExtraError);
  } while (msSince(Start) < Opts.Seconds * 1000.0 && Rep.correct());
  Setup.tearDown();

  // The fault goes into the first response that has a store to move.
  for (unsigned K = 0; !Opts.InjectFault.empty() && K != PoolSize; ++K) {
    ErrorOr<Function> Parsed = parseSingleFunction(FirstSchedule[K]);
    std::string Block = Parsed ? injectFault(*Parsed) : "";
    if (Block.empty())
      continue;
    FirstSchedule[K] = printFunction(*Parsed);
    Rep.fact("injected fault", "moved a store below the redefinition of its "
                               "address register in the response for kernel '" +
                               Setup.Kernels[K].name() + "' block '" + Block +
                               "'");
    break;
  }

  // Gate: every kernel's returned text is re-parsed and interpreted
  // against the request's own text. The spill class is identified by id,
  // the first id past the input's alias classes: the printer writes `!N`
  // and the parser names classes "0".."N", so a lookup by the "__spill"
  // name would create a fresh class instead.
  double GainSum = 0.0, InstrSum = 0.0, SpillSum = 0.0;
  unsigned Checked = 0, Spilling = 0;
  for (unsigned K = 0; K != PoolSize; ++K) {
    std::string Where = "serve-mixed kernel '" + Setup.Kernels[K].name() + "'";
    if (FirstSchedule[K].empty()) {
      Rep.fail(Where, "no response with a schedule");
      continue;
    }
    ErrorOr<Function> Input = parseSingleFunction(Setup.Texts[K]);
    ErrorOr<Function> Compiled = parseSingleFunction(FirstSchedule[K]);
    if (!Input || !Compiled) {
      Rep.fail(Where, "request or response text does not parse");
      continue;
    }
    std::string Problem =
        checkSemantics(*Input, *Compiled, Input->numAliasClasses());
    if (!Problem.empty())
      Rep.fail(Where, Problem);
    Problem = checkSimIdentities(*Compiled);
    if (!Problem.empty())
      Rep.fail(Where, Problem);
    ++Checked;
    Spilling += DynSpills[K] > 0.0;
    InstrSum += DynInstrs[K];
    SpillSum += DynSpills[K];

    CompiledFunction Candidate;
    Candidate.Compiled = std::move(*Compiled);
    ErrorOr<double> Gain = balancedGain(*Input, Candidate, Opts.Seed);
    if (Gain)
      GainSum += *Gain;
    else
      Rep.fail(Where, "gain simulation failed: " + Gain.errorText());
  }

  Rep.fact("rounds", std::to_string(Rounds) + " (cache emptied each round)");
  Rep.fact("requests", std::to_string(AllMs.size()) + " (" +
                           std::to_string(HitMs.size()) + " hits, " +
                           std::to_string(MissMs.size()) + " misses)");
  Rep.fact("gate", std::to_string(Checked) +
                       " responses re-parsed and interpreted, " +
                       std::to_string(Spilling) +
                       " of them with spill code (spill class by id)");
  Rep.metric("setup_s", SetUp.samples().median(), "s",
             "median of " + std::to_string(SetUp.samples().size()) +
                 " set-ups, one before the run and one after each round");
  Rep.decileOf("throughput_per_s", RoundReqPerS, "1/s", /*Throughput=*/true);
  Rep.decileOf("latency_ms_p10", AllMs, "ms");
  Rep.decileOf("hit_ms_p10", HitMs, "ms");
  Rep.decileOf("miss_ms_p10", MissMs, "ms");
  reportGain(Rep, GainSum / static_cast<double>(Checked),
             "the served kernels on L80(2,10)");
  Rep.metric("spill_pct", 100.0 * SpillSum / InstrSum, "%",
             "dynamic spill share of the served compiles");
  Rep.metric("ok_ratio",
             1.0 - static_cast<double>(Rep.failed()) /
                       static_cast<double>(Rep.attempted()),
             "ratio", "1 - failed/attempted operations");
  Rep.metric("peak_rss_mb", peakRssMb(), "MB");
  return Rep.finish();
}

} // namespace perfbench
