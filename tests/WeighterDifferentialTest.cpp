//===- tests/WeighterDifferentialTest.cpp - Kernel vs. reference oracle ---=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized differential tests for the allocation-free balanced-weighting
/// kernel: over thousands of random DAGs — both Chances methods, known
/// latencies honoured and ignored — the optimized scratch-driven kernel
/// must produce weights *bit-identical* to the allocating reference oracle
/// (tests/WeightsOracle.h).
/// Bit-identity, not epsilon-closeness: the kernel adds the same shares in
/// the same order, so any drift means the analyses diverged. One scratch is
/// reused across every DAG and configuration, which is exactly the
/// pipeline's reuse pattern. The Pred-matrix-free TransitiveClosure and the
/// weighter's BandedClosure are checked against the dense matrices.
///
//===----------------------------------------------------------------------===//

#include "dag/DagBuilder.h"
#include "dag/DepDag.h"
#include "dag/Reachability.h"
#include "ir/BasicBlock.h"
#include "sched/BalancedWeighter.h"
#include "sched/ListScheduler.h"
#include "sched/WeighterScratch.h"
#include "support/Rng.h"
#include "tests/WeightsOracle.h"
#include "workload/HugeBlocks.h"

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

using namespace bsched;

namespace {

/// Shape of one random test DAG: which nodes are loads, which loads carry
/// a statically known latency, and the forward edge list. A DepDag can be
/// instantiated from it repeatedly so the optimized and reference kernels
/// each get a fresh, identical graph.
struct RandomDagSpec {
  std::vector<bool> IsLoad;
  std::vector<unsigned> KnownLatency; ///< 0 = unknown; else cycles.
  std::vector<std::pair<unsigned, unsigned>> Edges;

  DepDag instantiate() const {
    BasicBlock BB("random");
    for (unsigned I = 0; I != IsLoad.size(); ++I) {
      Reg Dst = Reg::makeVirtual(RegClass::Int, I);
      if (IsLoad[I]) {
        Reg Base = Reg::makeVirtual(RegClass::Int, 1000 + I);
        Instruction Load = Instruction::makeLoad(
            Opcode::Load, Dst, Base, 0, static_cast<AliasClassId>(I));
        if (KnownLatency[I] != 0)
          Load.setKnownLatency(KnownLatency[I]);
        BB.append(std::move(Load));
      } else {
        Reg Src = Reg::makeVirtual(RegClass::Int, 2000 + I);
        BB.append(Instruction::makeBinaryImm(Opcode::AddI, Dst, Src,
                                             static_cast<int64_t>(I)));
      }
    }
    DepDag Dag(BB);
    for (auto [From, To] : Edges)
      Dag.addEdge(From, To, DepKind::Data);
    return Dag;
  }
};

/// Draws a random DAG of exactly \p N nodes: ~40% loads (~30% of those
/// with a known latency), and forward edges with a density drawn per graph
/// so the suite covers everything from edge-free (all nodes mutually
/// independent) to near-chains (few independent nodes).
RandomDagSpec randomSpecOfSize(Rng &R, unsigned N) {
  RandomDagSpec Spec;
  Spec.IsLoad.resize(N);
  Spec.KnownLatency.assign(N, 0);
  for (unsigned I = 0; I != N; ++I) {
    Spec.IsLoad[I] = R.nextBernoulli(0.4);
    if (Spec.IsLoad[I] && R.nextBernoulli(0.3))
      Spec.KnownLatency[I] = 2 + static_cast<unsigned>(R.nextBounded(19));
  }
  double Density = R.nextDouble() * 0.5;
  for (unsigned From = 0; From + 1 < N; ++From)
    for (unsigned To = From + 1; To != N; ++To)
      if (R.nextBernoulli(Density / (1.0 + 0.1 * (To - From))))
        Spec.Edges.push_back({From, To});
  return Spec;
}

/// The original 1-48 node draw used by the randomized suites.
RandomDagSpec randomSpec(Rng &R) {
  return randomSpecOfSize(R, 1 + static_cast<unsigned>(R.nextBounded(48)));
}

/// Exact double comparison through the bit pattern, so the failure message
/// shows which bits drifted (EXPECT_EQ on doubles would also be exact, but
/// 0.0 == -0.0 would pass — bit-identity must not).
void expectBitIdentical(const DepDag &Got, const DepDag &Want,
                        unsigned Node) {
  EXPECT_EQ(std::bit_cast<uint64_t>(Got.weight(Node)),
            std::bit_cast<uint64_t>(Want.weight(Node)))
      << "weight mismatch at node " << Node << ": optimized "
      << Got.weight(Node) << " vs reference " << Want.weight(Node);
}

struct KernelConfig {
  ChancesMethod Method;
  bool HonorKnown;
};

constexpr KernelConfig Configs[] = {
    {ChancesMethod::ExactLongestPath, true},
    {ChancesMethod::ExactLongestPath, false},
    {ChancesMethod::UnionFindLevels, true},
    {ChancesMethod::UnionFindLevels, false},
};

TEST(WeighterDifferential, RandomDagsBitIdenticalToReference) {
  Rng R(0xD1FFE2E7);
  WeighterScratch Scratch; // One scratch across all DAGs and configs.
  constexpr unsigned NumDags = 1200;
  for (unsigned Trial = 0; Trial != NumDags; ++Trial) {
    RandomDagSpec Spec = randomSpec(R);
    for (const KernelConfig &Config : Configs) {
      BalancedWeighter W(LatencyModel(), Config.Method, 1.0,
                         Config.HonorKnown);
      DepDag Optimized = Spec.instantiate();
      DepDag Reference = Spec.instantiate();
      W.assignWeights(Optimized, Scratch);
      assignReferenceWeights(Reference, LatencyModel(), Config.Method, 1.0,
                             Config.HonorKnown);
      ASSERT_EQ(Optimized.size(), Reference.size());
      for (unsigned I = 0; I != Optimized.size(); ++I)
        expectBitIdentical(Optimized, Reference, I);
      if (HasFailure())
        return; // One diverging DAG is enough diagnosis.
    }
  }
  EXPECT_EQ(Scratch.uses(), uint64_t{NumDags} * std::size(Configs));
}

TEST(WeighterDifferential, SuperscalarWidthsMatchReference) {
  Rng R(0x5CA1E5);
  WeighterScratch Scratch;
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    RandomDagSpec Spec = randomSpec(R);
    for (double Width : {2.0, 4.0}) {
      for (const KernelConfig &Config : Configs) {
        BalancedWeighter W(LatencyModel(), Config.Method, Width,
                           Config.HonorKnown);
        DepDag Optimized = Spec.instantiate();
        DepDag Reference = Spec.instantiate();
        W.assignWeights(Optimized, Scratch);
        assignReferenceWeights(Reference, LatencyModel(), Config.Method,
                               Width, Config.HonorKnown);
        for (unsigned I = 0; I != Optimized.size(); ++I)
          expectBitIdentical(Optimized, Reference, I);
        if (HasFailure())
          return;
      }
    }
  }
}

TEST(WeighterDifferential, BreakdownWeightsMatchReference) {
  Rng R(0xB4EAD0);
  for (unsigned Trial = 0; Trial != 300; ++Trial) {
    RandomDagSpec Spec = randomSpec(R);
    for (const KernelConfig &Config : Configs) {
      BalancedWeighter W(LatencyModel(), Config.Method, 1.0,
                         Config.HonorKnown);
      DepDag ForBreakdown = Spec.instantiate();
      DepDag Reference = Spec.instantiate();
      BalancedWeighter::Breakdown Breakdown =
          W.computeBreakdown(ForBreakdown);
      assignReferenceWeights(Reference, LatencyModel(), Config.Method, 1.0,
                             Config.HonorKnown);

      ASSERT_EQ(Breakdown.Weights.size(), Reference.size());
      for (unsigned I = 0; I != Reference.size(); ++I) {
        EXPECT_EQ(std::bit_cast<uint64_t>(Breakdown.Weights[I]),
                  std::bit_cast<uint64_t>(Reference.weight(I)));
        // computeBreakdown also writes the weights into its DAG.
        expectBitIdentical(ForBreakdown, Reference, I);
      }
      if (HasFailure())
        return;
    }
  }
}

TEST(WeighterDifferential, ClosureWithoutPredMatrixIsEquivalent) {
  Rng R(0xC105E);
  TransitiveClosure Dense, Lean; // Reused across DAGs like the scratch.
  BitVector DenseInd, LeanInd;
  for (unsigned Trial = 0; Trial != 400; ++Trial) {
    DepDag Dag = randomSpec(R).instantiate();
    Dense.compute(Dag, /*StorePreds=*/true);
    Lean.compute(Dag, /*StorePreds=*/false);
    ASSERT_TRUE(Dense.storesPreds());
    ASSERT_FALSE(Lean.storesPreds());
    for (unsigned I = 0; I != Dag.size(); ++I) {
      Dense.independentOf(I, DenseInd);
      Lean.independentOf(I, LeanInd);
      ASSERT_EQ(DenseInd, LeanInd) << "G_ind mismatch at node " << I;
      ASSERT_EQ(Dense.predsOf(I), Lean.predsOf(I))
          << "Pred* mismatch at node " << I;
      ASSERT_EQ(Dense.succsOf(I), Lean.succsOf(I))
          << "Succ* mismatch at node " << I;
    }
  }
}

/// The weighter's banded closure must agree bit-for-bit with the
/// materialized row kernel on every independence set. Sizes straddle the
/// 64-bit word boundaries where the band edge cases live (partial last
/// word, exactly full words, one node past a full word).
TEST(WeighterDifferential, ClosureKernelsAgreeAtWordBoundaries) {
  Rng R(0xB10CC);
  TransitiveClosure Rows;
  BandedClosure Bands;
  BitVector RowsInd, BandInd;
  for (unsigned N : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 130u, 257u}) {
    for (unsigned Trial = 0; Trial != 6; ++Trial) {
      DepDag Dag = randomSpecOfSize(R, N).instantiate();
      Rows.compute(Dag);
      Bands.attach(Dag);
      ASSERT_EQ(Bands.size(), N);
      // Ascending then descending, so the band cache both streams forward
      // and is forced to rebuild on every backward 64-crossing.
      for (unsigned Pass = 0; Pass != 2; ++Pass) {
        for (unsigned Step = 0; Step != N; ++Step) {
          unsigned I = Pass == 0 ? Step : N - 1 - Step;
          Rows.independentOf(I, RowsInd);
          Bands.independentOf(I, BandInd);
          ASSERT_EQ(RowsInd, BandInd)
              << "banded G_ind mismatch at node " << I << " of " << N;
        }
      }
    }
  }
}

/// The huge-DAG oracle: on real builder-produced DAGs at n ∈ {64, 512,
/// 4096}, the default weighting path must reproduce the reference
/// oracle's weights bit-for-bit, for both Chances methods — and since
/// schedules are a pure function of weights, the n=512 schedules must
/// match too.
TEST(WeighterDifferential, HugeBlocksBitIdenticalToOracle) {
  WeighterScratch Scratch;
  for (unsigned Size : {64u, 512u, 4096u}) {
    Function F = buildHugeBlock(Size);
    for (ChancesMethod Method :
         {ChancesMethod::ExactLongestPath, ChancesMethod::UnionFindLevels}) {
      DepDag Reference = buildDag(F.block(0));
      assignReferenceWeights(Reference, LatencyModel(), Method, 1.0, true);
      BalancedWeighter W(LatencyModel(), Method, 1.0, true);
      DepDag Dag = buildDag(F.block(0));
      W.assignWeights(Dag, Scratch);
      ASSERT_EQ(Dag.size(), Size);
      for (unsigned I = 0; I != Dag.size(); ++I)
        expectBitIdentical(Dag, Reference, I);
      if (HasFailure())
        return;
      if (Size == 512) {
        EXPECT_EQ(scheduleDag(Dag).Order, scheduleDag(Reference).Order)
            << "schedule drift from the oracle's weights";
      }
    }
  }
}

/// The scratch entry point and the plain entry point must agree (the plain
/// one is a thin wrapper, but the wrapper is what non-pipeline callers
/// use).
TEST(WeighterDifferential, ScratchAndPlainEntryPointsAgree) {
  Rng R(0xE27);
  WeighterScratch Scratch;
  for (unsigned Trial = 0; Trial != 100; ++Trial) {
    RandomDagSpec Spec = randomSpec(R);
    BalancedWeighter W;
    DepDag ViaScratch = Spec.instantiate();
    DepDag Plain = Spec.instantiate();
    W.assignWeights(ViaScratch, Scratch);
    W.assignWeights(Plain);
    for (unsigned I = 0; I != Plain.size(); ++I)
      expectBitIdentical(ViaScratch, Plain, I);
    if (HasFailure())
      return;
  }
}

} // namespace
