//===- tests/WeightsOracle.cpp - Reference balanced weighting -------------=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "tests/WeightsOracle.h"

#include "dag/DagUtils.h"
#include "dag/Reachability.h"

#include <algorithm>
#include <vector>

using namespace bsched;

namespace {

/// The paper's union-find approximation of Chances for one component:
/// with node levels (distance from the farthest leaf) maintained as
/// min/max per set, the longest path length is (max - min + 1). That
/// counts *nodes*; clamp to the number of loads in the component so the
/// estimate never exceeds what any path could contain.
unsigned chancesByLevels(const std::vector<unsigned> &Component,
                         const std::vector<unsigned> &Levels,
                         unsigned NumLoadsInComponent) {
  unsigned MinLevel = ~0u, MaxLevel = 0;
  for (unsigned Node : Component) {
    MinLevel = std::min(MinLevel, Levels[Node]);
    MaxLevel = std::max(MaxLevel, Levels[Node]);
  }
  unsigned PathLength = MaxLevel - MinLevel + 1;
  return std::min(PathLength, NumLoadsInComponent);
}

/// Marks which nodes count as *uncertain* loads: known-latency loads are
/// excluded when the opt-out is honoured (section 6).
std::vector<char> uncertainLoads(const DepDag &Dag, bool HonorKnown) {
  std::vector<char> Uncertain(Dag.size(), 0);
  for (unsigned I = 0, E = Dag.size(); I != E; ++I) {
    const Instruction &Instr = Dag.instruction(I);
    Uncertain[I] =
        Instr.isLoad() && !(HonorKnown && Instr.hasKnownLatency());
  }
  return Uncertain;
}

/// Initial node weight before contributions are added.
double initialWeight(const Instruction &Instr, const LatencyModel &Model,
                     bool HonorKnown) {
  if (!Instr.isLoad())
    return Model.opLatency(Instr.opcode());
  if (HonorKnown && Instr.hasKnownLatency())
    return static_cast<double>(Instr.knownLatency());
  return 1.0;
}

} // namespace

void bsched::assignReferenceWeights(DepDag &Dag, const LatencyModel &Model,
                                    ChancesMethod Method,
                                    double SlotsPerCycle,
                                    bool HonorKnownLatency) {
  unsigned N = Dag.size();
  std::vector<char> Uncertain = uncertainLoads(Dag, HonorKnownLatency);
  std::vector<double> Weights(N);
  for (unsigned I = 0; I != N; ++I)
    Weights[I] = initialWeight(Dag.instruction(I), Model, HonorKnownLatency);

  TransitiveClosure Closure(Dag);

  for (unsigned I = 0; I != N; ++I) {
    BitVector Independent = Closure.independentOf(I);
    if (!Independent.any())
      continue;

    std::vector<unsigned> Levels;
    if (Method == ChancesMethod::UnionFindLevels)
      Levels = levelsFromLeavesWithin(Dag, Independent);

    double Slots = Model.issueSlots(Dag.instruction(I)) / SlotsPerCycle;
    for (const std::vector<unsigned> &Component :
         connectedComponents(Dag, Independent)) {
      unsigned NumLoads = 0;
      for (unsigned Node : Component)
        NumLoads += Uncertain[Node];
      if (NumLoads == 0)
        continue;

      unsigned Chances =
          Method == ChancesMethod::ExactLongestPath
              ? longestLoadPath(Dag, Component, Uncertain)
              : chancesByLevels(Component, Levels, NumLoads);
      double Share = Slots / static_cast<double>(Chances);
      for (unsigned Node : Component)
        if (Uncertain[Node])
          Weights[Node] += Share;
    }
  }

  for (unsigned I = 0; I != N; ++I)
    Dag.setWeight(I, Weights[I]);
}
