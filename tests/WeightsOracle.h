//===- tests/WeightsOracle.h - Reference balanced weighting ----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-optimization balanced-weighting kernel (Figure 6), kept outside
/// the library as the differential oracle of BalancedWeighter. Every
/// analysis allocates its own state, and G_ind comes from a materialized
/// TransitiveClosure, so the oracle shares neither the weighter's scratch
/// nor its BandedClosure. Shares are added in ascending contributor order,
/// one per uncertain node per contributor, so the weights are
/// bit-identical to BalancedWeighter's.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_TESTS_WEIGHTSORACLE_H
#define BSCHED_TESTS_WEIGHTSORACLE_H

#include "dag/DepDag.h"
#include "sched/BalancedWeighter.h"
#include "sched/LatencyModel.h"

namespace bsched {

/// Writes into \p Dag the weights BalancedWeighter(Model, Method,
/// SlotsPerCycle, HonorKnownLatency) assigns, computed the slow way.
void assignReferenceWeights(DepDag &Dag, const LatencyModel &Model,
                            ChancesMethod Method, double SlotsPerCycle,
                            bool HonorKnownLatency);

} // namespace bsched

#endif // BSCHED_TESTS_WEIGHTSORACLE_H
