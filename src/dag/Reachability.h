//===- dag/Reachability.h - Transitive closure -----------------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transitive closure over a code DAG. The balanced-scheduling algorithm
/// needs, for every instruction i, the sets Pred*(i) and Succ*(i)
/// (section 3, step 3: G_ind = G - (Pred(i) u Succ(i))); computing all rows
/// once as bit vectors makes that subtraction a few word operations.
///
/// Two forms serve that need (DESIGN.md §3m):
///
///  - TransitiveClosure: both N x N matrices, filled by one reverse sweep
///    ORing whole successor rows. MemDepCertifier and the tests-side
///    weighting oracle read it;
///  - BandedClosure: no N x N matrices at all. The weighting loop visits
///    contributors in ascending order, so the closure rows of one
///    64-contributor band are rebuilt O(N/64) times from the edges, for
///    O(N) words of memory total. It is the balanced weighter's only G_ind
///    source.
///
/// The materialized rows live in two flat word arrays (one cache-resident
/// allocation per direction instead of one vector per node), and the
/// closure is reusable: `compute()` re-derives the rows for another DAG in
/// the same storage, so a weighter scratch amortizes the allocation across
/// every block of a compilation. Because node order is topological,
/// Pred*(i) is exactly the set of j with i in Succ*(j); `StorePreds =
/// false` drops the dense Pred matrix (halving closure memory) and derives
/// predecessor bits from the Succ rows on demand.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_DAG_REACHABILITY_H
#define BSCHED_DAG_REACHABILITY_H

#include "dag/DepDag.h"
#include "support/BitVector.h"

#include <cstdint>
#include <vector>

namespace bsched {

/// An empty placeholder for the closure-strategy knobs that earlier
/// builds carried on PipelineConfig. Every block is now weighted through
/// BandedClosure, so there is nothing left to choose. The struct is kept
/// only because the repository benchmark's layer replay
/// (perfbench/cpp/Replay.cpp) still passes PipelineConfig::Closure to the
/// BalancedWeighter constructor; it goes with the next benchmark change.
struct ClosureOptions {};

/// Dense transitive closure of a DepDag.
class TransitiveClosure {
public:
  /// An empty closure; call compute() before use.
  TransitiveClosure() = default;

  /// Computes Pred*/Succ* rows for every node of \p Dag. O(n^2 / 64) words.
  /// With \p StorePreds false only the Succ matrix is materialized.
  explicit TransitiveClosure(const DepDag &Dag, bool StorePreds = true) {
    compute(Dag, StorePreds);
  }

  /// Recomputes the closure for \p Dag, reusing the row storage (no
  /// allocation when \p Dag is no larger than any previously computed DAG).
  void compute(const DepDag &Dag, bool StorePreds = true);

  /// Number of nodes in the closed DAG.
  unsigned size() const { return N; }

  /// True if the dense Pred matrix is materialized.
  bool storesPreds() const { return HavePreds; }

  /// All strict transitive successors of \p Node.
  BitVector succsOf(unsigned Node) const;

  /// All strict transitive predecessors of \p Node. Works in both storage
  /// modes; without the Pred matrix the row is derived from the Succ
  /// columns (O(n) bit tests — a cold-path query, not the kernel).
  BitVector predsOf(unsigned Node) const;

  /// True if \p From reaches \p To through one or more edges.
  bool reaches(unsigned From, unsigned To) const {
    assert(From < N && To < N && "closure query out of range");
    return (SuccWords[size_t(From) * WordsPerRow + (To >> 6)] >>
            (To & 63)) &
           1;
  }

  /// The set of nodes *independent* of \p Node: everything except the node
  /// itself, its transitive predecessors, and its transitive successors.
  /// This is the node set of the paper's G_ind.
  BitVector independentOf(unsigned Node) const;

  /// In-place variant of independentOf: \p Out is resized to the DAG and
  /// overwritten without allocating (when its capacity suffices). This is
  /// the hot-path entry used by the balanced-weighting kernel.
  void independentOf(unsigned Node, BitVector &Out) const;

private:
  const uint64_t *succRow(unsigned Node) const {
    return SuccWords.data() + size_t(Node) * WordsPerRow;
  }
  const uint64_t *predRow(unsigned Node) const {
    return PredWords.data() + size_t(Node) * WordsPerRow;
  }

  unsigned N = 0;
  unsigned WordsPerRow = 0;
  bool HavePreds = false;
  std::vector<uint64_t> SuccWords; ///< N rows of WordsPerRow words.
  std::vector<uint64_t> PredWords; ///< Same shape; empty if !HavePreds.
};

/// Banded on-demand closure: serves the same independentOf queries as a
/// materialized TransitiveClosure without ever holding N x N bits.
///
/// The balanced-weighting loop asks for G_ind of contributors 0, 1, ...,
/// N-1 in order. This class groups contributors into bands of 64 and, per
/// band, runs two O(E) mask sweeps over the DAG:
///
///   Down[j] = band members that strictly reach j   (forward sweep)
///   Up[j]   = band members strictly reachable by j (reverse sweep)
///
/// (each mask one word: bit c set means band member base+c). Scattering
/// the masks transposes them into 64 Succ* rows and 64 Pred* rows — bit
///-for-bit the same rows the materialized matrices would hold — which
/// serve the next 64 queries. Memory stays O(N) words; total work over
/// all bands matches the full-matrix sweep's O(E * N / 64) word
/// operations, so dropping the matrices costs nothing but the transpose.
///
/// Queries outside the cached band transparently rebuild (correct for any
/// access pattern; efficient for the weighter's ascending one).
class BandedClosure {
public:
  /// Points the closure at \p Dag and sizes the buffers (no allocation
  /// when \p Dag is no larger than previously attached DAGs). The DAG
  /// must outlive queries and must not gain edges while attached.
  void attach(const DepDag &Dag);

  /// Number of nodes in the attached DAG.
  unsigned size() const { return N; }

  /// G_ind of \p Node, exactly as TransitiveClosure::independentOf. \p Out
  /// is resized to the DAG and overwritten without allocating.
  void independentOf(unsigned Node, BitVector &Out);

private:
  void buildBand(unsigned Band);

  const DepDag *Dag = nullptr;
  unsigned N = 0;
  unsigned WordsPerRow = 0;
  unsigned CurBand = ~0u;
  std::vector<uint64_t> Down;     ///< Per-node reached-by-band masks.
  std::vector<uint64_t> Up;       ///< Per-node reaches-band masks.
  std::vector<uint64_t> SuccRows; ///< 64 rows x WordsPerRow words.
  std::vector<uint64_t> PredRows; ///< Same shape.
};

} // namespace bsched

#endif // BSCHED_DAG_REACHABILITY_H
