//===- dag/Reachability.cpp - Transitive closure ---------------------------=//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dag/Reachability.h"

#include <algorithm>
#include <bit>

using namespace bsched;

void TransitiveClosure::compute(const DepDag &Dag, bool StorePreds) {
  N = Dag.size();
  WordsPerRow = (N + 63) / 64;
  HavePreds = StorePreds;
  SuccWords.assign(size_t(N) * WordsPerRow, 0);
  PredWords.assign(HavePreds ? size_t(N) * WordsPerRow : 0, 0);

  // Edges always point from lower to higher node index (program order is a
  // topological order), so one reverse sweep computes Succ* and one forward
  // sweep computes Pred*, each edge ORing in its endpoint's whole row.
  for (unsigned I = N; I-- > 0;) {
    uint64_t *Row = SuccWords.data() + size_t(I) * WordsPerRow;
    for (const DepEdge &E : Dag.succs(I)) {
      Row[E.Other >> 6] |= uint64_t(1) << (E.Other & 63);
      const uint64_t *Other = succRow(E.Other);
      for (unsigned W = 0; W != WordsPerRow; ++W)
        Row[W] |= Other[W];
    }
  }
  if (!HavePreds)
    return;
  for (unsigned I = 0; I != N; ++I) {
    uint64_t *Row = PredWords.data() + size_t(I) * WordsPerRow;
    for (const DepEdge &E : Dag.preds(I)) {
      Row[E.Other >> 6] |= uint64_t(1) << (E.Other & 63);
      const uint64_t *Other = predRow(E.Other);
      for (unsigned W = 0; W != WordsPerRow; ++W)
        Row[W] |= Other[W];
    }
  }
}

BitVector TransitiveClosure::succsOf(unsigned Node) const {
  assert(Node < N && "closure query out of range");
  BitVector Result(N);
  const uint64_t *Row = succRow(Node);
  for (unsigned To = 0; To != N; ++To)
    if ((Row[To >> 6] >> (To & 63)) & 1)
      Result.set(To);
  return Result;
}

BitVector TransitiveClosure::predsOf(unsigned Node) const {
  assert(Node < N && "closure query out of range");
  BitVector Result(N);
  if (HavePreds) {
    const uint64_t *Row = predRow(Node);
    for (unsigned From = 0; From != N; ++From)
      if ((Row[From >> 6] >> (From & 63)) & 1)
        Result.set(From);
    return Result;
  }
  // Topological order: every predecessor has a lower index.
  for (unsigned From = 0; From != Node; ++From)
    if (reaches(From, Node))
      Result.set(From);
  return Result;
}

BitVector TransitiveClosure::independentOf(unsigned Node) const {
  BitVector Result;
  independentOf(Node, Result);
  return Result;
}

void TransitiveClosure::independentOf(unsigned Node, BitVector &Out) const {
  assert(Node < N && "closure query out of range");
  if (Out.size() != N)
    Out.resize(N);
  Out.setAll();
  Out.reset(Node);
  Out.andNotWords(succRow(Node), WordsPerRow);
  if (HavePreds) {
    Out.andNotWords(predRow(Node), WordsPerRow);
    return;
  }
  // Derive the Pred row from Succ columns: only indices below Node can be
  // predecessors (topological order), so one short scan replaces the
  // dropped matrix half.
  for (unsigned From = 0; From != Node; ++From)
    if (reaches(From, Node))
      Out.reset(From);
}

//===----------------------------------------------------------------------===//
// BandedClosure
//===----------------------------------------------------------------------===//

void BandedClosure::attach(const DepDag &D) {
  Dag = &D;
  N = D.size();
  WordsPerRow = (N + 63) / 64;
  CurBand = ~0u;
  Down.resize(N);
  Up.resize(N);
  SuccRows.resize(size_t(64) * WordsPerRow);
  PredRows.resize(size_t(64) * WordsPerRow);
}

void BandedClosure::buildBand(unsigned Band) {
  const unsigned Base = Band * 64;
  const unsigned End = std::min(Base + 64, N);

  // Forward sweep: Down[j] = mask of band members strictly reaching j.
  // Nodes below the band have no band predecessors (topological order),
  // so their masks are zero; the sweep starts at the band base but those
  // zeros must be readable.
  std::fill(Down.begin(), Down.begin() + Base, 0);
  for (unsigned J = Base; J != N; ++J) {
    uint64_t W = 0;
    for (const DepEdge &E : Dag->preds(J)) {
      unsigned Rel = E.Other - Base; // Wraps >= 64 when E.Other < Base.
      if (Rel < 64)
        W |= uint64_t(1) << Rel;
      W |= Down[E.Other];
    }
    Down[J] = W;
  }

  // Reverse sweep: Up[j] = mask of band members strictly reachable from
  // j. Nothing at or above the band end can reach into the band.
  std::fill(Up.begin() + End, Up.end(), 0);
  for (unsigned J = End; J-- > 0;) {
    uint64_t W = 0;
    for (const DepEdge &E : Dag->succs(J)) {
      unsigned Rel = E.Other - Base;
      if (Rel < 64)
        W |= uint64_t(1) << Rel;
      W |= Up[E.Other];
    }
    Up[J] = W;
  }

  // Transpose the masks into the band members' closure rows: member c
  // reaches j  iff bit c of Down[j]; j reaches member c iff bit c of
  // Up[j]. These rows are bit-identical to the materialized matrices'.
  std::fill(SuccRows.begin(), SuccRows.end(), 0);
  std::fill(PredRows.begin(), PredRows.end(), 0);
  for (unsigned J = 0; J != N; ++J) {
    const uint64_t JBit = uint64_t(1) << (J & 63);
    const unsigned JWord = J >> 6;
    for (uint64_t M = Down[J]; M; M &= M - 1)
      SuccRows[size_t(std::countr_zero(M)) * WordsPerRow + JWord] |= JBit;
    for (uint64_t M = Up[J]; M; M &= M - 1)
      PredRows[size_t(std::countr_zero(M)) * WordsPerRow + JWord] |= JBit;
  }
  CurBand = Band;
}

void BandedClosure::independentOf(unsigned Node, BitVector &Out) {
  assert(Dag && "independentOf before attach");
  assert(Node < N && "closure query out of range");
  const unsigned Band = Node >> 6;
  if (Band != CurBand)
    buildBand(Band);
  const unsigned Member = Node & 63;
  if (Out.size() != N)
    Out.resize(N);
  Out.setAll();
  Out.reset(Node);
  Out.andNotWords(SuccRows.data() + size_t(Member) * WordsPerRow,
                  WordsPerRow);
  Out.andNotWords(PredRows.data() + size_t(Member) * WordsPerRow,
                  WordsPerRow);
}
