//===- workload/HugeBlocks.cpp - Huge-DAG workload family -------------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "workload/HugeBlocks.h"

#include "workload/KernelGen.h"

using namespace bsched;

std::vector<unsigned> bsched::hugeBlockSizes() {
  return {2048, 4096, 8192, 16384};
}

namespace {

/// One array's emission state: a bumpable cursor, a running accumulator,
/// and disjoint offset counters for loads and stores (distinct constant
/// offsets are what let the symbolic alias analysis prune the would-be
/// quadratic store edges within the class).
struct ArrayState {
  Reg Cursor;
  Reg Acc;
  int64_t LoadOff = 0;
  int64_t StoreOff = 1 << 18; // Never overlaps the load range.
};

/// Fills \p BB (of \p F) with exactly \p Size schedulable instructions.
void emitHugeBlock(Function &F, BasicBlock &BB, unsigned Size,
                   const WorkloadOptions &Options, uint64_t Seed) {
  assert(Size >= 64 && "huge blocks start at 64 instructions");
  KernelContext Ctx(F, BB, Options.FortranAliasing, Seed);
  IrBuilder &B = Ctx.builder();
  Rng &R = Ctx.rng();

  // Eight named arrays: with FortranAliasing each is its own alias class,
  // partitioning the memory edges eight ways; without it they collapse to
  // the conservative single class.
  constexpr unsigned NumArrays = 8;
  std::vector<ArrayState> Arrays;
  std::vector<AliasClassId> Classes;
  Arrays.reserve(NumArrays);
  for (unsigned A = 0; A != NumArrays; ++A) {
    std::string Name = "h" + std::to_string(A);
    Classes.push_back(Ctx.arrayClass(Name));
    ArrayState S;
    S.Cursor = Ctx.arrayCursor(Name);       // 1 instr (LoadImm).
    S.Acc = B.emitFLoadImm(0.25 * (A + 1)); // 1 instr.
    Arrays.push_back(S);
  }
  Reg C1 = Ctx.fpConst(1.5), C2 = Ctx.fpConst(0.0625); // 2 instrs.

  // Body: random mix of the shapes that matter at scale. Each arm emits a
  // fixed instruction count, and the loop stops while the largest arm
  // still fits, so the block never overshoots Size.
  constexpr unsigned MaxGroup = 9;
  while (BB.size() + MaxGroup <= Size) {
    unsigned Idx = static_cast<unsigned>(R.nextBounded(NumArrays));
    ArrayState &S = Arrays[Idx];
    AliasClassId Cls = Classes[Idx];
    switch (R.nextBounded(8)) {
    default: {
      // Parallel load pair feeding a fused multiply-add (3): the abundant
      // load-level parallelism case, weighted heaviest.
      Reg X = B.emitFLoad(S.Cursor, S.LoadOff, Cls);
      Reg Y = B.emitFLoad(S.Cursor, S.LoadOff + 8, Cls);
      S.LoadOff += 16;
      S.Acc = B.emitFMadd(X, Y, S.Acc);
      break;
    }
    case 4: {
      // Serial reload into the accumulator chain (2): little parallelism.
      Reg X = B.emitFLoad(S.Cursor, S.LoadOff, Cls);
      S.LoadOff += 8;
      S.Acc = B.emitBinary(Opcode::FAdd, S.Acc, X);
      break;
    }
    case 5: {
      // Store the accumulator and bump the cursor (2): the store fences
      // same-class loads at unknown offsets, and the in-place cursor bump
      // puts later iterations' loads in series behind it.
      B.emitStore(S.Acc, S.Cursor, S.StoreOff, Cls);
      S.StoreOff += 8;
      B.emitAdvance(S.Cursor, 8);
      break;
    }
    case 6: {
      // Small expression-tree burst (9): four parallel leaves reduced by
      // a balanced tree — the register-pressure personality.
      Reg L0 = B.emitFLoad(S.Cursor, S.LoadOff, Cls);
      Reg L1 = B.emitFLoad(S.Cursor, S.LoadOff + 8, Cls);
      Reg L2 = B.emitFLoad(S.Cursor, S.LoadOff + 16, Cls);
      Reg L3 = B.emitFLoad(S.Cursor, S.LoadOff + 24, Cls);
      S.LoadOff += 32;
      Reg M0 = B.emitBinary(Opcode::FMul, L0, L1);
      Reg M1 = B.emitBinary(Opcode::FMul, L2, L3);
      Reg T = B.emitBinary(Opcode::FAdd, M0, M1);
      Reg Scaled = B.emitBinary(Opcode::FMul, T, C1);
      S.Acc = B.emitBinary(Opcode::FAdd, S.Acc, Scaled);
      break;
    }
    case 7: {
      // Indexed gather chase (4): the second load's address depends on
      // the first — loads in series.
      Reg A = B.emitLoad(S.Cursor, S.LoadOff, Cls);
      S.LoadOff += 8;
      Reg Addr = B.emitBinaryImm(Opcode::AddI, A, S.StoreOff + (1 << 17));
      Reg V = B.emitFLoad(Addr, 0, Cls);
      S.Acc = B.emitFMadd(V, C2, S.Acc);
      break;
    }
    }
  }

  // Pad to exactly Size with independent single-instruction adds off one
  // cursor (fresh destinations, so they add breadth, not a chain).
  while (BB.size() < Size)
    B.emitBinaryImm(Opcode::AddI, Arrays[0].Cursor, 1);
  assert(BB.size() == Size && "huge block missed its exact size");
}

/// Mixes the size (and block index) into the seed so each family member
/// draws a distinct (but fixed) pattern stream.
uint64_t hugeSeed(unsigned Size, unsigned Block) {
  return 0x8D5EULL * 0x100000001B3ULL + Size +
         uint64_t{Block} * 0x9E3779B97F4A7C15ULL;
}

} // namespace

Function bsched::buildHugeBlock(unsigned Size,
                                const WorkloadOptions &Options) {
  Function F("huge" + std::to_string(Size));
  BasicBlock &BB = F.addBlock("body", 1.0);
  emitHugeBlock(F, BB, Size, Options, hugeSeed(Size, 0));
  return F;
}

Function bsched::buildHugeFunction(unsigned NumBlocks, unsigned Size,
                                   const WorkloadOptions &Options) {
  assert(NumBlocks >= 1 && "need at least one block");
  Function F("huge" + std::to_string(Size) + "x" +
             std::to_string(NumBlocks));
  // Create every block before emitting into any: IrBuilder binds a block
  // reference, and growing F.blocks() mid-emission would invalidate it.
  for (unsigned BI = 0; BI != NumBlocks; ++BI)
    F.addBlock("body" + std::to_string(BI), 1.0);
  for (unsigned BI = 0; BI != NumBlocks; ++BI)
    emitHugeBlock(F, F.block(BI), Size, Options, hugeSeed(Size, BI));
  return F;
}

Function bsched::buildWideLoadBlock(unsigned NumLoads) {
  Function F("wide" + std::to_string(NumLoads));
  BasicBlock &BB = F.addBlock("body", 1.0);
  IrBuilder B(F, BB);
  AliasClassId Array = F.getOrCreateAliasClass("w");
  Reg Cursor = B.emitLoadImm(4096);
  for (unsigned I = 0; I != NumLoads; ++I)
    B.emitFLoad(Cursor, int64_t{8} * I, Array);
  return F;
}
