//===- MustAlias.cpp - Local must-alias analysis ---------------------------===//

#include "analysis/MustAlias.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>
#include <map>

using namespace anek;

/// Renumbers \p Vn by first occurrence so two vectors describe the same
/// partition iff their canonical forms are equal.
static std::vector<uint32_t> canonicalize(const std::vector<uint32_t> &Vn) {
  std::vector<uint32_t> Out(Vn.size());
  std::map<uint32_t, uint32_t> Renaming;
  for (size_t I = 0, E = Vn.size(); I != E; ++I) {
    auto [It, Inserted] =
        Renaming.insert({Vn[I], static_cast<uint32_t>(Renaming.size())});
    (void)Inserted;
    Out[I] = It->second;
  }
  return Out;
}

/// Pairwise join: locals stay aliased only when aliased in both inputs.
static std::vector<uint32_t> joinVn(const std::vector<uint32_t> &A,
                                    const std::vector<uint32_t> &B) {
  assert(A.size() == B.size() && "joining mismatched states");
  std::vector<uint32_t> Out(A.size());
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> PairIds;
  for (size_t I = 0, E = A.size(); I != E; ++I) {
    auto [It, Inserted] = PairIds.insert(
        {{A[I], B[I]}, static_cast<uint32_t>(PairIds.size())});
    (void)Inserted;
    Out[I] = It->second;
  }
  return Out;
}

uint32_t MustAliasAnalysis::freshBaseFor(uint32_t Block) const {
  assert(Block < ActionOffsets.size() && "block out of range");
  return static_cast<uint32_t>(Ir.Locals.size()) + ActionOffsets[Block];
}

MustAliasAnalysis::MustAliasAnalysis(const MethodIr &Ir) : Ir(Ir) {
  telemetry::Span Span("analysis.alias", "analysis");
  if (Span.active() && Ir.Method)
    Span.arg("method", Ir.Method->qualifiedName());
  if (telemetry::metering())
    telemetry::counter("analysis.alias.runs").add(1);
  const size_t NumLocals = Ir.Locals.size();
  const size_t NumBlocks = Ir.Blocks.size();

  // Each action gets a globally unique "fresh definition" id that is
  // stable across fixpoint iterations (ids >= NumLocals never collide with
  // the canonical ids produced by joins, which are < NumLocals).
  ActionOffsets.resize(NumBlocks);
  uint32_t Offset = 0;
  for (size_t B = 0; B != NumBlocks; ++B) {
    ActionOffsets[B] = Offset;
    Offset += static_cast<uint32_t>(Ir.Blocks[B].Actions.size());
  }

  EntryVn.assign(NumBlocks, {});
  std::vector<uint32_t> Initial(NumLocals);
  for (size_t I = 0; I != NumLocals; ++I)
    Initial[I] = static_cast<uint32_t>(I);
  EntryVn[MethodIr::EntryBlock] = Initial;

  std::vector<std::vector<uint32_t>> Preds = Ir.predecessors();
  bool Changed = true;
  unsigned Iterations = 0;
  while (Changed) {
    Changed = false;
    assert(++Iterations < 10000 && "must-alias fixpoint diverged");
    (void)Iterations;
    for (uint32_t B = 0; B != NumBlocks; ++B) {
      if (EntryVn[B].empty() && B != MethodIr::EntryBlock)
        continue; // Not yet reached.
      // Compute the exit state of block B.
      std::vector<uint32_t> Vn = EntryVn[B];
      NextFresh = freshBaseFor(B);
      for (const Action &A : Ir.Blocks[B].Actions)
        applyAction(A, Vn);
      std::vector<uint32_t> Exit = canonicalize(Vn);
      // Propagate into successors.
      for (uint32_t Succ : Ir.Blocks[B].Term.Succs) {
        std::vector<uint32_t> NewEntry =
            EntryVn[Succ].empty() ? Exit
                                  : canonicalize(joinVn(EntryVn[Succ], Exit));
        if (NewEntry != EntryVn[Succ]) {
          EntryVn[Succ] = std::move(NewEntry);
          Changed = true;
        }
      }
    }
  }
  // Unreached blocks (possible after `return`): give every local its own
  // class.
  for (uint32_t B = 0; B != NumBlocks; ++B)
    if (EntryVn[B].empty())
      EntryVn[B] = Initial;
}

void MustAliasAnalysis::applyAction(const Action &A,
                                    std::vector<uint32_t> &Vn) const {
  switch (A.Kind) {
  case ActionKind::Copy:
    if (A.Dst != NoLocal && A.Src != NoLocal)
      Vn[A.Dst] = Vn[A.Src];
    return;
  case ActionKind::Alloc:
  case ActionKind::Call:
  case ActionKind::FieldLoad:
  case ActionKind::OpaqueUse:
    if (A.Dst != NoLocal)
      Vn[A.Dst] = NextFresh++;
    return;
  case ActionKind::FieldStore:
  case ActionKind::Return:
  case ActionKind::EnterSync:
  case ActionKind::ExitSync:
    return;
  }
}

std::vector<uint32_t>
MustAliasAnalysis::valueNumbersAt(uint32_t Block,
                                  uint32_t ActionIndex) const {
  assert(Block < Ir.Blocks.size() && "block out of range");
  assert(ActionIndex <= Ir.Blocks[Block].Actions.size() &&
         "action index out of range");
  std::vector<uint32_t> Vn = EntryVn[Block];
  NextFresh = freshBaseFor(Block);
  for (uint32_t I = 0; I != ActionIndex; ++I)
    applyAction(Ir.Blocks[Block].Actions[I], Vn);
  return Vn;
}

bool MustAliasAnalysis::mustAlias(uint32_t Block, uint32_t ActionIndex,
                                  LocalId A, LocalId B) const {
  if (A == B)
    return true;
  std::vector<uint32_t> Vn = valueNumbersAt(Block, ActionIndex);
  assert(A < Vn.size() && B < Vn.size() && "local out of range");
  return Vn[A] == Vn[B];
}
