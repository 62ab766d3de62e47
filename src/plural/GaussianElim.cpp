//===- GaussianElim.cpp - Exact rational linear solving --------------------===//

#include "plural/GaussianElim.h"

#include <cassert>
#include <utility>

using namespace anek;

void LinearSystem::addEquation(
    const std::vector<std::pair<unsigned, Rational>> &Terms, Rational Rhs) {
  Row R;
  R.Coeffs.assign(NumVars, Rational(0));
  for (const auto &[Var, Coeff] : Terms) {
    assert(Var < NumVars && "equation names unknown variable");
    R.Coeffs[Var] += Coeff;
  }
  R.Rhs = Rhs;
  Rows.push_back(std::move(R));
}

std::optional<std::vector<Rational>>
LinearSystem::solve(uint64_t *EliminationOps) && {
  std::vector<Row> M = std::exchange(Rows, {});
  uint64_t Ops = 0;

  unsigned PivotRow = 0;
  std::vector<int> PivotColOfRow(M.size(), -1);
  for (unsigned Col = 0; Col != NumVars && PivotRow < M.size(); ++Col) {
    // Find a pivot.
    unsigned Found = PivotRow;
    while (Found < M.size() && M[Found].Coeffs[Col].isZero())
      ++Found;
    if (Found == M.size())
      continue;
    std::swap(M[PivotRow], M[Found]);

    // Normalize the pivot row. An invalid pivot (overflow poison from a
    // pathological system) makes the whole solve unsolvable rather than
    // silently wrong.
    Rational Pivot = M[PivotRow].Coeffs[Col];
    if (!Pivot.isValid())
      return std::nullopt;
    for (unsigned C = Col; C != NumVars; ++C) {
      M[PivotRow].Coeffs[C] /= Pivot;
      ++Ops;
    }
    M[PivotRow].Rhs /= Pivot;

    // Eliminate the column everywhere else.
    for (unsigned R = 0; R != M.size(); ++R) {
      if (R == PivotRow || M[R].Coeffs[Col].isZero())
        continue;
      Rational Factor = M[R].Coeffs[Col];
      for (unsigned C = Col; C != NumVars; ++C) {
        M[R].Coeffs[C] -= Factor * M[PivotRow].Coeffs[C];
        ++Ops;
      }
      M[R].Rhs -= Factor * M[PivotRow].Rhs;
    }
    PivotColOfRow[PivotRow] = static_cast<int>(Col);
    ++PivotRow;
  }

  if (EliminationOps)
    *EliminationOps = Ops;

  // Inconsistency check: a zero row with nonzero RHS.
  for (unsigned R = PivotRow; R < M.size(); ++R) {
    bool AllZero = true;
    for (const Rational &C : M[R].Coeffs)
      if (!C.isZero()) {
        AllZero = false;
        break;
      }
    if (AllZero && !M[R].Rhs.isZero())
      return std::nullopt;
  }

  // Read the solution; free variables get zero.
  std::vector<Rational> Solution(NumVars, Rational(0));
  for (unsigned R = 0; R != PivotRow; ++R) {
    int Col = PivotColOfRow[R];
    assert(Col >= 0 && "pivot bookkeeping broken");
    Rational Value = M[R].Rhs;
    for (unsigned C = static_cast<unsigned>(Col) + 1; C != NumVars; ++C)
      if (!M[R].Coeffs[C].isZero())
        Value -= M[R].Coeffs[C] * Solution[C];
    Solution[static_cast<unsigned>(Col)] = Value;
  }
  for (const Rational &Value : Solution)
    if (!Value.isValid())
      return std::nullopt;
  return Solution;
}
