//===- GaussianElim.h - Exact rational linear solving ------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gaussian elimination over exact rationals. PLURAL's local permission
/// inference "relies upon Gaussian Elimination to find satisfying
/// fractional permission assignments" (paper Section 4.2, citing [4,
/// ch. 5]); this is that engine, also used standalone in tests.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_PLURAL_GAUSSIANELIM_H
#define ANEK_PLURAL_GAUSSIANELIM_H

#include "support/Rational.h"

#include <optional>
#include <vector>

namespace anek {

/// A dense linear system A x = b over rationals.
class LinearSystem {
public:
  explicit LinearSystem(unsigned NumVars) : NumVars(NumVars) {}

  /// Adds the equation sum(Coeffs[i] * x_Vars[i]) = Rhs.
  void addEquation(const std::vector<std::pair<unsigned, Rational>> &Terms,
                   Rational Rhs);

  unsigned variableCount() const { return NumVars; }
  unsigned equationCount() const {
    return static_cast<unsigned>(Rows.size());
  }

  /// Solves by Gaussian elimination with exact pivoting. Free variables
  /// are assigned zero. Returns std::nullopt when inconsistent.
  /// \p EliminationOps, when non-null, receives the number of row
  /// operations performed (the Table 3 work metric). Eliminates in the
  /// system's own rows rather than a copy (Table 3's dense matrix is
  /// 10,754 x 9,986 rationals), so it consumes the system, leaving it
  /// without equations: `std::move(S).solve()`.
  std::optional<std::vector<Rational>>
  solve(uint64_t *EliminationOps = nullptr) &&;

private:
  struct Row {
    std::vector<Rational> Coeffs; // Dense, length NumVars.
    Rational Rhs;
  };

  unsigned NumVars;
  std::vector<Row> Rows;
};

} // namespace anek

#endif // ANEK_PLURAL_GAUSSIANELIM_H
