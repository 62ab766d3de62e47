//===- bench_fig4_permissions.cpp - Reproduce Figure 4 ----------------------===//
//
// Paper Figure 4: "The five permission kinds." This bench prints the kind
// table (this-reference/other-alias read & write rights) and validates the
// splitting/merging discipline (Section 2) by exhaustive enumeration.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "perm/FracPerm.h"
#include "support/Format.h"

#include <cstdio>

using namespace anek;

int main() {
  std::puts("Figure 4: the five permission kinds");
  std::puts("-----------------------------------------------------------");
  std::printf("%-11s %-12s %-12s %-14s\n", "kind", "this writes",
              "others read", "others write");
  std::puts("-----------------------------------------------------------");
  for (PermKind Kind : AllPermKinds) {
    bool OthersRead = Kind != PermKind::Unique;
    std::printf("%-11s %-12s %-12s %-14s\n", permKindName(Kind),
                allowsWrite(Kind) ? "yes" : "no",
                OthersRead ? "yes" : "no",
                othersMayWrite(Kind) ? "yes" : "no");
  }

  std::puts("");
  std::puts("sound splitting (Eq. 2 order): lend / residue table");
  std::puts("-----------------------------------------------------------");
  std::printf("%-11s", "have\\lend");
  for (PermKind Lent : AllPermKinds)
    std::printf(" %-10s", permKindName(Lent));
  std::puts("");
  unsigned LegalSplits = 0;
  for (PermKind Have : AllPermKinds) {
    std::printf("%-11s", permKindName(Have));
    for (PermKind Lent : AllPermKinds) {
      if (!canDowngrade(Have, Lent)) {
        std::printf(" %-10s", "-");
        continue;
      }
      ++LegalSplits;
      auto L = lend(FracPerm::whole(Have), Lent);
      std::printf(" %-10s",
                  L->Residue ? L->Residue->str().c_str() : "(all)");
    }
    std::puts("");
  }

  // Merging restores the original for every legal borrow round trip.
  unsigned Restored = 0;
  for (PermKind Have : AllPermKinds)
    for (PermKind Lent : AllPermKinds) {
      if (!canDowngrade(Have, Lent))
        continue;
      FracPerm Original = FracPerm::whole(Have);
      auto L = lend(Original, Lent);
      if (mergeAfterCall(Original, Lent, FracPerm::whole(Lent),
                         L->Residue) == Original)
        ++Restored;
    }
  std::puts("");
  std::printf("legal (have, lend) pairs: %u of 25; borrow round trips "
              "restoring the original: %u of %u\n",
              LegalSplits, Restored, LegalSplits);
  return Restored == LegalSplits ? 0 : 1;
}
