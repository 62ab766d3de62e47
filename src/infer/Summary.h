//===- Summary.h - Probabilistic method summaries ----------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Probabilistic method summaries (paper Section 3.4): per interface
/// target (receiver pre/post, each parameter pre/post, result) a vector of
/// Bernoulli marginals over [5 permission kinds, then the class's abstract
/// states]. A summary pools three evidence sources by odds
/// multiplication, mirroring the pointwise product of the joint model
/// (Definition 1):
///   - the declared-spec prior (B(0.9)/B(0.1), Section 3.2),
///   - evidence from solving the method's own PFG, and
///   - evidence from every call site referencing the method.
/// Call-site application uses the cavity principle: the prior applied at a
/// site excludes that site's own previous contribution, so evidence is
/// never echoed back.
///
/// The product is taken in log space, exactly: each source is kept as
/// fixed-point log-odds (an integer per variable) and a target keeps
/// their running sum, so pooling and every cavity prior are one
/// subtraction per variable whatever the number of call sites, and a
/// target's pooled bits depend only on its set of evidence, never on the
/// order it arrived in.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_INFER_SUMMARY_H
#define ANEK_INFER_SUMMARY_H

#include "lang/Ast.h"
#include "perm/PermKind.h"
#include "perm/Spec.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace anek {

/// Identifies one call site contributing evidence: the calling method and
/// its call-site index within that caller's PFG.
using CallSiteKey = std::pair<const MethodDecl *, uint32_t>;

/// Orders call-site keys by (caller declaration index, site index): the
/// order a TargetSummary keeps its site rows in, for lookup and for the
/// snapshot codec. Pointer order would make snapshots vary with ASLR.
struct CallSiteOrder {
  bool operator()(const CallSiteKey &A, const CallSiteKey &B) const {
    unsigned AI = A.first ? A.first->DeclIndex : 0;
    unsigned BI = B.first ? B.first->DeclIndex : 0;
    if (AI != BI)
      return AI < BI;
    if (A.second != B.second)
      return A.second < B.second;
    return A.first < B.first; // Hand-built ASTs Sema never numbered.
  }
};

/// Read access to TargetSummary's evidence internals for the snapshot
/// codec (SummaryIO.cpp). Serialization writes the exact fixed-point
/// log-odds rows, not the pooled probabilities, so two stores encode
/// equal exactly when they hold equal evidence.
struct SummaryWireAccess;

/// Evidence-pooled marginals for one interface target.
///
/// Every source — the declared prior, the self evidence and each call
/// site's row — is fixed-point log-odds, `llround(log(odds) *
/// 2^LogOddsBits)` per variable, and `Total` holds their per-variable
/// sum. Pooling is `oddsToProb(exp(sum / 2^LogOddsBits))`; a cavity
/// prior subtracts one source's row from the total first. Integer
/// addition is exact and associative, so the pooled bits are a function
/// of the evidence set alone: whatever order the updates came in, and
/// however many times a source was overwritten, one set pools to one
/// vector.
class TargetSummary {
public:
  /// Fixed-point scale of the log-odds rows: a source's log-odds is
  /// rounded to the nearest multiple of 2^-LogOddsBits, an error under
  /// 5e-13, far below what any consumer of a pooled probability sees.
  static constexpr int LogOddsBits = 40;

  TargetSummary() = default;
  /// \p Class provides the state list (may be null: kinds only).
  explicit TargetSummary(TypeDecl *Class);

  /// Number of tracked variables (5 kinds + states).
  size_t size() const { return Total.size(); }

  /// State names aligned with entries [NumPermKinds...].
  const std::vector<std::string> &states() const { return States; }

  /// Seeds the declared-spec prior (paper Section 3.2).
  void setDeclaredPrior(const std::optional<PermState> &PS, double Hi,
                        double Lo);

  /// Replaces the own-body evidence, given as odds multipliers (positive
  /// and finite; missing entries are neutral). Returns the largest
  /// absolute change in pooled probability.
  double setSelfOdds(const std::vector<double> &Odds);

  /// Replaces one call site's evidence, as setSelfOdds does the own-body
  /// evidence. Returns the largest absolute change in pooled probability.
  double setSiteOdds(CallSiteKey Site, const std::vector<double> &Odds);

  /// Pooled probabilities including every evidence source. Every
  /// mutation refreshes it, so reading it pools nothing.
  const std::vector<double> &pooled() const { return Pooled; }

  /// Pooled probabilities excluding the method's own-body evidence (the
  /// prior to apply at the method's interface nodes before re-solving).
  std::vector<double> pooledWithoutSelf() const;

  /// Pooled probabilities excluding one call site's evidence (the cavity
  /// prior to apply at that site's nodes).
  std::vector<double> pooledWithoutSite(CallSiteKey Site) const;

private:
  friend struct SummaryWireAccess;

  /// Wide enough that no sum of int64_t rows can overflow it (a
  /// GCC/Clang builtin): see DESIGN.md, "A flat site store".
  using LogOddsSum = __int128;

  /// The probability whose odds are exp(\p Sum / 2^LogOddsBits).
  static double probOf(LogOddsSum Sum);

  /// Where \p Site sits in Sites, or would be inserted (the first
  /// entry not ordered before it).
  size_t siteSlot(const CallSiteKey &Site) const;

  /// The total minus the source row \p Skip (none when null), as
  /// probabilities. O(size()), whatever the number of sites.
  std::vector<double> pool(const int64_t *Skip) const;

  /// Overwrites the source row \p Row with \p Odds in fixed-point
  /// log-odds, moves the total by the difference and refreshes Pooled.
  /// Returns the largest absolute change in pooled probability.
  double replaceRow(int64_t *Row, const std::vector<double> &Odds);

  std::vector<std::string> States;
  /// The own-body evidence row, in fixed-point log-odds (0 = neutral).
  std::vector<int64_t> Self;
  /// Call sites with evidence, sorted by CallSiteOrder.
  std::vector<CallSiteKey> Sites;
  /// One row per entry of Sites: Sites[K]'s row starts at K * size().
  std::vector<int64_t> SiteRows;
  /// Per variable: the declared prior's log-odds plus Self plus every
  /// site row. The prior has no row of its own; setDeclaredPrior, which
  /// the engine calls once on each empty skeleton, re-derives the total.
  std::vector<LogOddsSum> Total;
  /// pool() of the total, refreshed by each mutation: an update diffs
  /// its new pooled vector against this one.
  std::vector<double> Pooled;
};

/// Summary of one method across every interface target.
struct MethodSummary {
  std::optional<TargetSummary> RecvPre;
  std::optional<TargetSummary> RecvPost;
  std::vector<std::optional<TargetSummary>> ParamPre;
  std::vector<std::optional<TargetSummary>> ParamPost;
  std::optional<TargetSummary> Result;

  /// Builds a summary skeleton for \p Method, seeding declared-spec
  /// priors. Targets exist for every object-typed parameter/receiver and
  /// the result when its type is a class.
  static MethodSummary forMethod(const MethodDecl &Method, double Hi,
                                 double Lo);
};

/// Converts probability to odds with clamping (odds of 0.5 are 1).
double probToOdds(double P);
/// Converts odds back to probability.
double oddsToProb(double Odds);

/// Extracts a deterministic spec from pooled marginals (paper Fig. 9,
/// lines 22-29): per target take the most likely kind and state; emit an
/// atom only when the winning kind exceeds threshold \p T; attach the
/// winning state when it also exceeds \p T and is not ALIVE.
MethodSpec extractSpec(const MethodSummary &Summary, unsigned NumParams,
                       double T);

/// The single-target core of extractSpec, reusable by the global and
/// logical inference modes: \p P is laid out [kinds..., states...].
/// \p PreferUnique implements the paper's "as returned permissions go,
/// unique is the best choice whenever possible": when unique and the
/// winning kind both clear the threshold and are nearly tied, unique is
/// chosen. Used for result targets.
std::optional<PermState>
extractPermState(const std::vector<double> &P,
                 const std::vector<std::string> &States, double T,
                 bool PreferUnique = false);

} // namespace anek

#endif // ANEK_INFER_SUMMARY_H
