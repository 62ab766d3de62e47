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
//===----------------------------------------------------------------------===//

#ifndef ANEK_INFER_SUMMARY_H
#define ANEK_INFER_SUMMARY_H

#include "lang/Ast.h"
#include "perm/PermKind.h"
#include "perm/Spec.h"

#include <optional>
#include <string>
#include <vector>

namespace anek {

/// Identifies one call site contributing evidence: the calling method and
/// its call-site index within that caller's PFG.
using CallSiteKey = std::pair<const MethodDecl *, uint32_t>;

/// Orders call-site keys by (caller declaration index, site index). The
/// pooled odds product is a float reduction over a target's sites, so
/// their order is part of the result: pointer order would make summaries
/// (and every downstream spec) vary with ASLR.
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
/// codec (SummaryIO.cpp). Serialization must see the raw odds
/// multipliers, not the pooled probabilities: pooling is a lossy float
/// reduction, and two stores should encode equal only when their exact
/// operands are equal bit for bit.
struct SummaryWireAccess;

/// Evidence-pooled marginals for one interface target.
class TargetSummary {
public:
  TargetSummary() = default;
  /// \p Class provides the state list (may be null: kinds only).
  explicit TargetSummary(TypeDecl *Class);

  /// Number of tracked variables (5 kinds + states).
  size_t size() const { return DeclaredPrior.size(); }

  /// State names aligned with entries [NumPermKinds...].
  const std::vector<std::string> &states() const { return States; }

  /// Seeds the declared-spec prior (paper Section 3.2).
  void setDeclaredPrior(const std::optional<PermState> &PS, double Hi,
                        double Lo);

  /// Replaces the own-body evidence (as odds multipliers).
  /// Returns the largest absolute change in pooled probability.
  double setSelfOdds(std::vector<double> Odds);

  /// Replaces one call site's evidence. Returns the largest absolute
  /// change in pooled probability.
  double setSiteOdds(CallSiteKey Site, std::vector<double> Odds);

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

  /// Sentinel for pool()'s SkipSite: skip no site.
  static constexpr size_t NoSite = static_cast<size_t>(-1);

  /// Where \p Site sits in Sites, or would be inserted (the first
  /// entry not ordered before it).
  size_t siteSlot(const CallSiteKey &Site) const;

  /// The odds product over every source except the skipped ones, as
  /// probabilities. Site-major: one walk down the site rows multiplies
  /// each row into a running product. Each variable's product takes its
  /// factors in one fixed order — prior, self, then sites in
  /// CallSiteOrder — the order a per-variable fold uses, so walking the
  /// rows site-major changes no bit of the result.
  std::vector<double> pool(bool SkipSelf, size_t SkipSite) const;

  /// Re-pools after a mutation and returns the largest absolute change
  /// against the kept Pooled vector.
  double repool();

  std::vector<std::string> States;
  std::vector<double> DeclaredPrior; ///< Probabilities.
  std::vector<double> SelfOdds;      ///< Odds multipliers (1 = neutral).
  /// Call sites with evidence, sorted by CallSiteOrder (declaration
  /// index, never pointer value: the pooling product must not depend on
  /// ASLR).
  std::vector<CallSiteKey> Sites;
  /// Site evidence as odds multipliers, one size()-stride row per entry
  /// of Sites: Sites[K]'s row starts at K * size().
  std::vector<double> SiteOdds;
  /// pool() over every source, refreshed by each mutation: an update
  /// pools once (the new state) and diffs against this (the old one).
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
