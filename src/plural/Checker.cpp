//===- Checker.cpp - The PLURAL modular typestate checker ------------------===//

#include "plural/Checker.h"

#include "analysis/IrBuilder.h"
#include "perm/FracPerm.h"
#include "perm/StateSpace.h"

#include <cassert>
#include <map>
#include <set>

using namespace anek;

namespace {

/// Permission assumed for values with no specification at all
/// (unannotated callee results, unknown fields). `share` lets read-style
/// protocols pass while exclusive requirements still fail, which matches
/// how unannotated PLURAL clients behave.
constexpr PermKind DefaultKind = PermKind::Share;

/// Permission and abstract state of one tracked object.
struct ObjPerm {
  FracPerm Perm = FracPerm(PermKind::Share, Rational(1));
  /// Current abstract state; empty = ALIVE / unknown.
  std::string State;

  bool operator==(const ObjPerm &Other) const = default;
};

/// Abstract checker state at one program point: a must-alias partition of
/// the locals plus one ObjPerm per partition class.
struct AbsState {
  bool Reachable = false;
  std::map<LocalId, uint32_t> Vn;
  std::map<uint32_t, ObjPerm> Perm;

  bool operator==(const AbsState &Other) const = default;
};

/// Canonicalizes value numbers by first occurrence (stable comparison).
AbsState canonicalize(const AbsState &S) {
  AbsState Out;
  Out.Reachable = S.Reachable;
  std::map<uint32_t, uint32_t> Renaming;
  for (const auto &[Local, Vn] : S.Vn) {
    auto [It, Inserted] =
        Renaming.insert({Vn, static_cast<uint32_t>(Renaming.size())});
    (void)Inserted;
    Out.Vn[Local] = It->second;
    auto PermIt = S.Perm.find(Vn);
    if (PermIt != S.Perm.end())
      Out.Perm[It->second] = PermIt->second;
  }
  return Out;
}

/// Joins object facts: weaker kind, smaller fraction, common state.
ObjPerm joinObj(const ObjPerm &A, const ObjPerm &B) {
  ObjPerm Out;
  Out.Perm = joinPerms(A.Perm, B.Perm);
  Out.State = A.State == B.State ? A.State : std::string();
  return Out;
}

/// Control-flow join of two abstract states.
AbsState joinStates(const AbsState &A, const AbsState &B) {
  if (!A.Reachable)
    return B;
  if (!B.Reachable)
    return A;
  AbsState Out;
  Out.Reachable = true;
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> PairIds;
  for (const auto &[Local, VnA] : A.Vn) {
    auto ItB = B.Vn.find(Local);
    if (ItB == B.Vn.end())
      continue; // Only tracked on one path: drop.
    auto [PairIt, Inserted] = PairIds.insert(
        {{VnA, ItB->second}, static_cast<uint32_t>(PairIds.size())});
    (void)Inserted;
    uint32_t NewVn = PairIt->second;
    Out.Vn[Local] = NewVn;
    auto PermA = A.Perm.find(VnA);
    auto PermB = B.Perm.find(ItB->second);
    if (PermA != A.Perm.end() && PermB != B.Perm.end())
      Out.Perm[NewVn] = joinObj(PermA->second, PermB->second);
    else if (PermA != A.Perm.end())
      Out.Perm[NewVn] = PermA->second;
    else if (PermB != B.Perm.end())
      Out.Perm[NewVn] = PermB->second;
  }
  return canonicalize(Out);
}

/// Checks one method body.
class MethodChecker {
public:
  MethodChecker(MethodDecl &Method, const SpecProvider &Specs,
                CheckResult &Result)
      : Method(Method), Specs(Specs), Result(Result), Ir(lowerToIr(Method)) {}

  void run();

private:
  ObjPerm defaultObj() const {
    ObjPerm Obj;
    Obj.Perm = FracPerm(DefaultKind, Rational(1));
    return Obj;
  }

  ObjPerm fromPermState(const PermState &PS) const {
    ObjPerm Obj;
    Obj.Perm = FracPerm::whole(PS.Kind);
    Obj.State = PS.State;
    return Obj;
  }

  bool isTracked(LocalId Local) const {
    return Local != NoLocal && Ir.Locals[Local].Class != nullptr;
  }

  uint32_t vnOf(AbsState &S, LocalId Local) {
    auto It = S.Vn.find(Local);
    if (It != S.Vn.end())
      return It->second;
    uint32_t Fresh = NextFresh++;
    S.Vn[Local] = Fresh;
    S.Perm[Fresh] = defaultObj();
    return Fresh;
  }

  /// True when the object's current state satisfies the required state in
  /// the class's hierarchy (current refines required).
  bool stateSatisfies(TypeDecl *Class, const std::string &Have,
                      const std::string &Need) const;

  void warn(SourceLocation Loc, const MethodDecl *Callee,
            std::string Message) {
    if (!EmitWarnings)
      return;
    // One warning per source location keeps the counts per-site.
    if (!WarnedLocs.insert({Loc.Line, Loc.Column}).second)
      return;
    Result.Warnings.push_back({Loc, &Method, Callee, std::move(Message)});
  }

  /// Requirement check + effect application for one call target.
  void applyCallTarget(AbsState &S, LocalId Local,
                       const std::optional<PermState> &Pre,
                       const std::optional<PermState> &Post,
                       TypeDecl *SpecClass, const Action &A,
                       std::vector<std::string> &Problems);

  void transferAction(AbsState &S, const Action &A);

  /// Applies a dynamic state test outcome to the branch successor state.
  void applyStateTest(AbsState &S, const StateTestInfo &Test, bool Edge);

  /// Checks the method's own postcondition at an exit block.
  void checkPostconditions(AbsState &S, SourceLocation Loc);

  MethodDecl &Method;
  const SpecProvider &Specs;
  CheckResult &Result;
  MethodIr Ir;
  uint32_t NextFresh = 0;
  bool EmitWarnings = false;
  std::set<std::pair<uint32_t, uint32_t>> WarnedLocs;
};

} // namespace

bool MethodChecker::stateSatisfies(TypeDecl *Class, const std::string &Have,
                                   const std::string &Need) const {
  if (Need.empty() || Need == AliveStateName)
    return true; // ALIVE is the root: always satisfied.
  if (Have.empty())
    return false; // Unknown state cannot prove a refinement.
  if (Have == Need)
    return true;
  if (!Class)
    return false;
  std::optional<StateId> HaveId = Class->States.find(Have);
  std::optional<StateId> NeedId = Class->States.find(Need);
  if (!HaveId || !NeedId)
    return false;
  return Class->States.refines(*HaveId, *NeedId);
}

void MethodChecker::applyCallTarget(AbsState &S, LocalId Local,
                                    const std::optional<PermState> &Pre,
                                    const std::optional<PermState> &Post,
                                    TypeDecl *SpecClass, const Action &A,
                                    std::vector<std::string> &Problems) {
  if (!isTracked(Local))
    return;
  uint32_t Vn = vnOf(S, Local);
  ObjPerm &Obj = S.Perm[Vn];
  TypeDecl *Class = SpecClass ? SpecClass : Ir.Locals[Local].Class;

  std::optional<FracPerm> Residue;
  FracPerm Original = Obj.Perm;
  if (Pre) {
    std::optional<LendResult> Lent = lend(Obj.Perm, Pre->Kind);
    if (!Lent) {
      Problems.push_back(std::string("needs ") + permKindName(Pre->Kind) +
                         " permission but only " + Obj.Perm.str() +
                         " is available");
    } else {
      Residue = Lent->Residue;
    }
    if (!stateSatisfies(Class, Obj.State, Pre->State))
      Problems.push_back("requires state " + Pre->State + " but " +
                         (Obj.State.empty() ? std::string(AliveStateName)
                                            : Obj.State) +
                         " is known");
  }

  // Effects.
  if (Post) {
    PermKind Lent = Pre ? Pre->Kind : Post->Kind;
    Obj.Perm = mergeAfterCall(Original, Lent, FracPerm::whole(Post->Kind),
                              Residue);
    Obj.State = Post->State; // Empty means back to ALIVE.
  } else if (Pre) {
    // Permission consumed without a returned post: keep the residue.
    if (Residue)
      Obj.Perm = *Residue;
    Obj.State.clear();
  } else {
    // Fully unannotated callee: the call may transition the object.
    Obj.State.clear();
  }
  (void)A;
}

void MethodChecker::transferAction(AbsState &S, const Action &A) {
  switch (A.Kind) {
  case ActionKind::Alloc: {
    if (A.Dst == NoLocal || !isTracked(A.Dst))
      return;
    uint32_t Fresh = NextFresh++;
    S.Vn[A.Dst] = Fresh;
    ObjPerm Obj;
    Obj.Perm = FracPerm::whole(PermKind::Unique);
    if (A.Callee) {
      const MethodSpec *Spec = Specs(A.Callee);
      if (Spec && Spec->ReceiverPost)
        Obj = fromPermState(*Spec->ReceiverPost);
    }
    S.Perm[Fresh] = Obj;
    return;
  }
  case ActionKind::Call: {
    const MethodSpec *Spec = A.Callee ? Specs(A.Callee) : nullptr;
    static const MethodSpec Empty;
    if (!Spec)
      Spec = &Empty;
    std::vector<std::string> Problems;

    if (A.Recv != NoLocal)
      applyCallTarget(S, A.Recv, Spec->ReceiverPre, Spec->ReceiverPost,
                      A.Callee ? A.Callee->Owner : nullptr, A, Problems);
    for (size_t I = 0; I != A.Args.size(); ++I) {
      std::optional<PermState> Pre, Post;
      TypeDecl *ParamClass = nullptr;
      if (I < Spec->ParamPre.size())
        Pre = Spec->ParamPre[I];
      if (I < Spec->ParamPost.size())
        Post = Spec->ParamPost[I];
      if (A.Callee && I < A.Callee->Params.size() &&
          A.Callee->Params[I].Type.isClass())
        ParamClass = A.Callee->Params[I].Type.Decl;
      applyCallTarget(S, A.Args[I], Pre, Post, ParamClass, A, Problems);
    }

    if (!Problems.empty()) {
      std::string Message =
          "call to " +
          (A.Callee ? A.Callee->qualifiedName() : std::string("<unknown>"));
      for (const std::string &P : Problems)
        Message += "; " + P;
      warn(A.Loc, A.Callee, std::move(Message));
    }

    // Result value.
    if (A.Dst != NoLocal && isTracked(A.Dst)) {
      uint32_t Fresh = NextFresh++;
      S.Vn[A.Dst] = Fresh;
      S.Perm[Fresh] =
          Spec->Result ? fromPermState(*Spec->Result) : defaultObj();
    }
    return;
  }
  case ActionKind::Copy:
    if (isTracked(A.Dst) && isTracked(A.Src))
      S.Vn[A.Dst] = vnOf(S, A.Src);
    return;
  case ActionKind::FieldLoad:
    if (A.Dst != NoLocal && isTracked(A.Dst)) {
      uint32_t Fresh = NextFresh++;
      S.Vn[A.Dst] = Fresh;
      S.Perm[Fresh] = defaultObj();
    }
    return;
  case ActionKind::FieldStore: {
    if (!isTracked(A.Recv))
      return;
    uint32_t Vn = vnOf(S, A.Recv);
    const ObjPerm &Obj = S.Perm[Vn];
    if (!allowsWrite(Obj.Perm.Kind))
      warn(A.Loc, nullptr,
           "field write to ." + A.FieldName + " requires a modifying "
           "permission but only " + Obj.Perm.str() + " is available");
    return;
  }
  case ActionKind::Return: {
    const MethodSpec *Spec = Specs(&Method);
    if (!Spec || !Spec->Result || A.Src == NoLocal || !isTracked(A.Src))
      return;
    uint32_t Vn = vnOf(S, A.Src);
    const ObjPerm &Obj = S.Perm[Vn];
    std::vector<std::string> Problems;
    if (!lend(Obj.Perm, Spec->Result->Kind))
      Problems.push_back(std::string("result must be ") +
                         permKindName(Spec->Result->Kind) + " but only " +
                         Obj.Perm.str() + " is available");
    if (!stateSatisfies(Ir.Locals[A.Src].Class, Obj.State,
                        Spec->Result->State))
      Problems.push_back("result must be in state " + Spec->Result->State);
    if (!Problems.empty()) {
      std::string Message = "return from " + Method.qualifiedName();
      for (const std::string &P : Problems)
        Message += "; " + P;
      warn(A.Loc, nullptr, std::move(Message));
    }
    return;
  }
  case ActionKind::EnterSync:
  case ActionKind::ExitSync:
  case ActionKind::OpaqueUse:
    return;
  }
}

void MethodChecker::applyStateTest(AbsState &S, const StateTestInfo &Test,
                                   bool Edge) {
  if (Test.Subject == NoLocal || !isTracked(Test.Subject))
    return;
  const MethodSpec *Spec = Specs(Test.TestMethod);
  if (!Spec)
    return;
  // `if (!x.test())`: the true edge of the branch is the false outcome of
  // the test.
  bool TestOutcome = Test.Negated ? !Edge : Edge;
  const std::string &Indicated =
      TestOutcome ? Spec->TrueIndicates : Spec->FalseIndicates;
  if (Indicated.empty())
    return;
  uint32_t Vn = vnOf(S, Test.Subject);
  S.Perm[Vn].State = Indicated;
}

void MethodChecker::checkPostconditions(AbsState &S, SourceLocation Loc) {
  const MethodSpec *Spec = Specs(&Method);
  if (!Spec)
    return;
  std::vector<std::string> Problems;
  auto CheckPost = [&](LocalId Local, const std::optional<PermState> &Post,
                       const std::string &Name) {
    if (!Post || !isTracked(Local))
      return;
    uint32_t Vn = vnOf(S, Local);
    const ObjPerm &Obj = S.Perm[Vn];
    if (!lend(Obj.Perm, Post->Kind))
      Problems.push_back("cannot return " + std::string(permKindName(
                             Post->Kind)) + "(" + Name + "), only " +
                         Obj.Perm.str() + " remains");
    if (!stateSatisfies(Ir.Locals[Local].Class, Obj.State, Post->State))
      Problems.push_back(Name + " must end in state " + Post->State);
  };
  if (Ir.ReceiverLocal != NoLocal)
    CheckPost(Ir.ReceiverLocal, Spec->ReceiverPost, "this");
  for (size_t I = 0; I != Ir.ParamLocals.size(); ++I)
    if (I < Spec->ParamPost.size())
      CheckPost(Ir.ParamLocals[I], Spec->ParamPost[I],
                I < Method.Params.size() ? Method.Params[I].Name
                                         : "#" + std::to_string(I));
  if (!Problems.empty()) {
    std::string Message = "postcondition of " + Method.qualifiedName();
    for (const std::string &P : Problems)
      Message += "; " + P;
    warn(Loc, nullptr, std::move(Message));
  }
}

void MethodChecker::run() {
  const MethodSpec *OwnSpec = Specs(&Method);

  // Entry state from the method's own precondition.
  AbsState Entry;
  Entry.Reachable = true;
  NextFresh = 0;
  auto Seed = [&](LocalId Local, const std::optional<PermState> &Pre) {
    if (!isTracked(Local))
      return;
    uint32_t Vn = NextFresh++;
    Entry.Vn[Local] = Vn;
    Entry.Perm[Vn] = Pre ? fromPermState(*Pre) : defaultObj();
  };
  if (Ir.ReceiverLocal != NoLocal) {
    std::optional<PermState> Pre;
    if (OwnSpec)
      Pre = Method.IsCtor ? std::optional<PermState>(
                                PermState{PermKind::Unique, ""})
                          : OwnSpec->ReceiverPre;
    else if (Method.IsCtor)
      Pre = PermState{PermKind::Unique, ""};
    Seed(Ir.ReceiverLocal, Pre);
  }
  for (size_t I = 0; I != Ir.ParamLocals.size(); ++I) {
    std::optional<PermState> Pre;
    if (OwnSpec && I < OwnSpec->ParamPre.size())
      Pre = OwnSpec->ParamPre[I];
    Seed(Ir.ParamLocals[I], Pre);
  }
  Entry = canonicalize(Entry);

  const size_t NumBlocks = Ir.Blocks.size();
  // Per-block entry states. Fixpoint first (warnings suppressed), then one
  // emission pass with the stable states.
  std::vector<AbsState> EntryStates(NumBlocks);
  EntryStates[MethodIr::EntryBlock] = Entry;

  auto ProcessBlock = [&](uint32_t Block, AbsState State,
                          std::vector<std::pair<uint32_t, AbsState>> &Out) {
    // Fresh value numbers must be deterministic per block for
    // convergence: derive from a large per-block base.
    NextFresh = 1000000 + Block * 10000;
    for (const Action &A : Ir.Blocks[Block].Actions)
      transferAction(State, A);
    const Terminator &Term = Ir.Blocks[Block].Term;
    switch (Term.Kind) {
    case TermKind::Goto:
      Out.push_back({Term.Succs[0], canonicalize(State)});
      break;
    case TermKind::CondBranch: {
      AbsState TrueState = State;
      AbsState FalseState = State;
      if (Term.StateTest) {
        applyStateTest(TrueState, *Term.StateTest, true);
        applyStateTest(FalseState, *Term.StateTest, false);
      }
      Out.push_back({Term.Succs[0], canonicalize(TrueState)});
      Out.push_back({Term.Succs[1], canonicalize(FalseState)});
      break;
    }
    case TermKind::Exit:
      if (EmitWarnings) {
        SourceLocation Loc = Method.Loc;
        if (!Ir.Blocks[Block].Actions.empty())
          Loc = Ir.Blocks[Block].Actions.back().Loc;
        checkPostconditions(State, Loc);
      }
      break;
    }
  };

  // Fixpoint.
  EmitWarnings = false;
  bool Changed = true;
  unsigned Rounds = 0;
  while (Changed && Rounds < 100) {
    Changed = false;
    ++Rounds;
    for (uint32_t Block = 0; Block != NumBlocks; ++Block) {
      if (!EntryStates[Block].Reachable)
        continue;
      std::vector<std::pair<uint32_t, AbsState>> Out;
      ProcessBlock(Block, EntryStates[Block], Out);
      for (auto &[Succ, State] : Out) {
        AbsState Joined = joinStates(EntryStates[Succ], State);
        if (!(Joined == EntryStates[Succ])) {
          EntryStates[Succ] = std::move(Joined);
          Changed = true;
        }
      }
    }
  }

  // Emission pass.
  EmitWarnings = true;
  for (uint32_t Block = 0; Block != NumBlocks; ++Block) {
    if (!EntryStates[Block].Reachable)
      continue;
    std::vector<std::pair<uint32_t, AbsState>> Out;
    ProcessBlock(Block, EntryStates[Block], Out);
  }
}

CheckResult anek::runChecker(Program &Prog, const SpecProvider &Specs) {
  CheckResult Result;
  for (MethodDecl *M : Prog.methodsWithBodies()) {
    MethodChecker Checker(*M, Specs, Result);
    Checker.run();
    ++Result.MethodsChecked;
  }
  return Result;
}

SpecProvider anek::declaredSpecsOnly() {
  return [](const MethodDecl *M) -> const MethodSpec * {
    static const MethodSpec Empty;
    return M->HasDeclaredSpec ? &M->DeclaredSpec : &Empty;
  };
}
