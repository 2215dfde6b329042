//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//

#include "testgen/Oracle.h"

#include "ast/AlgebraContext.h"
#include "ast/Spec.h"
#include "ast/TermPrinter.h"
#include "check/TermEnumerator.h"
#include "model/ModelBinding.h"
#include "model/Value.h"
#include "parser/Replicator.h"
#include "rewrite/Substitution.h"

#include <algorithm>
#include <string>

using namespace algspec;

std::string algspec::renderObservable(const AlgebraContext &Ctx, SortId Sort,
                                      const Value &V) {
  if (V.isError())
    return "error";
  switch (Ctx.sort(Sort).Kind) {
  case SortKind::Bool:
    if (V.holds<bool>())
      return V.get<bool>() ? "true" : "false";
    break;
  case SortKind::Int:
    if (V.holds<int64_t>())
      return std::to_string(V.get<int64_t>());
    break;
  case SortKind::Atom:
    if (V.holds<std::string>())
      return "'" + V.get<std::string>();
    break;
  case SortKind::User:
    break;
  }
  return "<" + std::string(Ctx.sortName(Sort)) + " value>";
}

Oracle Oracle::build(AlgebraContext &Ctx, std::span<const Spec *const> Specs,
                     SortId Sort, ModelBinding &B, TermEnumerator &Enum,
                     bool ForceObservers, const OracleOptions &Options) {
  Oracle O;
  O.ValueSort = Sort;

  // Bool/Int/atom values are observations already; observer contexts
  // only make sense for user sorts.
  bool User = Ctx.sort(Sort).Kind == SortKind::User;
  if (!User || (!ForceObservers && B.hasEquality(Sort)))
    return O;

  O.Direct = false;
  VarId Hole = Ctx.addVar("_", Sort);
  std::vector<TermId> Frontier = {Ctx.makeVar(Hole)};

  // Breadth-first over observation depth: wrap every partial context in
  // every runnable operation that accepts its sort; contexts reaching a
  // comparable result sort are finished oracles, the rest grow further.
  // Everything iterates in declaration order, so the set — and every
  // report derived from it — is deterministic.
  for (unsigned Depth = 1;
       Depth <= Options.MaxContextDepth && !Frontier.empty(); ++Depth) {
    std::vector<TermId> Next;
    for (TermId Partial : Frontier) {
      SortId PartialSort = Ctx.sortOf(Partial);
      for (const Spec *S : Specs) {
        for (OpId Op : S->operations()) {
          const OpInfo &Info = Ctx.op(Op);
          if (Info.Builtin != BuiltinOp::None || !B.isBoundOrBuiltin(Op))
            continue;
          for (size_t Pos = 0; Pos != Info.ArgSorts.size(); ++Pos) {
            if (Info.ArgSorts[Pos] != PartialSort)
              continue;
            // Ground fillers for the non-hole argument slots.
            std::vector<const std::vector<TermId> *> Slots;
            std::vector<size_t> SlotSizes;
            bool Inhabited = true;
            for (size_t Q = 0; Q != Info.ArgSorts.size(); ++Q) {
              if (Q == Pos)
                continue;
              const std::vector<TermId> &Fill =
                  Enum.enumerate(Info.ArgSorts[Q], Options.FillerDepth);
              if (Fill.empty()) {
                Inhabited = false;
                break;
              }
              Slots.push_back(&Fill);
              SlotSizes.push_back(
                  std::min(Fill.size(), Options.FillersPerPosition));
            }
            if (!Inhabited)
              continue;
            size_t Combos = 1;
            for (size_t N : SlotSizes)
              Combos *= N;
            for (size_t Flat = 0; Flat != Combos; ++Flat) {
              std::vector<TermId> Args(Info.ArgSorts.size());
              size_t Rem = Flat, Slot = 0;
              for (size_t Q = 0; Q != Info.ArgSorts.size(); ++Q) {
                if (Q == Pos) {
                  Args[Q] = Partial;
                  continue;
                }
                Args[Q] = (*Slots[Slot])[Rem % SlotSizes[Slot]];
                Rem /= SlotSizes[Slot];
                ++Slot;
              }
              TermId Context = Ctx.makeOp(Op, Args);
              if (B.hasEquality(Info.ResultSort)) {
                if (O.Observers.size() < Options.MaxContexts)
                  O.Observers.push_back({Context, Hole, Info.ResultSort});
              } else if (Depth < Options.MaxContextDepth &&
                         Next.size() < Options.MaxContexts) {
                Next.push_back(Context);
              }
            }
          }
        }
      }
    }
    Frontier = std::move(Next);
  }
  return O;
}

std::optional<Oracle> Oracle::replicate(Replica &Rep) const {
  Oracle O;
  O.ValueSort = Rep.mapSort(ValueSort);
  O.Direct = Direct;
  for (const ObserverContext &C : Observers) {
    TermId Context = Rep.mapTerm(C.Context);
    if (!Context.isValid())
      return std::nullopt;
    O.Observers.push_back(
        {Context, Rep.mapVar(C.Hole), Rep.mapSort(C.ResultSort)});
  }
  return O;
}

Result<OracleVerdict> Oracle::compare(ModelBinding &B, TermId L,
                                      TermId R) const {
  AlgebraContext &Ctx = B.context();
  Result<Value> LV = B.evaluate(L);
  if (!LV)
    return LV.error();
  Result<Value> RV = B.evaluate(R);
  if (!RV)
    return RV.error();

  // In-algebra errors are values: equal to each other, distinguishable
  // from everything else without any oracle machinery.
  if (LV->isError() || RV->isError()) {
    if (LV->isError() == RV->isError())
      return OracleVerdict{true, ""};
    return OracleVerdict{false, LV->isError() ? "lhs is error, rhs is not"
                                              : "rhs is error, lhs is not"};
  }

  if (Direct) {
    Result<bool> Eq = B.equal(ValueSort, *LV, *RV);
    if (!Eq)
      return Eq.error();
    if (*Eq)
      return OracleVerdict{true, ""};
    if (Ctx.sort(ValueSort).Kind != SortKind::User)
      return OracleVerdict{false,
                           "lhs = " + renderObservable(Ctx, ValueSort, *LV) +
                               ", rhs = " +
                               renderObservable(Ctx, ValueSort, *RV)};
    return OracleVerdict{false, "values of sort '" +
                                    std::string(Ctx.sortName(ValueSort)) +
                                    "' differ under the bound equality"};
  }

  for (const ObserverContext &C : Observers) {
    Substitution SigmaL, SigmaR;
    SigmaL.bind(C.Hole, L);
    SigmaR.bind(C.Hole, R);
    TermId ObsL = applySubstitution(Ctx, C.Context, SigmaL);
    TermId ObsR = applySubstitution(Ctx, C.Context, SigmaR);
    Result<Value> OL = B.evaluate(ObsL);
    if (!OL)
      return OL.error();
    Result<Value> OR = B.evaluate(ObsR);
    if (!OR)
      return OR.error();
    auto observer = [&] { return "observer " + printTerm(Ctx, C.Context); };
    if (OL->isError() != OR->isError())
      return OracleVerdict{false, observer() +
                                      (OL->isError()
                                           ? ": lhs observes error, rhs "
                                             "does not"
                                           : ": rhs observes error, lhs "
                                             "does not")};
    if (OL->isError())
      continue;
    Result<bool> Eq = B.equal(C.ResultSort, *OL, *OR);
    if (!Eq)
      return Eq.error();
    if (!*Eq)
      return OracleVerdict{
          false, observer() + ": lhs = " +
                     renderObservable(Ctx, C.ResultSort, *OL) + ", rhs = " +
                     renderObservable(Ctx, C.ResultSort, *OR)};
  }
  return OracleVerdict{true, ""};
}
