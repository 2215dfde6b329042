//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//

#include "testgen/TestGen.h"

#include "ast/AlgebraContext.h"
#include "ast/Spec.h"
#include "ast/TermPrinter.h"
#include "model/ModelBinding.h"
#include "parser/Replicator.h"
#include "rewrite/Engine.h"
#include "rewrite/Substitution.h"
#include "support/Json.h"
#include "testgen/Shrink.h"

#include <limits>
#include <random>
#include <unordered_map>
#include <unordered_set>

using namespace algspec;

namespace {

/// Collects the free variables of \p Term in first-occurrence order.
void collectVars(const AlgebraContext &Ctx, TermId Term,
                 std::vector<VarId> &Vars, std::unordered_set<VarId> &Seen) {
  const TermNode &Node = Ctx.node(Term);
  if (Node.Kind == TermKind::Var) {
    if (Seen.insert(Node.Var).second)
      Vars.push_back(Node.Var);
    return;
  }
  for (TermId Child : Ctx.children(Term))
    collectVars(Ctx, Child, Vars, Seen);
}

uint64_t clampedMul(uint64_t A, uint64_t B) {
  if (A != 0 && B > std::numeric_limits<uint64_t>::max() / A)
    return std::numeric_limits<uint64_t>::max();
  return A * B;
}

/// Uniformity cells: indices into \p Choices, one representative per
/// top-constructor case (per distinct literal for Atom/Int sorts), in
/// first-occurrence order. The representative is the cell's *last* term
/// in enumeration order — the deepest one, which exercises the most
/// implementation state for the single instance the hypothesis allows.
std::vector<uint32_t> uniformityRepresentatives(const AlgebraContext &Ctx,
                                                const std::vector<TermId> &
                                                    Choices) {
  std::vector<uint64_t> CellKeys;
  std::vector<uint32_t> Reps;
  for (uint32_t I = 0; I != Choices.size(); ++I) {
    const TermNode &Node = Ctx.node(Choices[I]);
    uint64_t Key = 0;
    switch (Node.Kind) {
    case TermKind::Op:
      Key = (uint64_t(1) << 32) | Node.Op.index();
      break;
    case TermKind::Atom:
      Key = (uint64_t(2) << 32) | Node.AtomName.index();
      break;
    case TermKind::Int:
      Key = (uint64_t(3) << 32) |
            static_cast<uint32_t>(Ctx.intValue(Choices[I]));
      break;
    default:
      Key = uint64_t(4) << 32;
      break;
    }
    bool Found = false;
    for (size_t C = 0; C != CellKeys.size(); ++C) {
      if (CellKeys[C] == Key) {
        Reps[C] = I; // Last term of the cell wins.
        Found = true;
        break;
      }
    }
    if (!Found) {
      CellKeys.push_back(Key);
      Reps.push_back(I);
    }
  }
  return Reps;
}

/// Per-worker state for the parallel instance sweep.
struct TestGenWorker {
  std::unique_ptr<Replica> Rep;
  std::unique_ptr<ModelBinding> Binding; ///< Null when replication failed.
  /// The campaign's oracles replicated into Rep, keyed by main-context
  /// sort; empty where an oracle does not map.
  std::unordered_map<SortId, std::optional<Oracle>> Judges;
};

std::string describeHypotheses(const TestGenOptions &Options) {
  std::string Out = "regularity depth " + std::to_string(Options.MaxDepth);
  if (Options.RandomCount)
    Out += "; random n=" + std::to_string(Options.RandomCount) +
           " seed=" + std::to_string(Options.Seed);
  else if (Options.Uniformity)
    Out += "; uniformity";
  else
    Out += "; enumerative";
  if (Options.ForceObservers)
    Out += "; observer oracles";
  return Out;
}

} // namespace

TestGenReport algspec::runTestGen(AlgebraContext &Ctx, const Spec &S,
                                  std::span<const Spec *const> AllSpecs,
                                  ModelBinding &Binding,
                                  const TestGenOptions &Options) {
  TestGenReport Report;
  Report.SpecName = S.name();

  // Satellite of the section-5 discipline: a binding that cannot run
  // the spec is a named obstruction, not a crash or a spray of
  // per-instance evaluation failures.
  for (OpId Op : Binding.unboundOps(S)) {
    Report.AllPassed = false;
    Report.Obstructions.push_back(
        {"unbound-operation", "operation '" + std::string(Ctx.opName(Op)) +
                                  "' has no binding and no builtin "
                                  "default"});
  }
  if (!Report.Obstructions.empty())
    return Report;

  TermEnumerator Enumerator(Ctx, Options.Enum);
  std::vector<const Spec *> SpecVec(AllSpecs.begin(), AllSpecs.end());

  std::unique_ptr<ParallelDriver<TestGenWorker>> Driver;
  if (resolveJobs(Options.Par) > 1 && Options.BindingFactory &&
      Replica::create(Ctx, SpecVec)) {
    Driver = std::make_unique<ParallelDriver<TestGenWorker>>(
        Options.Par, [&Ctx, &SpecVec, &Options] {
          auto W = std::make_unique<TestGenWorker>();
          Result<std::unique_ptr<Replica>> Rep =
              Replica::create(Ctx, SpecVec);
          if (!Rep)
            return W;
          W->Rep = Rep.take();
          W->Binding =
              Options.BindingFactory(W->Rep->context(), W->Rep->specs());
          return W;
        });
  }

  // Oracles are per sort; axioms of the same sort share one.
  std::unordered_map<SortId, Oracle> Oracles;
  auto oracleFor = [&](SortId Sort) -> const Oracle & {
    auto It = Oracles.find(Sort);
    if (It == Oracles.end())
      It = Oracles
               .emplace(Sort, Oracle::build(Ctx, AllSpecs, Sort, Binding,
                                            Enumerator,
                                            Options.ForceObservers,
                                            Options.Oracles))
               .first;
    return It->second;
  };

  for (const Axiom &Ax : S.axioms()) {
    AxiomCampaign Campaign;
    Campaign.AxiomNumber = Ax.Number;
    SortId AxiomSort = Ctx.sortOf(Ax.Lhs);

    const Oracle &Judge = oracleFor(AxiomSort);
    Campaign.UsedObservers = Judge.usesObservers();
    Campaign.ObserverContexts = Judge.observerCount();
    Report.TotalObserverContexts += Judge.observerCount();
    if (!Judge.decidable()) {
      Report.AllPassed = false;
      Report.Obstructions.push_back(
          {"undecidable-sort",
           "axiom " + std::to_string(Ax.Number) + ": sort '" +
               std::string(Ctx.sortName(AxiomSort)) +
               "' has no bound equality and no observer contexts"});
      Campaign.Skipped = true;
      Report.Axioms.push_back(std::move(Campaign));
      continue;
    }

    std::vector<VarId> Vars;
    std::unordered_set<VarId> Seen;
    collectVars(Ctx, Ax.Lhs, Vars, Seen);
    collectVars(Ctx, Ax.Rhs, Vars, Seen);
    size_t NumVars = Vars.size();

    std::vector<const std::vector<TermId> *> Choices;
    bool Empty = false;
    for (VarId Var : Vars) {
      const std::vector<TermId> &Set =
          Enumerator.enumerate(Ctx.var(Var).Sort, Options.MaxDepth);
      if (Enumerator.wasTruncated(Ctx.var(Var).Sort, Options.MaxDepth))
        Report.Caveats.push_back(
            "enumeration of sort '" +
            std::string(Ctx.sortName(Ctx.var(Var).Sort)) +
            "' was truncated");
      if (Set.empty())
        Empty = true;
      Choices.push_back(&Set);
    }
    if (Empty) {
      Report.Caveats.push_back("axiom " + std::to_string(Ax.Number) +
                               " quantifies over an uninhabited sort; "
                               "skipped");
      Campaign.Skipped = true;
      Report.Axioms.push_back(std::move(Campaign));
      continue;
    }

    // Regularity accounting: the whole depth-bounded ground space this
    // campaign's selection stands in for.
    uint64_t Space = 1;
    for (const std::vector<TermId> *Set : Choices)
      Space = clampedMul(Space, Set->size());
    Campaign.SpaceAtDepth = Space;

    // The instance plan, generated serially up front: per instance, one
    // index into each variable's choice list. Workers and the serial
    // sweep both follow this plan in order, which is what makes the
    // report byte-identical at any job count.
    std::vector<uint32_t> Plan;
    if (Options.RandomCount) {
      size_t Count =
          std::min(Options.RandomCount, Options.MaxInstancesPerAxiom);
      Plan.reserve(Count * NumVars);
      std::mt19937_64 Rng(Options.Seed +
                          0x9E3779B97F4A7C15ULL * (Ax.Number + 1));
      for (size_t I = 0; I != Count; ++I)
        for (size_t V = 0; V != NumVars; ++V)
          Plan.push_back(
              static_cast<uint32_t>(Rng() % Choices[V]->size()));
    } else if (Options.Uniformity) {
      std::vector<std::vector<uint32_t>> Reps;
      uint64_t Cells = 1;
      for (size_t V = 0; V != NumVars; ++V) {
        Reps.push_back(uniformityRepresentatives(Ctx, *Choices[V]));
        Cells = clampedMul(Cells, Reps.back().size());
      }
      Campaign.UniformityCells = Cells;
      Report.TotalUniformityCells += Cells;
      uint64_t Capped =
          std::min<uint64_t>(Cells, Options.MaxInstancesPerAxiom);
      for (uint64_t Flat = 0; Flat != Capped; ++Flat) {
        uint64_t Rem = Flat;
        for (size_t V = 0; V != NumVars; ++V) {
          Plan.push_back(Reps[V][Rem % Reps[V].size()]);
          Rem /= Reps[V].size();
        }
      }
    } else {
      uint64_t Capped =
          std::min<uint64_t>(Space, Options.MaxInstancesPerAxiom);
      for (uint64_t Flat = 0; Flat != Capped; ++Flat) {
        uint64_t Rem = Flat;
        for (size_t V = 0; V != NumVars; ++V) {
          Plan.push_back(
              static_cast<uint32_t>(Rem % Choices[V]->size()));
          Rem /= Choices[V]->size();
        }
      }
    }
    size_t Planned = NumVars ? Plan.size() / NumVars : Plan.size();
    if (NumVars == 0) {
      // A ground axiom has exactly one instance.
      Planned = 1;
    }
    Campaign.Planned = Planned;
    Report.TotalPlanned += Planned;
    if (Planned >= Options.MaxInstancesPerAxiom)
      Report.Caveats.push_back("axiom " + std::to_string(Ax.Number) +
                               ": instance cap reached");

    auto assignmentOf = [&](size_t I) {
      std::vector<TermId> Assignment(NumVars);
      for (size_t V = 0; V != NumVars; ++V)
        Assignment[V] = (*Choices[V])[Plan[I * NumVars + V]];
      return Assignment;
    };
    auto instantiate = [&](std::span<const TermId> Assignment) {
      Substitution Sigma;
      for (size_t V = 0; V != NumVars; ++V)
        Sigma.bind(Vars[V], Assignment[V]);
      return std::pair<TermId, TermId>(
          applySubstitution(Ctx, Ax.Lhs, Sigma),
          applySubstitution(Ctx, Ax.Rhs, Sigma));
    };

    // Judges instance \p I on the caller's binding; on a failure fills
    // Campaign.Failure (shrinking first) and returns true.
    auto evalOnMain = [&](size_t I) -> bool {
      std::vector<TermId> Assignment = assignmentOf(I);
      auto [Lhs, Rhs] = instantiate(Assignment);
      Result<OracleVerdict> Verdict = Judge.compare(Binding, Lhs, Rhs);

      TestGenFailure Failure;
      if (Verdict && Verdict->Equal)
        return false;
      if (!Verdict) {
        Failure.ImplAnswer =
            "evaluation failed: " + Verdict.error().message();
      } else {
        // Greedy descent to a locally minimal failing assignment.
        ShrinkOutcome Shrunk = shrinkAssignment(
            Ctx, Enumerator, Options.MaxDepth, Vars, std::move(Assignment),
            [&](std::span<const TermId> Trial) {
              auto [L, R] = instantiate(Trial);
              Result<OracleVerdict> V = Judge.compare(Binding, L, R);
              return V && !V->Equal;
            });
        Assignment = std::move(Shrunk.Assignment);
        Failure.ShrinkSteps = Shrunk.Steps;
        Report.TotalShrinkSteps += Shrunk.Steps;
        std::tie(Lhs, Rhs) = instantiate(Assignment);
        Result<OracleVerdict> Final = Judge.compare(Binding, Lhs, Rhs);
        Failure.ImplAnswer = Final && !Final->Equal
                                 ? Final->Detail
                                 : Verdict->Detail;
      }
      for (size_t V = 0; V != NumVars; ++V) {
        if (V)
          Failure.Assignment += ", ";
        Failure.Assignment += std::string(Ctx.varName(Vars[V])) + " := " +
                              printTerm(Ctx, Assignment[V]);
      }
      Failure.Lhs = printTerm(Ctx, Lhs);
      Failure.Rhs = printTerm(Ctx, Rhs);
      if (Options.SpecEngine) {
        if (Result<TermId> Nf = Options.SpecEngine->normalize(Lhs))
          Failure.SpecNormalForm = printTerm(Ctx, *Nf);
      }
      Campaign.Passed = false;
      Campaign.Failure = std::move(Failure);
      return true;
    };

    if (Driver && NumVars && Planned <= Options.Par.MaxFlatSpace) {
      // Workers judge their shard of the plan through the campaign's
      // oracle replicated into their own context; the merge walks
      // flagged instances in ascending plan order and re-judges them on
      // the caller's binding, regenerating the exact serial failure and
      // stop point. Re-checking also tolerates a worker whose
      // replication failed (it flags its whole shard).
      std::vector<uint8_t> Flagged = Driver->map<uint8_t>(
          Planned, [&](TestGenWorker &W, size_t I) -> uint8_t {
            if (!W.Binding)
              return 1;
            auto It = W.Judges.find(AxiomSort);
            if (It == W.Judges.end())
              It = W.Judges.emplace(AxiomSort, Judge.replicate(*W.Rep))
                       .first;
            const std::optional<Oracle> &WorkerJudge = It->second;
            if (!WorkerJudge)
              return 1;
            AlgebraContext &RCtx = W.Rep->context();
            Substitution Sigma;
            for (size_t V = 0; V != NumVars; ++V) {
              TermId Mapped = W.Rep->mapTerm(
                  (*Choices[V])[Plan[I * NumVars + V]]);
              if (!Mapped.isValid())
                return 1;
              Sigma.bind(W.Rep->mapVar(Vars[V]), Mapped);
            }
            TermId MappedLhs = W.Rep->mapTerm(Ax.Lhs);
            TermId MappedRhs = W.Rep->mapTerm(Ax.Rhs);
            if (!MappedLhs.isValid() || !MappedRhs.isValid())
              return 1;
            TermId Lhs = applySubstitution(RCtx, MappedLhs, Sigma);
            TermId Rhs = applySubstitution(RCtx, MappedRhs, Sigma);
            Result<OracleVerdict> V =
                WorkerJudge->compare(*W.Binding, Lhs, Rhs);
            return !V || !V->Equal;
          });
      Campaign.Run = Planned;
      for (size_t I = 0; I != Planned; ++I) {
        if (!Flagged[I])
          continue;
        if (evalOnMain(I)) {
          Campaign.Run = I + 1;
          break;
        }
      }
    } else {
      while (Campaign.Run < Planned) {
        size_t I = Campaign.Run++;
        if (evalOnMain(I))
          break;
      }
    }

    Report.TotalRun += Campaign.Run;
    if (!Campaign.Passed)
      ++Report.TotalFailures;
    Report.AllPassed &= Campaign.Passed;
    Report.Axioms.push_back(std::move(Campaign));
  }
  return Report;
}

std::string TestGenReport::render(const TestGenOptions &Options) const {
  std::string Out = "testgen spec " + SpecName;
  if (!Impl.empty())
    Out += " vs " + Impl;
  Out += "\n  hypotheses: " + describeHypotheses(Options) + "\n";
  for (const TestGenObstruction &O : Obstructions)
    Out += "  obstruction " + O.Name + ": " + O.Detail + "\n";
  for (const AxiomCampaign &A : Axioms) {
    Out += "  axiom " + std::to_string(A.AxiomNumber) + ": ";
    if (A.Skipped) {
      Out += "skipped\n";
      continue;
    }
    if (A.Passed) {
      Out += "passed (" + std::to_string(A.Run) + " instances; space " +
             std::to_string(A.SpaceAtDepth);
      if (A.UniformityCells)
        Out += "; " + std::to_string(A.UniformityCells) + " cells";
      if (A.UsedObservers)
        Out += "; " + std::to_string(A.ObserverContexts) + " observers";
      Out += ")\n";
      continue;
    }
    Out += "FAILED (instance " + std::to_string(A.Run) + " of " +
           std::to_string(A.Planned) + ")\n";
    if (A.Failure) {
      Out += "    counterexample (shrunk, " +
             std::to_string(A.Failure->ShrinkSteps) + " steps): " +
             (A.Failure->Assignment.empty() ? "<ground>"
                                            : A.Failure->Assignment) +
             "\n";
      Out += "    lhs: " + A.Failure->Lhs + "\n";
      Out += "    rhs: " + A.Failure->Rhs + "\n";
      if (!A.Failure->SpecNormalForm.empty())
        Out += "    spec normal form: " + A.Failure->SpecNormalForm + "\n";
      Out += "    implementation: " + A.Failure->ImplAnswer + "\n";
    }
  }
  for (const std::string &Caveat : Caveats)
    Out += "  note: " + Caveat + "\n";
  Out += "result: ";
  if (!Obstructions.empty())
    Out += "OBSTRUCTED — " + std::to_string(Obstructions.size()) +
           " obstruction(s)\n";
  else if (AllPassed)
    Out += "passed — " + std::to_string(Axioms.size()) + " axiom(s), " +
           std::to_string(TotalRun) + " instance(s)\n";
  else
    Out += "FAILED — " + std::to_string(TotalFailures) +
           " counterexample(s), " + std::to_string(TotalRun) +
           " instance(s) run\n";
  return Out;
}

void TestGenReport::writeJson(JsonWriter &W,
                              const TestGenOptions &Options) const {
  W.beginObject();
  W.key("spec").value(SpecName);
  W.key("impl").value(Impl);
  W.key("allPassed").value(AllPassed);
  W.key("hypotheses").beginObject();
  W.key("maxDepth").value(Options.MaxDepth);
  W.key("mode").value(Options.RandomCount ? "random"
                      : Options.Uniformity ? "uniformity"
                                           : "enumerative");
  W.key("randomCount").value(static_cast<uint64_t>(Options.RandomCount));
  W.key("seed").value(Options.Seed);
  W.key("oracle").value(Options.ForceObservers ? "observers" : "auto");
  W.endObject();
  W.key("obstructions").beginArray();
  for (const TestGenObstruction &O : Obstructions) {
    W.beginObject();
    W.key("name").value(O.Name);
    W.key("detail").value(O.Detail);
    W.endObject();
  }
  W.endArray();
  W.key("axioms").beginArray();
  for (const AxiomCampaign &A : Axioms) {
    W.beginObject();
    W.key("axiom").value(A.AxiomNumber);
    W.key("passed").value(A.Passed);
    W.key("skipped").value(A.Skipped);
    W.key("space").value(A.SpaceAtDepth);
    W.key("planned").value(A.Planned);
    W.key("run").value(A.Run);
    W.key("uniformityCells").value(A.UniformityCells);
    W.key("observerContexts").value(A.ObserverContexts);
    if (A.Failure) {
      W.key("counterexample").beginObject();
      W.key("assignment").value(A.Failure->Assignment);
      W.key("lhs").value(A.Failure->Lhs);
      W.key("rhs").value(A.Failure->Rhs);
      W.key("specNormalForm").value(A.Failure->SpecNormalForm);
      W.key("implementation").value(A.Failure->ImplAnswer);
      W.key("shrinkSteps").value(A.Failure->ShrinkSteps);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.key("caveats").beginArray();
  for (const std::string &Caveat : Caveats)
    W.value(Caveat);
  W.endArray();
  W.key("campaign").beginObject();
  W.key("planned").value(TotalPlanned);
  W.key("run").value(TotalRun);
  W.key("failures").value(TotalFailures);
  W.key("shrinkSteps").value(TotalShrinkSteps);
  W.key("observerContexts").value(TotalObserverContexts);
  W.key("uniformityCells").value(TotalUniformityCells);
  W.endObject();
  W.endObject();
}
