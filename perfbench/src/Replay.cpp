//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Running testgen requests, and the traced replay of command requests.
///
/// The replay makes the public calls src/server/Commands.cpp makes for
/// each command, in its order, and records a span around each; rendering
/// is left out. Span names are `<layer>.<call>`, the layer being the
/// library module the call enters.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "adt/Bindings.h"
#include "model/ModelBinding.h"
#include "testgen/TestGen.h"

#include <mutex>
#include <optional>
#include <set>

using namespace perfbench;
using namespace algspec;
using algspec::server::CommandOptions;

const char *perfbench::internName(const std::string &Name) {
  static std::mutex M;
  static std::set<std::string> Names;
  std::lock_guard<std::mutex> Lock(M);
  return Names.insert(Name).first->c_str();
}

namespace {

/// Runs \p Fn under a span when tracing.
template <class F> auto traced(Tracer *T, const char *Name, F &&Fn) {
  std::optional<ScopedSpan> S;
  if (T)
    S.emplace(T->Spans, Name);
  return Fn();
}

bool loadAll(Workspace &WS, const BenchRequest &R, Tracer *T) {
  for (const SourceFile &F : R.Cmd.Sources) {
    bool Ok = traced(T, "parser.load",
                     [&] { return static_cast<bool>(WS.load(F.Text, F.Name)); });
    if (!Ok)
      return false;
    if (T)
      T->C.BytesLoaded += F.Text.size();
  }
  if (T) {
    ++T->C.Loads;
    T->C.ArenaTermsAfterLoad += WS.context().numTerms();
  }
  return true;
}

void addEngine(Tracer &T, const EngineStats &S) {
  T.C.Engine += S;
  T.C.ArenaHighWater = std::max(T.C.ArenaHighWater, S.ArenaHighWater);
}

EngineOptions engineOptions(const CommandOptions &O) {
  EngineOptions Eng;
  Eng.Compile = O.CompileEngine;
  if (O.MaxSteps != 0)
    Eng.MaxSteps = O.MaxSteps;
  return Eng;
}

void replayCheck(Workspace &WS, const CommandOptions &O, Tracer &T) {
  EngineOptions Eng = engineOptions(O);
  ParallelOptions Par;
  Par.Jobs = O.Jobs;
  SpanRecorder &Sp = T.Spans;
  {
    ScopedSpan S(Sp, "check.termination");
    WS.termination();
  }
  ++T.C.TerminationCalls;
  std::optional<ExhaustivenessReport> Exh;
  {
    ScopedSpan S(Sp, "check.exhaustiveness");
    Exh = WS.exhaustiveness(Eng);
  }
  for (const Spec &Sp1 : WS.specs()) {
    {
      ScopedSpan S(Sp, "check.completeness");
      WS.checkComplete(Sp1);
    }
    if (O.DynamicDepth > 0) {
      ScopedSpan S(Sp, "check.completeness");
      CompletenessReport D = checkCompletenessDynamic(
          WS.context(), Sp1, WS.specPointers(),
          static_cast<unsigned>(O.DynamicDepth), EnumeratorOptions(), Par,
          Eng, &*Exh);
      ++T.C.SweepsRun;
      T.C.SweepsSkipped += !D.ProvenBy.empty();
      addEngine(T, D.Engine);
    }
  }
  std::optional<ConvergenceReport> Conv;
  {
    ScopedSpan S(Sp, "check.convergence");
    Conv = WS.convergence(Eng);
  }
  {
    ScopedSpan S(Sp, "check.consistency");
    ConsistencyReport C =
        checkConsistency(WS.context(), WS.specPointers(), 2,
                         EnumeratorOptions(), Par, Eng, &*Conv, O.EGraph);
    ++T.C.SweepsRun;
    T.C.SweepsSkipped += !C.ProvenBy.empty();
    addEngine(T, C.Engine);
  }
  ScopedSpan S(Sp, "check.errorflow");
  addEngine(T, analyzeErrorFlow(WS.context(), WS.specPointers(), Eng).Engine);
}

void replayLint(Workspace &WS, Tracer &T) {
  {
    ScopedSpan S(T.Spans, "check.lint");
    WS.lint();
  }
  ScopedSpan S(T.Spans, "check.termination");
  WS.termination();
  ++T.C.TerminationCalls;
}

void replayAnalyze(Workspace &WS, const CommandOptions &O, Tracer &T) {
  EngineOptions Eng = engineOptions(O);
  SpanRecorder &Sp = T.Spans;
  {
    ScopedSpan S(Sp, "check.errorflow");
    addEngine(T,
              analyzeErrorFlow(WS.context(), WS.specPointers(), Eng).Engine);
  }
  {
    ScopedSpan S(Sp, "check.convergence");
    ConvergenceOptions COpts;
    COpts.Engine = Eng;
    certifyConvergence(WS.context(), WS.specPointers(), COpts);
  }
  {
    ScopedSpan S(Sp, "check.exhaustiveness");
    WS.exhaustiveness(Eng);
  }
  ScopedSpan S(Sp, "check.lint");
  Linter L;
  L.addPass(makeErrorSwallowedPass());
  L.addPass(makeAlwaysErrorOpPass());
  L.addPass(makeRedundantErrorAxiomPass());
  L.addPass(makeNonLeftLinearLhsPass());
  L.addPass(makeUnjoinableCriticalPairPass());
  L.addPass(makeUnreachableAxiomPass());
  L.addPass(makeNonExhaustiveOpPass());
  L.run(WS.context(), WS.specPointers());
}

void replayEval(Workspace &WS, const CommandOptions &O, bool Trace,
                Tracer &T) {
  EngineOptions Eng = engineOptions(O);
  Eng.KeepTrace = Trace;
  std::optional<Session> Sess;
  {
    ScopedSpan S(T.Spans, "rewrite.session");
    auto Made = WS.session(Eng);
    if (!Made)
      return;
    Sess.emplace(Made.take());
  }
  std::optional<TermId> Term;
  {
    ScopedSpan S(T.Spans, "parser.term");
    Result<TermId> Parsed = parseTermText(WS.context(), O.TermText);
    if (!Parsed)
      return;
    Term = *Parsed;
  }
  {
    ScopedSpan S(T.Spans, "rewrite.normalize");
    (void)Sess->engine().normalize(*Term);
  }
  addEngine(T, Sess->stats());
}

void replayVerify(Workspace &WS, const CommandOptions &O, Tracer &T) {
  const Spec *Abstract = WS.find(O.AbstractSpec);
  if (!Abstract)
    return;
  RepMapping Mapping;
  Mapping.AbstractSort = Abstract->principalSort();
  Mapping.RepSort = WS.context().lookupSort(O.RepSort);
  Mapping.Phi = WS.context().lookupOp(O.PhiName);
  for (const auto &[AbstractName, ImplName] : O.OpMap) {
    OpId AbstractOp;
    for (OpId Op : WS.context().lookupOps(AbstractName)) {
      const OpInfo &Info = WS.context().op(Op);
      bool Involves = Info.ResultSort == Mapping.AbstractSort;
      for (SortId S : Info.ArgSorts)
        Involves |= S == Mapping.AbstractSort;
      if (Involves)
        AbstractOp = Op;
    }
    Mapping.OpMap.emplace(AbstractOp, WS.context().lookupOp(ImplName));
  }
  VerifyOptions V;
  V.Domain = O.FreeDomain ? ValueDomain::FreeTerms : ValueDomain::Reachable;
  V.Depth = O.Depth;
  V.Par.Jobs = O.Jobs;
  V.Engine = engineOptions(O);
  V.EGraph = O.EGraph;
  std::string Key = std::string("verify.") +
                    (O.Homomorphism ? "hom"
                     : O.FreeDomain ? "free"
                                    : "reachable") +
                    "_d" + std::to_string(O.Depth);
  std::optional<VerifyReport> Report;
  {
    ScopedSpan S(T.Spans, internName(Key));
    Report = O.Homomorphism
                 ? verifyHomomorphism(WS.context(), *Abstract,
                                      WS.specPointers(), Mapping, V)
                 : verifyRepresentation(WS.context(), *Abstract,
                                        WS.specPointers(), Mapping, V);
  }
  addEngine(T, Report->Engine);
  ++T.C.VerifyRequests;
  for (const AxiomVerdict &A : Report->Verdicts) {
    ++T.C.VerifyDecisions;
    T.C.VerifyDecided += A.ProvedSymbolically;
    T.C.InstancesChecked += A.InstancesChecked;
  }
  for (const ObligationVerdict &Ob : Report->Obligations) {
    ++T.C.VerifyDecisions;
    T.C.VerifyDecided += Ob.Status == ObligationStatus::Discharged;
  }
}

} // namespace

std::vector<CampaignOutcome> perfbench::runTestGenRequest(const BenchRequest &R,
                                                          Tracer *T) {
  std::vector<CampaignOutcome> Out;
  Workspace WS;
  if (!loadAll(WS, R, T))
    return Out;
  EngineOptions Eng = engineOptions(R.Cmd.Opts);
  std::optional<Session> Sess;
  {
    auto Made = traced(T, "rewrite.session", [&] { return WS.session(Eng); });
    if (!Made)
      return Out;
    Sess.emplace(Made.take());
  }
  TestGenOptions TG;
  TG.MaxDepth = R.Cmd.Opts.Depth;
  TG.Par.Jobs = R.Cmd.Opts.Jobs;
  TG.SpecEngine = &Sess->engine();
  std::vector<const Spec *> AllSpecs = WS.specPointers();
  for (const Spec &S : WS.specs()) {
    CampaignOutcome C;
    C.Spec = S.name();
    const adt::AdtBinding *Row = adt::findAdtBinding(S.name());
    if (!Row) {
      Out.push_back(C);
      continue;
    }
    std::string_view Mutant;
    for (const adt::MutantInfo &M : Row->Mutants)
      if (M.Name == R.Mutant)
        Mutant = M.Name;
    ModelBinding B(WS.context());
    if (!Row->Install(B, S, Mutant)) {
      Out.push_back(C);
      continue;
    }
    TestGenOptions Local = TG;
    Local.BindingFactory = [Row, Mutant, Name = S.name()](
                               AlgebraContext &RCtx, std::span<const Spec> RSpecs)
        -> std::unique_ptr<ModelBinding> {
      for (const Spec &Candidate : RSpecs)
        if (Candidate.name() == Name) {
          auto RB = std::make_unique<ModelBinding>(RCtx);
          if (!Row->Install(*RB, Candidate, Mutant))
            return nullptr;
          return RB;
        }
      return nullptr;
    };
    TestGenReport Report = traced(T, "testgen.campaign", [&] {
      return runTestGen(WS.context(), S, AllSpecs, B, Local);
    });
    C.Passed = Report.AllPassed;
    C.Run = Report.TotalRun;
    for (const AxiomCampaign &A : Report.Axioms)
      if (A.Failure)
        C.FailingAxioms.push_back(A.AxiomNumber);
    if (T) {
      ++T->C.Campaigns;
      T->C.TestgenRun += Report.TotalRun;
      T->C.ShrinkSteps += Report.TotalShrinkSteps;
    }
    Out.push_back(std::move(C));
  }
  if (T)
    addEngine(*T, Sess->stats());
  return Out;
}

std::unique_ptr<Workspace> perfbench::replayCommand(const BenchRequest &R,
                                                    Tracer &T) {
  auto WS = std::make_unique<Workspace>();
  if (!loadAll(*WS, R, &T))
    return nullptr;
  const std::string &C = R.Cmd.Command;
  if (C == "check")
    replayCheck(*WS, R.Cmd.Opts, T);
  else if (C == "lint")
    replayLint(*WS, T);
  else if (C == "analyze")
    replayAnalyze(*WS, R.Cmd.Opts, T);
  else if (C == "eval" || C == "trace")
    replayEval(*WS, R.Cmd.Opts, C == "trace", T);
  else if (C == "verify")
    replayVerify(*WS, R.Cmd.Opts, T);
  return WS;
}
