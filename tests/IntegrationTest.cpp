//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests: whole-pipeline flows across module boundaries.
///
///  - every builtin spec coexisting in one context (overload resolution,
///    cross-spec consistency, one session over everything);
///  - the complete paper walkthrough: signature -> skeleton ->
///    completeness -> consistency -> representation verification ->
///    model testing -> the compiler front end on the spec backend;
///  - failure injection: wrong Φ, fuel exhaustion surfaced as caveats.
///
//===----------------------------------------------------------------------===//

#include "adt/HashArray.h"
#include "adt/Stack.h"
#include "blocklang/ScopedTable.h"
#include "blocklang/Sema.h"
#include "core/AlgSpec.h"
#include "support/SourceMgr.h"
#include "testgen/TestGen.h"

#include <gtest/gtest.h>

using namespace algspec;

//===----------------------------------------------------------------------===//
// All builtin specs in one context
//===----------------------------------------------------------------------===//

namespace {

class OneContext : public ::testing::Test {
protected:
  void SetUp() override {
    // knows_symboltable is omitted: it redefines sort Symboltable.
    for (auto [Text, Name] :
         {std::pair(specs::QueueAlg, "queue"),
          std::pair(specs::SymboltableAlg, "symboltable"),
          std::pair(specs::StackArrayAlg, "stackarray"),
          std::pair(specs::KnowlistAlg, "knowlist"),
          std::pair(specs::NatAlg, "nat"),
          std::pair(specs::SetAlg, "set"),
          std::pair(specs::ListAlg, "list"),
          std::pair(specs::BagAlg, "bag"),
          std::pair(specs::BstAlg, "bst")}) {
      Result<void> R = WS.load(Text, Name);
      ASSERT_TRUE(static_cast<bool>(R))
          << Name << ": " << R.error().message();
    }
  }

  Workspace WS;
};

} // namespace

TEST_F(OneContext, NineSpecsCoexist) {
  EXPECT_EQ(WS.specs().size(), 10u); // stackarray contributes two.
  // Overloads resolved: three different INSERTs, two different ADDs.
  EXPECT_EQ(WS.context().lookupOps("INSERT").size(), 3u);
  EXPECT_EQ(WS.context().lookupOps("ADD").size(), 2u);
  EXPECT_EQ(WS.context().lookupOps("IS_EMPTY?").size(), 2u);
}

TEST_F(OneContext, EverySpecCompleteInSharedContext) {
  for (const Spec &S : WS.specs()) {
    CompletenessReport Report = WS.checkComplete(S);
    EXPECT_TRUE(Report.SufficientlyComplete)
        << S.name() << ":\n" << Report.renderPrompt(WS.context());
  }
}

TEST_F(OneContext, CrossSpecConsistency) {
  ConsistencyReport Report = WS.checkConsistent();
  EXPECT_TRUE(Report.Consistent) << Report.render(WS.context());
}

TEST_F(OneContext, OneSessionServesEveryType) {
  auto SessionOrErr = WS.session();
  ASSERT_TRUE(static_cast<bool>(SessionOrErr))
      << SessionOrErr.error().message();
  Session S = SessionOrErr.take();
  Result<void> R = S.runProgram(R"(
    q := ADD(ADD(NEW, 'x), 'y)
    t := ADD(ENTERBLOCK(INIT), 'x, 'int)
    b := INSERT(INSERT(EMPTYBAG, 'x), 'x)
    tree := INSERT(INSERT(LEAF, 4), 2)
  )");
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
  EXPECT_EQ(printTerm(WS.context(), *S.eval("FRONT(q)")), "'x");
  EXPECT_EQ(printTerm(WS.context(), *S.eval("RETRIEVE(t, 'x)")), "'int");
  EXPECT_EQ(printTerm(WS.context(), *S.eval("COUNT(b, 'x)")), "2");
  EXPECT_EQ(printTerm(WS.context(), *S.eval("TREE_MIN(tree)")), "2");
}

//===----------------------------------------------------------------------===//
// The complete paper walkthrough
//===----------------------------------------------------------------------===//

TEST(PaperWalkthrough, Section3ToSection5EndToEnd) {
  // -- Section 2/3: syntactic specification and axioms.
  AlgebraContext Ctx;
  Spec Abstract = specs::loadSymboltable(Ctx).take();

  // The skeleton generator predicts exactly the paper's nine axiom
  // cases, and the written spec fills all of them.
  SkeletonReport Skeleton = generateSkeletons(Ctx, Abstract);
  EXPECT_EQ(Skeleton.Cases.size(), Abstract.axioms().size());

  CompletenessReport Complete = checkCompleteness(Ctx, Abstract);
  ASSERT_TRUE(Complete.SufficientlyComplete);

  // -- Section 4: refine to Stack of Arrays, prove correctness.
  std::vector<Spec> Concrete = specs::loadStackArray(Ctx).take();
  SymboltableRep Rep = buildSymboltableRep(Ctx).take();
  std::vector<const Spec *> Sources{&Abstract};
  for (const Spec &S : Concrete)
    Sources.push_back(&S);
  for (const Spec &S : Rep.ImplSpecs)
    Sources.push_back(&S);

  ConsistencyReport Consistent = checkConsistency(Ctx, Sources);
  ASSERT_TRUE(Consistent.Consistent) << Consistent.render(Ctx);

  VerifyOptions VOpts;
  VOpts.Domain = ValueDomain::Reachable;
  VOpts.Depth = 4;
  VerifyReport Verified =
      verifyRepresentation(Ctx, Abstract, Sources, Rep.Mapping, VOpts);
  ASSERT_TRUE(Verified.AllHold) << Verified.render(Ctx);

  // -- Section 4 (ground level): the PL/I-style C++ classes satisfy the
  //    concrete specs via model testing.
  using ArrayV = adt::HashArray<std::string>;
  using StackV = adt::Stack<ArrayV>;
  ModelBinding B(Ctx);
  B.bindOp("EMPTY",
           [](std::span<const Value>) { return Value::of(ArrayV(4)); });
  B.bindOp("ASSIGN", [](std::span<const Value> Args) {
    ArrayV A = Args[0].get<ArrayV>();
    A.assign(Args[1].get<std::string>(), Args[2].get<std::string>());
    return Value::of(std::move(A));
  });
  B.bindOp("READ", [](std::span<const Value> Args) {
    auto V = Args[0].get<ArrayV>().read(Args[1].get<std::string>());
    return V ? Value::of(*V) : Value::error();
  });
  B.bindOp("IS_UNDEFINED?", [](std::span<const Value> Args) {
    return Value::of(
        Args[0].get<ArrayV>().isUndefined(Args[1].get<std::string>()));
  });
  B.bindEquals(Ctx.lookupSort("Array"),
               [](const Value &A, const Value &B2) {
                 return A.get<ArrayV>() == B2.get<ArrayV>();
               });
  B.bindOp("NEWSTACK",
           [](std::span<const Value>) { return Value::of(StackV()); });
  B.bindOp("PUSH", [](std::span<const Value> Args) {
    StackV S = Args[0].get<StackV>();
    S.push(Args[1].get<ArrayV>());
    return Value::of(std::move(S));
  });
  B.bindOp("POP", [](std::span<const Value> Args) {
    StackV S = Args[0].get<StackV>();
    return S.pop() ? Value::of(std::move(S)) : Value::error();
  });
  B.bindOp("TOP", [](std::span<const Value> Args) {
    auto T = Args[0].get<StackV>().top();
    return T ? Value::of(std::move(*T)) : Value::error();
  });
  B.bindOp("IS_NEWSTACK?", [](std::span<const Value> Args) {
    return Value::of(Args[0].get<StackV>().isEmpty());
  });
  B.bindOp("REPLACE", [](std::span<const Value> Args) {
    StackV S = Args[0].get<StackV>();
    return S.replace(Args[1].get<ArrayV>()) ? Value::of(std::move(S))
                                            : Value::error();
  });
  B.bindEquals(Ctx.lookupSort("Stack"),
               [](const Value &A, const Value &B2) {
                 return A.get<StackV>() == B2.get<StackV>();
               });
  TestGenOptions MOpts;
  MOpts.MaxDepth = 3;
  for (const Spec &S : Concrete) {
    TestGenReport Report = runTestGen(Ctx, S, Sources, B, MOpts);
    ASSERT_TRUE(Report.AllPassed) << Report.render(MOpts);
  }

  // -- Section 5: the compiler front end runs on the bare specification.
  auto SpecBackend = blocklang::SpecScopedTable::create();
  ASSERT_TRUE(static_cast<bool>(SpecBackend));
  SourceMgr SM("walkthrough.bl", R"(
begin
  var x : int;
  begin
    var x : bool;
    x := true;
  end;
  x := x + 1;
end
)");
  DiagnosticEngine Diags;
  EXPECT_TRUE(blocklang::compile(SM, **SpecBackend, Diags))
      << Diags.render(&SM);
}

//===----------------------------------------------------------------------===//
// Failure injection
//===----------------------------------------------------------------------===//

TEST(FailureInjection, WrongPhiIsRejected) {
  // A Φ that forgets to recurse (maps every nonempty stack to INIT) is
  // invisible to the axiom-instance check for this spec — both sides of
  // each abstract-sorted axiom reduce to the same representation value
  // before Φ applies — but the homomorphism check pins Φ directly and
  // must reject it.
  AlgebraContext Ctx;
  Spec Abstract = specs::loadSymboltable(Ctx).take();
  std::vector<Spec> Concrete = specs::loadStackArray(Ctx).take();
  SymboltableRep Rep = buildSymboltableRep(Ctx).take();

  auto WrongPhi = parseSpecText(Ctx, R"(
spec WrongPhi
  ops
    WPHI : Stack -> Symboltable
  vars
    stk : Stack
    arr : Array
  axioms
    WPHI(NEWSTACK) = error
    WPHI(PUSH(stk, arr)) = INIT
end
)");
  ASSERT_TRUE(static_cast<bool>(WrongPhi)) << WrongPhi.error().message();

  RepMapping Mapping = Rep.Mapping;
  Mapping.Phi = Ctx.lookupOp("WPHI");

  std::vector<const Spec *> Sources{&Abstract};
  for (const Spec &S : Concrete)
    Sources.push_back(&S);
  for (const Spec &S : Rep.ImplSpecs)
    Sources.push_back(&S);
  Sources.push_back(&(*WrongPhi)[0]);

  VerifyOptions Options;
  Options.Domain = ValueDomain::Reachable;
  Options.Depth = 3;
  VerifyReport Axioms =
      verifyRepresentation(Ctx, Abstract, Sources, Mapping, Options);
  // The axiom instances alone cannot tell (documented limitation).
  EXPECT_TRUE(Axioms.AllHold) << Axioms.render(Ctx);

  VerifyReport Hom =
      verifyHomomorphism(Ctx, Abstract, Sources, Mapping, Options);
  EXPECT_FALSE(Hom.AllHold) << Hom.render(Ctx);
}

TEST(FailureInjection, FuelExhaustionSurfacesAsCaveat) {
  AlgebraContext Ctx;
  auto Parsed = parseSpecText(Ctx, R"(
spec Spin
  sorts S
  ops
    MK : -> S
    GO : S -> Bool
  constructors MK
  vars x : S
  axioms
    GO(x) = GO(x)
end
)");
  ASSERT_TRUE(static_cast<bool>(Parsed));
  const Spec &S = (*Parsed)[0];
  EnumeratorOptions EOpts;
  CompletenessReport Report =
      checkCompletenessDynamic(Ctx, S, {&S}, 2, EOpts);
  // The divergent axiom exhausts fuel; reported as a caveat, not a hang.
  bool SawFuelCaveat = false;
  for (const std::string &Caveat : Report.Caveats)
    if (Caveat.find("fuel") != std::string::npos ||
        Caveat.find("failed") != std::string::npos)
      SawFuelCaveat = true;
  EXPECT_TRUE(SawFuelCaveat);
}

TEST(FailureInjection, DeeplyNestedTermParses) {
  AlgebraContext Ctx;
  ASSERT_TRUE(static_cast<bool>(specs::loadQueue(Ctx)));
  std::string Term = "NEW";
  for (int I = 0; I < 2000; ++I)
    Term = "REMOVE(" + Term + ")";
  auto Parsed = parseTermText(Ctx, Term);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error().message();
  EXPECT_EQ(Ctx.depth(*Parsed), 2001u);
}
