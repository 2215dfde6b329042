//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Model-based testing (paper section 5): every concrete ADT is run
/// against the axioms of its algebraic specification through a
/// full-regularity testgen campaign. A deliberately broken
/// implementation shows the campaign catching real bugs.
///
//===----------------------------------------------------------------------===//

#include "adt/Bindings.h"
#include "adt/KnowsList.h"
#include "adt/KnowsSymbolTable.h"
#include "adt/PriorityQueue.h"
#include "ast/AlgebraContext.h"
#include "model/ModelBinding.h"
#include "parser/Parser.h"
#include "specs/BuiltinSpecs.h"
#include "testgen/TestGen.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace algspec;

using KTableV = adt::KnowsSymbolTable<std::string>;

namespace {

/// Installs the shared registry binding for \p S (the same wiring the
/// spec_testing example and `algspec testgen` use). \p Mutant selects a
/// seeded defect; empty is the correct implementation.
void installFromRegistry(ModelBinding &B, const Spec &S,
                         std::string_view Mutant = "") {
  const adt::AdtBinding *Row = adt::findAdtBinding(S.name());
  ASSERT_NE(Row, nullptr) << "no registry row for spec " << S.name();
  Result<void> R = Row->Install(B, S, Mutant);
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
}

/// Enumerative campaign options at regularity depth \p MaxDepth.
TestGenOptions atDepth(unsigned MaxDepth) {
  TestGenOptions Options;
  Options.MaxDepth = MaxDepth;
  return Options;
}

} // namespace

//===----------------------------------------------------------------------===//
// Queue<T> against the Queue spec (axioms 1-6)
//===----------------------------------------------------------------------===//

TEST(ModelQueueTest, RealImplementationSatisfiesAllAxioms) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  installFromRegistry(B, *Q);

  // Depth 5: queues of up to 4 elements, both atoms each.
  const Spec *All[] = {&*Q};
  TestGenOptions Options = atDepth(5);
  TestGenReport Report = runTestGen(Ctx, *Q, All, B, Options);
  EXPECT_TRUE(Report.AllPassed) << Report.render(Options);
  ASSERT_EQ(Report.Axioms.size(), 6u);
  for (const AxiomCampaign &A : Report.Axioms)
    EXPECT_GT(A.Run, 0u);
}

TEST(ModelQueueTest, LifoBugCaughtByAxiom6) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  installFromRegistry(B, *Q, "remove-lifo");

  const Spec *All[] = {&*Q};
  TestGenOptions Options = atDepth(4);
  TestGenReport Report = runTestGen(Ctx, *Q, All, B, Options);
  EXPECT_FALSE(Report.AllPassed);
  // Axiom 6 (REMOVE over a non-empty queue) is the one that pins FIFO.
  bool Axiom6Failed = false;
  for (const AxiomCampaign &A : Report.Axioms)
    if (A.AxiomNumber == 6 && !A.Passed)
      Axiom6Failed = true;
  EXPECT_TRUE(Axiom6Failed) << Report.render(Options);
}

TEST(ModelQueueTest, EvaluateGroundTermRunsRealCode) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  installFromRegistry(B, *Q);

  auto Term = parseTermText(Ctx, "FRONT(REMOVE(ADD(ADD(NEW, 'a), 'b)))");
  ASSERT_TRUE(static_cast<bool>(Term));
  auto V = B.evaluate(*Term);
  ASSERT_TRUE(static_cast<bool>(V));
  EXPECT_EQ(V->get<std::string>(), "b");
}

TEST(ModelQueueTest, ErrorsPropagateThroughEvaluation) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  installFromRegistry(B, *Q);

  auto Term = parseTermText(Ctx, "IS_EMPTY?(REMOVE(NEW))");
  ASSERT_TRUE(static_cast<bool>(Term));
  auto V = B.evaluate(*Term);
  ASSERT_TRUE(static_cast<bool>(V));
  EXPECT_TRUE(V->isError());
}

//===----------------------------------------------------------------------===//
// Stack + HashArray against axioms 10-20 (the paper's PL/I code, E6)
//===----------------------------------------------------------------------===//

TEST(ModelStackArrayTest, PaperImplementationSatisfiesAxioms10To20) {
  AlgebraContext Ctx;
  auto Parsed = specs::loadStackArray(Ctx);
  ASSERT_TRUE(static_cast<bool>(Parsed));
  ModelBinding B(Ctx);
  for (const Spec &S : *Parsed)
    installFromRegistry(B, S);

  std::vector<const Spec *> All;
  for (const Spec &S : *Parsed)
    All.push_back(&S);
  TestGenOptions Options = atDepth(3);
  for (const Spec &S : *Parsed) {
    TestGenReport Report = runTestGen(Ctx, S, All, B, Options);
    EXPECT_TRUE(Report.AllPassed) << Report.render(Options);
  }
}

//===----------------------------------------------------------------------===//
// SymbolTable against axioms 1-9
//===----------------------------------------------------------------------===//

TEST(ModelSymbolTableTest, StackOfArraysSatisfiesAxioms1To9) {
  AlgebraContext Ctx;
  auto S = specs::loadSymboltable(Ctx);
  ASSERT_TRUE(static_cast<bool>(S));
  ModelBinding B(Ctx);
  installFromRegistry(B, *S);

  const Spec *All[] = {&*S};
  TestGenOptions Options = atDepth(4);
  TestGenReport Report = runTestGen(Ctx, *S, All, B, Options);
  EXPECT_TRUE(Report.AllPassed) << Report.render(Options);
  EXPECT_EQ(Report.Axioms.size(), 9u);
}

//===----------------------------------------------------------------------===//
// KnowsSymbolTable against the adapted spec (E7)
//===----------------------------------------------------------------------===//

TEST(ModelKnowsTest, KnowsTableSatisfiesAdaptedAxioms) {
  AlgebraContext Ctx;
  auto Parsed = specs::loadKnowsSymboltable(Ctx);
  ASSERT_TRUE(static_cast<bool>(Parsed));
  ASSERT_EQ(Parsed->size(), 2u);
  const Spec &KnowlistSpec = (*Parsed)[0];
  const Spec &TableSpec = (*Parsed)[1];

  ModelBinding B(Ctx);
  SortId TableSort = Ctx.lookupSort("Symboltable");

  // The Knowlist half comes from the shared registry; the adapted
  // KnowsSymbolTable stays a local binding (it takes a Knowlist argument
  // on ENTERBLOCK, unlike the registry's plain SymbolTable).
  installFromRegistry(B, KnowlistSpec);

  B.bindOp("INIT", [](std::span<const Value>) {
    return Value::of(KTableV(4));
  });
  B.bindOp("ENTERBLOCK", [](std::span<const Value> Args) {
    KTableV T = Args[0].get<KTableV>();
    T.enterBlock(Args[1].get<adt::KnowsList>());
    return Value::of(std::move(T));
  });
  B.bindOp("LEAVEBLOCK", [](std::span<const Value> Args) {
    KTableV T = Args[0].get<KTableV>();
    if (!T.leaveBlock())
      return Value::error();
    return Value::of(std::move(T));
  });
  B.bindOp("ADD", [](std::span<const Value> Args) {
    KTableV T = Args[0].get<KTableV>();
    T.add(Args[1].get<std::string>(), Args[2].get<std::string>());
    return Value::of(std::move(T));
  });
  B.bindOp("IS_INBLOCK?", [](std::span<const Value> Args) {
    return Value::of(
        Args[0].get<KTableV>().isInBlock(Args[1].get<std::string>()));
  });
  B.bindOp("RETRIEVE", [](std::span<const Value> Args) {
    std::optional<std::string> V =
        Args[0].get<KTableV>().retrieve(Args[1].get<std::string>());
    return V ? Value::of(*V) : Value::error();
  });
  B.bindEquals(TableSort, [](const Value &A, const Value &B2) {
    return A.get<KTableV>() == B2.get<KTableV>();
  });

  const Spec *All[] = {&KnowlistSpec, &TableSpec};
  TestGenOptions Options = atDepth(3);
  TestGenReport KReport = runTestGen(Ctx, KnowlistSpec, All, B, Options);
  EXPECT_TRUE(KReport.AllPassed) << KReport.render(Options);
  TestGenReport TReport = runTestGen(Ctx, TableSpec, All, B, Options);
  EXPECT_TRUE(TReport.AllPassed) << TReport.render(Options);
}

//===----------------------------------------------------------------------===//
// Binding mechanics
//===----------------------------------------------------------------------===//

TEST(ModelBindingTest, UnboundOperationIsReportedNotCrash) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx); // Nothing bound.
  auto Term = parseTermText(Ctx, "FRONT(NEW)");
  ASSERT_TRUE(static_cast<bool>(Term));
  auto V = B.evaluate(*Term);
  ASSERT_FALSE(static_cast<bool>(V));
  EXPECT_NE(V.error().message().find("no binding"), std::string::npos);
}

TEST(ModelBindingTest, BuiltinsEvaluateWithoutBindings) {
  AlgebraContext Ctx;
  auto Term = parseTermText(Ctx, "addi(2, 3)");
  ASSERT_TRUE(static_cast<bool>(Term));
  ModelBinding B(Ctx);
  auto V = B.evaluate(*Term);
  ASSERT_TRUE(static_cast<bool>(V)) << V.error().message();
  EXPECT_EQ(V->get<int64_t>(), 5);
}

TEST(ModelBindingTest, IteIsLazyOverRealCode) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  installFromRegistry(B, *Q);
  // The else-branch would be error; the condition shields it.
  auto Term =
      parseTermText(Ctx, "if IS_EMPTY?(NEW) then 'ok else FRONT(NEW)");
  ASSERT_TRUE(static_cast<bool>(Term)) << Term.error().message();
  auto V = B.evaluate(*Term);
  ASSERT_TRUE(static_cast<bool>(V));
  EXPECT_EQ(V->get<std::string>(), "ok");
}

TEST(ModelBindingTest, SameUsesBoundEquality) {
  AlgebraContext Ctx;
  SortId Ident = Ctx.getOrAddAtomSort("Identifier");
  OpId Same = Ctx.getSameOp(Ident);
  TermId A = Ctx.makeAtom("a", Ident);
  TermId B2 = Ctx.makeAtom("b", Ident);
  ModelBinding B(Ctx);
  auto Eq = B.evaluate(Ctx.makeOp(Same, {A, A}));
  ASSERT_TRUE(static_cast<bool>(Eq));
  EXPECT_TRUE(Eq->get<bool>());
  auto Ne = B.evaluate(Ctx.makeOp(Same, {A, B2}));
  ASSERT_TRUE(static_cast<bool>(Ne));
  EXPECT_FALSE(Ne->get<bool>());
}

//===----------------------------------------------------------------------===//
// Table against TableAlg (the section-5 database characterization, E14)
//===----------------------------------------------------------------------===//

TEST(ModelTableTest, DatabaseTableSatisfiesItsSpec) {
  AlgebraContext Ctx;
  auto Parsed = specs::load(Ctx, specs::TableAlg, "table.alg");
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error().message();
  ModelBinding B(Ctx);
  installFromRegistry(B, (*Parsed)[0]);

  const Spec &Table = (*Parsed)[0];
  const Spec *All[] = {&Table};
  TestGenOptions Options = atDepth(4);
  TestGenReport Report = runTestGen(Ctx, Table, All, B, Options);
  EXPECT_TRUE(Report.AllPassed) << Report.render(Options);
  EXPECT_EQ(Report.Axioms.size(), 10u);
}

TEST(ModelTableTest, SelectValThroughRealCode) {
  AlgebraContext Ctx;
  auto Parsed = specs::load(Ctx, specs::TableAlg, "table.alg");
  ASSERT_TRUE(static_cast<bool>(Parsed));
  ModelBinding B(Ctx);
  installFromRegistry(B, (*Parsed)[0]);

  auto Term = parseTermText(
      Ctx, "ROW_COUNT(SELECT_VAL(INSERT_ROW(INSERT_ROW(INSERT_ROW("
           "EMPTY_TABLE, 'a, 'red), 'b, 'blue), 'c, 'red), 'red))");
  ASSERT_TRUE(static_cast<bool>(Term)) << Term.error().message();
  auto V = B.evaluate(*Term);
  ASSERT_TRUE(static_cast<bool>(V));
  EXPECT_EQ(V->get<int64_t>(), 2);
}

//===----------------------------------------------------------------------===//
// PriorityQueue (binary heap) against the user-written spec file
//===----------------------------------------------------------------------===//

#ifdef ALGSPEC_SOURCE_DIR
#include <fstream>
#include <sstream>

namespace {
using PQ = adt::PriorityQueue<int64_t>;
} // namespace

TEST(ModelPriorityQueueTest, HeapSatisfiesTheSpecFile) {
  // The spec ships as a *file* (exercising the same path a user takes
  // through the CLI), not as embedded text.
  std::ifstream In(std::string(ALGSPEC_SOURCE_DIR) +
                   "/examples/specs/priority_queue.alg");
  ASSERT_TRUE(In.good());
  std::ostringstream Buffer;
  Buffer << In.rdbuf();

  AlgebraContext Ctx;
  auto Parsed = parseSpecText(Ctx, Buffer.str(), "priority_queue.alg");
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error().message();
  const Spec &S = (*Parsed)[0];

  ModelBinding B(Ctx);
  B.bindOp("EMPTY_PQ",
           [](std::span<const Value>) { return Value::of(PQ()); });
  B.bindOp("INSERT", [](std::span<const Value> Args) {
    PQ P = Args[0].get<PQ>();
    P.insert(Args[1].get<int64_t>());
    return Value::of(std::move(P));
  });
  B.bindOp("MIN", [](std::span<const Value> Args) {
    auto M = Args[0].get<PQ>().min();
    return M ? Value::of(*M) : Value::error();
  });
  B.bindOp("DELETE_MIN", [](std::span<const Value> Args) {
    PQ P = Args[0].get<PQ>();
    return P.deleteMin() ? Value::of(std::move(P)) : Value::error();
  });
  B.bindOp("IS_EMPTY?", [](std::span<const Value> Args) {
    return Value::of(Args[0].get<PQ>().isEmpty());
  });
  B.bindOp("SIZE", [](std::span<const Value> Args) {
    return Value::of(static_cast<int64_t>(Args[0].get<PQ>().size()));
  });
  B.bindEquals(Ctx.lookupSort("PQueue"),
               [](const Value &A, const Value &B2) {
                 return A.get<PQ>() == B2.get<PQ>();
               });

  const Spec *All[] = {&S};
  TestGenOptions Options = atDepth(5);
  // Duplicate Int values matter for the lei tie-break; widen the pool.
  Options.Enum.IntValues = {0, 1, 1, 2};
  TestGenReport Report = runTestGen(Ctx, S, All, B, Options);
  EXPECT_TRUE(Report.AllPassed) << Report.render(Options);
  EXPECT_EQ(Report.Axioms.size(), 8u);
}
#endif // ALGSPEC_SOURCE_DIR
