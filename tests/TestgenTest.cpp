//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Axiom-derived test generation (the testgen subsystem): campaigns
/// against the real ADT implementations, seeded-mutant catching, shrinker
/// minimality, seeded-generator determinism, and obstruction reporting.
///
//===----------------------------------------------------------------------===//

#include "adt/Bindings.h"
#include "ast/AlgebraContext.h"
#include "model/ModelBinding.h"
#include "specs/BuiltinSpecs.h"
#include "support/Json.h"
#include "testgen/Shrink.h"
#include "testgen/TestGen.h"

#include <gtest/gtest.h>

#include <string>

using namespace algspec;

namespace {

/// Installs the registry binding for \p S; fails the test on a missing
/// row or an install error.
void install(ModelBinding &B, const Spec &S, std::string_view Mutant = "") {
  const adt::AdtBinding *Row = adt::findAdtBinding(S.name());
  ASSERT_NE(Row, nullptr) << "no registry row for spec " << S.name();
  Result<void> R = Row->Install(B, S, Mutant);
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
}

/// A BindingFactory installing the registry row for \p SpecName in a
/// worker's replica context.
std::unique_ptr<ModelBinding>
makeReplicaBinding(std::string_view SpecName, std::string_view Mutant,
                   AlgebraContext &RCtx, std::span<const Spec> RSpecs) {
  for (const Spec &S : RSpecs) {
    if (S.name() != SpecName)
      continue;
    const adt::AdtBinding *Row = adt::findAdtBinding(S.name());
    if (!Row)
      return nullptr;
    auto B = std::make_unique<ModelBinding>(RCtx);
    if (!Row->Install(*B, S, Mutant))
      return nullptr;
    return B;
  }
  return nullptr;
}

std::string reportJson(const TestGenReport &Report,
                       const TestGenOptions &Options) {
  JsonWriter W;
  Report.writeJson(W, Options);
  return W.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Campaigns against the correct implementations
//===----------------------------------------------------------------------===//

TEST(TestgenCampaignTest, CorrectQueuePassesEveryAxiom) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  install(B, *Q);

  const Spec *All[] = {&*Q};
  TestGenReport Report = runTestGen(Ctx, *Q, All, B);
  EXPECT_TRUE(Report.AllPassed) << Report.render(TestGenOptions());
  EXPECT_EQ(Report.Axioms.size(), 6u);
  EXPECT_EQ(Report.TotalFailures, 0u);
  EXPECT_GT(Report.TotalRun, 0u);
  EXPECT_EQ(Report.TotalRun, Report.TotalPlanned);
  for (const AxiomCampaign &A : Report.Axioms) {
    EXPECT_FALSE(A.Skipped);
    EXPECT_GT(A.SpaceAtDepth, 0u);
  }
}

TEST(TestgenCampaignTest, SymboltableAndStackPassToo) {
  AlgebraContext Ctx;
  auto Sym = specs::loadSymboltable(Ctx);
  ASSERT_TRUE(static_cast<bool>(Sym));
  ModelBinding B(Ctx);
  install(B, *Sym);
  const Spec *All[] = {&*Sym};
  TestGenReport Report = runTestGen(Ctx, *Sym, All, B);
  EXPECT_TRUE(Report.AllPassed) << Report.render(TestGenOptions());
  EXPECT_EQ(Report.Axioms.size(), 9u);

  AlgebraContext Ctx2;
  auto Parsed = specs::loadStackArray(Ctx2);
  ASSERT_TRUE(static_cast<bool>(Parsed));
  std::vector<const Spec *> All2;
  for (const Spec &S : *Parsed)
    All2.push_back(&S);
  for (const Spec &S : *Parsed) {
    ModelBinding B2(Ctx2);
    install(B2, S);
    TestGenReport R2 = runTestGen(Ctx2, S, All2, B2);
    EXPECT_TRUE(R2.AllPassed) << R2.render(TestGenOptions());
  }
}

//===----------------------------------------------------------------------===//
// Seeded mutants must be caught, with a minimal shrunk counterexample
//===----------------------------------------------------------------------===//

TEST(TestgenMutantTest, LifoRemoveCaughtAndShrunkToMinimal) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  install(B, *Q, "remove-lifo");

  const Spec *All[] = {&*Q};
  TestGenOptions Options;
  Options.MaxDepth = 4;
  TestGenReport Report = runTestGen(Ctx, *Q, All, B, Options);
  EXPECT_FALSE(Report.AllPassed);
  EXPECT_GE(Report.TotalFailures, 1u);

  const AxiomCampaign *Failed = nullptr;
  for (const AxiomCampaign &A : Report.Axioms)
    if (!A.Passed)
      Failed = &A;
  ASSERT_NE(Failed, nullptr);
  // Axiom 6 (REMOVE of a non-empty queue) pins FIFO.
  EXPECT_EQ(Failed->AxiomNumber, 6u);
  ASSERT_TRUE(Failed->Failure.has_value());
  EXPECT_FALSE(Failed->Failure->Assignment.empty());
  EXPECT_FALSE(Failed->Failure->Lhs.empty());
  EXPECT_FALSE(Failed->Failure->ImplAnswer.empty());
  // The campaign stops at the failing instance.
  EXPECT_LE(Failed->Run, Failed->Planned);
  // The render mentions the counterexample.
  EXPECT_NE(Report.render(Options).find("counterexample"),
            std::string::npos);
}

TEST(TestgenShrinkTest, ShrunkAssignmentIsLocallyMinimal) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  install(B, *Q, "remove-lifo");

  // Axiom 6 of the Queue spec: REMOVE(ADD(q, i)) = ...
  const Axiom *Ax6 = nullptr;
  for (const Axiom &Ax : Q->axioms())
    if (Ax.Number == 6)
      Ax6 = &Ax;
  ASSERT_NE(Ax6, nullptr);

  TermEnumerator Enum(Ctx);
  SortId QueueSort = Ctx.lookupSort("Queue");
  SortId ItemSort = Ctx.lookupSort("Item");
  ASSERT_TRUE(QueueSort.isValid());
  ASSERT_TRUE(ItemSort.isValid());
  const unsigned Depth = 4;

  // Start from the deepest failing assignment and shrink it by hand
  // with the same predicate the campaign uses.
  const Spec *All[] = {&*Q};
  Oracle Judge = Oracle::build(Ctx, All, Ctx.sortOf(Ax6->Lhs), B, Enum,
                               /*ForceObservers=*/false, OracleOptions());

  // Minimality of the shrunk assignment: every single-variable
  // replacement from the candidate neighborhood must make the instance
  // pass. We verify through the generic shrinker API on a known failing
  // assignment: q := deepest queue, i := first item.
  const std::vector<TermId> &Queues = Enum.enumerate(QueueSort, Depth);
  const std::vector<TermId> &Items = Enum.enumerate(ItemSort, Depth);
  ASSERT_FALSE(Queues.empty());
  ASSERT_FALSE(Items.empty());

  VarId QVar = Ctx.addVar("q_shrink", QueueSort);
  VarId IVar = Ctx.addVar("i_shrink", ItemSort);
  VarId ShrinkVars[] = {QVar, IVar};
  // REMOVE(ADD(q, i)) vs ADD(REMOVE(q), i) — a hand-built failing pair
  // under the LIFO mutant whenever q is non-empty.
  OpId Remove = Ctx.lookupOp("REMOVE");
  OpId Add = Ctx.lookupOp("ADD");
  ASSERT_TRUE(Remove.isValid());
  ASSERT_TRUE(Add.isValid());

  auto StillFails = [&](std::span<const TermId> Assignment) {
    TermId L = Ctx.makeOp(Remove, {Ctx.makeOp(Add, {Assignment[0],
                                                    Assignment[1]})});
    TermId R = Ctx.makeOp(Add, {Ctx.makeOp(Remove, {Assignment[0]}),
                                Assignment[1]});
    Result<OracleVerdict> V = Judge.compare(B, L, R);
    return V && !V->Equal;
  };

  // The deepest queue fails; shrink it.
  std::vector<TermId> Start = {Queues.back(), Items.front()};
  ASSERT_TRUE(StillFails(Start));
  ShrinkOutcome Out = shrinkAssignment(Ctx, Enum, Depth, ShrinkVars,
                                       Start, StillFails);
  EXPECT_GT(Out.Steps, 0u);
  EXPECT_TRUE(StillFails(Out.Assignment));
  // Strictly smaller than where we started.
  EXPECT_LT(Ctx.treeSize(Out.Assignment[0]) +
                Ctx.treeSize(Out.Assignment[1]),
            Ctx.treeSize(Start[0]) + Ctx.treeSize(Start[1]));
  // Local minimality: no single replacement still fails.
  for (size_t V = 0; V != 2; ++V) {
    for (TermId Candidate :
         shrinkCandidates(Ctx, Enum, Depth, Out.Assignment[V])) {
      std::vector<TermId> Trial = Out.Assignment;
      Trial[V] = Candidate;
      EXPECT_FALSE(StillFails(Trial))
          << "replacement still fails; shrunk assignment was not minimal";
    }
  }
}

//===----------------------------------------------------------------------===//
// Determinism: seeded generation, and --jobs sharding
//===----------------------------------------------------------------------===//

TEST(TestgenDeterminismTest, SeededRandomCampaignsAreByteIdentical) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  install(B, *Q);

  const Spec *All[] = {&*Q};
  TestGenOptions Options;
  Options.RandomCount = 25;
  Options.Seed = 42;
  TestGenReport First = runTestGen(Ctx, *Q, All, B, Options);
  TestGenReport Second = runTestGen(Ctx, *Q, All, B, Options);
  EXPECT_EQ(First.render(Options), Second.render(Options));
  EXPECT_EQ(reportJson(First, Options), reportJson(Second, Options));
  EXPECT_EQ(First.TotalRun, Second.TotalRun);
}

TEST(TestgenDeterminismTest, JobsOneAndFourProduceIdenticalReports) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));

  auto runAt = [&Ctx, &Q](unsigned Jobs, std::string_view Mutant,
                          bool ForceObservers = false) {
    ModelBinding B(Ctx);
    const adt::AdtBinding *Row = adt::findAdtBinding("Queue");
    EXPECT_NE(Row, nullptr);
    EXPECT_TRUE(static_cast<bool>(Row->Install(B, *Q, Mutant)));
    const Spec *All[] = {&*Q};
    TestGenOptions Options;
    Options.MaxDepth = 4;
    Options.ForceObservers = ForceObservers;
    Options.Par.Jobs = Jobs;
    Options.Par.MinChunk = 1; // Shard even the small campaign.
    Options.BindingFactory = [Mutant](AlgebraContext &RCtx,
                                      std::span<const Spec> RSpecs) {
      return makeReplicaBinding("Queue", Mutant, RCtx, RSpecs);
    };
    TestGenReport Report = runTestGen(Ctx, *Q, All, B, Options);
    JsonWriter W;
    Report.writeJson(W, Options);
    return Report.render(Options) + "\n" + W.str();
  };

  EXPECT_EQ(runAt(1, ""), runAt(4, ""));
  // The failing campaign must also be byte-identical: same first
  // failure, same shrunk counterexample, same stop point.
  EXPECT_EQ(runAt(1, "remove-lifo"), runAt(4, "remove-lifo"));
  // Workers judge through the observer oracle replicated into their own
  // contexts; passing and failing campaigns still match the serial run.
  EXPECT_EQ(runAt(1, "", true), runAt(4, "", true));
  EXPECT_EQ(runAt(1, "remove-lifo", true), runAt(4, "remove-lifo", true));
}

//===----------------------------------------------------------------------===//
// Hypotheses accounting
//===----------------------------------------------------------------------===//

TEST(TestgenUniformityTest, CellsShrinkThePlanAndStillCatchTheMutant) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  install(B, *Q, "remove-lifo");

  const Spec *All[] = {&*Q};
  TestGenOptions Options;
  Options.MaxDepth = 4;
  Options.Uniformity = true;
  TestGenReport Report = runTestGen(Ctx, *Q, All, B, Options);
  EXPECT_FALSE(Report.AllPassed) << "uniformity must keep one "
                                    "representative per constructor case, "
                                    "which still exposes the LIFO bug";
  EXPECT_GT(Report.TotalUniformityCells, 0u);
  for (const AxiomCampaign &A : Report.Axioms) {
    if (A.Skipped)
      continue;
    EXPECT_GT(A.UniformityCells, 0u);
    EXPECT_LE(A.Planned, A.UniformityCells);
    EXPECT_LE(A.UniformityCells, A.SpaceAtDepth);
  }
}

TEST(TestgenCapTest, RandomAndUniformityPlansReportTheInstanceCap) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  install(B, *Q);

  const Spec *All[] = {&*Q};
  auto capNotes = [](const TestGenReport &Report) {
    size_t Notes = 0;
    for (const std::string &Caveat : Report.Caveats)
      Notes += Caveat.find("instance cap reached") != std::string::npos;
    return Notes;
  };

  TestGenOptions Random;
  Random.MaxDepth = 4;
  Random.RandomCount = 10;
  Random.Seed = 7;
  Random.MaxInstancesPerAxiom = 3;
  TestGenReport Sampled = runTestGen(Ctx, *Q, All, B, Random);
  EXPECT_TRUE(Sampled.AllPassed) << Sampled.render(Random);
  // Ground axioms have a single instance; every other axiom is cut from
  // ten samples to three and says so.
  size_t Capped = 0;
  for (const AxiomCampaign &A : Sampled.Axioms) {
    EXPECT_EQ(A.Planned, A.SpaceAtDepth == 1 ? 1u : 3u);
    Capped += A.Planned == 3;
  }
  EXPECT_GT(Capped, 0u);
  EXPECT_EQ(capNotes(Sampled), Capped) << Sampled.render(Random);

  TestGenOptions Uniform;
  Uniform.MaxDepth = 4;
  Uniform.Uniformity = true;
  Uniform.MaxInstancesPerAxiom = 1;
  TestGenReport Cells = runTestGen(Ctx, *Q, All, B, Uniform);
  size_t Cut = 0;
  for (const AxiomCampaign &A : Cells.Axioms) {
    EXPECT_EQ(A.Planned, 1u);
    Cut += A.UniformityCells > 1;
  }
  EXPECT_GT(Cut, 0u);
  EXPECT_EQ(capNotes(Cells), Cells.Axioms.size()) << Cells.render(Uniform);

  // Below the cap neither mode adds the note.
  Random.MaxInstancesPerAxiom = 50000;
  Uniform.MaxInstancesPerAxiom = 50000;
  EXPECT_EQ(capNotes(runTestGen(Ctx, *Q, All, B, Random)), 0u);
  EXPECT_EQ(capNotes(runTestGen(Ctx, *Q, All, B, Uniform)), 0u);
}

TEST(TestgenOracleTest, ObserverContextsDecideWithoutBoundEquality) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  install(B, *Q, "remove-lifo");

  const Spec *All[] = {&*Q};
  TestGenOptions Options;
  Options.MaxDepth = 4;
  Options.ForceObservers = true;
  TestGenReport Report = runTestGen(Ctx, *Q, All, B, Options);
  // Queue-sorted axioms now judge through FRONT/IS_EMPTY?/... contexts
  // — and the LIFO bug is still observable.
  EXPECT_FALSE(Report.AllPassed);
  bool SawObservers = false;
  for (const AxiomCampaign &A : Report.Axioms)
    SawObservers |= A.UsedObservers && A.ObserverContexts > 0;
  EXPECT_TRUE(SawObservers);
  const AxiomCampaign *Failed = nullptr;
  for (const AxiomCampaign &A : Report.Axioms)
    if (!A.Passed)
      Failed = &A;
  ASSERT_NE(Failed, nullptr);
  ASSERT_TRUE(Failed->Failure.has_value());
  // The distinguishing observation names the observer context.
  EXPECT_NE(Failed->Failure->ImplAnswer.find("observer"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Obstructions
//===----------------------------------------------------------------------===//

TEST(TestgenObstructionTest, UnboundOperationsAreNamedNotFatal) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx); // Nothing bound.

  const Spec *All[] = {&*Q};
  TestGenReport Report = runTestGen(Ctx, *Q, All, B);
  EXPECT_FALSE(Report.AllPassed);
  ASSERT_FALSE(Report.Obstructions.empty());
  for (const TestGenObstruction &O : Report.Obstructions)
    EXPECT_EQ(O.Name, "unbound-operation");
  // Every campaign operation appears; NEW is one of them.
  bool SawNew = false;
  for (const TestGenObstruction &O : Report.Obstructions)
    SawNew |= O.Detail.find("'NEW'") != std::string::npos;
  EXPECT_TRUE(SawNew);
  // No instances ran at all.
  EXPECT_EQ(Report.TotalRun, 0u);
}

TEST(TestgenObstructionTest, BindOpByNameReportsUnknownNames) {
  AlgebraContext Ctx;
  auto Q = specs::loadQueue(Ctx);
  ASSERT_TRUE(static_cast<bool>(Q));
  ModelBinding B(Ctx);
  Result<void> R = B.bindOp("NO_SUCH_OPERATION",
                            [](std::span<const Value>) {
                              return Value::error();
                            });
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("unbound operation"),
            std::string::npos);
}
