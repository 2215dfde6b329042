//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the parallel verification engine: the work-stealing thread
/// pool, the replica driver, and — the property everything else rests
/// on — that every checker's report is byte-identical between the
/// serial sweep and a sharded run at any job count.
///
//===----------------------------------------------------------------------===//

#include "ast/AlgebraContext.h"
#include "ast/TermPrinter.h"
#include "check/Completeness.h"
#include "check/Consistency.h"
#include "check/ReplicaWorker.h"
#include "parser/Parser.h"
#include "parser/Replicator.h"
#include "specs/BuiltinSpecs.h"
#include "support/Parallel.h"
#include "support/ThreadPool.h"
#include "verify/RepVerifier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <thread>

using namespace algspec;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 1000; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1000);

  // The pool is reusable after a wait().
  for (int I = 0; I != 100; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1100);
}

TEST(ThreadPoolTest, WaitWithNoWorkReturns) {
  ThreadPool Pool(2);
  Pool.wait(); // Must not hang.
}

TEST(ThreadPoolTest, WorkerIndexIsInRangeAndMainThreadIsNot) {
  EXPECT_EQ(ThreadPool::currentWorkerIndex(), unsigned(-1));
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> PerWorker(3);
  std::atomic<bool> OutOfRange{false};
  for (int I = 0; I != 300; ++I)
    Pool.submit([&] {
      unsigned W = ThreadPool::currentWorkerIndex();
      if (W >= 3)
        OutOfRange = true;
      else
        PerWorker[W].fetch_add(1);
    });
  Pool.wait();
  EXPECT_FALSE(OutOfRange.load());
  int Total = 0;
  for (auto &C : PerWorker)
    Total += C.load();
  EXPECT_EQ(Total, 300);
}

/// Racy by construction: many tiny tasks submitted in bursts so workers
/// spend most of their time stealing from each other, with wait()
/// boundaries in between. Under ThreadSanitizer this exercises the
/// submit/steal/wait synchronization; the assertions also catch lost or
/// double-run tasks in a normal build.
TEST(ThreadPoolTest, StealStressManyTinyTasks) {
  ThreadPool Pool(4);
  std::vector<std::atomic<uint8_t>> Ran(20000);
  std::atomic<size_t> Sum{0};
  for (int Round = 0; Round != 4; ++Round) {
    size_t Begin = Round * 5000, End = Begin + 5000;
    for (size_t I = Begin; I != End; ++I)
      Pool.submit([&, I] {
        // fetch_add on a per-task slot detects a task run twice.
        if (Ran[I].fetch_add(1) == 0)
          Sum.fetch_add(I, std::memory_order_relaxed);
      });
    Pool.wait();
    // The happens-before edge from wait(): a plain (non-atomic-feeling)
    // read of everything this round wrote must be consistent.
    for (size_t I = Begin; I != End; ++I)
      ASSERT_EQ(Ran[I].load(std::memory_order_relaxed), 1u);
  }
  size_t Expected = (20000 * 19999) / 2;
  EXPECT_EQ(Sum.load(), Expected);
}

//===----------------------------------------------------------------------===//
// ParallelDriver
//===----------------------------------------------------------------------===//

TEST(ParallelDriverTest, MapReturnsResultsInIndexOrder) {
  ParallelOptions Par;
  Par.Jobs = 4;
  Par.MinChunk = 16; // Force many chunks on the small space below.
  std::atomic<int> Factories{0};
  ParallelDriver<int> Driver(Par, [&Factories] {
    int Id = Factories.fetch_add(1);
    return std::make_unique<int>(Id);
  });
  ASSERT_TRUE(Driver.enabled());
  std::vector<size_t> Out = Driver.map<size_t>(
      10000, [](int &, size_t I) { return I * 2; });
  ASSERT_EQ(Out.size(), 10000u);
  for (size_t I = 0; I != Out.size(); ++I)
    ASSERT_EQ(Out[I], I * 2);
  // States are built lazily, at most one per worker.
  EXPECT_LE(Factories.load(), 4);
  EXPECT_GE(Factories.load(), 1);
  EXPECT_EQ(Driver.states().size(), size_t(Factories.load()));
}

TEST(ParallelDriverTest, SingleJobRunsInline) {
  ParallelOptions Par;
  Par.Jobs = 1;
  ParallelDriver<int> Driver(Par, [] { return std::make_unique<int>(7); });
  EXPECT_FALSE(Driver.enabled());
  std::vector<int> Out =
      Driver.map<int>(5, [](int &S, size_t I) { return S + int(I); });
  EXPECT_EQ(Out, (std::vector<int>{7, 8, 9, 10, 11}));
}

TEST(ParallelDriverTest, EmptySpace) {
  ParallelOptions Par;
  Par.Jobs = 4;
  ParallelDriver<int> Driver(Par, [] { return std::make_unique<int>(0); });
  EXPECT_TRUE(Driver.map<int>(0, [](int &, size_t) { return 1; }).empty());
}

//===----------------------------------------------------------------------===//
// Replica
//===----------------------------------------------------------------------===//

TEST(ReplicaTest, RoundTripsPaperSpecs) {
  AlgebraContext Ctx;
  Spec Q = specs::loadQueue(Ctx).take();
  Spec Sym = specs::loadSymboltable(Ctx).take();
  std::vector<Spec> SA = specs::loadStackArray(Ctx).take();
  std::vector<const Spec *> All{&Q, &Sym};
  for (const Spec &S : SA)
    All.push_back(&S);

  auto Rep = Replica::create(Ctx, All);
  ASSERT_TRUE(static_cast<bool>(Rep)) << Rep.error().message();
  EXPECT_EQ((*Rep)->specs().size(), All.size());

  // A ground term maps to the structurally identical term in the
  // replica's arena (printed forms agree).
  auto Term = parseTermText(Ctx, "FRONT(ADD(ADD(NEW, 'a), 'b))");
  ASSERT_TRUE(static_cast<bool>(Term));
  TermId Mapped = (*Rep)->mapTerm(*Term);
  EXPECT_EQ(printTerm((*Rep)->context(), Mapped), printTerm(Ctx, *Term));
}

TEST(ReplicaTest, MapTermReturnsInvalidForUnreplicatedOp) {
  AlgebraContext Ctx;
  Spec Q = specs::loadQueue(Ctx).take();
  Spec Sym = specs::loadSymboltable(Ctx).take();
  auto Rep = Replica::create(Ctx, {&Q});
  ASSERT_TRUE(static_cast<bool>(Rep)) << Rep.error().message();
  // A term headed by a Symboltable operation has no image in a replica
  // built from the Queue spec alone: mapTerm reports the miss with an
  // invalid id (the caller falls back to the serial path) instead of
  // building a term over an invalid operation.
  auto Term = parseTermText(Ctx, "INIT");
  ASSERT_TRUE(static_cast<bool>(Term)) << Term.error().message();
  EXPECT_FALSE((*Rep)->mapTerm(*Term).isValid());
}

TEST(ReplicaWorkerTest, DriverIsNullForOneJob) {
  AlgebraContext Ctx;
  Spec Q = specs::loadQueue(Ctx).take();
  ParallelOptions Par;
  Par.Jobs = 1;
  EXPECT_EQ(makeReplicaDriver(Par, Ctx, {&Q}), nullptr);
}

//===----------------------------------------------------------------------===//
// Determinism: every checker's report is identical at any job count
//===----------------------------------------------------------------------===//

namespace {

ParallelOptions fourJobs() {
  ParallelOptions Par;
  Par.Jobs = 4;
  // Small chunks so even the modest test workloads actually shard.
  Par.MinChunk = 8;
  return Par;
}

/// An incomplete spec (G's C1 case is missing) so the dynamic check has
/// stuck terms to report, plus a SIZE op making the space deeper.
constexpr std::string_view IncompleteSpec = R"(
spec Part
  sorts T
  ops
    C0 : -> T
    C1 : T -> T
    G  : T -> Bool
    SIZE : T -> Int
  constructors C0, C1
  vars x : T
  axioms
    G(C0) = true
    SIZE(C0) = 0
    SIZE(C1(x)) = addi(1, SIZE(x))
end
)";

/// A spec with a genuine critical-pair contradiction (two axioms match
/// H(C0) with different results).
constexpr std::string_view InconsistentSpec = R"(
spec Clash
  sorts T
  ops
    C0 : -> T
    C1 : T -> T
    H  : T -> Bool
  constructors C0, C1
  vars x : T
  axioms
    H(x) = true
    H(C0) = false
    H(C1(x)) = H(x)
end
)";

std::string renderCompleteness(const AlgebraContext &Ctx,
                               const CompletenessReport &R) {
  std::string Out = R.SufficientlyComplete ? "complete\n" : "incomplete\n";
  Out += R.renderPrompt(Ctx);
  for (const std::string &C : R.Caveats)
    Out += "note: " + C + "\n";
  return Out;
}

} // namespace

TEST(ParallelDeterminism, DynamicCompletenessCleanSpec) {
  AlgebraContext Ctx;
  Spec Q = specs::loadQueue(Ctx).take();
  CompletenessReport Serial = checkCompletenessDynamic(Ctx, Q, {&Q}, 4);
  CompletenessReport Sharded = checkCompletenessDynamic(
      Ctx, Q, {&Q}, 4, EnumeratorOptions(), fourJobs());
  EXPECT_EQ(renderCompleteness(Ctx, Serial),
            renderCompleteness(Ctx, Sharded));
  EXPECT_TRUE(Sharded.SufficientlyComplete);
  // The sweep really ran: the aggregated engine counters moved.
  EXPECT_GT(Sharded.Engine.Steps, 0u);
}

TEST(ParallelDeterminism, DynamicCompletenessFindsSameStuckTerms) {
  AlgebraContext Ctx;
  auto Parsed = parseSpecText(Ctx, IncompleteSpec);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error().message();
  Spec &S = Parsed->front();
  CompletenessReport Serial = checkCompletenessDynamic(Ctx, S, {&S}, 5);
  CompletenessReport Sharded = checkCompletenessDynamic(
      Ctx, S, {&S}, 5, EnumeratorOptions(), fourJobs());
  EXPECT_FALSE(Serial.SufficientlyComplete);
  ASSERT_FALSE(Serial.Missing.empty());
  EXPECT_EQ(renderCompleteness(Ctx, Serial),
            renderCompleteness(Ctx, Sharded));
  ASSERT_EQ(Serial.Missing.size(), Sharded.Missing.size());
  // Byte-identical includes the TermIds: the merge re-runs flagged
  // indices on the main context, so suggested terms live in the main
  // arena exactly as the serial sweep would have created them.
  for (size_t I = 0; I != Serial.Missing.size(); ++I)
    EXPECT_EQ(Serial.Missing[I].SuggestedLhs, Sharded.Missing[I].SuggestedLhs);
}

TEST(ParallelDeterminism, FlatSpaceBoundFallsBackToSerial) {
  // A tiny MaxFlatSpace sends every sweep back down the serial path
  // (the parallel path preallocates one result slot per index, so an
  // unbounded space must not reach it); the report stays identical.
  AlgebraContext Ctx;
  auto Parsed = parseSpecText(Ctx, IncompleteSpec);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error().message();
  Spec &S = Parsed->front();
  ParallelOptions Bounded = fourJobs();
  Bounded.MaxFlatSpace = 1;
  CompletenessReport Serial = checkCompletenessDynamic(Ctx, S, {&S}, 5);
  CompletenessReport Capped = checkCompletenessDynamic(
      Ctx, S, {&S}, 5, EnumeratorOptions(), Bounded);
  EXPECT_EQ(renderCompleteness(Ctx, Serial),
            renderCompleteness(Ctx, Capped));
  EXPECT_FALSE(Capped.SufficientlyComplete);
}

TEST(ParallelDeterminism, ConsistencyCleanAndContradictory) {
  AlgebraContext Ctx;
  Spec Q = specs::loadQueue(Ctx).take();
  ConsistencyReport Serial = checkConsistency(Ctx, {&Q});
  ConsistencyReport Sharded = checkConsistency(
      Ctx, {&Q}, 2, EnumeratorOptions(), fourJobs());
  EXPECT_TRUE(Sharded.Consistent);
  EXPECT_EQ(Serial.render(Ctx), Sharded.render(Ctx));

  AlgebraContext Ctx2;
  auto Parsed = parseSpecText(Ctx2, InconsistentSpec);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error().message();
  Spec &Bad = Parsed->front();
  ConsistencyReport Serial2 = checkConsistency(Ctx2, {&Bad});
  ConsistencyReport Sharded2 = checkConsistency(
      Ctx2, {&Bad}, 2, EnumeratorOptions(), fourJobs());
  EXPECT_FALSE(Serial2.Consistent);
  ASSERT_FALSE(Serial2.Contradictions.empty());
  EXPECT_EQ(Serial2.render(Ctx2), Sharded2.render(Ctx2));
}

namespace {

/// The paper's Symboltable-as-Stack-of-Arrays fixture.
struct RepFixture {
  RepFixture() {
    Abstract = specs::loadSymboltable(Ctx).take();
    Concrete = specs::loadStackArray(Ctx).take();
    Rep = buildSymboltableRep(Ctx).take();
    Sources.push_back(&Abstract);
    for (const Spec &S : Concrete)
      Sources.push_back(&S);
    for (const Spec &S : Rep.ImplSpecs)
      Sources.push_back(&S);
  }

  AlgebraContext Ctx;
  Spec Abstract;
  std::vector<Spec> Concrete;
  SymboltableRep Rep;
  std::vector<const Spec *> Sources;
};

} // namespace

TEST(ParallelDeterminism, RepVerifierAxiomsAndHomomorphism) {
  RepFixture F;
  VerifyOptions Options;
  Options.Depth = 3;
  // Disable the symbolic shortcut so the instance sweeps do real work.
  Options.TrySymbolic = false;

  VerifyReport Serial = verifyRepresentation(F.Ctx, F.Abstract, F.Sources,
                                             F.Rep.Mapping, Options);
  Options.Par = fourJobs();
  VerifyReport Sharded = verifyRepresentation(F.Ctx, F.Abstract, F.Sources,
                                              F.Rep.Mapping, Options);
  EXPECT_EQ(Serial.render(F.Ctx), Sharded.render(F.Ctx));
  EXPECT_GT(Sharded.Engine.Steps, 0u);

  Options.Par = ParallelOptions();
  VerifyReport SerialHom = verifyHomomorphism(F.Ctx, F.Abstract, F.Sources,
                                              F.Rep.Mapping, Options);
  Options.Par = fourJobs();
  VerifyReport ShardedHom = verifyHomomorphism(F.Ctx, F.Abstract, F.Sources,
                                               F.Rep.Mapping, Options);
  EXPECT_EQ(SerialHom.render(F.Ctx), ShardedHom.render(F.Ctx));
}

TEST(ParallelDeterminism, RepVerifierCounterexampleIdentical) {
  // A broken Φ (degenerate map through a fresh abstract constant is not
  // available, so break the mapping instead: map LEAVEBLOCK to ADD_R's
  // wrong arity is rejected at elaboration — use a wrong impl op with a
  // compatible signature: ENTERBLOCK_R for LEAVEBLOCK).
  RepFixture F;
  auto Broken = F.Rep.Mapping;
  OpId Leave, Enter;
  for (auto &[Abs, Impl] : F.Rep.Mapping.OpMap) {
    if (F.Ctx.opName(Abs) == "LEAVEBLOCK")
      Leave = Abs;
    if (F.Ctx.opName(Abs) == "ENTERBLOCK")
      Enter = Impl;
  }
  ASSERT_TRUE(Leave.isValid());
  ASSERT_TRUE(Enter.isValid());
  Broken.OpMap[Leave] = Enter;

  VerifyOptions Options;
  Options.Depth = 3;
  Options.TrySymbolic = false;
  VerifyReport Serial = verifyRepresentation(F.Ctx, F.Abstract, F.Sources,
                                             Broken, Options);
  Options.Par = fourJobs();
  VerifyReport Sharded = verifyRepresentation(F.Ctx, F.Abstract, F.Sources,
                                              Broken, Options);
  EXPECT_FALSE(Sharded.AllHold);
  EXPECT_EQ(Serial.render(F.Ctx), Sharded.render(F.Ctx));
  // The first counterexample (axiom, assignment, instance count) is the
  // serial one, not merely some failing instance.
  ASSERT_EQ(Serial.Verdicts.size(), Sharded.Verdicts.size());
  for (size_t I = 0; I != Serial.Verdicts.size(); ++I) {
    EXPECT_EQ(Serial.Verdicts[I].InstancesChecked,
              Sharded.Verdicts[I].InstancesChecked);
    EXPECT_EQ(Serial.Verdicts[I].Failure.has_value(),
              Sharded.Verdicts[I].Failure.has_value());
    if (Serial.Verdicts[I].Failure && Sharded.Verdicts[I].Failure)
      EXPECT_EQ(Serial.Verdicts[I].Failure->Assignment,
                Sharded.Verdicts[I].Failure->Assignment);
  }
}
