//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based and differential tests (parameterized sweeps):
///
///  - random op-sequence differential testing of the Queue spec against
///    the concrete Queue<T>;
///  - random workload differential testing of the three symbol-table
///    representations against each other and against the symbolically
///    interpreted specification;
///  - rewrite-engine invariants (idempotent normalization, memoization
///    transparency, no stuck terms under complete specs);
///  - print/parse round-tripping over enumerated ground terms;
///  - enumerator cardinalities against the closed-form counts.
///
//===----------------------------------------------------------------------===//

#include "adt/FlatSymbolTable.h"
#include "adt/ListSymbolTable.h"
#include "adt/Queue.h"
#include "adt/SymbolTable.h"
#include "ast/AlgebraContext.h"
#include "ast/TermPrinter.h"
#include "check/TermEnumerator.h"
#include "interp/Session.h"
#include "parser/Parser.h"
#include "rewrite/Engine.h"
#include "specs/BuiltinSpecs.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>

using namespace algspec;

//===----------------------------------------------------------------------===//
// Differential: Queue spec vs Queue<T> over random op sequences
//===----------------------------------------------------------------------===//

namespace {

class QueueDifferential : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(QueueDifferential, SpecAndImplementationAgree) {
  AlgebraContext Ctx;
  Spec Q = specs::loadQueue(Ctx).take();
  Session Sess = Session::create(Ctx, {&Q}).take();
  ASSERT_TRUE(static_cast<bool>(Sess.run("x := NEW")));

  adt::Queue<std::string> Impl;
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<int> OpDist(0, 99);
  std::uniform_int_distribution<int> ItemDist(0, 4);

  for (int Step = 0; Step < 120; ++Step) {
    int Roll = OpDist(Rng);
    if (Roll < 45) {
      // ADD a random item.
      std::string Item = "i" + std::to_string(ItemDist(Rng));
      ASSERT_TRUE(
          static_cast<bool>(Sess.run("x := ADD(x, '" + Item + ")")));
      Impl.add(Item);
    } else if (Roll < 75) {
      // REMOVE — only when non-empty, to keep the register a value (the
      // error-propagation path has its own tests).
      if (!Impl.isEmpty()) {
        ASSERT_TRUE(static_cast<bool>(Sess.run("x := REMOVE(x)")));
        Impl.remove();
      }
    } else if (Roll < 90) {
      // Observe FRONT.
      Result<TermId> Front = Sess.eval("FRONT(x)");
      ASSERT_TRUE(static_cast<bool>(Front));
      std::optional<std::string> ImplFront = Impl.front();
      if (!ImplFront) {
        EXPECT_TRUE(Ctx.isError(*Front)) << "step " << Step;
      } else {
        ASSERT_FALSE(Ctx.isError(*Front)) << "step " << Step;
        EXPECT_EQ(printTerm(Ctx, *Front), "'" + *ImplFront)
            << "step " << Step;
      }
    } else {
      // Observe IS_EMPTY?.
      Result<TermId> Empty = Sess.eval("IS_EMPTY?(x)");
      ASSERT_TRUE(static_cast<bool>(Empty));
      EXPECT_EQ(*Empty == Ctx.trueTerm(), Impl.isEmpty())
          << "step " << Step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===//
// Differential: three representations + spec agree on scope queries
//===----------------------------------------------------------------------===//

namespace {

class SymtabDifferential : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(SymtabDifferential, AllBackendsAgree) {
  AlgebraContext Ctx;
  Spec SymSpec = specs::loadSymboltable(Ctx).take();
  Session Sess = Session::create(Ctx, {&SymSpec}).take();
  ASSERT_TRUE(static_cast<bool>(Sess.run("t := INIT")));

  adt::SymbolTable<std::string> Hash(4);
  adt::ListSymbolTable<std::string> List;
  adt::FlatSymbolTable<std::string> Flat;
  unsigned SpecDepth = 1; // Mirror of the concrete tables' depth.

  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<int> OpDist(0, 99);
  std::uniform_int_distribution<int> IdDist(0, 6);
  std::uniform_int_distribution<int> AttrDist(0, 2);

  for (int Step = 0; Step < 150; ++Step) {
    int Roll = OpDist(Rng);
    std::string Id = "v" + std::to_string(IdDist(Rng));
    if (Roll < 12 && SpecDepth < 6) {
      ASSERT_TRUE(static_cast<bool>(Sess.run("t := ENTERBLOCK(t)")));
      Hash.enterBlock();
      List.enterBlock();
      Flat.enterBlock();
      ++SpecDepth;
    } else if (Roll < 22) {
      bool H = Hash.leaveBlock();
      bool L = List.leaveBlock();
      bool F = Flat.leaveBlock();
      EXPECT_EQ(H, L);
      EXPECT_EQ(H, F);
      if (H) {
        ASSERT_TRUE(static_cast<bool>(Sess.run("t := LEAVEBLOCK(t)")));
        --SpecDepth;
      } else {
        // The spec agrees this would be an error.
        Result<TermId> Probe = Sess.eval("LEAVEBLOCK(t)");
        ASSERT_TRUE(static_cast<bool>(Probe));
        // The concrete tables refuse to pop the outermost scope; the
        // algebra errors only on INIT itself (SpecDepth mirrors that).
        if (SpecDepth == 1) {
          EXPECT_TRUE(Ctx.isError(*Probe) ||
                      printTerm(Ctx, *Probe).find("INIT") == 0)
              << printTerm(Ctx, *Probe);
        }
      }
    } else if (Roll < 50) {
      std::string Attr = "a" + std::to_string(AttrDist(Rng));
      ASSERT_TRUE(static_cast<bool>(
          Sess.run("t := ADD(t, '" + Id + ", '" + Attr + ")")));
      Hash.add(Id, Attr);
      List.add(Id, Attr);
      Flat.add(Id, Attr);
    } else if (Roll < 80) {
      std::optional<std::string> H = Hash.retrieve(Id);
      EXPECT_EQ(H, List.retrieve(Id)) << "step " << Step;
      EXPECT_EQ(H, Flat.retrieve(Id)) << "step " << Step;
      Result<TermId> SpecV = Sess.eval("RETRIEVE(t, '" + Id + ")");
      ASSERT_TRUE(static_cast<bool>(SpecV));
      if (!H)
        EXPECT_TRUE(Ctx.isError(*SpecV)) << "step " << Step;
      else
        EXPECT_EQ(printTerm(Ctx, *SpecV), "'" + *H) << "step " << Step;
    } else {
      bool H = Hash.isInBlock(Id);
      EXPECT_EQ(H, List.isInBlock(Id)) << "step " << Step;
      EXPECT_EQ(H, Flat.isInBlock(Id)) << "step " << Step;
      Result<TermId> SpecV = Sess.eval("IS_INBLOCK?(t, '" + Id + ")");
      ASSERT_TRUE(static_cast<bool>(SpecV));
      EXPECT_EQ(*SpecV == Ctx.trueTerm(), H) << "step " << Step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymtabDifferential,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

//===----------------------------------------------------------------------===//
// Engine invariants over random ground terms
//===----------------------------------------------------------------------===//

namespace {

class EngineInvariants : public ::testing::TestWithParam<uint64_t> {};

/// Builds a random ground observation over a random queue value.
TermId randomObservation(AlgebraContext &Ctx, TermEnumerator &Enumerator,
                         std::mt19937_64 &Rng) {
  SortId Queue = Ctx.lookupSort("Queue");
  TermId Value = Enumerator.sample(Queue, 5, Rng);
  std::uniform_int_distribution<int> Obs(0, 3);
  switch (Obs(Rng)) {
  case 0:
    return Ctx.makeOp(Ctx.lookupOp("FRONT"), {Value});
  case 1:
    return Ctx.makeOp(Ctx.lookupOp("REMOVE"), {Value});
  case 2:
    return Ctx.makeOp(Ctx.lookupOp("IS_EMPTY?"), {Value});
  default:
    return Ctx.makeOp(
        Ctx.lookupOp("FRONT"),
        {Ctx.makeOp(Ctx.lookupOp("REMOVE"), {Value})});
  }
}

} // namespace

TEST_P(EngineInvariants, NormalizationIdempotentAndMemoTransparent) {
  AlgebraContext Ctx;
  Spec Q = specs::loadQueue(Ctx).take();
  RewriteSystem System = RewriteSystem::buildChecked(Ctx, {&Q}).take();

  RewriteEngine Memoized(Ctx, System);
  EngineOptions NoMemoOpts;
  NoMemoOpts.Memoize = false;
  RewriteEngine Unmemoized(Ctx, System, NoMemoOpts);

  TermEnumerator Enumerator(Ctx);
  std::mt19937_64 Rng(GetParam());

  for (int I = 0; I < 60; ++I) {
    TermId Term = randomObservation(Ctx, Enumerator, Rng);
    Result<TermId> N1 = Memoized.normalize(Term);
    ASSERT_TRUE(static_cast<bool>(N1));
    // Idempotence: a normal form does not rewrite further.
    Result<TermId> N2 = Memoized.normalize(*N1);
    ASSERT_TRUE(static_cast<bool>(N2));
    EXPECT_EQ(*N1, *N2);
    // Memoization transparency.
    Result<TermId> N3 = Unmemoized.normalize(Term);
    ASSERT_TRUE(static_cast<bool>(N3));
    EXPECT_EQ(*N1, *N3);
    // Sufficient completeness of the Queue spec means nothing is stuck.
    EXPECT_FALSE(Memoized.isStuck(*N1)) << printTerm(Ctx, *N1);
    // Normal forms of Queue sort are constructor terms or error.
    if (Ctx.sortOf(*N1) == Ctx.lookupSort("Queue") && !Ctx.isError(*N1)) {
      const TermNode &Node = Ctx.node(*N1);
      ASSERT_EQ(Node.Kind, TermKind::Op);
      EXPECT_TRUE(Ctx.op(Node.Op).isConstructor());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineInvariants,
                         ::testing::Values(7, 17, 27, 37));

//===----------------------------------------------------------------------===//
// Print/parse round-tripping over enumerated ground terms
//===----------------------------------------------------------------------===//

namespace {

struct RoundTripCase {
  const char *SpecName; ///< Which builtin spec to load.
  const char *SortName; ///< Which sort to enumerate.
  unsigned Depth;
};

// Without a printer, gtest shows a case as a byte dump of its two string
// pointers, and gtest_discover_tests puts that dump into the CTest name, so
// the name changes with every build and every address-space layout.
void PrintTo(const RoundTripCase &Case, std::ostream *OS) {
  *OS << Case.SpecName << '-' << Case.SortName << "-depth" << Case.Depth;
}

class PrintParseRoundTrip : public ::testing::TestWithParam<RoundTripCase> {
};

void loadBuiltin(AlgebraContext &Ctx, const std::string &Name) {
  if (Name == "Queue")
    ASSERT_TRUE(static_cast<bool>(specs::loadQueue(Ctx)));
  else if (Name == "Symboltable")
    ASSERT_TRUE(static_cast<bool>(specs::loadSymboltable(Ctx)));
  else if (Name == "StackArray")
    ASSERT_TRUE(static_cast<bool>(specs::loadStackArray(Ctx)));
  else
    FAIL() << "unknown spec " << Name;
}

} // namespace

TEST_P(PrintParseRoundTrip, EnumeratedTermsSurviveRoundTrip) {
  const RoundTripCase &Case = GetParam();
  AlgebraContext Ctx;
  loadBuiltin(Ctx, Case.SpecName);
  SortId Sort = Ctx.lookupSort(Case.SortName);
  ASSERT_TRUE(Sort.isValid());

  TermEnumerator Enumerator(Ctx);
  for (TermId Term : Enumerator.enumerate(Sort, Case.Depth)) {
    std::string Text = printTerm(Ctx, Term);
    Result<TermId> Reparsed = parseTermText(Ctx, Text, nullptr, Sort);
    ASSERT_TRUE(static_cast<bool>(Reparsed)) << Text;
    EXPECT_EQ(*Reparsed, Term) << Text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, PrintParseRoundTrip,
    ::testing::Values(RoundTripCase{"Queue", "Queue", 4},
                      RoundTripCase{"Symboltable", "Symboltable", 3},
                      RoundTripCase{"StackArray", "Array", 3},
                      RoundTripCase{"StackArray", "Stack", 3}));

//===----------------------------------------------------------------------===//
// Enumerator cardinalities against closed forms
//===----------------------------------------------------------------------===//

namespace {
class EnumeratorCounts : public ::testing::TestWithParam<unsigned> {};
} // namespace

TEST_P(EnumeratorCounts, QueueCountMatchesClosedForm) {
  // With 2 atoms: N(1) = 1 (NEW); N(d) = 1 + 2 * N(d-1).
  AlgebraContext Ctx;
  ASSERT_TRUE(static_cast<bool>(specs::loadQueue(Ctx)));
  TermEnumerator Enumerator(Ctx);
  unsigned Depth = GetParam();
  size_t Expected = 1;
  for (unsigned D = 2; D <= Depth; ++D)
    Expected = 1 + 2 * Expected;
  const auto &Terms =
      Enumerator.enumerate(Ctx.lookupSort("Queue"), Depth);
  EXPECT_EQ(Terms.size(), Expected);
  // All distinct (hash consing makes TermId equality exact).
  std::set<TermId> Unique(Terms.begin(), Terms.end());
  EXPECT_EQ(Unique.size(), Terms.size());
}

INSTANTIATE_TEST_SUITE_P(Depths, EnumeratorCounts,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u));

namespace {
class SymtabCounts : public ::testing::TestWithParam<unsigned> {};
} // namespace

TEST_P(SymtabCounts, SymboltableCountMatchesClosedForm) {
  // Constructors: INIT (leaf), ENTERBLOCK (unary), ADD (S x Id x Attr,
  // with 2 atoms each): N(1) = 1; N(d) = 1 + N(d-1) + 4 * N(d-1).
  AlgebraContext Ctx;
  ASSERT_TRUE(static_cast<bool>(specs::loadSymboltable(Ctx)));
  TermEnumerator Enumerator(Ctx);
  unsigned Depth = GetParam();
  size_t Expected = 1;
  for (unsigned D = 2; D <= Depth; ++D)
    Expected = 1 + 5 * Expected;
  EXPECT_EQ(
      Enumerator.enumerate(Ctx.lookupSort("Symboltable"), Depth).size(),
      Expected);
}

INSTANTIATE_TEST_SUITE_P(Depths, SymtabCounts,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

//===----------------------------------------------------------------------===//
// Error-algebra semantics (paper section 3): strict operations, lazy ITE
//===----------------------------------------------------------------------===//

namespace {

/// Fixture loading Queue with a rewrite engine, for the section 3 error-
/// propagation properties.
class ErrorSemantics : public ::testing::Test {
protected:
  void SetUp() override {
    auto Loaded = specs::loadQueue(Ctx);
    ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.error().message();
    Q = Loaded.take();
    auto Built = RewriteSystem::buildChecked(Ctx, {&Q});
    ASSERT_TRUE(static_cast<bool>(Built)) << Built.error().message();
    System = std::make_unique<RewriteSystem>(Built.take());
    Engine = std::make_unique<RewriteEngine>(Ctx, *System);
  }

  TermId normalized(const std::string &Text, SortId Expected = SortId()) {
    Result<TermId> Parsed = parseTermText(Ctx, Text, nullptr, Expected);
    EXPECT_TRUE(static_cast<bool>(Parsed)) << Text;
    Result<TermId> Normal = Engine->normalize(*Parsed);
    EXPECT_TRUE(static_cast<bool>(Normal)) << Text;
    return *Normal;
  }

  AlgebraContext Ctx;
  Spec Q;
  std::unique_ptr<RewriteSystem> System;
  std::unique_ptr<RewriteEngine> Engine;
};

} // namespace

TEST_F(ErrorSemantics, OperationsAreStrictInEveryArgument) {
  // Section 3: "error carriers propagate" — applying any operation to an
  // erroring argument yields error, in whichever argument position.
  EXPECT_TRUE(Ctx.isError(normalized("ADD(REMOVE(NEW), 'item1)")));
  EXPECT_TRUE(Ctx.isError(normalized("ADD(NEW, FRONT(NEW))")));
  EXPECT_TRUE(Ctx.isError(normalized("REMOVE(REMOVE(NEW))")));
  EXPECT_TRUE(Ctx.isError(normalized("FRONT(REMOVE(NEW))")));
  // Even a total observer is poisoned by an erroring argument.
  EXPECT_TRUE(Ctx.isError(normalized("IS_EMPTY?(REMOVE(NEW))")));
}

TEST_F(ErrorSemantics, StrictnessHoldsAtConstructionToo) {
  // makeOp collapses an error argument structurally, before any rewriting:
  // the constructed term already is the error carrier of the result sort.
  SortId Queue = Ctx.lookupSort("Queue");
  TermId Poisoned = Ctx.makeOp(
      Ctx.lookupOp("ADD"),
      {Ctx.makeError(Queue), Ctx.makeAtom("item1", Ctx.lookupSort("Item"))});
  EXPECT_TRUE(Ctx.isError(Poisoned));
  EXPECT_EQ(Ctx.sortOf(Poisoned), Queue);
}

TEST_F(ErrorSemantics, IteConditionIsStrict) {
  // The condition position of if-then-else is strict: an erroring
  // condition poisons the whole conditional even though both branches
  // are fine values.
  EXPECT_TRUE(Ctx.isError(
      normalized("if IS_EMPTY?(REMOVE(NEW)) then 'item1 else 'item2",
                 Ctx.lookupSort("Item"))));
}

TEST_F(ErrorSemantics, IteBranchesAreLazy) {
  // The branches are lazy: an error in the *untaken* branch is discarded
  // rather than propagated.
  EXPECT_EQ(printTerm(Ctx, normalized("if true then 'item1 else FRONT(NEW)")),
            "'item1");
  EXPECT_EQ(printTerm(Ctx, normalized("if false then FRONT(NEW) else 'item2")),
            "'item2");
  // ...while the taken branch still propagates.
  EXPECT_TRUE(
      Ctx.isError(normalized("if false then 'item1 else FRONT(NEW)")));
}

TEST_F(ErrorSemantics, FrontOfNonEmptyNeverErrorsThanksToLaziness) {
  // FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q). When q is
  // NEW the else branch *mentions* FRONT(NEW) = error, but the lazy ITE
  // never evaluates it — so FRONT and REMOVE of a non-empty queue are
  // error-free for every ground queue value. A strict ITE would poison
  // exactly the q = NEW case.
  TermEnumerator Enumerator(Ctx);
  SortId Queue = Ctx.lookupSort("Queue");
  SortId Item = Ctx.lookupSort("Item");
  OpId Front = Ctx.lookupOp("FRONT");
  OpId Remove = Ctx.lookupOp("REMOVE");
  OpId Add = Ctx.lookupOp("ADD");
  for (TermId Value : Enumerator.enumerate(Queue, 4))
    for (TermId Atom : Enumerator.enumerate(Item, 1)) {
      TermId NonEmpty = Ctx.makeOp(Add, {Value, Atom});
      Result<TermId> F = Engine->normalize(Ctx.makeOp(Front, {NonEmpty}));
      ASSERT_TRUE(static_cast<bool>(F));
      EXPECT_FALSE(Ctx.isError(*F)) << printTerm(Ctx, NonEmpty);
      Result<TermId> R = Engine->normalize(Ctx.makeOp(Remove, {NonEmpty}));
      ASSERT_TRUE(static_cast<bool>(R));
      EXPECT_FALSE(Ctx.isError(*R)) << printTerm(Ctx, NonEmpty);
    }
  // The boundary case the laziness exists for:
  EXPECT_EQ(printTerm(Ctx, normalized("FRONT(ADD(NEW, 'item1))")),
            "'item1");
}

//===----------------------------------------------------------------------===//
// Parser robustness: arbitrary input must diagnose, never crash or hang
//===----------------------------------------------------------------------===//

namespace {
class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};
} // namespace

TEST_P(ParserFuzz, RandomBytesNeverCrashTheSpecParser) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<int> Len(0, 400);
  std::uniform_int_distribution<int> Byte(32, 126);
  for (int Round = 0; Round < 50; ++Round) {
    std::string Garbage;
    int N = Len(Rng);
    for (int I = 0; I < N; ++I)
      Garbage += static_cast<char>(Byte(Rng));
    AlgebraContext Ctx;
    // Must terminate and either parse or diagnose; no crash, no throw.
    (void)parseSpecText(Ctx, Garbage);
  }
}

TEST_P(ParserFuzz, RandomTokenSoupNeverCrashes) {
  static const char *Tokens[] = {
      "spec",  "uses", "sorts",  "ops",  "constructors",
      "vars",  "axioms", "end",  "if",   "then",
      "else",  "error", "Queue", "NEW",  "ADD",
      "q",     "i",     ":",     ",",    "->",
      "(",     ")",     "=",     "'a",   "42",
      "Bool",  "Int",   "SAME",  "addi", "--x\n"};
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<size_t> Pick(0, std::size(Tokens) - 1);
  std::uniform_int_distribution<int> Len(1, 120);
  for (int Round = 0; Round < 50; ++Round) {
    std::string Soup;
    int N = Len(Rng);
    for (int I = 0; I < N; ++I) {
      Soup += Tokens[Pick(Rng)];
      Soup += ' ';
    }
    AlgebraContext Ctx;
    (void)parseSpecText(Ctx, Soup);
  }
}

TEST_P(ParserFuzz, RandomTermSoupNeverCrashes) {
  static const char *Tokens[] = {"NEW", "ADD", "FRONT", "REMOVE",
                                 "IS_EMPTY?", "(", ")", ",", "'a",
                                 "7", "if", "then", "else", "error",
                                 "q", "SAME"};
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<size_t> Pick(0, std::size(Tokens) - 1);
  std::uniform_int_distribution<int> Len(1, 60);
  AlgebraContext Ctx;
  ASSERT_TRUE(static_cast<bool>(specs::loadQueue(Ctx)));
  for (int Round = 0; Round < 80; ++Round) {
    std::string Soup;
    int N = Len(Rng);
    for (int I = 0; I < N; ++I) {
      Soup += Tokens[Pick(Rng)];
      Soup += ' ';
    }
    (void)parseTermText(Ctx, Soup);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(101, 202, 303, 404));
