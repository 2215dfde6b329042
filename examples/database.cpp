//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's closing conjecture, made executable (section 5):
///
///   "A database management system, for example, might be completely
///   characterized by an algebraic specification of the various
///   operations available to users."
///
/// This example characterizes a keyed table that way and then exercises
/// the characterization three ways:
///   1. check the axiom set (complete + consistent);
///   2. run database queries against the bare specification;
///   3. run a testgen campaign of the axioms against the real Table<V>.
///
//===----------------------------------------------------------------------===//

#include "adt/Table.h"
#include "core/AlgSpec.h"
#include "testgen/TestGen.h"

#include <cstdio>
#include <string>

using namespace algspec;
using TableImpl = adt::Table<std::string>;

int main() {
  Workspace WS;
  if (Result<void> R = WS.load(specs::TableAlg, "table.alg"); !R) {
    std::fprintf(stderr, "%s\n", R.error().message().c_str());
    return 1;
  }
  const Spec *Table = WS.find("Table");
  std::printf("The DBMS characterization: %zu operations, %zu axioms.\n",
              Table->operations().size(), Table->axioms().size());

  CompletenessReport Complete = WS.checkComplete(*Table);
  ConsistencyReport Consistent = WS.checkConsistent();
  std::printf("sufficiently complete: %s; consistent: %s\n\n",
              Complete.SufficientlyComplete ? "yes" : "NO",
              Consistent.Consistent ? "yes" : "NO");

  // 2. Queries against the specification alone.
  auto SessionOrErr = WS.session();
  if (!SessionOrErr) {
    std::fprintf(stderr, "%s\n", SessionOrErr.error().message().c_str());
    return 1;
  }
  Session S = SessionOrErr.take();
  Result<void> R = S.runProgram(R"(
    db := EMPTY_TABLE
    db := INSERT_ROW(db, 'alice, 'admin)
    db := INSERT_ROW(db, 'bob, 'user)
    db := INSERT_ROW(db, 'carol, 'admin)
    db := INSERT_ROW(db, 'bob, 'admin)   -- bob gets promoted
    admins := SELECT_VAL(db, 'admin)
  )");
  if (!R) {
    std::fprintf(stderr, "%s\n", R.error().message().c_str());
    return 1;
  }
  auto show = [&](const char *Query) {
    Result<TermId> V = S.eval(Query);
    std::printf("  %-28s = %s\n", Query,
                V ? printTerm(WS.context(), *V).c_str()
                  : V.error().message().c_str());
  };
  std::printf("Queries answered by rewriting the axioms:\n");
  show("LOOKUP(db, 'bob)");
  show("ROW_COUNT(db)");
  show("ROW_COUNT(admins)");
  show("HAS_ROW?(admins, 'alice)");
  show("LOOKUP(db, 'mallory)");

  // 3. The real implementation against the same axioms.
  ModelBinding B(WS.context());
  B.bindOp("EMPTY_TABLE",
           [](std::span<const Value>) { return Value::of(TableImpl()); });
  B.bindOp("INSERT_ROW", [](std::span<const Value> Args) {
    TableImpl T = Args[0].get<TableImpl>();
    T.insertRow(Args[1].get<std::string>(), Args[2].get<std::string>());
    return Value::of(std::move(T));
  });
  B.bindOp("DELETE_ROW", [](std::span<const Value> Args) {
    TableImpl T = Args[0].get<TableImpl>();
    T.deleteRow(Args[1].get<std::string>());
    return Value::of(std::move(T));
  });
  B.bindOp("LOOKUP", [](std::span<const Value> Args) {
    auto V = Args[0].get<TableImpl>().lookup(Args[1].get<std::string>());
    return V ? Value::of(*V) : Value::error();
  });
  B.bindOp("HAS_ROW?", [](std::span<const Value> Args) {
    return Value::of(
        Args[0].get<TableImpl>().hasRow(Args[1].get<std::string>()));
  });
  B.bindOp("ROW_COUNT", [](std::span<const Value> Args) {
    return Value::of(
        static_cast<int64_t>(Args[0].get<TableImpl>().rowCount()));
  });
  B.bindOp("SELECT_VAL", [](std::span<const Value> Args) {
    return Value::of(
        Args[0].get<TableImpl>().selectVal(Args[1].get<std::string>()));
  });
  B.bindEquals(WS.context().lookupSort("Table"),
               [](const Value &A, const Value &B2) {
                 return A.get<TableImpl>() == B2.get<TableImpl>();
               });

  TestGenOptions Options;
  Options.MaxDepth = 4;
  TestGenReport Report =
      runTestGen(WS.context(), *Table, WS.specPointers(), B, Options);
  std::printf("\nTesting the real Table<V> against the axioms:\n%s",
              Report.render(Options).c_str());
  if (!Report.AllPassed || !Complete.SufficientlyComplete ||
      !Consistent.Consistent) {
    std::fprintf(stderr, "unexpected failure\n");
    return 1;
  }
  std::printf("\nThe specification IS the system's definition — the "
              "implementation merely has to live up to it.\n");
  return 0;
}
