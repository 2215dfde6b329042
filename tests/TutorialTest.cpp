//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes docs/TUTORIAL.md step by step, so the tutorial cannot rot:
/// a Dictionary type is specified, skeleton-prompted, checked, executed
/// symbolically, tested against a real implementation, refined to
/// a cons-list representation, and verified — including the sabotage the
/// tutorial's last paragraph promises the verifier will catch.
///
//===----------------------------------------------------------------------===//

#include "core/AlgSpec.h"
#include "testgen/TestGen.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

using namespace algspec;

namespace {

/// Tutorial step 1 + 3: the Dict specification.
const char *DictAlg = R"(
spec Dict
  uses Identifier
  sorts Dict
  ops
    EMPTY_DICT : -> Dict
    BIND       : Dict, Identifier, Int -> Dict
    GET        : Dict, Identifier -> Int
    HAS?       : Dict, Identifier -> Bool
    UNBIND     : Dict, Identifier -> Dict
  constructors EMPTY_DICT, BIND
  vars
    d    : Dict
    k, j : Identifier
    v    : Int
  axioms
    GET(EMPTY_DICT, k) = error
    GET(BIND(d, k, v), j) = if SAME(k, j) then v else GET(d, j)
    HAS?(EMPTY_DICT, k) = false
    HAS?(BIND(d, k, v), j) = if SAME(k, j) then true else HAS?(d, j)
    UNBIND(EMPTY_DICT, k) = EMPTY_DICT
    UNBIND(BIND(d, k, v), j) =
      if SAME(k, j) then UNBIND(d, j) else BIND(UNBIND(d, j), k, v)
end
)";

/// Tutorial step 7: the representation (cons-list of pairs), the
/// implementation map, and the abstraction function.
const char *DictRepAlg = R"(
spec DictList
  uses Identifier
  sorts DictList
  ops
    DNIL  : -> DictList
    DCONS : DictList, Identifier, Int -> DictList
  constructors DNIL, DCONS
end

spec DictImpl
  ops
    EMPTY_DICT_R : -> DictList
    BIND_R       : DictList, Identifier, Int -> DictList
    GET_R        : DictList, Identifier -> Int
    HAS_R?       : DictList, Identifier -> Bool
    UNBIND_R     : DictList, Identifier -> DictList
  vars
    l    : DictList
    k, j : Identifier
    v    : Int
  axioms
    EMPTY_DICT_R = DNIL
    BIND_R(l, k, v) = DCONS(l, k, v)
    GET_R(DNIL, k) = error
    GET_R(DCONS(l, k, v), j) = if SAME(k, j) then v else GET_R(l, j)
    HAS_R?(DNIL, k) = false
    HAS_R?(DCONS(l, k, v), j) = if SAME(k, j) then true else HAS_R?(l, j)
    UNBIND_R(DNIL, k) = DNIL
    UNBIND_R(DCONS(l, k, v), j) =
      if SAME(k, j) then UNBIND_R(l, j)
      else DCONS(UNBIND_R(l, j), k, v)
end

spec DictPhi
  ops
    DPHI : DictList -> Dict
  vars
    l : DictList
    k : Identifier
    v : Int
  axioms
    DPHI(DNIL) = EMPTY_DICT
    DPHI(DCONS(l, k, v)) = BIND(DPHI(l), k, v)
end
)";

/// A broken UNBIND_R that stops at the first match, leaving shadowed
/// older bindings alive (the tutorial's promised sabotage).
const char *BrokenUnbindAlg = R"(
spec BrokenImpl
  ops
    BUNBIND_R : DictList, Identifier -> DictList
  vars
    l    : DictList
    k, j : Identifier
    v    : Int
  axioms
    BUNBIND_R(DNIL, k) = DNIL
    BUNBIND_R(DCONS(l, k, v), j) =
      if SAME(k, j) then l else DCONS(BUNBIND_R(l, j), k, v)
end
)";

/// Step 6's real implementation.
class DictImpl {
public:
  void bind(const std::string &Key, int64_t Value) { Map[Key] = Value; }
  void unbind(const std::string &Key) { Map.erase(Key); }
  std::optional<int64_t> get(const std::string &Key) const {
    auto It = Map.find(Key);
    if (It == Map.end())
      return std::nullopt;
    return It->second;
  }
  bool has(const std::string &Key) const { return Map.count(Key) != 0; }

  friend bool operator==(const DictImpl &A, const DictImpl &B) {
    return A.Map == B.Map;
  }

private:
  std::unordered_map<std::string, int64_t> Map;
};

RepMapping dictMapping(Workspace &WS, const char *UnbindImpl = "UNBIND_R") {
  AlgebraContext &Ctx = WS.context();
  RepMapping Mapping;
  Mapping.AbstractSort = Ctx.lookupSort("Dict");
  Mapping.RepSort = Ctx.lookupSort("DictList");
  Mapping.Phi = Ctx.lookupOp("DPHI");
  Mapping.OpMap.emplace(Ctx.lookupOp("EMPTY_DICT"),
                        Ctx.lookupOp("EMPTY_DICT_R"));
  Mapping.OpMap.emplace(Ctx.lookupOp("BIND"), Ctx.lookupOp("BIND_R"));
  Mapping.OpMap.emplace(Ctx.lookupOp("GET"), Ctx.lookupOp("GET_R"));
  Mapping.OpMap.emplace(Ctx.lookupOp("HAS?"), Ctx.lookupOp("HAS_R?"));
  Mapping.OpMap.emplace(Ctx.lookupOp("UNBIND"),
                        Ctx.lookupOp(UnbindImpl));
  return Mapping;
}

} // namespace

TEST(TutorialTest, Step2SkeletonPromptsTheSixCases) {
  Workspace WS;
  ASSERT_TRUE(static_cast<bool>(WS.load(DictAlg, "dict.alg")));
  SkeletonReport Skeleton =
      generateSkeletons(WS.context(), *WS.find("Dict"));
  EXPECT_EQ(Skeleton.Cases.size(), 6u);
  std::string Text = Skeleton.render(WS.context());
  EXPECT_NE(Text.find("GET(EMPTY_DICT, identifier) = ?"),
            std::string::npos)
      << Text;
  EXPECT_NE(
      Text.find("UNBIND(BIND(dict, identifier, int), identifier1) = ?"),
      std::string::npos)
      << Text;
}

TEST(TutorialTest, Step4ChecksPass) {
  Workspace WS;
  ASSERT_TRUE(static_cast<bool>(WS.load(DictAlg, "dict.alg")));
  CompletenessReport Complete = WS.checkComplete(*WS.find("Dict"));
  EXPECT_TRUE(Complete.SufficientlyComplete)
      << Complete.renderPrompt(WS.context());
  ConsistencyReport Consistent = WS.checkConsistent();
  EXPECT_TRUE(Consistent.Consistent) << Consistent.render(WS.context());
  CompletenessReport Dynamic = checkCompletenessDynamic(
      WS.context(), *WS.find("Dict"), WS.specPointers(), 3);
  EXPECT_TRUE(Dynamic.SufficientlyComplete);
}

TEST(TutorialTest, Step4AnalyzeReadsTheErrorAlgebra) {
  Workspace WS;
  ASSERT_TRUE(static_cast<bool>(WS.load(DictAlg, "dict.alg")));
  ErrorFlowReport Report =
      analyzeErrorFlow(WS.context(), WS.specPointers());
  std::string Text = Report.render(WS.context());
  EXPECT_NE(Text.find("Dict.GET: may-error"), std::string::npos) << Text;
  EXPECT_NE(Text.find("GET(EMPTY_DICT, k): always-error"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("GET(BIND(d, k, v), j): may-error when "
                      "not(SAME(k, j))"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("Dict.HAS?: never-error"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("Dict.UNBIND: never-error"), std::string::npos)
      << Text;
  // The one definedness obligation: GET is only owed on bound keys.
  ASSERT_EQ(Report.Obligations.size(), 1u);
  EXPECT_EQ(Report.Obligations[0].render(WS.context()),
            "GET(EMPTY_DICT, k) = error");
}

TEST(TutorialTest, Step5SymbolicExecution) {
  Workspace WS;
  ASSERT_TRUE(static_cast<bool>(WS.load(DictAlg, "dict.alg")));
  Session S = WS.session().take();
  ASSERT_TRUE(static_cast<bool>(
      S.runProgram("d := BIND(BIND(EMPTY_DICT, 'x, 1), 'y, 2)")));
  EXPECT_EQ(printTerm(WS.context(), *S.eval("GET(d, 'y)")), "2");
  EXPECT_EQ(printTerm(WS.context(),
                      *S.eval("GET(UNBIND(d, 'x), 'y)")),
            "2");
  EXPECT_TRUE(WS.context().isError(*S.eval("GET(UNBIND(d, 'y), 'y)")));
}

TEST(TutorialTest, Step6ModelTestTheRealImplementation) {
  Workspace WS;
  ASSERT_TRUE(static_cast<bool>(WS.load(DictAlg, "dict.alg")));
  ModelBinding B(WS.context());
  B.bindOp("EMPTY_DICT",
           [](std::span<const Value>) { return Value::of(DictImpl()); });
  B.bindOp("BIND", [](std::span<const Value> Args) {
    DictImpl D = Args[0].get<DictImpl>();
    D.bind(Args[1].get<std::string>(), Args[2].get<int64_t>());
    return Value::of(std::move(D));
  });
  B.bindOp("GET", [](std::span<const Value> Args) {
    auto V = Args[0].get<DictImpl>().get(Args[1].get<std::string>());
    return V ? Value::of(*V) : Value::error();
  });
  B.bindOp("HAS?", [](std::span<const Value> Args) {
    return Value::of(
        Args[0].get<DictImpl>().has(Args[1].get<std::string>()));
  });
  B.bindOp("UNBIND", [](std::span<const Value> Args) {
    DictImpl D = Args[0].get<DictImpl>();
    D.unbind(Args[1].get<std::string>());
    return Value::of(std::move(D));
  });
  B.bindEquals(WS.context().lookupSort("Dict"),
               [](const Value &A, const Value &B2) {
                 return A.get<DictImpl>() == B2.get<DictImpl>();
               });

  TestGenOptions Options;
  Options.MaxDepth = 4;
  TestGenReport Report = runTestGen(WS.context(), *WS.find("Dict"),
                                    WS.specPointers(), B, Options);
  EXPECT_TRUE(Report.AllPassed) << Report.render(Options);
}

TEST(TutorialTest, Step7RepresentationVerifies) {
  Workspace WS;
  ASSERT_TRUE(static_cast<bool>(WS.load(DictAlg, "dict.alg")));
  ASSERT_TRUE(static_cast<bool>(WS.load(DictRepAlg, "dict_rep.alg")));
  RepMapping Mapping = dictMapping(WS);

  VerifyOptions Options;
  Options.Domain = ValueDomain::Reachable;
  Options.Depth = 4;
  VerifyReport Axioms = verifyRepresentation(
      WS.context(), *WS.find("Dict"), WS.specPointers(), Mapping, Options);
  EXPECT_TRUE(Axioms.AllHold) << Axioms.render(WS.context());

  VerifyReport Hom = verifyHomomorphism(
      WS.context(), *WS.find("Dict"), WS.specPointers(), Mapping, Options);
  EXPECT_TRUE(Hom.AllHold) << Hom.render(WS.context());
}

TEST(TutorialTest, Step7SabotagedUnbindIsCaught) {
  Workspace WS;
  ASSERT_TRUE(static_cast<bool>(WS.load(DictAlg, "dict.alg")));
  ASSERT_TRUE(static_cast<bool>(WS.load(DictRepAlg, "dict_rep.alg")));
  ASSERT_TRUE(static_cast<bool>(WS.load(BrokenUnbindAlg, "broken.alg")));
  RepMapping Mapping = dictMapping(WS, "BUNBIND_R");

  VerifyOptions Options;
  Options.Domain = ValueDomain::Reachable;
  Options.Depth = 4;
  VerifyReport Report = verifyRepresentation(
      WS.context(), *WS.find("Dict"), WS.specPointers(), Mapping, Options);
  EXPECT_FALSE(Report.AllHold)
      << "the shadow-leaking UNBIND should fail\n"
      << Report.render(WS.context());
}
