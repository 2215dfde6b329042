//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end benchmark's shared declarations: seeded request
/// streams, the expected answers they are judged against, and the span
/// recorder of the traced run.
///
/// Everything here sits outside the library. Requests reach the program
/// only through its public entry points (`server::runCommand`,
/// `dispatchCommand`, an in-process `server::Server` driven through the
/// client's `roundTrip`, `verifyRepresentation` / `verifyHomomorphism`,
/// and `runTestGen`), and every expected answer comes from a
/// hand-written verdict table, the spec text itself, or the small
/// std-container model in Model.cpp, never from the code under test.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_PERFBENCH_BENCH_H
#define ALGSPEC_PERFBENCH_BENCH_H

#include "server/Commands.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using algspec::server::CommandRequest;
using algspec::server::CommandResult;
using algspec::server::SourceFile;

/// FNV-1a, for stream dumps, seed mixing and answer comparison.
inline uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// Deterministic draws from a seeded stream. The helpers avoid the
/// standard distributions, whose output is implementation-defined, so a
/// seed names the same request stream on every standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : Gen(Seed) {}
  /// Uniform in [0, N); N must be positive.
  size_t below(size_t N) {
    uint64_t Limit = UINT64_MAX - UINT64_MAX % N;
    uint64_t X;
    do
      X = Gen();
    while (X >= Limit);
    return static_cast<size_t>(X % N);
  }
  bool chance(unsigned Percent) { return below(100) < Percent; }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  std::mt19937_64 Gen;
};

//===----------------------------------------------------------------------===//
// Inputs: the source catalog and its hand-written verdict table.
//===----------------------------------------------------------------------===//

/// What one spec of a source set must be reported as.
struct SpecVerdict {
  std::string Name;
  bool Complete = true;
  bool TerminationProved = true;
  std::string Convergence = "orthogonal";
  /// A deletion edited this spec: only its completeness is fixed (the
  /// deleted axiom may have been what blocked a termination proof).
  bool Edited = false;
};

/// A source set the workloads run over: a builtin, an example file, or
/// either with its dependencies loaded first.
struct SourceSet {
  std::string Label; ///< "queue", "examples/specs/shadowed.alg", ...
  std::vector<SourceFile> Files;
  /// Index into Files of the text that deletions edit.
  size_t Primary = 0;
  // The verdict table row.
  int CheckExit = 0;
  int LintExit = 0;
  int AnalyzeExit = 0;
  bool LintClean = true; ///< `lint` reports no findings.
  std::vector<SpecVerdict> Specs;
  /// Missing cases `check` must prompt for, as skeletons (see
  /// skeletonOf): variables become `_`.
  std::vector<std::string> Missing;
};

/// Loads the 13 builtins and the example specs (read from
/// `<Root>/examples/specs`). Returns false with \p Err set when an
/// example file is missing.
bool buildCatalog(const std::string &Root, std::vector<SourceSet> &Out,
                  std::string &Err);

/// One single-axiom deletion of a catalog entry's primary text.
struct Deletion {
  size_t Set = 0;        ///< Catalog index of the edited source set.
  std::string SpecName;  ///< Spec whose axiom was deleted.
  unsigned Axiom = 0;    ///< Its number within the spec (1-based).
  std::string Lhs;       ///< The deleted left-hand side, as written.
  std::string Skeleton;  ///< Lhs with its variables replaced by `_`.
  std::string Text;      ///< The edited spec text.
};

/// Every deletion whose missing case is determined by the spec text
/// alone: the axiom defines a non-constructor operation by linear
/// constructor patterns, no sibling axiom's left-hand side overlaps it,
/// and the spec's constructors are free (no axiom rewrites a
/// constructor-headed term). Deleting such an axiom leaves exactly its
/// left-hand side uncovered.
std::vector<Deletion> enumerateDeletions(const std::vector<SourceSet> &Cat);

/// A term with its variables (lowercase-initial identifiers, the
/// printer's and the builtins' convention) replaced by `_` and spaces
/// removed.
std::string skeletonOf(const std::string &Term);

//===----------------------------------------------------------------------===//
// Requests and expected answers.
//===----------------------------------------------------------------------===//

enum class Kind { Command, TestGen };

/// The expected answer. Each field is checked only when set.
struct Expect {
  int Exit = 0;
  const SourceSet *Set = nullptr; ///< check/lint/analyze verdict row.
  std::string Value;      ///< eval/trace: the model's normal form.
  std::vector<unsigned> FailingAxioms; ///< verify / testgen mutants.
  bool Dynamic = false;   ///< check ran with --dynamic.
};

struct BenchRequest {
  /// Request class: the unit of the mix and of latency reporting.
  std::string Class;
  /// Parameters within the class ("d3", "stackarray-d4"); the latency
  /// table reports class and variant.
  std::string Variant;
  Kind K = Kind::Command;
  /// Sources, command, and options. For testgen requests Command is
  /// "testgen" and Depth / Jobs carry the campaign settings.
  CommandRequest Cmd;
  std::string Mutant; ///< testgen: seeded implementation defect.
  Expect Want;

  /// One canonical line naming everything the request sends and
  /// expects; the stream dump is these lines.
  std::string describe() const;
};

/// A workload's stream: Passes are cycled in order; each pass is a
/// seeded permutation of the workload's fixed class mix, so every pass
/// has the same share of every request class.
struct Stream {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Connections = 1; ///< Closed-loop callers.
  unsigned Jobs = 1;        ///< --jobs of every request.
  std::vector<std::vector<BenchRequest>> Passes;
  /// Edited source sets of the deletion requests; a deque, so the
  /// requests' pointers into it stay valid as it grows.
  std::deque<SourceSet> DeletionSets;
};

/// Builds the stream of \p Workload ("author-loop", "served-session",
/// "batch-proofs") from \p Seed. Same inputs, byte-identical stream.
bool generateStream(const std::string &Workload, uint64_t Seed,
                    const std::vector<SourceSet> &Cat, unsigned Nproc,
                    Stream &Out, std::string &Err);

/// One generated eval term and the value the model computes for it.
struct EvalCase {
  std::string Builtin; ///< "queue", "stackarray", or "nat".
  std::string Term;
  std::string Value;   ///< Normal form as printed, or "error".
};
EvalCase generateEvalCase(Rng &R, unsigned Which);

/// Result of judging one answer.
enum class Verdict { Right, Wrong, Failed };

/// Judges a command answer against \p Want. \p Why gets a one-line
/// reason for anything but Right.
Verdict judgeCommand(const BenchRequest &Req, int Exit,
                     const std::string &Out, const std::string &Err,
                     std::string &Why);

/// The observable answer of a testgen request, per campaign.
struct CampaignOutcome {
  std::string Spec;
  bool Passed = false;
  uint64_t Run = 0;
  std::vector<unsigned> FailingAxioms; ///< Axioms with a counterexample.
};
Verdict judgeTestGen(const BenchRequest &Req,
                     const std::vector<CampaignOutcome> &Got,
                     std::string &Why);

//===----------------------------------------------------------------------===//
// Spans of the traced run.
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, -1 at the root.
  uint32_t Request = 0;
};

/// Spans kept in memory, single-threaded (the traced replay runs on one
/// thread), written out once the run ends.
class SpanRecorder {
public:
  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void setRequest(uint32_t Id) { Request = Id; }
  size_t open(const char *Name);
  void close(size_t Index);
  const std::vector<Span> &spans() const { return Spans; }
  /// Chrome trace-event JSON ("X" events, one per span).
  std::string chromeJson() const;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
  uint32_t Request = 0;
};

class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, const char *Name) : R(R), I(R.open(Name)) {}
  ~ScopedSpan() { R.close(I); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &R;
  size_t I;
};

/// A span name that lives as long as the program (span names are
/// stored as pointers).
const char *internName(const std::string &Name);

/// Counters the traced replay takes at the same boundaries as its spans,
/// from the reports the public calls return.
struct LayerCounters {
  uint64_t Requests = 0;
  uint64_t BytesLoaded = 0;
  uint64_t Loads = 0;            ///< Requests that loaded a workspace.
  uint64_t ArenaTermsAfterLoad = 0; ///< Summed over those loads.
  uint64_t TerminationCalls = 0;
  uint64_t SweepsRun = 0;     ///< Dynamic completeness + consistency.
  uint64_t SweepsSkipped = 0; ///< ... of which a certificate skipped.
  algspec::EngineStats Engine; ///< Summed over every report.
  uint64_t ArenaHighWater = 0; ///< Largest single-report high water.
  uint64_t VerifyRequests = 0;
  uint64_t VerifyDecided = 0;   ///< Axioms proved symbolically plus
                                ///< obligations discharged.
  uint64_t VerifyDecisions = 0; ///< Axioms plus obligations.
  uint64_t InstancesChecked = 0;
  uint64_t Campaigns = 0;
  uint64_t TestgenRun = 0;
  uint64_t ShrinkSteps = 0;
};

struct Tracer {
  SpanRecorder Spans;
  LayerCounters C;
};

/// Runs a testgen request the way `algspec testgen` does: one campaign
/// per loaded spec against the registered C++ implementation. With
/// \p T, the calls run under spans and feed its counters.
std::vector<CampaignOutcome> runTestGenRequest(const BenchRequest &R,
                                               Tracer *T);

/// Replays a command request as the sequence of public layer calls the
/// command layer makes, each under a span. Returns the loaded workspace
/// (null when loading failed) for the warm dispatch that follows.
std::unique_ptr<algspec::Workspace> replayCommand(const BenchRequest &R,
                                                  Tracer &T);

} // namespace perfbench

#endif // ALGSPEC_PERFBENCH_BENCH_H
