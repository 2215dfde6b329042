//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end benchmark program.
///
///   perfbench --workload <author-loop|served-session|batch-proofs>
///             --seed <n> --seconds <s> --trace <0|1> [--root <dir>]
///             [--trace-out <file>]
///   perfbench --dump-stream --workload <w> --seed <n>
///   perfbench --list-deletions
///
/// With --trace 0 it measures the end-to-end metrics untraced; with
/// --trace 1 it replays each request as public layer calls under spans
/// and reports the per-layer metrics. The last line of standard output
/// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// A wrong answer or a failed daemon reconciliation exits 1.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "server/Client.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <thread>

using namespace perfbench;
using namespace algspec;
using server::WireResponse;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";
  std::string TraceOut;
  bool DumpStream = false;
  bool ListDeletions = false;
};

double since(int64_t StartNs) {
  return static_cast<double>(SpanRecorder::nowNs() - StartNs) / 1e9;
}

uint64_t answerHash(int Exit, const std::string &Out, const std::string &Err) {
  return fnv1a(std::to_string(Exit) + '\0' + Out + '\0' + Err);
}

double quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double H = (static_cast<double>(V.size()) - 1) * P;
  size_t Lo = static_cast<size_t>(H);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (H - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

//===----------------------------------------------------------------------===//
// Set-up: inputs, daemon, warm-up.
//===----------------------------------------------------------------------===//

/// Everything a run needs before timing starts. Requests point into Cat
/// and Stream, so a Prepared never moves.
struct Prepared {
  std::vector<SourceSet> Cat;
  Stream S;
  std::unique_ptr<server::Server> Srv;
  SocketAddress Addr;
  /// Encoded request frames, per pass and position (served only).
  std::vector<std::vector<std::string>> Frames;

  Prepared() = default;
  Prepared(const Prepared &) = delete;
  Prepared &operator=(const Prepared &) = delete;
  ~Prepared() {
    if (Srv) {
      Srv->requestStop();
      Srv->wait();
    }
  }
};

struct Sample {
  double Ms = 0;
  Verdict V = Verdict::Right;
  uint32_t Pass = 0, Pos = 0;
  uint64_t Hash = 0; ///< Served: hash of the response.
};

/// A served answer's verdict. Backpressure, expired deadlines and frame
/// limits are failures; any other error response is a wrong answer.
Verdict judgeWire(const BenchRequest &R, const Result<WireResponse> &W,
                  std::string &Why, uint64_t &Hash) {
  if (!W) {
    Why = "transport: " + W.error().message();
    return Verdict::Failed;
  }
  if (W->Type == "error") {
    Why = "error response " + W->ErrorCode + ": " + W->ErrorMessage;
    for (const char *Code : {"overloaded", "deadline_exceeded",
                             "oversized_frame", "shutting_down"})
      if (W->ErrorCode == Code)
        return Verdict::Failed;
    return Verdict::Wrong;
  }
  if (W->Type != "response") {
    Why = "unexpected frame type " + W->Type;
    return Verdict::Wrong;
  }
  Hash = answerHash(W->Exit, W->Out, W->Err);
  return judgeCommand(R, W->Exit, W->Out, W->Err, Why);
}

Verdict runDirect(const BenchRequest &R, std::string &Why, double &Ms) {
  int64_t T0 = SpanRecorder::nowNs();
  if (R.K == Kind::TestGen) {
    std::vector<CampaignOutcome> Got = runTestGenRequest(R, nullptr);
    Ms = since(T0) * 1e3;
    return judgeTestGen(R, Got, Why);
  }
  CommandResult C = server::runCommand(R.Cmd);
  Ms = since(T0) * 1e3;
  return judgeCommand(R, C.ExitCode, C.Out, C.Err, Why);
}

bool startServer(Prepared &P, unsigned Workers, std::string &Err) {
  server::ServerOptions Opts;
  SocketAddress Listen;
  Listen.AddrKind = SocketAddress::Kind::Tcp;
  Listen.Host = "127.0.0.1";
  Listen.Port = 0;
  Opts.Listen = {Listen};
  Opts.Workers = Workers;
  P.Srv = std::make_unique<server::Server>(Opts);
  if (Result<void> R = P.Srv->start(); !R) {
    Err = "server start: " + R.error().message();
    P.Srv.reset();
    return false;
  }
  P.Addr = Listen;
  P.Addr.Port = P.Srv->boundTcpPort();
  return true;
}

/// Builds inputs, starts the daemon when the workload has one, and
/// warms every request class once (the first instance in pass 0).
std::unique_ptr<Prepared> setUp(const Args &A, unsigned Nproc, bool Served,
                                std::string &Err) {
  auto P = std::make_unique<Prepared>();
  if (!buildCatalog(A.Root, P->Cat, Err) ||
      !generateStream(A.Workload, A.Seed, P->Cat, Nproc, P->S, Err))
    return nullptr;
  if (Served) {
    for (size_t Pass = 0; Pass != P->S.Passes.size(); ++Pass) {
      P->Frames.emplace_back();
      for (size_t I = 0; I != P->S.Passes[Pass].size(); ++I)
        P->Frames.back().push_back(server::encodeCommandRequest(
            std::to_string(Pass * 100000 + I), P->S.Passes[Pass][I].Cmd));
    }
    if (!startServer(*P, P->S.Connections, Err))
      return nullptr;
  }
  std::vector<std::string> Warmed;
  const std::vector<BenchRequest> &First = P->S.Passes.front();
  Result<Socket> Sock = Served ? connectSocket(P->Addr) : Result<Socket>(Socket());
  if (!Sock) {
    Err = "connect: " + Sock.error().message();
    return nullptr;
  }
  FrameReader Reader(64u << 20);
  for (size_t I = 0; I != First.size(); ++I) {
    const BenchRequest &R = First[I];
    std::string Key = R.Class + " " + R.Variant;
    if (std::find(Warmed.begin(), Warmed.end(), Key) != Warmed.end())
      continue;
    Warmed.push_back(Key);
    std::string Why;
    double Ms = 0;
    if (Served) {
      uint64_t Hash = 0;
      judgeWire(R, server::roundTrip(*Sock, Reader, P->Frames[0][I]), Why,
                Hash);
    } else {
      runDirect(R, Why, Ms);
    }
  }
  return P;
}

//===----------------------------------------------------------------------===//
// The untraced run.
//===----------------------------------------------------------------------===//

struct RunResult {
  std::vector<Sample> Samples;
  double Elapsed = 0;
  size_t PassesRun = 0;
  std::vector<double> PassRates; ///< Requests per second, per pass.
  std::string FirstProblem;
  bool Reconciled = true;
  std::string ReconcileDetail;
};

/// Hands out stream positions to closed-loop callers and stops at the
/// first pass boundary after the time is up, so every run measures
/// whole passes.
class Dispenser {
public:
  Dispenser(const Stream &S, double Seconds, int64_t StartNs)
      : S(S), Seconds(Seconds), StartNs(StartNs) {}
  bool next(uint32_t &Pass, uint32_t &Pos) {
    std::lock_guard<std::mutex> Lock(M);
    size_t Len = S.Passes.front().size();
    if (Stopped)
      return false;
    if (Next % Len == 0) {
      if (Next != 0 && since(StartNs) >= Seconds) {
        Stopped = true;
        return false;
      }
      Boundaries.push_back(SpanRecorder::nowNs());
    }
    Pass = static_cast<uint32_t>((Next / Len) % S.Passes.size());
    Pos = static_cast<uint32_t>(Next % Len);
    ++Next;
    return true;
  }
  size_t passesRun() const { return Next / S.Passes.front().size(); }
  /// Requests per second of each pass, from the hand-out of its first
  /// request to that of the next pass (the last pass ends at \p EndNs).
  std::vector<double> passRates(int64_t EndNs) const {
    std::vector<double> Rates;
    double Len = static_cast<double>(S.Passes.front().size());
    for (size_t I = 0; I != Boundaries.size(); ++I) {
      int64_t To = I + 1 < Boundaries.size() ? Boundaries[I + 1] : EndNs;
      Rates.push_back(Len * 1e9 / static_cast<double>(To - Boundaries[I]));
    }
    return Rates;
  }

private:
  const Stream &S;
  double Seconds;
  int64_t StartNs;
  std::mutex M;
  size_t Next = 0;
  bool Stopped = false;
  std::vector<int64_t> Boundaries;
};

void noteProblem(RunResult &R, std::mutex &M, const BenchRequest &Req,
                 const std::string &Why) {
  std::lock_guard<std::mutex> Lock(M);
  if (R.FirstProblem.empty())
    R.FirstProblem = Req.Class + " [" + Req.describe() + "]: " + Why;
}

RunResult runUntraced(Prepared &P, double Seconds, bool Served) {
  RunResult Out;
  std::mutex M;
  server::ServerStatsSnapshot Before;
  if (Served)
    Before = P.Srv->statsSnapshot();
  int64_t Start = SpanRecorder::nowNs();
  Dispenser D(P.S, Seconds, Start);
  auto Caller = [&] {
    std::vector<Sample> Local;
    Result<Socket> Sock =
        Served ? connectSocket(P.Addr) : Result<Socket>(Socket());
    FrameReader Reader(64u << 20);
    Sample S;
    while (D.next(S.Pass, S.Pos)) {
      const BenchRequest &R = P.S.Passes[S.Pass][S.Pos];
      std::string Why;
      if (Served) {
        int64_t T0 = SpanRecorder::nowNs();
        Result<WireResponse> W =
            Sock ? server::roundTrip(*Sock, Reader, P.Frames[S.Pass][S.Pos])
                 : Result<WireResponse>(Sock.error());
        S.Ms = since(T0) * 1e3;
        S.V = judgeWire(R, W, Why, S.Hash);
      } else {
        S.V = runDirect(R, Why, S.Ms);
      }
      if (S.V != Verdict::Right)
        noteProblem(Out, M, R, Why);
      Local.push_back(S);
    }
    std::lock_guard<std::mutex> Lock(M);
    Out.Samples.insert(Out.Samples.end(), Local.begin(), Local.end());
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 1; C < P.S.Connections; ++C)
    Threads.emplace_back(Caller);
  Caller();
  for (std::thread &T : Threads)
    T.join();
  Out.Elapsed = since(Start);
  Out.PassesRun = D.passesRun();
  Out.PassRates = D.passRates(SpanRecorder::nowNs());
  if (!Served)
    return Out;

  // Daemon reconciliation against what the callers sent.
  server::ServerStatsSnapshot After = P.Srv->statsSnapshot();
  uint64_t Sent = Out.Samples.size();
  uint64_t Served_ = After.RequestsServed - Before.RequestsServed;
  uint64_t Rejected = After.RequestsRejected - Before.RequestsRejected;
  uint64_t Expired = After.DeadlinesExpired - Before.DeadlinesExpired;
  uint64_t Lookups = (After.Cache.Hits + After.Cache.Misses) -
                     (Before.Cache.Hits + Before.Cache.Misses);
  Out.Reconciled = Served_ + Rejected + Expired == Sent && Lookups == Served_ &&
                   After.QueueDepth == 0;
  Out.ReconcileDetail =
      "sent " + std::to_string(Sent) + ", served +" + std::to_string(Served_) +
      ", rejected +" + std::to_string(Rejected) + ", deadlines expired +" +
      std::to_string(Expired) + ", cache lookups +" + std::to_string(Lookups);

  // Byte-compare every served response with the in-process one-shot
  // answer to the same request (keyed by its frame without the id, so
  // each distinct command runs once).
  std::map<std::string, uint64_t> Local;
  for (Sample &S : Out.Samples) {
    if (S.V != Verdict::Right)
      continue;
    const CommandRequest &Cmd = P.S.Passes[S.Pass][S.Pos].Cmd;
    std::string Key = server::encodeCommandRequest("0", Cmd);
    auto It = Local.find(Key);
    if (It == Local.end()) {
      CommandResult C = server::runCommand(Cmd);
      It = Local.emplace(Key, answerHash(C.ExitCode, C.Out, C.Err)).first;
    }
    if (It->second != S.Hash) {
      S.V = Verdict::Wrong;
      noteProblem(Out, M, P.S.Passes[S.Pass][S.Pos],
                  "served response differs from runCommand");
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Reporting.
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

std::string fullDigits(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  std::string S = std::string("{\"correct\": ") +
                  (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I)
    S += (I ? ", " : "") + std::string("\"") + Ms[I].Name +
         "\": {\"value\": " + fullDigits(Ms[I].Value) + ", \"unit\": \"" +
         Ms[I].Unit + "\"}";
  S += "}}";
  std::printf("%s\n", S.c_str());
}

void printTable(const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-36s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

/// Where quantile \p Q falls: the class of the sample at that rank and
/// the share of samples within 5% of the ranks around it that belong to
/// the same class (1.0 = well inside one class).
std::string quantileClass(const std::vector<std::pair<double, std::string>> &Sorted,
                          double Q) {
  if (Sorted.empty())
    return "-";
  size_t N = Sorted.size();
  size_t R = static_cast<size_t>(std::lround(Q * static_cast<double>(N - 1)));
  size_t W = std::max<size_t>(1, N / 20);
  size_t Lo = R > W ? R - W : 0, Hi = std::min(N - 1, R + W);
  size_t Same = 0;
  for (size_t I = Lo; I <= Hi; ++I)
    Same += Sorted[I].second == Sorted[R].second;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s (window purity %.2f)",
                Sorted[R].second.c_str(),
                static_cast<double>(Same) / static_cast<double>(Hi - Lo + 1));
  return Buf;
}

int reportUntraced(const Args &A, const Prepared &P, const RunResult &R,
                   const std::vector<double> &SetupTimes) {
  double SetupS = quantile(SetupTimes, 0.5);
  uint64_t Attempted = R.Samples.size(), Failed = 0, Wrong = 0;
  std::vector<double> Lat;
  std::map<std::string, std::vector<double>> ByClass;
  std::vector<std::pair<double, std::string>> Sorted;
  double FailedMs = R.Elapsed * 1e3; // A failure misses every limit.
  for (const Sample &S : R.Samples) {
    Failed += S.V == Verdict::Failed;
    Wrong += S.V == Verdict::Wrong;
    double Ms = S.V == Verdict::Failed ? FailedMs : S.Ms;
    const BenchRequest &Req = P.S.Passes[S.Pass][S.Pos];
    const std::string &Class = Req.Class;
    Lat.push_back(Ms);
    ByClass[Class + (Req.Variant.empty() ? "" : " " + Req.Variant)]
        .push_back(Ms);
    Sorted.emplace_back(Ms, Class);
  }
  std::sort(Sorted.begin(), Sorted.end());
  double N = std::max<double>(1, static_cast<double>(Attempted));
  std::vector<Metric> Ms = {
      // The median pass keeps a neighbour's burst on a shared machine
      // from moving the figure; every pass has the same class mix.
      {"throughput_rps", "req/s", quantile(R.PassRates, 0.5)},
      {"latency_p50_ms", "ms", quantile(Lat, 0.5)},
      {"latency_p90_ms", "ms", quantile(Lat, 0.9)},
      {"setup_s", "s", SetupS},
      {"peak_rss_mb", "MB", peakRssMb()},
  };
  std::printf("perfbench workload=%s seed=%llu trace=0 connections=%u "
              "jobs=%u requests=%llu passes=%zu measured_s=%.3f\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              P.S.Connections, P.S.Jobs,
              static_cast<unsigned long long>(Attempted), R.PassesRun,
              R.Elapsed);
  printTable(Ms);
  std::string Setups;
  for (double S : SetupTimes)
    Setups += " " + fullDigits(S).substr(0, 6);
  std::printf("  set-up runs (s):%s\n", Setups.c_str());
  std::printf("  %-36s %14.6g %s\n", "failed_ratio",
              static_cast<double>(Failed) / N, "ratio");
  std::printf("  %-36s %14.6g %s\n", "wrong_ratio",
              static_cast<double>(Wrong) / N, "ratio");
  std::printf("  latency samples: %llu; p50 in %s; p90 in %s\n",
              static_cast<unsigned long long>(Attempted),
              quantileClass(Sorted, 0.5).c_str(),
              quantileClass(Sorted, 0.9).c_str());
  for (const auto &[Class, V] : ByClass)
    std::printf("    class %-18s n=%-6zu share=%.3f p50=%.3f ms p90=%.3f ms "
                "max=%.3f ms\n",
                Class.c_str(), V.size(), static_cast<double>(V.size()) / N,
                quantile(V, 0.5), quantile(V, 0.9), quantile(V, 1.0));
  if (!R.ReconcileDetail.empty())
    std::printf("  daemon reconciliation: %s (%s)\n",
                R.Reconciled ? "ok" : "MISMATCH", R.ReconcileDetail.c_str());
  if (!R.FirstProblem.empty())
    std::printf("  first problem: %s\n", R.FirstProblem.c_str());
  bool Correct = Wrong == 0 && R.Reconciled;
  printResult(Correct, Attempted, Failed, Ms);
  return Correct ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// The traced run.
//===----------------------------------------------------------------------===//

struct SpanStats {
  size_t Count = 0;
  double TotalMs = 0;
  std::vector<double> Ms;
};

std::map<std::string, SpanStats> spanStats(const SpanRecorder &R) {
  std::map<std::string, SpanStats> Out;
  for (const Span &S : R.spans()) {
    SpanStats &St = Out[S.Name];
    double Ms = static_cast<double>(S.EndNs - S.StartNs) / 1e6;
    ++St.Count;
    St.TotalMs += Ms;
    St.Ms.push_back(Ms);
  }
  return Out;
}

/// Self time per layer (span minus its child spans), summed over spans
/// under "request"; the request spans' own self time is unattributed.
std::map<std::string, double> selfTimes(const SpanRecorder &R,
                                        double &RequestMs) {
  const std::vector<Span> &Sp = R.spans();
  std::vector<double> Child(Sp.size(), 0);
  for (const Span &S : Sp)
    if (S.Parent >= 0)
      Child[static_cast<size_t>(S.Parent)] +=
          static_cast<double>(S.EndNs - S.StartNs) / 1e6;
  std::map<std::string, double> Out;
  RequestMs = 0;
  for (size_t I = 0; I != Sp.size(); ++I) {
    double Dur = static_cast<double>(Sp[I].EndNs - Sp[I].StartNs) / 1e6;
    std::string Name = Sp[I].Name;
    if (Name == "request") {
      RequestMs += Dur;
      Out["unattributed"] += Dur - Child[I];
    } else if (Sp[I].Parent >= 0) {
      Out[Name.substr(0, Name.find('.'))] += Dur - Child[I];
    }
  }
  return Out;
}

/// The layer spans the replay of \p R records (see Replay.cpp), so
/// layers a stream never enters can be probed.
std::vector<std::string> namesOf(const BenchRequest &R) {
  if (R.K == Kind::TestGen)
    return {"testgen.campaign"};
  const std::string &C = R.Cmd.Command;
  if (C == "eval" || C == "trace")
    return {"rewrite.normalize"};
  if (C == "lint")
    return {"check.lint", "check.termination"};
  if (C == "analyze")
    return {"check.errorflow", "check.convergence", "check.exhaustiveness",
            "check.lint"};
  if (C == "verify") {
    const auto &O = R.Cmd.Opts;
    return {std::string("verify.") +
            (O.Homomorphism ? "hom" : O.FreeDomain ? "free" : "reachable") +
            "_d" + std::to_string(O.Depth)};
  }
  return {"check.termination", "check.exhaustiveness", "check.completeness",
          "check.convergence", "check.consistency", "check.errorflow"};
}

struct SweepCounts {
  uint64_t Run = 0, Skipped = 0;
};

const char *const VerifyKeys[] = {
    "verify.reachable_d2", "verify.reachable_d3", "verify.reachable_d4",
    "verify.reachable_d5", "verify.free_d2",      "verify.free_d3",
    "verify.free_d4",      "verify.hom_d4"};

/// Replays one request: untraced one-shot answer first (the baseline of
/// the tracing overhead), then the layer calls under a "request" span,
/// then a warm dispatch and, when a socket is given, a served round
/// trip. Every answer is judged.
void traceOne(const BenchRequest &R, uint32_t Id, Tracer &T,
              const Socket *Sock, FrameReader *Reader, double &UntracedMs,
              uint64_t &Wrong, std::string &FirstProblem) {
  std::string Why;
  auto Note = [&](Verdict V, const char *Where) {
    if (V == Verdict::Right)
      return;
    ++Wrong;
    if (FirstProblem.empty())
      FirstProblem = std::string(Where) + " " + R.Class + ": " + Why;
  };
  double Ms = 0;
  Note(runDirect(R, Why, Ms), "one-shot");
  UntracedMs += Ms;
  T.Spans.setRequest(Id);
  ++T.C.Requests;
  if (R.K == Kind::TestGen) {
    std::vector<CampaignOutcome> Got;
    {
      ScopedSpan S(T.Spans, "request");
      Got = runTestGenRequest(R, &T);
    }
    Note(judgeTestGen(R, Got, Why), "traced");
    return;
  }
  std::unique_ptr<Workspace> WS;
  {
    ScopedSpan S(T.Spans, "request");
    WS = replayCommand(R, T);
  }
  if (!WS) {
    Why = "sources did not load";
    Note(Verdict::Wrong, "traced");
    return;
  }
  CommandResult D;
  {
    ScopedSpan S(T.Spans, "server.dispatch");
    D = server::dispatchCommand(*WS, R.Cmd);
  }
  Note(judgeCommand(R, D.ExitCode, D.Out, D.Err, Why), "dispatch");
  if (!Sock)
    return;
  std::string Frame = server::encodeCommandRequest(std::to_string(Id), R.Cmd);
  Result<WireResponse> W(makeError("unsent"));
  {
    ScopedSpan S(T.Spans, "server.roundtrip");
    W = server::roundTrip(*Sock, *Reader, Frame);
  }
  uint64_t Hash = 0;
  Verdict V = judgeWire(R, W, Why, Hash);
  if (V == Verdict::Right && Hash != answerHash(D.ExitCode, D.Out, D.Err)) {
    V = Verdict::Wrong;
    Why = "served response differs from dispatchCommand";
  }
  Note(V, "served");
}

int runTraced(const Args &A, Prepared &P, unsigned Nproc) {
  std::string Err;
  if (!P.Srv && !startServer(P, 2, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  Result<Socket> Sock = connectSocket(P.Addr);
  if (!Sock) {
    std::fprintf(stderr, "perfbench: connect: %s\n",
                 Sock.error().message().c_str());
    return 2;
  }
  FrameReader Reader(64u << 20);
  Tracer T;
  double UntracedMs = 0;
  uint64_t Wrong = 0, Attempted = 0;
  std::string FirstProblem;
  // One whole pass, so every class is replayed, then requests until the
  // time is up.
  int64_t Start = SpanRecorder::nowNs();
  size_t Len = P.S.Passes.front().size();
  for (size_t I = 0; I < Len || since(Start) < A.Seconds; ++I)
    traceOne(P.S.Passes[(I / Len) % P.S.Passes.size()][I % Len],
             static_cast<uint32_t>(++Attempted), T, &*Sock, &Reader,
             UntracedMs, Wrong, FirstProblem);
  size_t Passes = (Attempted + Len - 1) / Len;

  // Layers this workload's stream never enters are measured on a probe
  // request of that layer, so every per-layer metric is defined.
  std::map<std::string, SpanStats> Main = spanStats(T.Spans);
  Tracer Probe;
  std::vector<BenchRequest> Probes;
  {
    // Candidates: the other workloads' streams on the same seed. Each
    // probe is the first candidate that provides a still-missing span.
    Stream Batch, Author;
    generateStream("batch-proofs", A.Seed, P.Cat, Nproc, Batch, Err);
    generateStream("author-loop", A.Seed, P.Cat, Nproc, Author, Err);
    std::set<std::string> Have;
    for (const auto &[Name, S] : Main)
      Have.insert(Name);
    for (const Stream *S : {&Author, &Batch})
      for (const std::vector<BenchRequest> &Pass : S->Passes)
        for (const BenchRequest &R : Pass) {
          bool Provides = false;
          for (const std::string &N : namesOf(R))
            Provides |= !Have.count(N);
          if (!Provides || R.Class == "check-deletion")
            continue;
          for (const std::string &N : namesOf(R))
            Have.insert(N);
          Probes.push_back(R);
        }
    for (size_t I = 0; I != Probes.size(); ++I) {
      uint64_t ProbeWrong = 0;
      double ProbeMs = 0;
      traceOne(Probes[I], static_cast<uint32_t>(I + 1), Probe, nullptr,
               nullptr, ProbeMs, ProbeWrong, FirstProblem);
      Wrong += ProbeWrong;
    }
  }
  std::map<std::string, SpanStats> Prb = spanStats(Probe.Spans);
  auto stat = [&](const std::string &N) -> const SpanStats & {
    static const SpanStats None;
    if (Main.count(N))
      return Main[N];
    return Prb.count(N) ? Prb[N] : None;
  };
  auto meanMs = [&](const std::string &N) {
    const SpanStats &S = stat(N);
    return S.Count ? S.TotalMs / static_cast<double>(S.Count) : 0.0;
  };

  // sweep.speedup: the workload's heaviest parallel request (the
  // stackarray campaign, else a FreeTerms verify) at jobs 1 and at
  // jobs N, median of three alternating runs each.
  const BenchRequest *Heavy = nullptr;
  for (const char *Class : {"testgen stackarray-d4", "verify-free"})
    for (const BenchRequest &R : P.S.Passes.front())
      if (!Heavy && (R.Class == Class || R.Class + " " + R.Variant == Class))
        Heavy = &R;
  unsigned JobsN = std::min(Nproc, 4u);
  std::vector<double> J1, JN;
  for (int Rep = 0; Rep != 3 && Heavy; ++Rep)
    for (unsigned Jobs : {1u, JobsN}) {
      BenchRequest Q = *Heavy;
      Q.Cmd.Opts.Jobs = Jobs;
      std::string Why;
      double Ms = 0;
      if (runDirect(Q, Why, Ms) != Verdict::Right)
        ++Wrong;
      (Jobs == 1 ? J1 : JN).push_back(Ms);
    }
  double Speedup = JN.empty() ? 1.0 : quantile(J1, 0.5) / quantile(JN, 0.5);

  server::ServerStatsSnapshot St = P.Srv->statsSnapshot();
  const LayerCounters &C = T.C;
  const LayerCounters &TC = C.Campaigns ? C : Probe.C;
  double Req = std::max<double>(1, static_cast<double>(C.Requests));
  double RequestMs = 0;
  std::map<std::string, double> Self = selfTimes(T.Spans, RequestMs);
  double LoadMs = stat("parser.load").TotalMs;
  double VerifyMs = 0;
  for (const char *K : VerifyKeys)
    VerifyMs += Main.count(K) ? Main[K].TotalMs : 0;
  auto ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  SweepCounts Sw = C.SweepsRun
                       ? SweepCounts{C.SweepsRun, C.SweepsSkipped}
                       : SweepCounts{Probe.C.SweepsRun, Probe.C.SweepsSkipped};
  std::vector<Metric> Ms = {
      {"parser.load_ms", "ms", ratio(LoadMs, static_cast<double>(C.Loads))},
      {"parser.load_mb_per_s", "MB/s",
       ratio(static_cast<double>(C.BytesLoaded) / 1e6, LoadMs / 1e3)},
      {"parser.arena_terms_after_load", "count",
       ratio(static_cast<double>(C.ArenaTermsAfterLoad),
             static_cast<double>(C.Loads))},
      {"check.termination_ms", "ms", meanMs("check.termination")},
      {"check.exhaustiveness_ms", "ms", meanMs("check.exhaustiveness")},
      {"check.completeness_ms", "ms", meanMs("check.completeness")},
      {"check.convergence_ms", "ms", meanMs("check.convergence")},
      {"check.consistency_ms", "ms", meanMs("check.consistency")},
      {"check.errorflow_ms", "ms", meanMs("check.errorflow")},
      {"check.lint_ms", "ms", meanMs("check.lint")},
      {"check.termination_calls_per_request", "count",
       static_cast<double>(C.TerminationCalls) / Req},
      {"check.sweep_skip_ratio", "ratio",
       ratio(static_cast<double>(Sw.Skipped), static_cast<double>(Sw.Run))},
      {"rewrite.eval_us", "us", meanMs("rewrite.normalize") * 1e3},
      {"rewrite.steps", "count", static_cast<double>(C.Engine.Steps) / Req},
      {"rewrite.match_attempts", "count",
       static_cast<double>(C.Engine.MatchAttempts) / Req},
      {"rewrite.automaton_visits", "count",
       static_cast<double>(C.Engine.AutomatonVisits) / Req},
      {"rewrite.rebuilds", "count", static_cast<double>(C.Engine.Rebuilds) / Req},
      {"rewrite.memo_hit_ratio", "ratio",
       ratio(static_cast<double>(C.Engine.CacheHits),
             static_cast<double>(C.Engine.CacheHits + C.Engine.CacheMisses))},
      {"egraph.nodes", "count", static_cast<double>(C.Engine.EGraphNodes) / Req},
      {"egraph.merges", "count",
       static_cast<double>(C.Engine.EGraphMerges) / Req},
      {"egraph.rebuilds", "count",
       static_cast<double>(C.Engine.EGraphRebuilds) / Req},
      {"verify.decided_symbolic_ratio", "ratio",
       ratio(static_cast<double>(C.VerifyDecided),
             static_cast<double>(C.VerifyDecisions))},
  };
  for (const char *K : VerifyKeys)
    Ms.push_back({std::string(K) + "_ms", "ms", meanMs(K)});
  std::vector<Metric> More = {
      {"verify.instances_checked", "count",
       ratio(static_cast<double>(C.InstancesChecked),
             static_cast<double>(C.VerifyRequests))},
      {"verify.instances_per_s", "1/s",
       ratio(static_cast<double>(C.InstancesChecked), VerifyMs / 1e3)},
      {"testgen.campaign_ms", "ms", meanMs("testgen.campaign")},
      {"testgen.instances_run", "count",
       ratio(static_cast<double>(TC.TestgenRun),
             static_cast<double>(TC.Campaigns))},
      {"testgen.instances_per_s", "1/s",
       ratio(static_cast<double>(TC.TestgenRun),
             stat("testgen.campaign").TotalMs / 1e3)},
      {"testgen.shrink_steps", "count",
       ratio(static_cast<double>(TC.ShrinkSteps),
             static_cast<double>(TC.Campaigns))},
      {"sweep.speedup", "x", Speedup},
      {"server.dispatch_us", "us", quantile(stat("server.dispatch").Ms, 0.5) * 1e3},
      {"server.wire_overhead_us", "us",
       (quantile(stat("server.roundtrip").Ms, 0.5) -
        quantile(stat("server.dispatch").Ms, 0.5)) *
           1e3},
      {"server.cache_hit_ratio", "ratio",
       ratio(static_cast<double>(St.Cache.Hits),
             static_cast<double>(St.Cache.Hits + St.Cache.Misses))},
      {"server.cache_evictions", "count",
       static_cast<double>(St.Cache.Evictions)},
      {"server.queue_high_water", "count",
       static_cast<double>(St.QueueHighWater)},
      {"server.rejected", "count",
       static_cast<double>(St.RequestsRejected + St.DeadlinesExpired)},
      {"ast.arena_high_water_terms", "count",
       static_cast<double>(std::max(C.ArenaHighWater, St.Arena.HighWaterTerms))},
      {"ast.arena_terms_freed", "count",
       static_cast<double>(C.Engine.ArenaTermsFreed + St.Arena.TermsFreed)},
  };
  Ms.insert(Ms.end(), More.begin(), More.end());
  for (const char *L : {"parser", "check", "rewrite", "verify", "testgen"})
    Ms.push_back({std::string(L) + ".self_share", "ratio",
                  ratio(Self[L], RequestMs)});
  Ms.push_back({"trace.unattributed_share", "ratio",
                ratio(Self["unattributed"], RequestMs)});
  Ms.push_back({"trace.overhead_ratio", "ratio",
                ratio(RequestMs, UntracedMs) - 1.0});

  if (!A.TraceOut.empty()) {
    std::ofstream Out(A.TraceOut, std::ios::binary);
    Out << T.Spans.chromeJson() << "\n";
  }
  std::printf("perfbench workload=%s seed=%llu trace=1 requests=%llu "
              "passes=%zu probes=%zu spans=%zu\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              static_cast<unsigned long long>(Attempted), Passes,
              Probes.size(), T.Spans.spans().size());
  printTable(Ms);
  if (!FirstProblem.empty())
    std::printf("  first problem: %s\n", FirstProblem.c_str());
  printResult(Wrong == 0, Attempted, 0, Ms);
  return Wrong == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Entry.
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Need = [&]() -> const char * {
      if (I + 1 >= Argc) {
        Err = K + " needs a value";
        return nullptr;
      }
      return Argv[++I];
    };
    const char *V = nullptr;
    if (K == "--dump-stream") {
      A.DumpStream = true;
    } else if (K == "--list-deletions") {
      A.ListDeletions = true;
    } else if (!(V = Need())) {
      return false;
    } else if (K == "--workload") {
      A.Workload = V;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V, nullptr, 10);
    } else if (K == "--seconds") {
      A.Seconds = std::atof(V);
    } else if (K == "--trace") {
      A.Trace = std::strcmp(V, "0") != 0;
    } else if (K == "--root") {
      A.Root = V;
    } else if (K == "--trace-out") {
      A.TraceOut = V;
    } else {
      Err = "unknown argument " + K;
      return false;
    }
  }
  return true;
}

int listDeletions(const Args &A) {
  std::vector<SourceSet> Cat;
  std::string Err;
  if (!buildCatalog(A.Root, Cat, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  for (const Deletion &D : enumerateDeletions(Cat)) {
    const SourceSet &S = Cat[D.Set];
    JsonWriter W(/*Compact=*/true);
    W.beginObject();
    W.key("set").value(S.Label);
    W.key("spec").value(D.SpecName);
    W.key("axiom").value(D.Axiom);
    W.key("lhs").value(D.Lhs);
    W.key("skeleton").value(D.Skeleton);
    W.key("original").value(S.Files[S.Primary].Text);
    W.key("edited").value(D.Text);
    W.endObject();
    std::printf("%s\n", W.str().c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  if (A.ListDeletions)
    return listDeletions(A);
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  if (A.DumpStream) {
    std::vector<SourceSet> Cat;
    Stream S;
    if (!buildCatalog(A.Root, Cat, Err) ||
        !generateStream(A.Workload, A.Seed, Cat, Nproc, S, Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return 2;
    }
    for (size_t P = 0; P != S.Passes.size(); ++P)
      for (const BenchRequest &R : S.Passes[P])
        std::printf("pass=%zu %s\n", P, R.describe().c_str());
    return 0;
  }
  bool Served = A.Workload == "served-session";
  // Set up five times and report the median; the last set-up runs. The
  // traced run reports no set-up time and sets up once.
  std::vector<double> SetupTimes;
  std::unique_ptr<Prepared> P;
  for (unsigned Rep = 0; Rep != (A.Trace ? 1u : 5u); ++Rep) {
    P.reset();
    int64_t T0 = SpanRecorder::nowNs();
    P = setUp(A, Nproc, Served, Err);
    if (!P) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return 2;
    }
    SetupTimes.push_back(since(T0));
  }
  if (A.Trace)
    return runTraced(A, *P, Nproc);
  RunResult R = runUntraced(*P, A.Seconds, Served);
  return reportUntraced(A, *P, R, SetupTimes);
}
