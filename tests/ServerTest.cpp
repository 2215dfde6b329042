//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process tests for the `algspec serve` daemon: protocol
/// robustness against malformed frames (oversized, truncated, unknown
/// type, bad UTF-8, mid-request disconnects), byte-identity of served
/// responses against the one-shot CLI command layer, backpressure and
/// deadline handling, workspace-cache behavior, stats reconciliation,
/// and graceful drains with requests still in flight.
///
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Commands.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "server/Version.h"
#include "support/Json.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace algspec;
using namespace algspec::server;

namespace {

ServerOptions tcpOptions() {
  ServerOptions O;
  Result<SocketAddress> A = SocketAddress::parse("tcp:127.0.0.1:0");
  EXPECT_TRUE(bool(A));
  O.Listen.push_back(*A);
  O.Workers = 2;
  O.EnableTestHooks = true;
  return O;
}

/// Starts a server in the fixture's scope and drains it on the way
/// out. Tests must check started() before touching addr().
class LiveServer {
public:
  explicit LiveServer(ServerOptions O) : S(std::move(O)) {
    Result<void> R = S.start();
    Ok = bool(R);
    if (!Ok) {
      Error = R.error().message();
      return;
    }
    Result<SocketAddress> A = SocketAddress::parse(
        "tcp:127.0.0.1:" + std::to_string(S.boundTcpPort()));
    Ok = bool(A);
    if (Ok)
      Addr = *A;
  }

  ~LiveServer() {
    if (Ok) {
      S.requestStop();
      S.wait();
    }
  }

  bool started() const { return Ok; }
  const std::string &startError() const { return Error; }
  const SocketAddress &addr() const { return Addr; }
  Server &server() { return S; }

private:
  Server S;
  SocketAddress Addr;
  bool Ok = false;
  std::string Error;
};

/// One client connection with its own frame reader, for tests that
/// hold a connection across several requests.
struct Conn {
  Socket Sock;
  FrameReader Reader{64u << 20};

  bool connect(const SocketAddress &Addr) {
    Result<Socket> R = connectSocket(Addr);
    if (!R)
      return false;
    Sock = std::move(*R);
    return true;
  }

  Result<WireResponse> rpc(std::string_view Frame) {
    return roundTrip(Sock, Reader, Frame);
  }
};

CommandRequest builtinCommand(std::string_view Command,
                              std::vector<std::string> Builtins) {
  CommandRequest R;
  R.Command = std::string(Command);
  for (const std::string &Name : Builtins)
    R.Sources.push_back({Name + ".alg", std::string(builtinSpecText(Name))});
  R.Opts.Jobs = 1;
  return R;
}

/// Polls the server's stats until \p Pred holds or ~2s pass.
bool waitForStats(
    Server &S,
    const std::function<bool(const ServerStatsSnapshot &)> &Pred) {
  for (int I = 0; I < 400; ++I) {
    if (Pred(S.statsSnapshot()))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Handshake and version stamping
//===----------------------------------------------------------------------===//

TEST(ServerTest, HelloHandshakeReportsBuildIdentity) {
  LiveServer LS(tcpOptions());
  ASSERT_TRUE(LS.started()) << LS.startError();

  Result<WireResponse> R =
      requestOnce(LS.addr(), encodeControlRequest("1", "hello"));
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ(R->Type, "hello");

  Result<JsonValue> Doc = parseJson(R->Raw);
  ASSERT_TRUE(bool(Doc));
  EXPECT_EQ(Doc->get("id")->asInt(), 1);
  EXPECT_EQ(Doc->get("version")->asString(), gitVersion());
  EXPECT_EQ(Doc->get("build")->asString(), buildType());
  EXPECT_EQ(Doc->get("engine")->asString(), defaultEngineName());
  EXPECT_FALSE(Doc->get("version")->asString().empty());
  EXPECT_EQ(Doc->get("workers")->asInt(), 2);
  EXPECT_EQ(Doc->get("queueMax")->asInt(), 64);
}

//===----------------------------------------------------------------------===//
// Byte-identity against the one-shot command layer
//===----------------------------------------------------------------------===//

TEST(ServerTest, ServedResponsesAreByteIdenticalToRunCommand) {
  LiveServer LS(tcpOptions());
  ASSERT_TRUE(LS.started()) << LS.startError();

  std::vector<CommandRequest> Requests;
  CommandRequest Eval = builtinCommand("eval", {"queue"});
  Eval.Opts.TermText = "FRONT(ADD(ADD(NEW, 'a), 'b))";
  Requests.push_back(Eval);
  CommandRequest Lint = builtinCommand("lint", {"bst"});
  Lint.Opts.Json = true;
  Requests.push_back(Lint);
  CommandRequest Analyze = builtinCommand("analyze", {"boundedqueue"});
  Requests.push_back(Analyze);
  CommandRequest Check = builtinCommand("check", {"queue", "symboltable"});
  Requests.push_back(Check);

  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));
  for (const CommandRequest &Req : Requests) {
    CommandResult Expected = runCommand(Req);
    Result<WireResponse> Got = C.rpc(encodeCommandRequest("7", Req));
    ASSERT_TRUE(bool(Got)) << Got.error().message();
    EXPECT_EQ(Got->Type, "response") << Got->Raw;
    EXPECT_EQ(Got->Exit, Expected.ExitCode) << Req.Command;
    EXPECT_EQ(Got->Out, Expected.Out) << Req.Command;
    EXPECT_EQ(Got->Err, Expected.Err) << Req.Command;
  }
}

TEST(ServerTest, EmptySourceListMatchesCliUsageError) {
  LiveServer LS(tcpOptions());
  ASSERT_TRUE(LS.started()) << LS.startError();

  CommandRequest Req;
  Req.Command = "check";
  Req.Opts.Jobs = 1;
  CommandResult Expected = runCommand(Req);

  Result<WireResponse> Got =
      requestOnce(LS.addr(), encodeCommandRequest("", Req));
  ASSERT_TRUE(bool(Got)) << Got.error().message();
  EXPECT_EQ(Got->Type, "response");
  EXPECT_EQ(Got->Exit, Expected.ExitCode);
  EXPECT_EQ(Got->Err, Expected.Err);
  EXPECT_NE(Expected.Err.find("no specs loaded"), std::string::npos);
}

TEST(ServerTest, BrokenSpecMatchesCliDiagnosticsAndCachesTheFailure) {
  LiveServer LS(tcpOptions());
  ASSERT_TRUE(LS.started()) << LS.startError();

  CommandRequest Req;
  Req.Command = "check";
  Req.Sources.push_back({"broken.alg", "spec Broken\n  sorts\nend\n"});
  Req.Opts.Jobs = 1;
  CommandResult Expected = runCommand(Req);
  ASSERT_EQ(Expected.ExitCode, 1);

  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));
  Result<WireResponse> First = C.rpc(encodeCommandRequest("1", Req));
  ASSERT_TRUE(bool(First)) << First.error().message();
  EXPECT_EQ(First->Exit, 1);
  EXPECT_EQ(First->Err, Expected.Err);
  EXPECT_FALSE(First->Cached);

  // The failed load is cached too: same bytes, now a cache hit.
  Result<WireResponse> Second = C.rpc(encodeCommandRequest("2", Req));
  ASSERT_TRUE(bool(Second)) << Second.error().message();
  EXPECT_EQ(Second->Err, Expected.Err);
  EXPECT_TRUE(Second->Cached);
}

TEST(ServerTest, RepeatedWorkspaceIsACacheHit) {
  LiveServer LS(tcpOptions());
  ASSERT_TRUE(LS.started()) << LS.startError();

  CommandRequest Req = builtinCommand("check", {"queue"});
  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));

  Result<WireResponse> First = C.rpc(encodeCommandRequest("1", Req));
  ASSERT_TRUE(bool(First)) << First.error().message();
  EXPECT_FALSE(First->Cached);
  Result<WireResponse> Second = C.rpc(encodeCommandRequest("2", Req));
  ASSERT_TRUE(bool(Second)) << Second.error().message();
  EXPECT_TRUE(Second->Cached);
  EXPECT_EQ(First->Out, Second->Out);

  ServerStatsSnapshot S = LS.server().statsSnapshot();
  EXPECT_EQ(S.Cache.Misses, 1u);
  EXPECT_EQ(S.Cache.Hits, 1u);
  EXPECT_EQ(S.RequestsServed, 2u);
}

TEST(ServerTest, EvictionChurnStaysByteIdenticalAndTruncatesArenas) {
  // A one-entry cache makes every alternation evict the other spec set,
  // so this exercises eviction of entries whose slots served requests
  // moments ago — the shared_ptr pin must keep any in-flight workspace
  // alive, and the per-request truncation must only ever free terms the
  // finished request minted.
  ServerOptions O = tcpOptions();
  O.CacheMaxEntries = 1;
  LiveServer LS(O);
  ASSERT_TRUE(LS.started()) << LS.startError();

  CommandRequest EvalQ = builtinCommand("eval", {"queue"});
  EvalQ.Opts.TermText = "FRONT(ADD(ADD(NEW, 'a), 'b))";
  CommandRequest CheckS = builtinCommand("check", {"symboltable"});
  CommandResult ExpectedEval = runCommand(EvalQ);
  CommandResult ExpectedCheck = runCommand(CheckS);

  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));
  for (int I = 0; I < 8; ++I) {
    const CommandRequest &Req = (I % 2) ? CheckS : EvalQ;
    const CommandResult &Expected = (I % 2) ? ExpectedCheck : ExpectedEval;
    Result<WireResponse> Got =
        C.rpc(encodeCommandRequest(std::to_string(I), Req));
    ASSERT_TRUE(bool(Got)) << Got.error().message();
    EXPECT_EQ(Got->Exit, Expected.ExitCode) << I;
    EXPECT_EQ(Got->Out, Expected.Out) << I;
    EXPECT_EQ(Got->Err, Expected.Err) << I;
  }

  ServerStatsSnapshot S = LS.server().statsSnapshot();
  EXPECT_GT(S.Cache.Evictions, 0u);
  // Every dispatch truncated its workspace back to the post-elaboration
  // epoch, so the arena counters must show real reclamation.
  EXPECT_GT(S.Arena.Truncations, 0u);
  EXPECT_GT(S.Arena.TermsFreed, 0u);
  EXPECT_GT(S.Arena.BytesFreed, 0u);
  EXPECT_GT(S.Arena.HighWaterTerms, 0u);
}

TEST(ServerTest, StressSurvivesConstantEviction) {
  // The concurrent stress driver against a one-entry cache: workers race
  // acquire/evict/elaborate/truncate constantly. The sanitizer CI matrix
  // runs this under ASan and TSan, which is what pins "eviction never
  // frees a workspace a pooled request still holds".
  ServerOptions O = tcpOptions();
  O.CacheMaxEntries = 1;
  LiveServer LS(O);
  ASSERT_TRUE(LS.started()) << LS.startError();

  StressOptions SO;
  SO.Connections = 4;
  SO.RequestsPerConnection = 8;
  Result<StressReport> R = runStress(LS.addr(), SO);
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ(R->Mismatched, 0u) << R->FirstMismatch;
  EXPECT_EQ(R->TransportErrors, 0u);
  EXPECT_TRUE(R->ok());
}

//===----------------------------------------------------------------------===//
// Malformed input: every bad frame is a structured error or a clean
// close, never a crash.
//===----------------------------------------------------------------------===//

TEST(ServerTest, UnknownRequestTypeIsStructuredError) {
  LiveServer LS(tcpOptions());
  ASSERT_TRUE(LS.started()) << LS.startError();

  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));
  Result<WireResponse> R =
      C.rpc("{\"id\": 3, \"type\": \"frobnicate\"}\n");
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ(R->Type, "error");
  EXPECT_EQ(R->ErrorCode, "unknown_type");
  EXPECT_NE(R->ErrorMessage.find("frobnicate"), std::string::npos);

  // The id is echoed even on errors, and the connection survives.
  Result<JsonValue> Doc = parseJson(R->Raw);
  ASSERT_TRUE(bool(Doc));
  EXPECT_EQ(Doc->get("id")->asInt(), 3);
  Result<WireResponse> After = C.rpc(encodeControlRequest("4", "hello"));
  ASSERT_TRUE(bool(After)) << After.error().message();
  EXPECT_EQ(After->Type, "hello");
}

TEST(ServerTest, MalformedJsonAndBadShapesAreStructuredErrors) {
  LiveServer LS(tcpOptions());
  ASSERT_TRUE(LS.started()) << LS.startError();

  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));
  struct Case {
    const char *Frame;
    const char *Code;
  } Cases[] = {
      {"this is not json\n", "parse_error"},
      {"{\"type\": \"check\", \"trailing\": }\n", "parse_error"},
      {"[1, 2, 3]\n", "invalid_request"},
      {"{\"no\": \"type\"}\n", "invalid_request"},
      {"{\"type\": 5}\n", "invalid_request"},
      {"{\"id\": {}, \"type\": \"hello\"}\n", "invalid_request"},
      {"{\"type\": \"check\", \"builtins\": [\"nope\"]}\n",
       "invalid_request"},
      {"{\"type\": \"check\", \"sources\": [\"notanobject\"]}\n",
       "invalid_request"},
  };
  for (const Case &TC : Cases) {
    Result<WireResponse> R = C.rpc(TC.Frame);
    ASSERT_TRUE(bool(R)) << TC.Frame << ": " << R.error().message();
    EXPECT_EQ(R->Type, "error") << TC.Frame;
    EXPECT_EQ(R->ErrorCode, TC.Code) << TC.Frame;
  }

  ServerStatsSnapshot S = LS.server().statsSnapshot();
  EXPECT_EQ(S.ProtocolErrors, sizeof(Cases) / sizeof(Cases[0]));

  // All of that left the connection healthy.
  Result<WireResponse> After = C.rpc(encodeControlRequest("", "hello"));
  ASSERT_TRUE(bool(After)) << After.error().message();
  EXPECT_EQ(After->Type, "hello");
}

TEST(ServerTest, BadUtf8FrameIsRejectedAndConnectionSurvives) {
  LiveServer LS(tcpOptions());
  ASSERT_TRUE(LS.started()) << LS.startError();

  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));
  std::string Frame = "{\"type\": \"\xff\xfe\"}\n";
  Result<WireResponse> R = C.rpc(Frame);
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ(R->Type, "error");
  EXPECT_EQ(R->ErrorCode, "bad_utf8");
  // The error frame itself must be valid UTF-8 and parseable.
  EXPECT_TRUE(isValidUtf8(R->Raw));

  Result<WireResponse> After = C.rpc(encodeControlRequest("", "stats"));
  ASSERT_TRUE(bool(After)) << After.error().message();
  EXPECT_EQ(After->Type, "stats");
}

TEST(ServerTest, OversizedFrameIsAnsweredThenConnectionDropped) {
  ServerOptions O = tcpOptions();
  O.MaxFrameBytes = 256;
  LiveServer LS(std::move(O));
  ASSERT_TRUE(LS.started()) << LS.startError();

  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));
  std::string Big = "{\"type\": \"check\", \"pad\": \"";
  Big.append(1024, 'x');
  Big += "\"}\n";
  Result<WireResponse> R = C.rpc(Big);
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ(R->Type, "error");
  EXPECT_EQ(R->ErrorCode, "oversized_frame");

  // Past an oversized frame the stream is out of sync; the server
  // closes, so the next round trip fails cleanly.
  Result<WireResponse> After = C.rpc(encodeControlRequest("", "hello"));
  EXPECT_FALSE(bool(After));

  // And the server is still fine for everyone else.
  Result<WireResponse> Fresh =
      requestOnce(LS.addr(), encodeControlRequest("", "hello"));
  ASSERT_TRUE(bool(Fresh)) << Fresh.error().message();
  EXPECT_EQ(Fresh->Type, "hello");
}

TEST(ServerTest, MidRequestDisconnectLeavesServerHealthy) {
  LiveServer LS(tcpOptions());
  ASSERT_TRUE(LS.started()) << LS.startError();

  {
    // A frame with no terminating newline, then a hard close.
    Conn C;
    ASSERT_TRUE(C.connect(LS.addr()));
    ASSERT_TRUE(bool(sendAll(C.Sock, "{\"type\": \"che")));
  }

  EXPECT_TRUE(waitForStats(LS.server(), [](const ServerStatsSnapshot &S) {
    return S.ProtocolErrors >= 1;
  }));

  Result<WireResponse> After =
      requestOnce(LS.addr(), encodeControlRequest("", "hello"));
  ASSERT_TRUE(bool(After)) << After.error().message();
  EXPECT_EQ(After->Type, "hello");
}

TEST(ServerTest, SleepHookRequiresTestHooks) {
  ServerOptions O = tcpOptions();
  O.EnableTestHooks = false;
  LiveServer LS(std::move(O));
  ASSERT_TRUE(LS.started()) << LS.startError();

  Result<WireResponse> R =
      requestOnce(LS.addr(), encodeControlRequest("1", "sleep", 10));
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ(R->Type, "error");
  EXPECT_EQ(R->ErrorCode, "unknown_type");
}

//===----------------------------------------------------------------------===//
// Backpressure and deadlines
//===----------------------------------------------------------------------===//

TEST(ServerTest, QueueHighWaterMarkRejectsWithOverloaded) {
  ServerOptions O = tcpOptions();
  O.Workers = 1;
  O.QueueMax = 1;
  LiveServer LS(std::move(O));
  ASSERT_TRUE(LS.started()) << LS.startError();

  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));

  // Occupy the lone worker, then wait until the queue is empty again
  // (the sleep has been dequeued and is running).
  ASSERT_TRUE(bool(sendAll(C.Sock, encodeControlRequest("1", "sleep", 700))));
  ASSERT_TRUE(waitForStats(LS.server(), [](const ServerStatsSnapshot &S) {
    return S.QueueDepth == 0 && S.QueueHighWater >= 1;
  }));

  // One more sleep fills the queue to its high-water mark; the command
  // after it must be rejected immediately, before the sleeps finish.
  ASSERT_TRUE(bool(sendAll(C.Sock, encodeControlRequest("2", "sleep", 50))));
  ASSERT_TRUE(waitForStats(LS.server(), [](const ServerStatsSnapshot &S) {
    return S.QueueDepth == 1;
  }));
  CommandRequest Req = builtinCommand("check", {"queue"});
  ASSERT_TRUE(bool(sendAll(C.Sock, encodeCommandRequest("3", Req))));

  int Responses = 0, Overloaded = 0;
  for (int I = 0; I < 3; ++I) {
    std::string Line;
    ASSERT_EQ(C.Reader.readFrame(C.Sock, Line), FrameStatus::Frame);
    Result<JsonValue> Doc = parseJson(Line);
    ASSERT_TRUE(bool(Doc)) << Line;
    const std::string &Type = Doc->get("type")->asString();
    if (Type == "response") {
      ++Responses;
    } else {
      ++Overloaded;
      EXPECT_EQ(Doc->get("error")->get("code")->asString(), "overloaded");
      EXPECT_EQ(Doc->get("id")->asInt(), 3);
    }
  }
  EXPECT_EQ(Responses, 2);
  EXPECT_EQ(Overloaded, 1);
  EXPECT_EQ(LS.server().statsSnapshot().RequestsRejected, 1u);
}

TEST(ServerTest, DeadlineExpiresWhileQueued) {
  ServerOptions O = tcpOptions();
  O.Workers = 1;
  LiveServer LS(std::move(O));
  ASSERT_TRUE(LS.started()) << LS.startError();

  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));
  ASSERT_TRUE(bool(sendAll(C.Sock, encodeControlRequest("1", "sleep", 400))));
  ASSERT_TRUE(waitForStats(LS.server(), [](const ServerStatsSnapshot &S) {
    return S.QueueDepth == 0 && S.QueueHighWater >= 1;
  }));

  // Queued behind a 400ms sleep with a 50ms deadline: by the time the
  // worker frees up the deadline has long passed.
  CommandRequest Req = builtinCommand("check", {"queue"});
  ASSERT_TRUE(bool(
      sendAll(C.Sock, encodeCommandRequest("2", Req, /*DeadlineMs=*/50))));

  for (int I = 0; I < 2; ++I) {
    std::string Line;
    ASSERT_EQ(C.Reader.readFrame(C.Sock, Line), FrameStatus::Frame);
    Result<JsonValue> Doc = parseJson(Line);
    ASSERT_TRUE(bool(Doc)) << Line;
    if (Doc->get("id")->asInt() != 2)
      continue;
    EXPECT_EQ(Doc->get("type")->asString(), "error");
    EXPECT_EQ(Doc->get("error")->get("code")->asString(),
              "deadline_exceeded");
  }
  EXPECT_EQ(LS.server().statsSnapshot().DeadlinesExpired, 1u);
}

//===----------------------------------------------------------------------===//
// Drain and stress
//===----------------------------------------------------------------------===//

TEST(ServerTest, GracefulDrainFinishesInFlightAndQueuedWork) {
  ServerOptions O = tcpOptions();
  O.Workers = 1;
  LiveServer LS(std::move(O));
  ASSERT_TRUE(LS.started()) << LS.startError();

  Conn C;
  ASSERT_TRUE(C.connect(LS.addr()));
  CommandRequest Req = builtinCommand("check", {"queue"});
  std::string Frames = encodeControlRequest("1", "sleep", 200);
  Frames += encodeCommandRequest("2", Req);
  ASSERT_TRUE(bool(sendAll(C.Sock, Frames)));

  // Sleep in flight, check queued behind it — now start the drain.
  ASSERT_TRUE(waitForStats(LS.server(), [](const ServerStatsSnapshot &S) {
    return S.QueueDepth == 1 && S.RequestsServed == 0;
  }));
  LS.server().requestStop();

  // Both responses still arrive: a drain finishes accepted work.
  for (int I = 0; I < 2; ++I) {
    std::string Line;
    ASSERT_EQ(C.Reader.readFrame(C.Sock, Line), FrameStatus::Frame) << I;
    Result<JsonValue> Doc = parseJson(Line);
    ASSERT_TRUE(bool(Doc)) << Line;
    EXPECT_EQ(Doc->get("type")->asString(), "response") << Line;
    EXPECT_EQ(Doc->get("id")->asInt(), I + 1) << Line;
  }
  std::string Line;
  EXPECT_NE(C.Reader.readFrame(C.Sock, Line), FrameStatus::Frame);

  LS.server().wait();
  EXPECT_EQ(LS.server().statsSnapshot().RequestsServed, 2u);
}

TEST(ServerTest, StressRunMatchesAndReconciles) {
  LiveServer LS(tcpOptions());
  ASSERT_TRUE(LS.started()) << LS.startError();

  StressOptions SO;
  SO.Connections = 2;
  SO.RequestsPerConnection = 4;
  Result<StressReport> R = runStress(LS.addr(), SO);
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ(R->Sent, 8u);
  EXPECT_EQ(R->Matched, 8u);
  EXPECT_EQ(R->Mismatched, 0u) << R->FirstMismatch;
  EXPECT_EQ(R->TransportErrors, 0u);
  EXPECT_TRUE(R->StatsReconciled) << R->StatsDetail;
  EXPECT_TRUE(R->ok());
}

//===----------------------------------------------------------------------===//
// Unix-domain transport
//===----------------------------------------------------------------------===//

TEST(ServerTest, UnixSocketServesAndUnlinksOnShutdown) {
  std::string Path =
      "/tmp/algspec-servertest-" + std::to_string(getpid()) + ".sock";
  std::string Spec = "unix:" + Path;

  {
    ServerOptions O;
    Result<SocketAddress> A = SocketAddress::parse(Spec);
    ASSERT_TRUE(bool(A));
    O.Listen.push_back(*A);
    O.Workers = 2;
    LiveServer LS(std::move(O));
    ASSERT_TRUE(LS.started()) << LS.startError();

    CommandRequest Req = builtinCommand("eval", {"queue"});
    Req.Opts.TermText = "FRONT(ADD(ADD(NEW, 'a), 'b))";
    CommandResult Expected = runCommand(Req);

    Result<WireResponse> Got =
        requestOnce(*A, encodeCommandRequest("\"u-1\"", Req));
    ASSERT_TRUE(bool(Got)) << Got.error().message();
    EXPECT_EQ(Got->Exit, Expected.ExitCode);
    EXPECT_EQ(Got->Out, Expected.Out);
    EXPECT_EQ(Got->Err, Expected.Err);

    Result<JsonValue> Doc = parseJson(Got->Raw);
    ASSERT_TRUE(bool(Doc));
    EXPECT_EQ(Doc->get("id")->asString(), "u-1");
  }

  // The drain removed the socket file.
  EXPECT_NE(access(Path.c_str(), F_OK), 0);
}

//===----------------------------------------------------------------------===//
// Protocol encode/decode round trips (no live server needed)
//===----------------------------------------------------------------------===//

TEST(ServerProtocolTest, CommandRequestRoundTrips) {
  CommandRequest Req = builtinCommand("verify", {"symboltable"});
  Req.Sources.push_back({"impl.alg", "spec X\nend\n"});
  Req.Opts.AbstractSpec = "Symboltable";
  Req.Opts.RepSort = "Stack";
  Req.Opts.PhiName = "PHI";
  Req.Opts.OpMap = {{"INIT", "INIT_R"}, {"ADD", "ADD_R"}};
  Req.Opts.Depth = 4;
  Req.Opts.Json = true;
  Req.Opts.MaxSteps = 1234;

  std::string Frame = encodeCommandRequest("42", Req, /*DeadlineMs=*/250);
  ASSERT_FALSE(Frame.empty());
  EXPECT_EQ(Frame.back(), '\n');
  EXPECT_EQ(Frame.find('\n'), Frame.size() - 1) << "frame must be one line";

  Request Decoded;
  ProtocolError Err;
  ASSERT_TRUE(parseRequest(
      std::string_view(Frame.data(), Frame.size() - 1), Decoded, Err))
      << Err.Message;
  EXPECT_EQ(Decoded.IdJson, "42");
  EXPECT_EQ(Decoded.Type, "verify");
  EXPECT_EQ(Decoded.DeadlineMs, 250);
  ASSERT_EQ(Decoded.Command.Sources.size(), 2u);
  EXPECT_EQ(Decoded.Command.Sources[0].Name, "symboltable.alg");
  EXPECT_EQ(Decoded.Command.Sources[0].Text,
            std::string(builtinSpecText("symboltable")));
  EXPECT_EQ(Decoded.Command.Sources[1].Name, "impl.alg");
  EXPECT_EQ(Decoded.Command.Opts.AbstractSpec, "Symboltable");
  EXPECT_EQ(Decoded.Command.Opts.Depth, 4u);
  EXPECT_EQ(Decoded.Command.Opts.MaxSteps, 1234u);
  EXPECT_TRUE(Decoded.Command.Opts.Json);
  ASSERT_EQ(Decoded.Command.Opts.OpMap.size(), 2u);
  EXPECT_EQ(Decoded.Command.Opts.OpMap[0].first, "INIT");
  EXPECT_EQ(Decoded.Command.Opts.OpMap[0].second, "INIT_R");
}

TEST(ServerProtocolTest, ServerLimitsClampJobsAndFuel) {
  // Only decodes and clamps: no server runs, so no pool is ever started
  // at the requested size.
  CommandRequest Req = builtinCommand("verify", {"queue"});
  Req.Opts.Jobs = 100000;
  Req.Opts.MaxSteps = 1234;
  std::string Frame = encodeCommandRequest("1", Req, /*DeadlineMs=*/0);
  Request Decoded;
  ProtocolError Err;
  ASSERT_TRUE(parseRequest(
      std::string_view(Frame.data(), Frame.size() - 1), Decoded, Err))
      << Err.Message;
  EXPECT_EQ(Decoded.Command.Opts.Jobs, 100000u);

  ServerOptions Opts;
  Opts.MaxSteps = 500;
  clampToServerLimits(Decoded.Command.Opts, Opts);
  EXPECT_EQ(Decoded.Command.Opts.Jobs, ThreadPool::defaultConcurrency());
  EXPECT_EQ(Decoded.Command.Opts.MaxSteps, 500u);

  // Requests already inside the limits pass through; jobs 0 keeps
  // meaning one worker per hardware thread.
  CommandOptions Small;
  Small.Jobs = 1;
  Small.MaxSteps = 100;
  clampToServerLimits(Small, Opts);
  EXPECT_EQ(Small.Jobs, 1u);
  EXPECT_EQ(Small.MaxSteps, 100u);
  CommandOptions Defaults;
  clampToServerLimits(Defaults, Opts);
  EXPECT_EQ(Defaults.Jobs, 0u);
  EXPECT_EQ(Defaults.MaxSteps, 500u);
}

TEST(ServerProtocolTest, ResponsesEscapeEmbeddedNewlines) {
  CommandResult R;
  R.ExitCode = 1;
  R.Out = "line one\nline two\n";
  R.Err = "warn: \"quoted\"\n";
  std::string Frame = encodeCommandResponse("\"x\"", R, /*CacheHit=*/true);
  EXPECT_EQ(Frame.back(), '\n');
  EXPECT_EQ(Frame.find('\n'), Frame.size() - 1) << "frame must be one line";

  Result<JsonValue> Doc =
      parseJson(std::string_view(Frame.data(), Frame.size() - 1));
  ASSERT_TRUE(bool(Doc)) << Doc.error().message();
  EXPECT_EQ(Doc->get("id")->asString(), "x");
  EXPECT_EQ(Doc->get("exit")->asInt(), 1);
  EXPECT_EQ(Doc->get("stdout")->asString(), R.Out);
  EXPECT_EQ(Doc->get("stderr")->asString(), R.Err);
  EXPECT_TRUE(Doc->get("cached")->asBool());
}

TEST(ServerProtocolTest, ErrorCodeNamesAreStable) {
  EXPECT_EQ(errorCodeName(ErrorCode::ParseError), "parse_error");
  EXPECT_EQ(errorCodeName(ErrorCode::InvalidRequest), "invalid_request");
  EXPECT_EQ(errorCodeName(ErrorCode::UnknownType), "unknown_type");
  EXPECT_EQ(errorCodeName(ErrorCode::OversizedFrame), "oversized_frame");
  EXPECT_EQ(errorCodeName(ErrorCode::BadUtf8), "bad_utf8");
  EXPECT_EQ(errorCodeName(ErrorCode::Overloaded), "overloaded");
  EXPECT_EQ(errorCodeName(ErrorCode::DeadlineExceeded), "deadline_exceeded");
  EXPECT_EQ(errorCodeName(ErrorCode::ShuttingDown), "shutting_down");
  EXPECT_EQ(errorCodeName(ErrorCode::Internal), "internal");
}
