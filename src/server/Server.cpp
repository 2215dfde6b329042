//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "server/Version.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

using namespace algspec;
using namespace algspec::server;

Server::Server(ServerOptions Opts)
    : Opts(std::move(Opts)),
      NumWorkers(this->Opts.Workers
                     ? this->Opts.Workers
                     : std::max(1u, std::thread::hardware_concurrency())),
      Cache(this->Opts.CacheMaxEntries, NumWorkers) {}

Server::~Server() {
  requestStop();
  wait();
  if (StopPipe[0] >= 0)
    ::close(StopPipe[0]);
  if (StopPipe[1] >= 0)
    ::close(StopPipe[1]);
}

Result<void> Server::start() {
  if (Opts.Listen.empty())
    return makeError("serve needs at least one --listen address");
  if (::pipe(StopPipe) != 0)
    return makeError("cannot create stop pipe");
  for (const SocketAddress &Addr : Opts.Listen) {
    // Announce the *bound* address: for tcp port 0 the resolved
    // ephemeral port, not the requested one, is the useful fact.
    SocketAddress Bound = Addr;
    if (Addr.AddrKind == SocketAddress::Kind::Unix) {
      Result<Socket> L = listenUnix(Addr.Path);
      if (!L)
        return L.error();
      UnixPaths.push_back(Addr.Path);
      Listeners.push_back(L.take());
    } else {
      int Port = 0;
      Result<Socket> L = listenTcp(Addr.Host, Addr.Port, &Port);
      if (!L)
        return L.error();
      if (BoundPort == 0)
        BoundPort = Port;
      Bound.Port = Port;
      Listeners.push_back(L.take());
    }
    if (Opts.Verbose)
      std::fprintf(stderr, "algspec serve: listening on %s\n",
                   Bound.str().c_str());
  }
  for (size_t I = 0; I != NumWorkers; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
  Acceptor = std::thread([this] { acceptorLoop(); });
  return Result<void>();
}

void Server::requestStop() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Draining)
      return;
    Draining = true;
  }
  QueueCv.notify_all();
  // Wake the acceptor; a full pipe is fine, one byte suffices.
  if (StopPipe[1] >= 0) {
    unsigned char Byte = 1;
    [[maybe_unused]] ssize_t N = ::write(StopPipe[1], &Byte, 1);
  }
  // Readers blocked in recv() wake with EOF; their connections stay
  // writable so queued responses still go out.
  std::lock_guard<std::mutex> Lock(ThreadsMutex);
  for (const std::shared_ptr<Connection> &Conn : Connections)
    Conn->Sock.shutdownRead();
}

void Server::wait() {
  if (WaitCompleted.exchange(true))
    return;
  if (Acceptor.joinable())
    Acceptor.join();
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ThreadsMutex);
    ToJoin.swap(Readers);
  }
  for (std::thread &T : ToJoin)
    if (T.joinable())
      T.join();
  for (std::thread &T : Workers)
    if (T.joinable())
      T.join();
  Workers.clear();
  Listeners.clear();
  for (const std::string &Path : UnixPaths)
    ::unlink(Path.c_str());
  UnixPaths.clear();
  {
    std::lock_guard<std::mutex> Lock(ThreadsMutex);
    Connections.clear();
  }
  if (Opts.Verbose)
    std::fprintf(stderr, "algspec serve: drained, exiting\n");
}

//===----------------------------------------------------------------------===//
// Acceptor
//===----------------------------------------------------------------------===//

void Server::acceptorLoop() {
  while (true) {
    std::vector<pollfd> Fds;
    for (const Socket &L : Listeners)
      Fds.push_back({L.fd(), POLLIN, 0});
    Fds.push_back({StopPipe[0], POLLIN, 0});
    if (Opts.WatchSignals && SignalWatcher::fd() >= 0)
      Fds.push_back({SignalWatcher::fd(), POLLIN, 0});

    int N = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), -1);
    if (N < 0)
      continue; // EINTR: re-poll; the signal pipe carries the intent.

    size_t ListenerCount = Listeners.size();
    if (Fds[ListenerCount].revents != 0)
      return; // Stop pipe: requestStop() already flipped Draining.
    if (Fds.size() > ListenerCount + 1 &&
        Fds[ListenerCount + 1].revents != 0) {
      (void)SignalWatcher::take();
      requestStop();
      return;
    }
    for (size_t I = 0; I != ListenerCount; ++I) {
      if (Fds[I].revents == 0)
        continue;
      Result<Socket> Accepted = acceptSocket(Listeners[I]);
      if (!Accepted)
        continue;
      ++ConnectionsAccepted;
      auto Conn = std::make_shared<Connection>(Accepted.take());
      {
        std::lock_guard<std::mutex> Lock(ThreadsMutex);
        Connections.push_back(Conn);
        Readers.emplace_back([this, Conn] { readerLoop(Conn); });
      }
      // A connection accepted while the drain was starting may have
      // missed requestStop()'s shutdown sweep; re-check so its reader
      // cannot block in recv() forever and hang the join.
      bool IsDraining;
      {
        std::lock_guard<std::mutex> Lock(QueueMutex);
        IsDraining = Draining;
      }
      if (IsDraining)
        Conn->Sock.shutdownRead();
    }
  }
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

void Server::respond(Connection &Conn, std::string_view Frame) {
  std::lock_guard<std::mutex> Lock(Conn.WriteMutex);
  // A peer that disconnected mid-request just loses the response; the
  // reader observes the close independently.
  (void)sendAll(Conn.Sock, Frame);
}

void Server::handleControl(Connection &Conn, const Request &Req) {
  if (Req.Type == "hello") {
    JsonWriter W(/*Compact=*/true);
    W.beginObject();
    W.key("type").value("hello");
    W.key("version").value(gitVersion());
    W.key("build").value(buildType());
    W.key("engine").value(defaultEngineName());
    W.key("workers").value(static_cast<uint64_t>(NumWorkers));
    W.key("queueMax").value(static_cast<uint64_t>(Opts.QueueMax));
    W.key("maxFrameBytes").value(static_cast<uint64_t>(Opts.MaxFrameBytes));
    W.endObject();
    std::string Frame = W.str() + "\n";
    if (!Req.IdJson.empty()) {
      // Splice the echoed id in after the brace (the writer cannot
      // emit raw JSON).
      Frame.insert(1, "\"id\": " + Req.IdJson + ", ");
    }
    respond(Conn, Frame);
    return;
  }
  // stats.
  ServerStatsSnapshot S = statsSnapshot();
  JsonWriter W(/*Compact=*/true);
  W.beginObject();
  W.key("type").value("stats");
  W.key("connectionsAccepted").value(S.ConnectionsAccepted);
  W.key("requestsServed").value(S.RequestsServed);
  W.key("requestsRejected").value(S.RequestsRejected);
  W.key("deadlinesExpired").value(S.DeadlinesExpired);
  W.key("protocolErrors").value(S.ProtocolErrors);
  W.key("queueDepth").value(S.QueueDepth);
  W.key("queueHighWater").value(S.QueueHighWater);
  W.key("cache").beginObject();
  W.key("hits").value(S.Cache.Hits);
  W.key("misses").value(S.Cache.Misses);
  W.key("evictions").value(S.Cache.Evictions);
  W.key("elaborations").value(S.Cache.Elaborations);
  W.endObject();
  W.key("engine").beginObject();
  W.key("steps").value(S.Engine.Steps);
  W.key("cacheHits").value(S.Engine.CacheHits);
  W.key("cacheMisses").value(S.Engine.CacheMisses);
  W.key("evictions").value(S.Engine.Evictions);
  W.key("rebuilds").value(S.Engine.Rebuilds);
  W.key("matchAttempts").value(S.Engine.MatchAttempts);
  W.key("automatonVisits").value(S.Engine.AutomatonVisits);
  W.key("arenaTerms").value(S.Engine.ArenaTerms);
  W.key("arenaHighWater").value(S.Engine.ArenaHighWater);
  W.key("arenaTruncations").value(S.Engine.ArenaTruncations);
  W.key("arenaTermsFreed").value(S.Engine.ArenaTermsFreed);
  W.key("arenaBytesFreed").value(S.Engine.ArenaBytesFreed);
  W.key("egraph").beginObject();
  W.key("classes").value(S.Engine.EGraphClasses);
  W.key("nodes").value(S.Engine.EGraphNodes);
  W.key("merges").value(S.Engine.EGraphMerges);
  W.key("rebuilds").value(S.Engine.EGraphRebuilds);
  W.endObject();
  W.endObject();
  W.key("arena").beginObject();
  W.key("truncations").value(S.Arena.Truncations);
  W.key("termsFreed").value(S.Arena.TermsFreed);
  W.key("bytesFreed").value(S.Arena.BytesFreed);
  W.key("highWaterTerms").value(S.Arena.HighWaterTerms);
  W.endObject();
  W.endObject();
  std::string Frame = W.str() + "\n";
  if (!Req.IdJson.empty())
    Frame.insert(1, "\"id\": " + Req.IdJson + ", ");
  respond(Conn, Frame);
}

void Server::releaseConnection(const std::shared_ptr<Connection> &Conn) {
  std::lock_guard<std::mutex> Lock(ThreadsMutex);
  auto It = std::find(Connections.begin(), Connections.end(), Conn);
  if (It != Connections.end())
    Connections.erase(It);
}

void Server::readerLoop(std::shared_ptr<Connection> Conn) {
  FrameReader Reader(Opts.MaxFrameBytes);
  std::string Frame;
  while (true) {
    FrameStatus Status = Reader.readFrame(Conn->Sock, Frame);
    if (Status == FrameStatus::Eof)
      break;
    if (Status == FrameStatus::Truncated || Status == FrameStatus::Error) {
      // Peer vanished mid-frame; nobody is left to answer.
      ++ProtocolErrors;
      break;
    }
    if (Status == FrameStatus::Oversized) {
      // The stream is out of sync past an oversized frame; answer,
      // then drop the connection.
      ++ProtocolErrors;
      respond(*Conn,
              encodeErrorResponse(
                  "", ErrorCode::OversizedFrame,
                  "frame exceeds " + std::to_string(Opts.MaxFrameBytes) +
                      " bytes"));
      break;
    }
    if (!isValidUtf8(Frame)) {
      // Frame boundaries are still intact, so the connection survives.
      ++ProtocolErrors;
      respond(*Conn, encodeErrorResponse("", ErrorCode::BadUtf8,
                                         "frame is not valid UTF-8"));
      continue;
    }
    Request Req;
    ProtocolError Err;
    if (!parseRequest(Frame, Req, Err)) {
      ++ProtocolErrors;
      respond(*Conn, encodeErrorResponse(Req.IdJson, Err.Code, Err.Message));
      continue;
    }
    if (isControlRequest(Req.Type)) {
      handleControl(*Conn, Req);
      continue;
    }
    if (Req.Type == "sleep" && !Opts.EnableTestHooks) {
      ++ProtocolErrors;
      respond(*Conn,
              encodeErrorResponse(Req.IdJson, ErrorCode::UnknownType,
                                  "unknown request type 'sleep'"));
      continue;
    }
    if (Req.DeadlineMs == 0)
      Req.DeadlineMs = Opts.DefaultDeadlineMs;

    std::string Reject;
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      if (Draining) {
        Reject = encodeErrorResponse(Req.IdJson, ErrorCode::ShuttingDown,
                                     "server is draining");
      } else if (Queue.size() >= Opts.QueueMax) {
        ++RequestsRejected;
        Reject = encodeErrorResponse(
            Req.IdJson, ErrorCode::Overloaded,
            "queue at high-water mark (" + std::to_string(Opts.QueueMax) +
                " requests)");
      } else {
        Queue.push_back(
            Job{Conn, std::move(Req), std::chrono::steady_clock::now()});
        uint64_t Depth = Queue.size();
        uint64_t Seen = QueueHighWater.load();
        while (Depth > Seen &&
               !QueueHighWater.compare_exchange_weak(Seen, Depth)) {
        }
      }
    }
    if (!Reject.empty()) {
      respond(*Conn, Reject);
      continue;
    }
    QueueCv.notify_one();
  }
  // Drop the server's reference so the socket closes once any queued
  // jobs for this connection have sent their responses: the peer sees
  // EOF, and a long-lived daemon does not accumulate dead descriptors.
  releaseConnection(Conn);
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

void Server::serveJob(size_t WorkerIndex, Job &J) {
  if (J.Req.DeadlineMs > 0) {
    auto Waited = std::chrono::steady_clock::now() - J.Enqueued;
    if (std::chrono::duration_cast<std::chrono::milliseconds>(Waited)
            .count() > J.Req.DeadlineMs) {
      ++DeadlinesExpired;
      respond(*J.Conn,
              encodeErrorResponse(J.Req.IdJson, ErrorCode::DeadlineExceeded,
                                  "request waited past its " +
                                      std::to_string(J.Req.DeadlineMs) +
                                      "ms deadline"));
      return;
    }
  }

  if (J.Req.Type == "sleep") {
    std::this_thread::sleep_for(std::chrono::milliseconds(J.Req.SleepMs));
    CommandResult R;
    // Count before sending: a client that has the response in hand must
    // already see it reflected in a stats request (the stress driver
    // reconciles on exactly this ordering).
    ++RequestsServed;
    respond(*J.Conn,
            encodeCommandResponse(J.Req.IdJson, R, /*CacheHit=*/false));
    return;
  }

  clampToServerLimits(J.Req.Command.Opts, Opts);

  bool CacheHit = false;
  std::shared_ptr<CacheEntry> Entry =
      Cache.acquire(J.Req.Command.Sources, CacheHit);
  std::string LoadError;
  Workspace *WS = workspaceFor(Cache, *Entry, WorkerIndex, LoadError);

  CommandResult R;
  TruncationDelta Freed;
  uint64_t PeakTerms = 0;
  if (!WS) {
    // Exactly the one-shot CLI's behavior for sources that do not load:
    // diagnostics on stderr, exit 1.
    R.ExitCode = 1;
    R.Err = LoadError;
  } else {
    R = dispatchCommand(*WS, J.Req.Command);
    // Free this request's scratch terms. Dispatch renames rule
    // variables apart and normalizes into the workspace arena; without
    // the truncation a warm workspace grows with every request served.
    // Truncating back to the post-elaboration epoch also restores the
    // exact state a one-shot CLI run starts from, which is what keeps
    // warm responses byte-identical to cold ones.
    AlgebraContext &Ctx = WS->context();
    Freed = Ctx.truncateToEpoch(Entry->slotFor(WorkerIndex).BaseEpoch);
    PeakTerms = Ctx.arenaStats().HighWaterTerms;
  }
  {
    std::lock_guard<std::mutex> Lock(EngineMutex);
    Engine += R.Engine;
    if (Freed.TermsFreed || Freed.BytesFreed)
      ++Arena.Truncations;
    Arena.TermsFreed += Freed.TermsFreed;
    Arena.BytesFreed += Freed.BytesFreed;
    Arena.HighWaterTerms = std::max(Arena.HighWaterTerms, PeakTerms);
  }
  ++RequestsServed;
  respond(*J.Conn, encodeCommandResponse(J.Req.IdJson, R, CacheHit));
}

void Server::workerLoop(size_t WorkerIndex) {
  while (true) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [this] { return !Queue.empty() || Draining; });
      if (Queue.empty())
        return; // Draining and nothing left: done.
      J = std::move(Queue.front());
      Queue.pop_front();
    }
    serveJob(WorkerIndex, J);
  }
}

ServerStatsSnapshot Server::statsSnapshot() {
  ServerStatsSnapshot S;
  S.ConnectionsAccepted = ConnectionsAccepted.load();
  S.RequestsServed = RequestsServed.load();
  S.RequestsRejected = RequestsRejected.load();
  S.DeadlinesExpired = DeadlinesExpired.load();
  S.ProtocolErrors = ProtocolErrors.load();
  S.QueueHighWater = QueueHighWater.load();
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    S.QueueDepth = Queue.size();
  }
  S.Cache = Cache.stats();
  {
    std::lock_guard<std::mutex> Lock(EngineMutex);
    S.Engine = Engine;
    S.Arena = Arena;
  }
  return S;
}

void server::clampToServerLimits(CommandOptions &Cmd,
                                 const ServerOptions &Opts) {
  if (Opts.MaxSteps != 0 && (Cmd.MaxSteps == 0 || Cmd.MaxSteps > Opts.MaxSteps))
    Cmd.MaxSteps = Opts.MaxSteps;
  Cmd.Jobs = std::min(Cmd.Jobs, ThreadPool::defaultConcurrency());
}

//===----------------------------------------------------------------------===//
// serveForever
//===----------------------------------------------------------------------===//

Result<void> server::serveForever(ServerOptions Opts) {
  Opts.WatchSignals = true;
  if (Result<void> R = SignalWatcher::install({SIGTERM, SIGINT}); !R)
    return R;
  Server S(std::move(Opts));
  if (Result<void> R = S.start(); !R)
    return R;
  S.wait();
  return Result<void>();
}
