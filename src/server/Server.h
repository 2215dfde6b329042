//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `algspec serve` daemon: accepts connections on TCP and/or
/// Unix-domain listeners, reads newline-delimited JSON request frames,
/// and dispatches the one-shot CLI subcommands against cached
/// pre-elaborated workspaces.
///
/// Thread structure:
///
///   acceptor ──────── polls the listeners, a stop pipe, and (for the
///                     CLI) the SIGTERM/SIGINT self-pipe
///   1 reader / conn ─ frames, validates, parses; answers control
///                     requests (hello, stats) inline and enqueues
///                     command requests
///   N workers ─────── dequeue, resolve a per-worker cached workspace,
///                     dispatch, write the response under the
///                     connection's write lock
///
/// Backpressure is immediate: a command arriving while the queue sits
/// at its high-water mark is answered with an `overloaded` error, never
/// buffered. Shutdown is a drain: stop accepting, shut down the read
/// side of every connection, finish everything already queued, then
/// join all threads and return — the CLI then exits 0.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_SERVER_SERVER_H
#define ALGSPEC_SERVER_SERVER_H

#include "server/Protocol.h"
#include "server/WorkspaceCache.h"
#include "support/Socket.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace algspec {
namespace server {

struct ServerOptions {
  /// Listen addresses; at least one is required.
  std::vector<SocketAddress> Listen;
  /// Worker threads; 0 = hardware concurrency.
  unsigned Workers = 0;
  /// Queue high-water mark: command requests beyond this many queued
  /// jobs are rejected with `overloaded`.
  size_t QueueMax = 64;
  /// Hard bound on one request frame's size in bytes.
  size_t MaxFrameBytes = 4u << 20;
  /// Workspace-cache capacity in distinct source sets.
  size_t CacheMaxEntries = 16;
  /// Server-side fuel cap applied to every request's engine (clamps the
  /// request's own maxSteps); 0 = engine default.
  uint64_t MaxSteps = 0;
  /// Default per-request queue-wait deadline when the request carries
  /// none; 0 = none.
  int64_t DefaultDeadlineMs = 0;
  /// Accept "sleep" requests (in-process tests and the bench load
  /// generator only; `algspec serve` never sets this).
  bool EnableTestHooks = false;
  /// Watch SIGTERM/SIGINT and drain on delivery (the CLI path; tests
  /// stop the server programmatically instead).
  bool WatchSignals = false;
  /// Announce listeners and shutdown on stderr.
  bool Verbose = false;
};

/// Cumulative arena accounting across the per-request truncations of
/// every cached workspace (each served command truncates its worker's
/// workspace back to the post-elaboration epoch).
struct ServerArenaStats {
  uint64_t Truncations = 0; ///< Request truncations that freed anything.
  uint64_t TermsFreed = 0;  ///< Term nodes those truncations released.
  uint64_t BytesFreed = 0;  ///< Arena bytes those truncations released.
  /// Largest peak live term count any workspace context ever reached.
  uint64_t HighWaterTerms = 0;
};

/// A point-in-time copy of the live counters, as reported by the
/// `stats` request.
struct ServerStatsSnapshot {
  uint64_t ConnectionsAccepted = 0;
  uint64_t RequestsServed = 0;   ///< Command/sleep responses sent.
  uint64_t RequestsRejected = 0; ///< `overloaded` rejections.
  uint64_t DeadlinesExpired = 0; ///< `deadline_exceeded` responses.
  uint64_t ProtocolErrors = 0;   ///< Malformed frames answered or dropped.
  uint64_t QueueDepth = 0;       ///< Jobs queued right now.
  uint64_t QueueHighWater = 0;   ///< Largest depth observed.
  CacheStats Cache;
  /// Engine counters aggregated over every served request (including
  /// each request's own worker replicas when it asked for jobs > 1).
  EngineStats Engine;
  ServerArenaStats Arena;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds every listener and spawns the acceptor and worker threads.
  Result<void> start();

  /// Begins a graceful drain; idempotent and safe from any thread.
  void requestStop();

  /// Blocks until the drain completes and every thread is joined.
  void wait();

  /// The port the first TCP listener actually bound (for port 0).
  int boundTcpPort() const { return BoundPort; }

  ServerStatsSnapshot statsSnapshot();

private:
  struct Connection {
    explicit Connection(Socket S) : Sock(std::move(S)) {}
    Socket Sock;
    std::mutex WriteMutex;
  };

  struct Job {
    std::shared_ptr<Connection> Conn;
    Request Req;
    std::chrono::steady_clock::time_point Enqueued;
  };

  void acceptorLoop();
  void readerLoop(std::shared_ptr<Connection> Conn);
  void workerLoop(size_t WorkerIndex);

  /// Drops the server's reference to a connection whose reader has
  /// exited; the socket closes once the last queued job releases it.
  void releaseConnection(const std::shared_ptr<Connection> &Conn);

  /// Sends one frame under the connection's write lock; a vanished peer
  /// is ignored (the reader will see the close and clean up).
  void respond(Connection &Conn, std::string_view Frame);

  void handleControl(Connection &Conn, const Request &Req);
  void serveJob(size_t WorkerIndex, Job &J);

  ServerOptions Opts;
  unsigned NumWorkers = 1;
  WorkspaceCache Cache;

  std::vector<Socket> Listeners;
  std::vector<std::string> UnixPaths; ///< Unlinked after shutdown.
  int BoundPort = 0;
  int StopPipe[2] = {-1, -1};

  std::thread Acceptor;
  std::vector<std::thread> Workers;

  std::mutex ThreadsMutex;
  std::vector<std::thread> Readers;
  std::vector<std::shared_ptr<Connection>> Connections;

  std::mutex QueueMutex;
  std::condition_variable QueueCv;
  std::deque<Job> Queue;
  bool Draining = false;
  std::atomic<bool> WaitCompleted{false};

  std::atomic<uint64_t> ConnectionsAccepted{0};
  std::atomic<uint64_t> RequestsServed{0};
  std::atomic<uint64_t> RequestsRejected{0};
  std::atomic<uint64_t> DeadlinesExpired{0};
  std::atomic<uint64_t> ProtocolErrors{0};
  std::atomic<uint64_t> QueueHighWater{0};

  std::mutex EngineMutex;
  EngineStats Engine;
  ServerArenaStats Arena; ///< Guarded by EngineMutex.
};

/// Applies the server-wide caps to one request's options before dispatch:
/// the engine fuel never exceeds \p Opts' MaxSteps, and the worker count
/// never exceeds the machine's hardware threads. A thread pool starts all
/// of its threads up front, so without the clamp one frame could make the
/// daemon start any number of them. Reports are byte-identical at any job
/// count, so the clamp never changes a response.
void clampToServerLimits(CommandOptions &Cmd, const ServerOptions &Opts);

/// The CLI entry point: start, announce, block until SIGTERM/SIGINT,
/// drain, return. Returns an error only for startup failures.
Result<void> serveForever(ServerOptions Opts);

} // namespace server
} // namespace algspec

#endif // ALGSPEC_SERVER_SERVER_H
