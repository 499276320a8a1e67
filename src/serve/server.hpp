// The `ppde serve` daemon (S25).
//
// One process accepts certification and ensemble queries over the framed
// JSON protocol (serve/wire.hpp, serve/proto.hpp), admits them through a
// bounded queue with per-query trial and wall budgets, and fans trial
// batches out to a prefork pool of worker processes (serve/supervisor.hpp)
// plus optional remote `ppde worker` endpoints. Workers ship one
// engine::TrialResult per trial; the daemon checks each reply against the
// range it dispatched, maps the records with smc::outcome_of and replays
// the canonical certification fold via smc::StreamingMerger, so the
// certificate digest is byte-identical to in-process smc::certify under
// any worker count, arrival order, or mid-query worker death (ranges of a
// dead or misreplying worker are re-run on survivors — results are pure
// functions of (trial, seed)). A certify query is dispatched one trial at
// a time, the unit the in-process fleet claims, so each trial is folded
// as soon as its reply lands; an ensemble query, whose every trial is
// needed, goes out in batches of `shard` trials. Once the fold decides,
// or the query's wall budget runs out, every batch still in flight is
// cancelled (serve/proto.hpp) instead of awaited.
//
// Threading: the Supervisor forks its workers in the Server constructor,
// strictly before run() spawns the accept loop and runner threads, because
// fork() from a multithreaded process is only safe up to exec. The accept
// loop parses one request per connection and answers stats/shutdown
// inline; certify/ensemble jobs go to the queue, executed by up to
// `max_active` runner threads that compete for workers through the
// supervisor (a worker serves one batch of one query at a time).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ppde::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; Server::port() reports the bound port either way.
  std::uint16_t port = 0;
  unsigned workers = 2;  ///< local forked worker processes
  std::vector<std::string> remote_workers;
  unsigned max_active = 2;    ///< concurrently executing queries
  unsigned queue_limit = 16;  ///< admission bound (beyond active)
  /// Admission control: a query asking for more trials is rejected.
  std::uint64_t max_trials_cap = 1u << 20;
  /// Per-query wall budget; an exceeded query returns an error (its
  /// in-flight batches are cancelled, no partial certificate is emitted).
  double max_query_seconds = 600.0;
  /// Default trials per dispatched ensemble batch (a query's `shard`
  /// overrides); certify queries dispatch one trial at a time.
  std::uint64_t shard = 8;
  /// Test hook (CI killed-worker scenario): SIGKILL one local worker after
  /// this many batches have been dispatched process-wide. 0 = never.
  std::uint64_t kill_worker_after = 0;
  /// Prometheus scrape endpoint (S29): -1 = disabled, 0 = ephemeral
  /// (Server::prom_port() reports the bound port), N = fixed port. A
  /// single-threaded HTTP listener serving GET /metrics on 127.0.0.1.
  std::int32_t prom_port = -1;
  /// Flight-recorder capacity: how many recent query records `stats`
  /// with `recent=N` can reach back over.
  std::size_t flight_capacity = 128;
};

class Server {
 public:
  /// Forks the worker pool and binds the listening socket — so port() is
  /// known before run(), and no thread exists yet when fork() happens.
  /// Throws std::runtime_error if the socket or every worker fails.
  explicit Server(const ServerOptions& options);
  ~Server();

  std::uint16_t port() const;

  /// The bound Prometheus scrape port, or 0 when disabled.
  std::uint16_t prom_port() const;

  /// Serve until request_stop(). Ignores SIGPIPE for the whole process
  /// (worker deaths surface as EPIPE write errors, not signals).
  void run();

  /// Stop accepting, finish active queries, return from run(). Safe from
  /// any thread (e.g. a SignalWatch callback).
  void request_stop();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ppde::serve
