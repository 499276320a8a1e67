// Trial-batch worker process (S25).
//
// A worker is a single-threaded process that serves `batch` ops on one
// socket: build (and cache) the Czerner protocol conversion for the
// requested n, run trials [first, first + count) with globally derived
// seeds (engine::derive_trial_seed against the query's master seed), and
// reply with ordered per-trial records — or, when a `cancel` op arrives
// mid-batch, with the prefix finished so far (the worker checks for one
// between trials). Workers hold *no* statistical
// state — the coordinator folds (smc/partial.hpp) — so a worker can die
// at any point and its ranges are simply re-run elsewhere: outcomes are
// pure functions of (trial, seed), so the replacement results are
// identical and the certificate digest is unaffected.
//
// Local workers are forked over a socketpair by serve::Supervisor before
// the daemon spawns any thread; remote workers run `ppde worker --port=P`
// and speak the identical frame protocol over TCP.
#pragma once

#include <cstdint>

namespace ppde::serve {

/// Serve batch requests on `fd` until an exit op or EOF. Returns true if
/// terminated by an explicit exit op (false: the peer just closed). A
/// cancel outside a batch is stale and dropped; any frame other than a
/// cancel during a batch throws.
/// Errors propagate as exceptions — a forked worker turns them into a
/// nonzero _exit, which the supervisor observes as a death.
bool worker_main(int fd);

/// Remote worker: listen on 0.0.0.0:`port`, serve one connection at a
/// time until a connection ends with an explicit exit op. Returns 0, or 1
/// if the socket cannot be opened.
int worker_listen(std::uint16_t port);

}  // namespace ppde::serve
