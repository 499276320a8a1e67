// The per-n workload a serve process builds once (S25).
#pragma once

#include <cstdint>

#include "bignum/nat.hpp"
#include "compile/to_protocol.hpp"

namespace ppde::serve {

/// What serving construction n needs: the converted protocol, and the
/// statement fields the daemon computes itself (workers never report them
/// — they are options, not observations): the protocol's fingerprint and
/// the threshold k(n) that decides a query's expected output.
struct Statement {
  compile::ProtocolConversion conversion;
  std::uint64_t fingerprint = 0;
  bignum::Nat threshold;
};

/// Construction n's statement, built on first use and kept for the
/// process lifetime; the daemon's runner threads and a worker's batches
/// share it. Concurrent callers for the same n wait for its one build;
/// callers for any other n never do. A build that throws is retried by
/// the next caller. Local workers are forked before the daemon starts any
/// thread, so no fork copies a lock held mid-build.
const Statement& statement(int n);

}  // namespace ppde::serve
