#include "pp/verifier.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "pp/config_domain.hpp"
#include "verify/kernel.hpp"

namespace ppde::pp {

namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

/// Interns one successor. Kept out of line: inlined into expand's pair
/// loop, the interner probe measured 5-8 % slower on the m_regs = 7
/// frontier.
[[gnu::noinline]] void emit_successor(verify::Emitter& emit,
                                      std::span<const u64> words) {
  emit.emit(words);
}

/// Adds `delta` agents to state q of a sparse configuration.
void adjust(std::vector<u64>& sparse, State q, std::int32_t delta) {
  const auto it = std::lower_bound(
      sparse.begin(), sparse.end(), q,
      [](u64 word, State state) { return sparse_state(word) < state; });
  if (it != sparse.end() && sparse_state(*it) == q) {
    const u32 count = static_cast<u32>(
        static_cast<std::int64_t>(sparse_count(*it)) + delta);
    if (count == 0)
      sparse.erase(it);
    else
      *it = sparse_entry(q, count);
  } else {
    sparse.insert(it, sparse_entry(q, static_cast<u32>(delta)));
  }
}

Config to_dense(std::span<const u64> sparse, std::size_t num_states) {
  Config config(num_states);
  for (const u64 entry : sparse)
    config.add(sparse_state(entry), sparse_count(entry));
  return config;
}

/// Outputs of a sparse configuration, mirroring Config::output; in witness
/// mode the output is simply "some accepting agent present".
verify::NodeOutput sparse_output(const Protocol& protocol,
                                 std::span<const u64> sparse,
                                 bool witness_mode) {
  bool any_accepting = false;
  bool any_rejecting = false;
  for (const u64 entry : sparse) {
    (protocol.is_accepting(sparse_state(entry)) ? any_accepting
                                                : any_rejecting) = true;
    if (!witness_mode && any_accepting && any_rejecting)
      return verify::NodeOutput::kMixed;
  }
  return any_accepting ? verify::NodeOutput::kTrue
                       : verify::NodeOutput::kFalse;
}

}  // namespace

std::vector<u64> to_sparse(const Config& config) {
  std::vector<u64> sparse;
  for (State q = 0; q < config.num_states(); ++q)
    if (config[q] != 0) sparse.push_back(sparse_entry(q, config[q]));
  return sparse;
}

void ConfigDomain::expand(std::span<const u64> packed, verify::Emitter& emit,
                          Scratch& scratch) const {
  std::vector<u64>& sparse = scratch.sparse;
  std::vector<u64>& occupied = scratch.occupied;
  std::vector<u32>& occupied_words = scratch.occupied_words;
  codec_.unpack(packed, sparse);
  occupied.resize(compiled_.row_words());
  occupied_words.clear();
  for (const u64 entry : sparse) {
    const State q = sparse_state(entry);
    if (occupied[q / 64] == 0) occupied_words.push_back(q / 64);
    occupied[q / 64] |= u64{1} << (q % 64);
  }
  for (const u64 entry_q : sparse) {
    const State q = sparse_state(entry_q);
    const std::span<const u64> row = compiled_.active_row(q);
    for (const u32 w : occupied_words) {
      for (u64 bits = row[w] & occupied[w]; bits != 0; bits &= bits - 1) {
        const State r = w * 64 + static_cast<State>(std::countr_zero(bits));
        if (r == q && sparse_count(entry_q) < 2) continue;
        fire(q, r, scratch, emit);
      }
    }
  }
  for (const u32 w : occupied_words) occupied[w] = 0;
}

/// Emits one successor per candidate of the active pair (q, r).
void ConfigDomain::fire(State q, State r, Scratch& scratch,
                        verify::Emitter& emit) const {
  std::vector<u64>& next = scratch.next;
  for (const isa::Cell& cell : compiled_.cells(compiled_.entry_of(q, r))) {
    next.assign(scratch.sparse.begin(), scratch.sparse.end());
    if (cell.q2 != q) {
      adjust(next, q, -1);
      adjust(next, cell.q2, +1);
    }
    if (cell.r2 != r) {
      adjust(next, r, -1);
      adjust(next, cell.r2, +1);
    }
    codec_.pack(next, scratch.words);
    emit_successor(emit, scratch.words);
  }
}

Verifier::Verifier(const Protocol& protocol) : protocol_(protocol) {
  if (!protocol.finalized())
    throw std::logic_error("Verifier: protocol not finalized");
}

VerificationResult Verifier::verify(const Config& initial,
                                    const VerifierOptions& options) const {
  verify::KernelOptions kernel_options;
  kernel_options.max_nodes = options.max_configs;
  kernel_options.max_edges = options.max_edges;
  kernel_options.max_bytes = options.max_bytes;
  kernel_options.threads = options.threads;

  const ConfigCodec codec(protocol_.num_states(), initial.total());
  const ConfigDomain domain(protocol_, codec);
  verify::Kernel<ConfigDomain> kernel(domain, kernel_options);
  std::vector<std::vector<u64>> roots(1);
  codec.pack(to_sparse(initial), roots[0]);
  const verify::KernelStats& stats = kernel.run(roots);

  VerificationResult result;
  result.explored_configs = stats.nodes;
  result.explored_edges = stats.edges;
  result.store_bytes = stats.bytes;
  if (!stats.complete) {
    result.verdict = VerificationResult::Verdict::kResourceLimit;
    return result;
  }

  const verify::SccAnalysis analysis = kernel.analyse();
  std::vector<u64> sparse;
  const verify::ConsensusReport report = verify::classify_bottom(
      analysis, kernel.num_nodes(), [&](u32 id) {
        codec.unpack(kernel.state(id), sparse);
        return sparse_output(protocol_, sparse, options.witness_mode);
      });
  result.num_sccs = report.num_sccs;
  result.num_bottom_sccs = report.num_bottom_sccs;

  using Verdict = VerificationResult::Verdict;
  if (report.aggregate_true && report.aggregate_false) {
    result.verdict = Verdict::kDoesNotStabilise;
    codec.unpack(kernel.state(*report.offending_node), sparse);
    result.counterexample = to_dense(sparse, protocol_.num_states());
  } else if (report.aggregate_true) {
    result.verdict = Verdict::kStabilisesTrue;
  } else {
    result.verdict = Verdict::kStabilisesFalse;
  }
  return result;
}

std::string to_string(VerificationResult::Verdict verdict) {
  using Verdict = VerificationResult::Verdict;
  switch (verdict) {
    case Verdict::kStabilisesTrue:
      return "stabilises to true";
    case Verdict::kStabilisesFalse:
      return "stabilises to false";
    case Verdict::kDoesNotStabilise:
      return "does not stabilise";
    case Verdict::kResourceLimit:
      return "resource limit reached";
  }
  return "?";
}

}  // namespace ppde::pp
