#include "pp/verifier.hpp"

#include <stdexcept>

#include "analysis/reachability.hpp"
#include "isa/exec.hpp"
#include "verify/kernel.hpp"

namespace ppde::pp {

namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

// Sparse configuration encoding for the kernel: one word per occupied
// state, (state << 32) | count, sorted by state. Much smaller than the
// dense count vector for compiler-produced protocols, where only ~|F| + a
// few register states are occupied out of hundreds.
constexpr u64 encode(State q, u32 count) {
  return (static_cast<u64>(q) << 32) | count;
}
constexpr State state_of(u64 word) { return static_cast<State>(word >> 32); }
constexpr u32 count_of(u64 word) { return static_cast<u32>(word); }

std::vector<u64> to_sparse(const Config& config) {
  std::vector<u64> sparse;
  for (State q = 0; q < config.num_states(); ++q)
    if (config[q] != 0) sparse.push_back(encode(q, config[q]));
  return sparse;
}

Config to_dense(std::span<const u64> sparse, std::size_t num_states) {
  Config config(num_states);
  for (const u64 word : sparse) config.add(state_of(word), count_of(word));
  return config;
}

/// Interns one successor. Kept out of line: inlined into expand's pair
/// loop, the interner probe measured 5-8 % slower on the m_regs = 7
/// frontier.
[[gnu::noinline]] void emit_successor(verify::Emitter& emit,
                                      std::span<const u64> sparse) {
  emit.emit(sparse);
}

/// Successor generator over sparse configurations: iterate over ordered
/// pairs of *present* states and apply each enabled transition. The pair
/// (q, q) needs at least two agents in q. Meetings expand through the
/// compiled pair table and opcode cells in candidate order (S26), touching
/// only the rewritten side of each pair; successor emission order — and
/// with it every node ID, SCC and counterexample — equals a walk over
/// Protocol::transitions_for at every thread count.
class ConfigDomain {
 public:
  explicit ConfigDomain(const Protocol& protocol)
      : compiled_(protocol.compiled()) {}

  void expand(std::span<const u64> sparse, verify::Emitter& emit) const {
    std::vector<u64> scratch;
    for (const u64 word_q : sparse) {
      const State q = state_of(word_q);
      for (const u64 word_r : sparse) {
        const State r = state_of(word_r);
        if (q == r && count_of(word_q) < 2) continue;
        const u32 entry = compiled_.entry_of(q, r);
        if (entry >= isa::CompiledProtocol::kSilentOnly) continue;
        for (const isa::Cell& cell : compiled_.cells(entry)) {
          scratch.assign(sparse.begin(), sparse.end());
          isa::execute_cell(
              cell,
              isa::make_policy(
                  [&](u32 q2) {
                    adjust(scratch, q, -1);
                    adjust(scratch, q2, +1);
                  },
                  [&](u32 r2) {
                    adjust(scratch, r, -1);
                    adjust(scratch, r2, +1);
                  },
                  [&](u32 q2, u32 r2) {
                    adjust(scratch, q, -1);
                    adjust(scratch, r, -1);
                    adjust(scratch, q2, +1);
                    adjust(scratch, r2, +1);
                  },
                  [] { /* swap leaves the counts unchanged: self-loop */ },
                  [](std::int32_t) {}));
          emit_successor(emit, scratch);
        }
      }
    }
  }

 private:
  static void adjust(std::vector<u64>& sparse, State q, std::int32_t delta) {
    const auto it = std::lower_bound(
        sparse.begin(), sparse.end(), q,
        [](u64 word, State state) { return state_of(word) < state; });
    if (it != sparse.end() && state_of(*it) == q) {
      const u32 count = static_cast<u32>(
          static_cast<std::int64_t>(count_of(*it)) + delta);
      if (count == 0)
        sparse.erase(it);
      else
        *it = encode(q, count);
    } else {
      sparse.insert(it, encode(q, static_cast<u32>(delta)));
    }
  }

  const isa::CompiledProtocol& compiled_;
};

/// Outputs of a sparse configuration, mirroring Config::output; in witness
/// mode the output is simply "some accepting agent present".
verify::NodeOutput sparse_output(const Protocol& protocol,
                                 std::span<const u64> sparse,
                                 bool witness_mode) {
  bool any_accepting = false;
  bool any_rejecting = false;
  for (const u64 word : sparse) {
    (protocol.is_accepting(state_of(word)) ? any_accepting : any_rejecting) =
        true;
    if (!witness_mode && any_accepting && any_rejecting)
      return verify::NodeOutput::kMixed;
  }
  return any_accepting ? verify::NodeOutput::kTrue
                       : verify::NodeOutput::kFalse;
}

VerificationResult verify_on(const Protocol& protocol, const Config& initial,
                             const VerifierOptions& options) {
  verify::KernelOptions kernel_options;
  kernel_options.max_nodes = options.max_configs;
  kernel_options.max_edges = options.max_edges;
  kernel_options.max_bytes = options.max_bytes;
  kernel_options.threads = options.threads;

  const ConfigDomain domain(protocol);
  verify::Kernel<ConfigDomain> kernel(domain, kernel_options);
  const std::vector<std::vector<u64>> roots = {to_sparse(initial)};
  const verify::KernelStats& stats = kernel.run(roots);

  VerificationResult result;
  result.explored_configs = stats.nodes;
  result.explored_edges = stats.edges;
  if (!stats.complete) {
    result.verdict = VerificationResult::Verdict::kResourceLimit;
    return result;
  }

  const verify::SccAnalysis analysis = kernel.analyse();
  const verify::ConsensusReport report = verify::classify_bottom(
      analysis, kernel.num_nodes(), [&](u32 id) {
        return sparse_output(protocol, kernel.state(id),
                             options.witness_mode);
      });
  result.num_sccs = report.num_sccs;
  result.num_bottom_sccs = report.num_bottom_sccs;

  using Verdict = VerificationResult::Verdict;
  if (report.aggregate_true && report.aggregate_false) {
    result.verdict = Verdict::kDoesNotStabilise;
    result.counterexample =
        to_dense(kernel.state(*report.offending_node), protocol.num_states());
  } else if (report.aggregate_true) {
    result.verdict = Verdict::kStabilisesTrue;
  } else {
    result.verdict = Verdict::kStabilisesFalse;
  }
  return result;
}

}  // namespace

Verifier::Verifier(const Protocol& protocol) : protocol_(protocol) {
  if (!protocol.finalized())
    throw std::logic_error("Verifier: protocol not finalized");
}

VerificationResult Verifier::verify(const Config& initial,
                                    const VerifierOptions& options) const {
  if (!options.prune) return verify_on(protocol_, initial, options);

  // Explore the pruned state space directly: states no run can occupy are
  // dropped up front (with every transition touching one), so expansions
  // scan a smaller transition relation. The reachable configuration graph
  // is isomorphic to the unpruned one — every state occupied by a
  // reachable configuration is occupiable by definition — so the verdict
  // and all statistics are unchanged; only a counterexample needs mapping
  // back into the original state space.
  const analysis::PrunedProtocol pruned =
      analysis::prune_protocol(protocol_, initial);
  VerificationResult result = verify_on(pruned.protocol, pruned.initial,
                                        options);
  if (result.counterexample) {
    Config original(protocol_.num_states());
    const Config& reduced = *result.counterexample;
    for (State q = 0; q < reduced.num_states(); ++q)
      if (reduced[q] != 0)
        original.add(protocol_.state(pruned.protocol.name(q)), reduced[q]);
    result.counterexample = std::move(original);
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
