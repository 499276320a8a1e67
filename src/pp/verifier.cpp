#include "pp/verifier.hpp"

#include <bit>
#include <stdexcept>

#include "analysis/reachability.hpp"
#include "isa/exec.hpp"
#include "verify/kernel.hpp"

namespace ppde::pp {

namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

// Sparse configuration: one entry per occupied state, (state << 32) |
// count, sorted by state. Much smaller than the dense count vector for
// compiler-produced protocols, where only ~|F| + a few register states are
// occupied out of hundreds. Expansion works on this form.
constexpr u64 encode(State q, u32 count) {
  return (static_cast<u64>(q) << 32) | count;
}
constexpr State state_of(u64 entry) { return static_cast<State>(entry >> 32); }
constexpr u32 count_of(u64 entry) { return static_cast<u32>(entry); }

/// The kernel's form of a sparse configuration. Each entry packs state and
/// count into two `width`-bit fields; a word holds 64 / (2 * width)
/// entries, the first in its high bits, and a short last word is padded
/// with zero entries, which no occupied state produces (its count is at
/// least 1). Width 16 halves the words whenever every state id and the
/// population fit in 16 bits; width 32 is one entry per word and takes
/// any input. Node ids follow merge order, so the width moves none.
class Codec {
 public:
  Codec(std::size_t num_states, u64 population)
      : width_(num_states <= 0x10000 && population <= 0xffff ? 16 : 32),
        per_word_(32 / width_) {}

  void pack(std::span<const u64> sparse, std::vector<u64>& words) const {
    words.assign((sparse.size() + per_word_ - 1) / per_word_, 0);
    for (std::size_t i = 0; i < sparse.size(); ++i) {
      const u64 entry =
          (static_cast<u64>(state_of(sparse[i])) << width_) |
          count_of(sparse[i]);
      words[i / per_word_] |= entry << shift(i % per_word_);
    }
  }

  void unpack(std::span<const u64> words, std::vector<u64>& sparse) const {
    sparse.clear();
    const u64 field = (u64{1} << width_) - 1;
    for (const u64 word : words) {
      for (unsigned j = 0; j < per_word_; ++j) {
        const u64 entry = word >> shift(j);
        const u32 count = static_cast<u32>(entry & field);
        if (count == 0) break;  // padding
        sparse.push_back(
            encode(static_cast<State>((entry >> width_) & field), count));
      }
    }
  }

 private:
  /// Bit offset of the j-th entry of a word.
  unsigned shift(unsigned j) const { return (per_word_ - 1 - j) * 2 * width_; }

  unsigned width_;
  unsigned per_word_;
};

std::vector<u64> to_sparse(const Config& config) {
  std::vector<u64> sparse;
  for (State q = 0; q < config.num_states(); ++q)
    if (config[q] != 0) sparse.push_back(encode(q, config[q]));
  return sparse;
}

Config to_dense(std::span<const u64> sparse, std::size_t num_states) {
  Config config(num_states);
  for (const u64 entry : sparse) config.add(state_of(entry), count_of(entry));
  return config;
}

/// Interns one successor. Kept out of line: inlined into expand's pair
/// loop, the interner probe measured 5-8 % slower on the m_regs = 7
/// frontier.
[[gnu::noinline]] void emit_successor(verify::Emitter& emit,
                                      std::span<const u64> words) {
  emit.emit(words);
}

/// Successor generator over packed configurations. Only active pairs of
/// occupied states are visited: once per verification every state q gets
/// a word-aligned activity row (bit r set iff (q, r) has a non-silent
/// candidate), and a node ANDs each occupied state's row with its own
/// occupied-state mask, walking the set bits in ascending state order.
/// The pair (q, q) needs at least two agents in q. Meetings expand through
/// the compiled pair table and opcode cells in candidate order (S26),
/// touching only the rewritten side of each pair; successor emission order
/// — and with it every node ID, SCC and counterexample — equals a walk
/// over every ordered pair of present states through
/// Protocol::transitions_for at every thread count.
class ConfigDomain {
 public:
  /// Buffers of one worker, reused across the nodes it expands.
  struct Scratch {
    std::vector<u64> sparse;  ///< the node being expanded
    std::vector<u64> next;    ///< one successor, sparse
    std::vector<u64> words;   ///< one successor, packed
    /// Bit q set iff q is occupied; all zero between nodes.
    std::vector<u64> occupied;
    /// Indices of the nonzero words of `occupied`, ascending.
    std::vector<u32> occupied_words;
  };

  ConfigDomain(const Protocol& protocol, const Codec& codec)
      : compiled_(protocol.compiled()),
        codec_(codec),
        row_words_((protocol.num_states() + 63) / 64),
        rows_(protocol.num_states() * row_words_, 0) {
    for (State q = 0; q < protocol.num_states(); ++q)
      for (const State r : compiled_.partners_of(q))
        rows_[q * row_words_ + r / 64] |= u64{1} << (r % 64);
  }

  void expand(std::span<const u64> packed, verify::Emitter& emit,
              Scratch& scratch) const {
    std::vector<u64>& sparse = scratch.sparse;
    std::vector<u64>& occupied = scratch.occupied;
    std::vector<u32>& occupied_words = scratch.occupied_words;
    codec_.unpack(packed, sparse);
    occupied.resize(row_words_);
    occupied_words.clear();
    for (const u64 entry : sparse) {
      const State q = state_of(entry);
      if (occupied[q / 64] == 0) occupied_words.push_back(q / 64);
      occupied[q / 64] |= u64{1} << (q % 64);
    }
    for (const u64 entry_q : sparse) {
      const State q = state_of(entry_q);
      const u64* row = rows_.data() + q * row_words_;
      for (const u32 w : occupied_words) {
        for (u64 bits = row[w] & occupied[w]; bits != 0; bits &= bits - 1) {
          const State r = w * 64 + static_cast<State>(std::countr_zero(bits));
          if (r == q && count_of(entry_q) < 2) continue;
          fire(q, r, scratch, emit);
        }
      }
    }
    for (const u32 w : occupied_words) occupied[w] = 0;
  }

 private:
  /// Emits one successor per candidate of the active pair (q, r).
  void fire(State q, State r, Scratch& scratch, verify::Emitter& emit) const {
    std::vector<u64>& next = scratch.next;
    for (const isa::Cell& cell : compiled_.cells(compiled_.entry_of(q, r))) {
      next.assign(scratch.sparse.begin(), scratch.sparse.end());
      isa::execute_cell(
          cell, isa::make_policy(
                    [&](u32 q2) {
                      adjust(next, q, -1);
                      adjust(next, q2, +1);
                    },
                    [&](u32 r2) {
                      adjust(next, r, -1);
                      adjust(next, r2, +1);
                    },
                    [&](u32 q2, u32 r2) {
                      adjust(next, q, -1);
                      adjust(next, r, -1);
                      adjust(next, q2, +1);
                      adjust(next, r2, +1);
                    },
                    [] { /* swap leaves the counts unchanged: self-loop */ },
                    [](std::int32_t) {}));
      codec_.pack(next, scratch.words);
      emit_successor(emit, scratch.words);
    }
  }

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
  const Codec& codec_;
  std::size_t row_words_;
  /// Activity rows: bit r of row q, at rows_[q * row_words_ + r / 64].
  std::vector<u64> rows_;
};

/// Outputs of a sparse configuration, mirroring Config::output; in witness
/// mode the output is simply "some accepting agent present".
verify::NodeOutput sparse_output(const Protocol& protocol,
                                 std::span<const u64> sparse,
                                 bool witness_mode) {
  bool any_accepting = false;
  bool any_rejecting = false;
  for (const u64 entry : sparse) {
    (protocol.is_accepting(state_of(entry)) ? any_accepting : any_rejecting) =
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

  const Codec codec(protocol.num_states(), initial.total());
  const ConfigDomain domain(protocol, codec);
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
        return sparse_output(protocol, sparse, options.witness_mode);
      });
  result.num_sccs = report.num_sccs;
  result.num_bottom_sccs = report.num_bottom_sccs;

  using Verdict = VerificationResult::Verdict;
  if (report.aggregate_true && report.aggregate_false) {
    result.verdict = Verdict::kDoesNotStabilise;
    codec.unpack(kernel.state(*report.offending_node), sparse);
    result.counterexample = to_dense(sparse, protocol.num_states());
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
