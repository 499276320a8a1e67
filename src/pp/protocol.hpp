// The population protocol model (paper Section 3).
//
// A population protocol is a tuple PP = (Q, delta, I, O): finite states Q,
// pairwise transitions delta ⊆ Q^4 written (q, r -> q', r'), input states I
// and accepting states O. A configuration is a multiset over Q; C -> C' if
// C = C' or some transition applies. A fair run stabilises to b if from some
// point on every configuration has output b (output true = all agents in O,
// output false = no agent in O).
//
// States are dense uint32 indices with a parallel name table, so protocols
// produced by the compiler (hundreds of states, many thousands of
// transitions) stay cheap to simulate and hash.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace ppde::isa {
class CompiledProtocol;
}  // namespace ppde::isa

namespace ppde::pp {

using State = std::uint32_t;

/// A pairwise transition (q, r -> q2, r2). The pair is ordered: q is the
/// initiator, r the responder, matching the paper's convention.
struct Transition {
  State q = 0;
  State r = 0;
  State q2 = 0;
  State r2 = 0;

  friend bool operator==(const Transition&, const Transition&) = default;

  /// True if the transition does not change any state.
  bool is_silent() const { return q == q2 && r == r2; }
};

/// A population protocol. Build with add_state/add_transition/...; call
/// finalize() before simulation or verification (it builds the pair index).
class Protocol {
 public:
  /// Create a state with a (unique) diagnostic name; returns its index.
  State add_state(std::string name);

  /// Look up a state by name; throws std::out_of_range if absent.
  State state(const std::string& name) const;

  /// Returns the state named `name` if present.
  std::optional<State> find_state(const std::string& name) const;

  void add_transition(State q, State r, State q2, State r2);

  void mark_input(State q);
  void mark_accepting(State q);

  std::size_t num_states() const { return names_.size(); }
  std::size_t num_transitions() const { return transitions_.size(); }
  const std::string& name(State q) const { return names_[q]; }
  const std::vector<State>& input_states() const { return input_states_; }
  bool is_accepting(State q) const { return accepting_[q] != 0; }
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Lower the protocol into its compiled tables (isa::CompiledProtocol)
  /// and validate all indices. Must be called once after construction;
  /// add_* calls afterwards throw.
  void finalize();
  bool finalized() const { return finalized_; }

  /// The compiled tables — the single source of truth for pair activity,
  /// pair positions and candidate cells. Requires finalize().
  const isa::CompiledProtocol& compiled() const { return *compiled_; }

  /// Human-readable dump (for goldens and debugging).
  std::string describe() const;

  /// Graphviz rendering: states as nodes (accepting = doubled border,
  /// input = bold), transitions as labelled edges q -> q2 ("with r -> r2").
  /// Intended for small protocols; emits at most `max_transitions` edges.
  std::string to_dot(std::size_t max_transitions = 500) const;

  /// Stable structural hash of (|Q|, delta, I, O) — state *indices*, not
  /// names, so two protocols built the same way hash equal regardless of
  /// diagnostic labels. SMC certificates (S23) embed it so a certificate
  /// can be matched against the protocol it talks about.
  std::uint64_t fingerprint() const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, State> index_by_name_;
  std::vector<Transition> transitions_;
  std::vector<State> input_states_;
  std::vector<std::uint8_t> accepting_;
  std::shared_ptr<const isa::CompiledProtocol> compiled_;
  bool finalized_ = false;
};

}  // namespace ppde::pp
