// Converting population machines into population protocols (paper Section
// 7.3 / Appendix B.3, Proposition 16 — completing Theorem 5).
//
// Agents come in two kinds: *register agents* (one agent = one unit of one
// register, states Q) and *pointer agents* (a unique agent per pointer,
// states X^v_s holding the pointer's value v plus a gadget stage s):
//   S_IP    = {none, wait, half}
//   S_{V_x} = {none, done, emit, take, test, true, false}
//   S_X     = {none, done}                        otherwise
// plus one state X_map^i per ordinary assign instruction.
//
// The ⟨elect⟩ transitions bootstrap a unique agent per pointer from an
// arbitrary number of agents in the initial state X_1 (Lemma 15); the
// ⟨move⟩/⟨test⟩/⟨pointer⟩ gadgets execute instructions (Definition 13) by
// letting the IP agent recruit the affected pointer agent; a final output
// broadcast (a ±opinion bit on every state, copied whenever an agent meets
// the OF pointer agent) turns the output flag into a stable consensus.
//
// Because |F| agents end up storing pointers, the protocol decides
// phi'(x) <=> x >= |F| ∧ phi(x - |F|) (Theorem 5's shift).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/interp.hpp"
#include "machine/machine.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"

namespace ppde::compile {

/// Gadget stages. Values index into the per-pointer state blocks; which
/// stages exist depends on the pointer kind (see S_X above).
enum class Stage : std::uint32_t {
  kNone = 0,
  kDone = 1,
  kEmit = 2,
  kTake = 3,
  kTest = 4,
  kTrue = 5,
  kFalse = 6,
  kWait = 1,  // IP only (aliases kDone's slot; IP has its own stage set)
  kHalf = 2,  // IP only
};

struct ConversionOptions {
  /// Apply the output-broadcast wrapper (opinion bit on every state). When
  /// false, the protocol has the bare Q* states and acceptance is witnessed
  /// by the OF pointer agent alone (states OF=true/<stage>): verify with
  /// VerifierOptions::witness_mode. Exact verification of accepting runs is
  /// only tractable in this mode — stale-opinion subsets otherwise blow up
  /// the configuration space exponentially in the population size.
  bool with_broadcast = true;
};

struct ProtocolConversion {
  pp::Protocol protocol;
  std::uint32_t num_pointers = 0;  ///< |F| — Theorem 5's input shift
  bool with_broadcast = true;

  // -- state accessors (valid after conversion) ------------------------------
  pp::State reg_state(machine::RegId reg, bool opinion) const;
  pp::State pointer_state(machine::PtrId pointer, std::uint32_t raw_value,
                          Stage stage, bool opinion) const;
  pp::State map_state(std::uint32_t instr_index, bool opinion) const;
  /// The unique input state (X_1 at its initial value, stage none, opinion
  /// false).
  pp::State input_state() const;

  /// Initial configuration: m agents in the input state.
  pp::Config initial_config(std::uint64_t m) const;

  /// π(C) of Appendix B.3: one agent per pointer at its current value
  /// (stage none) and C(x) agents per register x; all opinions set to
  /// `opinion`.
  pp::Config pi(const machine::MachineState& state, bool opinion) const;

  // -- internals shared with the converter -----------------------------------
  std::uint32_t num_base_states = 0;
  std::vector<std::uint32_t> ptr_offset;       ///< base index per pointer
  std::vector<std::uint32_t> ptr_stage_count;  ///< stages per pointer
  std::vector<std::uint32_t> map_base;         ///< per instr (or kNoMap)
  /// Per pointer, its domain's raw values in domain order (for π).
  std::vector<std::vector<std::uint32_t>> ptr_domain;

  static constexpr std::uint32_t kNoMap = 0xffffffffu;
};

/// Convert a validated machine. The conversion keeps no reference to it.
ProtocolConversion machine_to_protocol(const machine::Machine& machine,
                                       const ConversionOptions& options = {});

/// Number of protocol states the conversion produces, computed without
/// materialising transitions — used by the growth benches for sizes where
/// the full transition relation would be wastefully large:
/// 2 * (|Q| + 3L + 7 * sum |F_V| + 2 * sum |F_other| + #ordinary-assigns).
std::uint64_t conversion_state_count(const machine::Machine& machine);

}  // namespace ppde::compile
