#include "compile/to_protocol.hpp"

#include <stdexcept>
#include <unordered_map>

namespace ppde::compile {

namespace {

using machine::Instr;
using machine::Machine;
using machine::PtrId;
using machine::RegId;

constexpr std::uint32_t kStagesIp = 3;
constexpr std::uint32_t kStagesV = 7;
constexpr std::uint32_t kStagesPlain = 2;

const char* stage_name(std::uint32_t stage, bool is_ip) {
  static const char* kV[] = {"none", "done", "emit", "take",
                             "test", "true", "false"};
  static const char* kIp[] = {"none", "wait", "half"};
  return is_ip ? kIp[stage] : kV[stage];
}

class Converter {
 public:
  Converter(const Machine& machine, const ConversionOptions& options)
      : m_(machine), broadcast_(options.with_broadcast) {
    machine.validate();
  }

  ProtocolConversion convert() {
    layout_states();
    create_states();
    emit_elect();
    emit_stage_transitions();
    for (std::uint32_t i = 0; i < m_.instrs.size(); ++i) emit_instruction(i);
    if (broadcast_) {
      emit_of_broadcast();
      out_.protocol.mark_input(input_state_base() * 2 + 0);
      for (std::uint32_t base = 0; base < out_.num_base_states; ++base)
        out_.protocol.mark_accepting(static_cast<pp::State>(base * 2 + 1));
    } else {
      out_.protocol.mark_input(input_state_base());
      // Witness acceptance: the OF pointer agent holding value true.
      for (std::uint32_t stage = 0; stage < kStagesPlain; ++stage)
        out_.protocol.mark_accepting(ptr_base(m_.of, 1, stage));
    }
    out_.protocol.finalize();
    out_.num_pointers = static_cast<std::uint32_t>(m_.num_pointers());
    out_.with_broadcast = broadcast_;
    for (const machine::Pointer& pointer : m_.pointers)
      out_.ptr_domain.push_back(pointer.domain);
    return std::move(out_);
  }

 private:
  // -- layout -----------------------------------------------------------------

  bool is_v_pointer(PtrId p) const {
    if (p == m_.v_square) return true;
    for (PtrId v : m_.v_reg)
      if (v == p) return true;
    return false;
  }

  std::uint32_t stages_of(PtrId p) const {
    if (p == m_.ip) return kStagesIp;
    return is_v_pointer(p) ? kStagesV : kStagesPlain;
  }

  void layout_states() {
    std::uint32_t next = static_cast<std::uint32_t>(m_.num_registers());
    out_.ptr_offset.resize(m_.num_pointers());
    out_.ptr_stage_count.resize(m_.num_pointers());
    value_index_.resize(m_.num_pointers());
    for (PtrId p = 0; p < m_.num_pointers(); ++p) {
      out_.ptr_offset[p] = next;
      out_.ptr_stage_count[p] = stages_of(p);
      const auto& domain = m_.pointers[p].domain;
      for (std::uint32_t i = 0; i < domain.size(); ++i)
        value_index_[p][domain[i]] = i;
      next += static_cast<std::uint32_t>(domain.size()) * stages_of(p);
    }
    out_.map_base.assign(m_.instrs.size(), ProtocolConversion::kNoMap);
    for (std::uint32_t i = 0; i < m_.instrs.size(); ++i) {
      const Instr& instr = m_.instrs[i];
      if (instr.kind == Instr::Kind::kAssign && instr.target != m_.ip &&
          instr.target != instr.source) {
        out_.map_base[i] = next++;
      }
    }
    out_.num_base_states = next;

    // Election order: all pointers, IP last (Appendix B.3 requires
    // X_{|F|} = IP).
    for (PtrId p = 0; p < m_.num_pointers(); ++p)
      if (p != m_.ip) elect_order_.push_back(p);
    elect_order_.push_back(m_.ip);
  }

  std::uint32_t ptr_base(PtrId p, std::uint32_t raw_value,
                         std::uint32_t stage) const {
    return out_.ptr_offset[p] +
           value_index_[p].at(raw_value) * out_.ptr_stage_count[p] + stage;
  }

  std::uint32_t input_state_base() const {
    const PtrId first = elect_order_.front();
    return ptr_base(first, m_.pointers[first].initial, 0);
  }

  /// Is `base` a pointer state of `p`? If so, return its value index.
  bool pointer_value_of(std::uint32_t base, PtrId p,
                        std::uint32_t* value_index) const {
    const std::uint32_t offset = out_.ptr_offset[p];
    const std::uint32_t span =
        static_cast<std::uint32_t>(m_.pointers[p].domain.size()) *
        out_.ptr_stage_count[p];
    if (base < offset || base >= offset + span) return false;
    *value_index = (base - offset) / out_.ptr_stage_count[p];
    return true;
  }

  // -- state creation -----------------------------------------------------------

  void create_states() {
    // With broadcast, realized state id = 2 * base + opinion; without, the
    // realized id equals the base id. add_state order guarantees both.
    auto add_both = [this](const std::string& name) {
      if (!broadcast_) {
        out_.protocol.add_state(name);
        return;
      }
      out_.protocol.add_state(name + "|-");
      out_.protocol.add_state(name + "|+");
    };
    for (const std::string& reg : m_.registers) add_both(reg);
    for (PtrId p = 0; p < m_.num_pointers(); ++p) {
      const auto& pointer = m_.pointers[p];
      for (std::uint32_t value : pointer.domain)
        for (std::uint32_t stage = 0; stage < out_.ptr_stage_count[p];
             ++stage)
          add_both(pointer.name + "=" + std::to_string(value) + "/" +
                   stage_name(stage, p == m_.ip));
    }
    for (std::uint32_t i = 0; i < m_.instrs.size(); ++i)
      if (out_.map_base[i] != ProtocolConversion::kNoMap)
        add_both(m_.pointers[m_.instrs[i].target].name + "_map@" +
                 std::to_string(i + 1));
  }

  // -- transition emission with the output-broadcast wrapper ---------------------

  /// Emit the base transition (q1, q2 -> q1', q2') wrapped per Appendix
  /// B.3: if a result state belongs to the OF pointer, both agents adopt
  /// its value as their opinion; otherwise opinions are preserved.
  void emit(std::uint32_t q1, std::uint32_t q2, std::uint32_t q1p,
            std::uint32_t q2p) {
    if (!broadcast_) {
      if (q1 != q1p || q2 != q2p)
        out_.protocol.add_transition(q1, q2, q1p, q2p);
      return;
    }
    std::optional<bool> broadcast;
    std::uint32_t value_index = 0;
    if (pointer_value_of(q1p, m_.of, &value_index))
      broadcast = m_.pointers[m_.of].domain[value_index] != 0;
    else if (pointer_value_of(q2p, m_.of, &value_index))
      broadcast = m_.pointers[m_.of].domain[value_index] != 0;

    for (std::uint32_t o1 = 0; o1 < 2; ++o1) {
      for (std::uint32_t o2 = 0; o2 < 2; ++o2) {
        const std::uint32_t b1 = broadcast ? (*broadcast ? 1 : 0) : o1;
        const std::uint32_t b2 = broadcast ? (*broadcast ? 1 : 0) : o2;
        const pp::State s1 = q1 * 2 + o1, s2 = q2 * 2 + o2;
        const pp::State t1 = q1p * 2 + b1, t2 = q2p * 2 + b2;
        if (s1 == t1 && s2 == t2) continue;  // silent
        out_.protocol.add_transition(s1, s2, t1, t2);
      }
    }
  }

  // -- ⟨elect⟩ --------------------------------------------------------------------

  void emit_elect() {
    const std::uint32_t reg0 = 0;  // the fixed register x of Appendix B.3
    for (std::size_t i = 0; i < elect_order_.size(); ++i) {
      const PtrId p = elect_order_[i];
      const auto& pointer = m_.pointers[p];
      // All states of this pointer (any value, any stage).
      std::vector<std::uint32_t> states;
      for (std::uint32_t value : pointer.domain)
        for (std::uint32_t stage = 0; stage < out_.ptr_stage_count[p];
             ++stage)
          states.push_back(ptr_base(p, value, stage));

      std::uint32_t r1, r2;
      if (i + 1 < elect_order_.size()) {
        const PtrId next = elect_order_[i + 1];
        r1 = ptr_base(p, pointer.initial, 0);
        r2 = ptr_base(next, m_.pointers[next].initial, 0);
      } else {
        // IP pair: one agent restarts the cascade, the other becomes a
        // register agent.
        const PtrId first = elect_order_.front();
        r1 = ptr_base(first, m_.pointers[first].initial, 0);
        r2 = reg0;
      }
      // One orientation per unordered pair suffices (the random scheduler
      // tries both orders; reachability is unaffected).
      for (std::size_t a = 0; a < states.size(); ++a)
        for (std::size_t b = a; b < states.size(); ++b)
          emit(states[a], states[b], r1, r2);
    }
  }

  // -- shared per-(V_x, v) stage gadget transitions ---------------------------------

  void emit_stage_transitions() {
    const std::uint32_t park = 0;  // the fixed register z of Appendix B.3
    for (PtrId p = 0; p < m_.num_pointers(); ++p) {
      if (!is_v_pointer(p)) continue;
      for (std::uint32_t value : m_.pointers[p].domain) {
        const std::uint32_t none = ptr_base(p, value, 0);
        const std::uint32_t done = ptr_base(p, value, 1);
        const std::uint32_t emit_s = ptr_base(p, value, 2);
        const std::uint32_t take = ptr_base(p, value, 3);
        const std::uint32_t test = ptr_base(p, value, 4);
        const std::uint32_t yes = ptr_base(p, value, 5);
        const std::uint32_t no = ptr_base(p, value, 6);
        (void)none;

        // ⟨move⟩ phase gadgets: park one unit of the mapped register, then
        // hand one parked unit to the target register.
        emit(emit_s, value /* register state */, done, park);
        emit(take, park, done, value);

        // ⟨test⟩: certify occupancy by meeting a register agent of the
        // mapped register — any other agent is evidence of nothing and
        // yields false (this realises detect's nondeterminism).
        emit(test, value, yes, value);
        for (std::uint32_t q = 0; q < out_.num_base_states; ++q)
          if (q != value) emit(test, q, no, q);

        // Write the verdict into CF.
        for (std::uint32_t cf_value : {0u, 1u}) {
          for (std::uint32_t cf_stage = 0; cf_stage < kStagesPlain;
               ++cf_stage) {
            const std::uint32_t cf_state =
                ptr_base(m_.cf, cf_value, cf_stage);
            emit(yes, cf_state, done, ptr_base(m_.cf, 1, 0));
            emit(no, cf_state, done, ptr_base(m_.cf, 0, 0));
          }
        }
      }
    }
  }

  // -- per-instruction gadgets --------------------------------------------------------

  void emit_instruction(std::uint32_t i) {
    const Instr& instr = m_.instrs[i];
    const std::uint32_t ip_none = ptr_base(m_.ip, i, 0);
    const std::uint32_t ip_wait = ptr_base(m_.ip, i, 1);
    const std::uint32_t ip_half = ptr_base(m_.ip, i, 2);
    const bool can_advance = i + 1 < m_.instrs.size();
    const std::uint32_t ip_next =
        can_advance ? ptr_base(m_.ip, i + 1, 0) : 0;

    switch (instr.kind) {
      case Instr::Kind::kMove: {
        const PtrId vx = m_.v_reg[instr.x];
        const PtrId vy = m_.v_reg[instr.y];
        // Recruit V_x to emit a unit into the parking register.
        for (std::uint32_t v : m_.pointers[vx].domain) {
          for (std::uint32_t stage = 0; stage < kStagesV; ++stage)
            emit(ip_none, ptr_base(vx, v, stage), ip_wait,
                 ptr_base(vx, v, 2 /*emit*/));
          emit(ip_wait, ptr_base(vx, v, 1 /*done*/), ip_half,
               ptr_base(vx, v, 0 /*none*/));
        }
        // Then recruit V_y to take it.
        for (std::uint32_t w : m_.pointers[vy].domain) {
          for (std::uint32_t stage = 0; stage < kStagesV; ++stage)
            emit(ip_half, ptr_base(vy, w, stage), ip_wait,
                 ptr_base(vy, w, 3 /*take*/));
          if (can_advance)
            emit(ip_wait, ptr_base(vy, w, 1 /*done*/), ip_next,
                 ptr_base(vy, w, 0 /*none*/));
        }
        break;
      }
      case Instr::Kind::kDetect: {
        const PtrId vx = m_.v_reg[instr.x];
        for (std::uint32_t v : m_.pointers[vx].domain) {
          for (std::uint32_t stage = 0; stage < kStagesV; ++stage)
            emit(ip_none, ptr_base(vx, v, stage), ip_wait,
                 ptr_base(vx, v, 4 /*test*/));
          if (can_advance)
            emit(ip_wait, ptr_base(vx, v, 1 /*done*/), ip_next,
                 ptr_base(vx, v, 0 /*none*/));
        }
        break;
      }
      case Instr::Kind::kAssign: {
        if (instr.target == m_.ip) {
          // IP := f(Y): a single two-agent exchange.
          if (instr.source == m_.ip)
            throw std::logic_error("to_protocol: IP := f(IP) unsupported");
          for (std::uint32_t v : m_.pointers[instr.source].domain) {
            const std::uint32_t target_ip =
                ptr_base(m_.ip, *instr.map(v), 0);
            for (std::uint32_t stage = 0;
                 stage < out_.ptr_stage_count[instr.source]; ++stage)
              emit(ip_none, ptr_base(instr.source, v, stage), target_ip,
                   ptr_base(instr.source, v, 0));
          }
        } else if (instr.target == instr.source) {
          // X := f(X), X != IP: also a single exchange.
          if (!can_advance) break;
          const PtrId y = instr.source;
          for (std::uint32_t v : m_.pointers[y].domain)
            for (std::uint32_t stage = 0; stage < out_.ptr_stage_count[y];
                 ++stage)
              emit(ip_none, ptr_base(y, v, stage), ip_next,
                   ptr_base(y, *instr.map(v), 0));
        } else {
          // Ordinary case via the map state X_map^i.
          if (instr.source == m_.ip)
            throw std::logic_error("to_protocol: X := f(IP) unsupported");
          const std::uint32_t map = out_.map_base[i];
          for (std::uint32_t v : m_.pointers[instr.target].domain)
            for (std::uint32_t stage = 0;
                 stage < out_.ptr_stage_count[instr.target]; ++stage)
              emit(ip_none, ptr_base(instr.target, v, stage), ip_wait, map);
          for (std::uint32_t v : m_.pointers[instr.source].domain)
            for (std::uint32_t stage = 0;
                 stage < out_.ptr_stage_count[instr.source]; ++stage)
              emit(map, ptr_base(instr.source, v, stage),
                   ptr_base(instr.target, *instr.map(v), 1 /*done*/),
                   ptr_base(instr.source, v, 0));
          if (can_advance)
            for (std::uint32_t v : m_.pointers[instr.target].domain)
              emit(ip_wait, ptr_base(instr.target, v, 1 /*done*/), ip_next,
                   ptr_base(instr.target, v, 0));
        }
        break;
      }
    }
  }

  // -- opinion broadcast on identity meetings --------------------------------------

  void emit_of_broadcast() {
    for (std::uint32_t value : m_.pointers[m_.of].domain) {
      const bool b = value != 0;
      for (std::uint32_t stage = 0; stage < kStagesPlain; ++stage) {
        const std::uint32_t of_state = ptr_base(m_.of, value, stage);
        for (std::uint32_t q = 0; q < out_.num_base_states; ++q) {
          // (q, OF^b) -> (q, OF^b) with both opinions set to b.
          for (std::uint32_t o1 = 0; o1 < 2; ++o1)
            for (std::uint32_t o2 = 0; o2 < 2; ++o2) {
              const std::uint32_t bb = b ? 1 : 0;
              if (o1 == bb && o2 == bb) continue;  // silent
              out_.protocol.add_transition(q * 2 + o1, of_state * 2 + o2,
                                           q * 2 + bb, of_state * 2 + bb);
            }
        }
      }
    }
  }

  const Machine& m_;
  bool broadcast_;
  ProtocolConversion out_;
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> value_index_;
  std::vector<PtrId> elect_order_;
};

}  // namespace

pp::State ProtocolConversion::reg_state(machine::RegId reg,
                                        bool opinion) const {
  if (!with_broadcast) return static_cast<pp::State>(reg);
  return static_cast<pp::State>(reg * 2 + (opinion ? 1 : 0));
}

pp::State ProtocolConversion::pointer_state(machine::PtrId pointer,
                                            std::uint32_t raw_value,
                                            Stage stage, bool opinion) const {
  const std::vector<std::uint32_t>& domain = ptr_domain[pointer];
  std::uint32_t index = 0;
  while (index < domain.size() && domain[index] != raw_value) ++index;
  if (index == domain.size())
    throw std::out_of_range("pointer_state: value not in domain");
  const std::uint32_t base =
      ptr_offset[pointer] + index * ptr_stage_count[pointer] +
      static_cast<std::uint32_t>(stage);
  if (!with_broadcast) return static_cast<pp::State>(base);
  return static_cast<pp::State>(base * 2 + (opinion ? 1 : 0));
}

pp::State ProtocolConversion::map_state(std::uint32_t instr_index,
                                        bool opinion) const {
  if (map_base[instr_index] == kNoMap)
    throw std::out_of_range("map_state: instruction has no map state");
  if (!with_broadcast) return static_cast<pp::State>(map_base[instr_index]);
  return static_cast<pp::State>(map_base[instr_index] * 2 + (opinion ? 1 : 0));
}

pp::State ProtocolConversion::input_state() const {
  return protocol.input_states().front();
}

pp::Config ProtocolConversion::initial_config(std::uint64_t m) const {
  pp::Config config(protocol.num_states());
  config.add(input_state(), static_cast<std::uint32_t>(m));
  return config;
}

pp::Config ProtocolConversion::pi(const machine::MachineState& state,
                                  bool opinion) const {
  pp::Config config(protocol.num_states());
  for (machine::RegId r = 0; r < state.regs.size(); ++r)
    config.add(reg_state(r, opinion),
               static_cast<std::uint32_t>(state.regs[r]));
  for (machine::PtrId p = 0; p < state.ptrs.size(); ++p)
    config.add(pointer_state(p, state.ptrs[p], Stage::kNone, opinion));
  return config;
}

ProtocolConversion machine_to_protocol(const machine::Machine& machine,
                                       const ConversionOptions& options) {
  return Converter(machine, options).convert();
}

std::uint64_t conversion_state_count(const machine::Machine& machine) {
  std::uint64_t base = machine.num_registers();
  for (machine::PtrId p = 0; p < machine.num_pointers(); ++p) {
    std::uint32_t stages = kStagesPlain;
    if (p == machine.ip) {
      stages = kStagesIp;
    } else if (p == machine.v_square) {
      stages = kStagesV;
    } else {
      for (machine::PtrId v : machine.v_reg)
        if (v == p) {
          stages = kStagesV;
          break;
        }
    }
    base += machine.pointers[p].domain.size() * stages;
  }
  for (const machine::Instr& instr : machine.instrs)
    if (instr.kind == machine::Instr::Kind::kAssign &&
        instr.target != machine.ip && instr.target != instr.source)
      ++base;
  return 2 * base;
}

}  // namespace ppde::compile
