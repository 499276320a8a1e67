#include "pp/protocol.hpp"

#include <sstream>
#include <stdexcept>

#include "isa/compiled.hpp"
#include "support/hash.hpp"

namespace ppde::pp {

State Protocol::add_state(std::string name) {
  if (finalized_) throw std::logic_error("Protocol: add_state after finalize");
  auto [it, inserted] =
      index_by_name_.try_emplace(name, static_cast<State>(names_.size()));
  if (!inserted)
    throw std::invalid_argument("Protocol: duplicate state name " + name);
  names_.push_back(std::move(name));
  accepting_.push_back(0);
  return it->second;
}

State Protocol::state(const std::string& name) const {
  auto it = index_by_name_.find(name);
  if (it == index_by_name_.end())
    throw std::out_of_range("Protocol: unknown state " + name);
  return it->second;
}

std::optional<State> Protocol::find_state(const std::string& name) const {
  auto it = index_by_name_.find(name);
  if (it == index_by_name_.end()) return std::nullopt;
  return it->second;
}

void Protocol::add_transition(State q, State r, State q2, State r2) {
  if (finalized_)
    throw std::logic_error("Protocol: add_transition after finalize");
  const auto n = static_cast<State>(names_.size());
  if (q >= n || r >= n || q2 >= n || r2 >= n)
    throw std::out_of_range("Protocol: transition uses unknown state");
  transitions_.push_back({q, r, q2, r2});
}

void Protocol::mark_input(State q) {
  if (finalized_) throw std::logic_error("Protocol: mark_input after finalize");
  input_states_.push_back(q);
}

void Protocol::mark_accepting(State q) {
  if (finalized_)
    throw std::logic_error("Protocol: mark_accepting after finalize");
  accepting_.at(q) = 1;
}

void Protocol::finalize() {
  if (finalized_) throw std::logic_error("Protocol: finalize twice");
  compiled_ = isa::CompiledProtocol::compile(*this);
  finalized_ = true;
}

std::uint64_t Protocol::fingerprint() const {
  std::uint64_t h = support::hash_combine(0x5323u /* "S23" */, names_.size());
  for (const Transition& t : transitions_) {
    h = support::hash_combine(h, (static_cast<std::uint64_t>(t.q) << 32) |
                                     t.r);
    h = support::hash_combine(h, (static_cast<std::uint64_t>(t.q2) << 32) |
                                     t.r2);
  }
  for (State q : input_states_) h = support::hash_combine(h, q);
  for (std::size_t q = 0; q < accepting_.size(); ++q)
    if (accepting_[q]) h = support::hash_combine(h, q);
  return h;
}

std::string Protocol::describe() const {
  std::ostringstream os;
  os << "states: " << num_states() << ", transitions: " << num_transitions()
     << "\n";
  os << "input:";
  for (State q : input_states_) os << " " << names_[q];
  os << "\naccepting:";
  for (State q = 0; q < accepting_.size(); ++q)
    if (accepting_[q]) os << " " << names_[q];
  os << "\n";
  for (const Transition& t : transitions_)
    os << "  " << names_[t.q] << ", " << names_[t.r] << " -> " << names_[t.q2]
       << ", " << names_[t.r2] << "\n";
  return os.str();
}

std::string Protocol::to_dot(std::size_t max_transitions) const {
  std::ostringstream os;
  os << "digraph protocol {\n  rankdir=LR;\n  node [shape=ellipse];\n";
  std::vector<bool> is_input(names_.size(), false);
  for (State q : input_states_) is_input[q] = true;
  for (State q = 0; q < names_.size(); ++q) {
    os << "  q" << q << " [label=\"" << names_[q] << "\"";
    if (accepting_[q]) os << ", peripheries=2";
    if (is_input[q]) os << ", style=bold";
    os << "];\n";
  }
  std::size_t emitted = 0;
  for (const Transition& t : transitions_) {
    if (emitted++ >= max_transitions) {
      os << "  // ... " << (transitions_.size() - max_transitions)
         << " more transitions elided\n";
      break;
    }
    os << "  q" << t.q << " -> q" << t.q2 << " [label=\"with "
       << names_[t.r] << " -> " << names_[t.r2] << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace ppde::pp
