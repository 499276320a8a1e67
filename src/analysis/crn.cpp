#include "analysis/crn.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>

#include "analysis/reachability.hpp"

namespace ppde::analysis {

namespace {

/// Canonical reaction key: unordered reactant pair -> unordered product
/// pair (chemistry has no initiator/responder distinction).
using Reaction = std::array<pp::State, 4>;

std::set<Reaction> distinct_reactions(const pp::Protocol& protocol) {
  std::set<Reaction> reactions;
  for (const pp::Transition& t : protocol.transitions()) {
    if (t.is_silent()) continue;
    Reaction reaction = {std::min(t.q, t.r), std::max(t.q, t.r),
                         std::min(t.q2, t.r2), std::max(t.q2, t.r2)};
    reactions.insert(reaction);
  }
  return reactions;
}

}  // namespace

std::string to_crn(const pp::Protocol& protocol,
                   const std::optional<pp::Config>& initial,
                   std::size_t max_reactions) {
  std::ostringstream os;
  std::vector<bool> occupiable;
  if (initial.has_value())
    occupiable = reachable_states(protocol, *initial);

  os << "# species: " << protocol.num_states() << "\n";
  for (pp::State q = 0; q < protocol.num_states(); ++q) {
    os << "species " << protocol.name(q);
    if (protocol.is_accepting(q)) os << "  # accepting";
    if (!occupiable.empty() && !occupiable[q]) os << "  # (unreachable)";
    os << "\n";
  }

  const std::set<Reaction> reactions = distinct_reactions(protocol);
  os << "# reactions: " << reactions.size() << "\n";
  std::size_t emitted = 0;
  for (const Reaction& r : reactions) {
    if (emitted++ >= max_reactions) {
      os << "# ... " << (reactions.size() - max_reactions)
         << " more reactions elided\n";
      break;
    }
    os << protocol.name(r[0]) << " + " << protocol.name(r[1]) << " -> "
       << protocol.name(r[2]) << " + " << protocol.name(r[3]) << "\n";
  }
  return os.str();
}

CrnStats crn_stats(const pp::Protocol& protocol,
                   const std::optional<pp::Config>& initial) {
  CrnStats stats;
  stats.species = protocol.num_states();
  stats.reactions = distinct_reactions(protocol).size();
  if (initial.has_value())
    stats.reachable_species = reachable_state_count(protocol, *initial);
  return stats;
}

}  // namespace ppde::analysis
