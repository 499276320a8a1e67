#include "verify/analysis.hpp"

namespace ppde::verify {

SccAnalysis analyse_sccs(const support::CsrGraph& graph,
                         const std::vector<std::uint32_t>& terminal_tags) {
  SccAnalysis analysis;
  analysis.scc = support::tarjan_scc(graph);
  analysis.is_bottom = analysis.scc.bottom(graph);
  // Terminal events are not stabilisation: their SCC is never bottom.
  for (std::uint32_t v = 0; v < terminal_tags.size(); ++v)
    if (terminal_tags[v] != kNoTerminal)
      analysis.is_bottom[analysis.scc.scc_of[v]] = 0;
  return analysis;
}

bool any_bottom(const SccAnalysis& analysis) {
  for (const std::uint8_t bottom : analysis.is_bottom)
    if (bottom) return true;
  return false;
}

}  // namespace ppde::verify
