// Post-exploration analysis for the verification kernel (S22): one shared
// implementation of the bottom-SCC stabilisation criterion.
//
// A fair infinite run of a finite transition system eventually confines
// itself to a bottom SCC of the reachability graph and visits all of it
// (DESIGN §3 "Fairness, exactly"). Every exact decision procedure in this
// library is therefore: explore the graph, find the SCCs, classify the
// bottom ones by the outputs of their nodes. Layers differ only in
//   * what counts as a node output (consensus output of a configuration,
//     witness-mode acceptance, the program/machine OF flag), and
//   * which nodes are *terminal events* (program-level return/restart):
//     a terminal node's SCC is never a bottom SCC, because reaching the
//     terminal is an event, not stabilisation.
// Both are parameters here; the Tarjan pass and the classification sweep
// are written once.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "support/scc.hpp"

namespace ppde::verify {

/// Terminal tag meaning "not a terminal node". Any other value is an
/// opaque, layer-defined tag (e.g. return-with-value vs restart).
inline constexpr std::uint32_t kNoTerminal = 0xffffffffu;

struct SccAnalysis {
  support::SccResult scc;
  /// Per SCC: no edge leaves it and it contains no terminal node.
  std::vector<std::uint8_t> is_bottom;
};

/// Tarjan + bottom flags. `terminal_tags` may be empty (no terminals) or
/// one tag per node.
SccAnalysis analyse_sccs(const support::CsrGraph& graph,
                         const std::vector<std::uint32_t>& terminal_tags);

/// True iff some bottom SCC exists — at program level this is exactly
/// "⊥ is possible": a fair run can avoid every terminal event forever.
bool any_bottom(const SccAnalysis& analysis);

/// Output of one node for consensus classification. kMixed marks a node
/// whose own output is undefined (it alone spoils a bottom SCC).
enum class NodeOutput : std::uint8_t { kTrue, kFalse, kMixed };

struct ConsensusReport {
  std::uint64_t num_sccs = 0;
  std::uint64_t num_bottom_sccs = 0;
  // Per-SCC classification over bottom SCCs.
  bool any_true_bscc = false;   ///< some bottom SCC is constant-true
  bool any_false_bscc = false;  ///< some bottom SCC is constant-false
  bool any_mixed_bscc = false;  ///< some bottom SCC sees both outputs
  // Aggregate over all bottom-SCC nodes (pp::Verifier's verdict basis:
  // two *disagreeing* constant bottom SCCs also refute stabilisation).
  bool aggregate_true = false;
  bool aggregate_false = false;
  /// First node (in id order) at which the aggregate had seen both
  /// outputs — the counterexample node for "does not stabilise".
  std::optional<std::uint32_t> offending_node;

  bool stabilises() const { return !(aggregate_true && aggregate_false); }
};

/// Sweep all nodes in id order, classifying bottom SCCs by
/// `output(id) -> NodeOutput`. Deterministic: depends only on the graph
/// and the output function, never on thread count.
template <typename OutputFn>
ConsensusReport classify_bottom(const SccAnalysis& analysis,
                                std::uint32_t num_nodes,
                                const OutputFn& output) {
  ConsensusReport report;
  report.num_sccs = analysis.scc.scc_count;
  std::vector<std::uint8_t> seen(analysis.scc.scc_count, 0);
  std::vector<std::uint8_t> saw_true(analysis.scc.scc_count, 0);
  std::vector<std::uint8_t> saw_false(analysis.scc.scc_count, 0);
  for (std::uint32_t id = 0; id < num_nodes; ++id) {
    const std::uint32_t component = analysis.scc.scc_of[id];
    if (!analysis.is_bottom[component]) continue;
    if (!seen[component]) {
      seen[component] = 1;
      ++report.num_bottom_sccs;
    }
    switch (output(id)) {
      case NodeOutput::kTrue:
        saw_true[component] = 1;
        report.aggregate_true = true;
        break;
      case NodeOutput::kFalse:
        saw_false[component] = 1;
        report.aggregate_false = true;
        break;
      case NodeOutput::kMixed:
        saw_true[component] = saw_false[component] = 1;
        report.aggregate_true = report.aggregate_false = true;
        break;
    }
    if (report.aggregate_true && report.aggregate_false &&
        !report.offending_node)
      report.offending_node = id;
  }
  for (std::uint32_t component = 0; component < analysis.scc.scc_count;
       ++component) {
    if (!analysis.is_bottom[component]) continue;
    const bool t = saw_true[component] != 0;
    const bool f = saw_false[component] != 0;
    if (t && f)
      report.any_mixed_bscc = true;
    else if (t)
      report.any_true_bscc = true;
    else if (f)
      report.any_false_bscc = true;
  }
  return report;
}

}  // namespace ppde::verify
