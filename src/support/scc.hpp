// Strongly connected components over a compressed sparse row graph.
//
// All exact verifiers in this library reduce fair-run stabilisation to a
// property of *bottom* SCCs of a finite reachability graph (a fair run's
// infinitely-often set is strongly connected and closed under the step
// relation). This is the shared SCC pass, over the graph store the
// verification kernel fills (S22).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/chunked.hpp"

namespace ppde::support {

/// A directed graph built one node at a time, in id order: node v's
/// successors are one block of an append-only id store, and offsets[v]
/// names it. Nothing is copied as the graph grows.
class CsrGraph {
 public:
  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(offsets_.size());
  }
  std::uint64_t num_edges() const { return ids_.size(); }

  /// Appends node num_nodes() with successor list `successors`.
  void append(std::span<const std::uint32_t> successors) {
    offsets_.push_back(ids_.append(successors));
  }

  std::span<const std::uint32_t> successors(std::uint32_t v) const {
    return ids_.view(offsets_[v]);
  }

 private:
  std::vector<std::uint64_t> offsets_;
  ChunkedArray<std::uint32_t> ids_;
};

struct SccResult {
  /// scc_of[v] = dense SCC index of node v (indices are in reverse
  /// topological order of the condensation, as produced by Tarjan).
  std::vector<std::uint32_t> scc_of;
  std::uint32_t scc_count = 0;

  /// For each SCC: true iff it has no edge into a different SCC.
  std::vector<std::uint8_t> bottom(const CsrGraph& graph) const;
};

/// Tarjan's SCCs of `graph` (nodes 0..graph.num_nodes()-1) by Pearce's
/// one-array variant ("A space-efficient algorithm for finding strongly
/// connected components", IPL 2016), iterative: one u32 per node that holds
/// its DFS index while it is open and its component once closed, a root
/// bit per node, and 8-byte DFS frames. Components close in the order
/// Tarjan's would close them, so scc_of and scc_count are Tarjan's.
SccResult tarjan_scc(const CsrGraph& graph);

}  // namespace ppde::support
