#include "support/scc.hpp"

#include <span>
#include <utility>

namespace ppde::support {

SccResult tarjan_scc(const CsrGraph& graph) {
  using u32 = std::uint32_t;
  const u32 n = graph.num_nodes();

  // rindex[v] is 0 until v is visited. While v is open it is v's DFS index
  // (from 1), lowered to the least index v is seen to reach; a root is an
  // open node that never lowered it. When component c closes, its nodes
  // get n - c. Open nodes hold the indices 1..next_index-1 and there are
  // at most n - (closed nodes) of them, so every open value is below
  // every closed one: an edge into a closed component never lowers a
  // value, and no on-stack flag is needed.
  std::vector<u32> rindex(n, 0);
  std::vector<std::uint64_t> root((std::uint64_t{n} + 63) / 64, 0);
  const auto clear_root = [&](u32 v) {
    root[v / 64] &= ~(std::uint64_t{1} << (v % 64));
  };
  // Nodes whose DFS has finished but whose component is still open.
  std::vector<u32> stack;
  struct Frame {
    u32 node;
    u32 next;  ///< position of the next successor to visit
  };
  std::vector<Frame> frames;
  u32 next_index = 1;
  u32 components = 0;
  const auto open = [&](u32 v) {
    rindex[v] = next_index++;
    root[v / 64] |= std::uint64_t{1} << (v % 64);
    frames.push_back({v, 0});
  };

  for (u32 start = 0; start < n; ++start) {
    if (rindex[start] != 0) continue;
    open(start);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const u32 v = frame.node;
      const std::span<const u32> succs = graph.successors(v);
      bool descended = false;
      while (frame.next < succs.size()) {
        const u32 w = succs[frame.next++];
        if (rindex[w] == 0) {
          open(w);  // may reallocate frames: `frame` is dead now
          descended = true;
          break;
        }
        if (rindex[w] < rindex[v]) {
          rindex[v] = rindex[w];
          clear_root(v);
        }
      }
      if (descended) continue;
      frames.pop_back();
      if ((root[v / 64] >> (v % 64)) & 1) {
        // v closes its component: v and the stacked nodes at or above its
        // index, the nodes visited after v that are still open.
        const u32 closed = n - components++;
        while (!stack.empty() && rindex[stack.back()] >= rindex[v]) {
          rindex[stack.back()] = closed;
          stack.pop_back();
        }
        next_index = rindex[v];
        rindex[v] = closed;
      } else {
        stack.push_back(v);
      }
      if (!frames.empty()) {
        const u32 parent = frames.back().node;
        if (rindex[v] < rindex[parent]) {
          rindex[parent] = rindex[v];
          clear_root(parent);
        }
      }
    }
  }

  // Component c was stored as n - c.
  for (u32& value : rindex) value = n - value;
  SccResult result;
  result.scc_of = std::move(rindex);
  result.scc_count = components;
  return result;
}

std::vector<std::uint8_t> SccResult::bottom(const CsrGraph& graph) const {
  std::vector<std::uint8_t> is_bottom(scc_count, 1);
  for (std::uint32_t v = 0; v < graph.num_nodes(); ++v)
    for (const std::uint32_t succ : graph.successors(v))
      if (scc_of[succ] != scc_of[v]) is_bottom[scc_of[v]] = 0;
  return is_bottom;
}

}  // namespace ppde::support
