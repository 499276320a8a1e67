#include "support/scc.hpp"

#include <algorithm>

namespace ppde::support {

SccResult tarjan_scc(const CsrGraph& graph) {
  using u32 = std::uint32_t;
  const u32 n = graph.num_nodes();
  constexpr u32 kUnvisited = 0xffffffffu;

  SccResult result;
  result.scc_of.assign(n, kUnvisited);
  std::vector<u32> index(n, kUnvisited);
  std::vector<u32> lowlink(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<u32> stack;

  struct Frame {
    const u32* next;  ///< next unvisited successor of `node`
    const u32* end;
    u32 node;
  };
  std::vector<Frame> call_stack;
  u32 next_index = 0;
  const auto enter = [&](u32 node) {
    index[node] = lowlink[node] = next_index++;
    stack.push_back(node);
    on_stack[node] = 1;
    const std::span<const u32> succs = graph.successors(node);
    call_stack.push_back({succs.data(), succs.data() + succs.size(), node});
  };

  for (u32 root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    enter(root);
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      if (frame.next != frame.end) {
        const u32 next = *frame.next++;
        if (index[next] == kUnvisited) {
          enter(next);  // may reallocate call_stack: `frame` is dead now
        } else if (on_stack[next]) {
          lowlink[frame.node] = std::min(lowlink[frame.node], index[next]);
        }
      } else {
        const u32 node = frame.node;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const u32 parent = call_stack.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[node]);
        }
        if (lowlink[node] == index[node]) {
          while (true) {
            const u32 member = stack.back();
            stack.pop_back();
            on_stack[member] = 0;
            result.scc_of[member] = result.scc_count;
            if (member == node) break;
          }
          ++result.scc_count;
        }
      }
    }
  }
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
