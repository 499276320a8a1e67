// The parallel state-space exploration kernel (S22).
//
// One exhaustive-exploration engine for all three exact decision
// procedures in this library (protocol configurations, program nodes,
// machine nodes). A *domain* supplies the state encoding and the successor
// function:
//
//   struct MyDomain {
//     // Must be const and safe to call concurrently from many threads.
//     void expand(std::span<const std::uint64_t> state,
//                 verify::Emitter& emit) const;
//   };
//
// States are arbitrary sequences of u64 words; `expand` reports each
// successor via `emit.emit(words)` (or `emit.emit_self()` for a self-loop)
// and may mark the node as a terminal event with `emit.set_terminal(tag)`.
// A domain that needs buffers while expanding declares a default-
// constructible `struct Scratch`; the kernel then keeps one per worker
// thread and calls `expand(state, emit, scratch)`, so buffers are reused
// across nodes instead of allocated per node. What a node emits must not
// depend on what the scratch held before.
//
// Determinism scheme (the S21 seed-derivation discipline, transposed to
// search): exploration proceeds in BFS waves. Each wave expands a chunk of
// frontier nodes *in parallel*, each worker claiming a contiguous block of
// kClaimBlock nodes at a time — expansion only reads the frozen interner
// and writes to a per-node buffer slot, where a successor already interned
// is resolved to its id and a new one is kept once however often the node
// emits it. The buffers' contents are thus a pure function of the node,
// never of the executing thread. Node ids are then assigned by a
// *sequential* merge pass that walks the wave in node order and interns
// each buffered successor in emission order. The resulting id assignment,
// successor lists, edge counts and budget trigger points are
// bit-identical at every thread count — and identical to the classic
// sequential BFS (expand node 0, intern its successors, expand node 1,
// ...) that the three pre-kernel explorers implemented.
//
// Storage: the interner's arena and the CSR graph's id store are
// append-only chunked arrays (support/chunked.hpp), so nothing is copied
// as the graph grows and spans into them stay valid. The interner's hash
// index is only needed to look states up while exploring; run() frees it
// at the end, and afterwards states are read by id alone.
//
// Budgets are explicit (nodes, edges, store bytes); when one is hit the
// kernel stops expanding and reports a *partial* result — the stats carry
// what was explored and which budget tripped, instead of an empty
// "resource limit" verdict.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "engine/pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "verify/analysis.hpp"
#include "verify/interner.hpp"

namespace ppde::verify {

struct KernelOptions {
  std::uint64_t max_nodes = 2'000'000;
  std::uint64_t max_edges = UINT64_MAX;
  /// Budget on the graph store while exploring: arena words, node
  /// records, interner slots and the CSR graph (the `bytes` stat).
  std::uint64_t max_bytes = UINT64_MAX;
  /// Worker threads (including the caller); 0 = hardware concurrency.
  unsigned threads = 1;
  /// Frontier nodes expanded per parallel wave.
  std::uint32_t wave_chunk = 4096;
};

enum class LimitKind : std::uint8_t { kNone, kNodes, kEdges, kBytes };

struct KernelStats {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  /// The graph store when exploration ended, interner slots included.
  std::uint64_t bytes = 0;
  std::uint64_t waves = 0;
  /// emit() calls of the expanded nodes in the graph, repeats included:
  /// the expansion's work, published as `verify.successors_emitted`.
  std::uint64_t emitted = 0;
  bool complete = false;
  LimitKind limit = LimitKind::kNone;
};

/// Successor sink for one node's expansion. Owned by the kernel; each
/// frontier node of a wave gets its own slot, so domains never share one.
class Emitter {
 public:
  /// Record a successor state. Already-interned states are resolved to
  /// their id immediately (read-only probe of the frozen interner); a new
  /// state is buffered for the merge unless this node already emitted it.
  void emit(std::span<const std::uint64_t> words) {
    ++emitted_;
    const std::uint64_t hash = hash_words(words);
    const std::uint32_t id = interner_->find(words, hash);
    if (id != Interner::kNotFound) {
      found_.push_back(id);
      return;
    }
    if (repeats(words, hash)) return;
    entries_.push_back({static_cast<std::uint32_t>(words_.size()),
                        static_cast<std::uint32_t>(words.size()), hash});
    words_.insert(words_.end(), words.begin(), words.end());
  }

  /// Record a self-loop on the node being expanded.
  void emit_self() { self_ = true; }

  /// Mark the node a terminal event (excluded from bottom SCCs).
  void set_terminal(std::uint32_t tag) { terminal_ = tag; }

 private:
  template <typename Domain>
  friend class Kernel;

  struct Entry {
    std::uint32_t offset = 0;  ///< into words_
    std::uint32_t length = 0;
    std::uint64_t hash = 0;
  };
  /// One slot of the repeat table: an entry index, valid only while
  /// `generation` is the current node's.
  struct Seen {
    std::uint32_t generation = 0;
    std::uint32_t entry = 0;
  };

  void reset(const Interner* interner) {
    interner_ = interner;
    found_.clear();
    entries_.clear();
    words_.clear();
    emitted_ = 0;
    self_ = false;
    terminal_ = kNoTerminal;
    if (++generation_ == 0) {  // wrapped: stale slots could look current
      std::fill(seen_.begin(), seen_.end(), Seen{});
      generation_ = 1;
    }
  }

  std::span<const std::uint64_t> words_of(const Entry& entry) const {
    return {words_.data() + entry.offset, entry.length};
  }

  /// True iff this node already emitted `words`; otherwise records it as
  /// the entry about to be appended. Expected O(1): the table is keyed by
  /// the hash and stays at most half full.
  bool repeats(std::span<const std::uint64_t> words, std::uint64_t hash) {
    if ((entries_.size() + 1) * 2 > seen_.size()) {
      seen_.assign(std::max<std::size_t>(16, seen_.size() * 2), Seen{});
      for (std::uint32_t e = 0; e < entries_.size(); ++e)
        *free_slot(entries_[e].hash) = {generation_, e};
    }
    const std::size_t mask = seen_.size() - 1;
    for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      Seen& seen = seen_[slot];
      if (seen.generation != generation_) {
        seen = {generation_, static_cast<std::uint32_t>(entries_.size())};
        return false;
      }
      const Entry& entry = entries_[seen.entry];
      if (entry.hash == hash && std::ranges::equal(words_of(entry), words))
        return true;
    }
  }

  /// First slot of `hash`'s probe sequence not used by this node.
  Seen* free_slot(std::uint64_t hash) {
    const std::size_t mask = seen_.size() - 1;
    std::size_t slot = hash & mask;
    while (seen_[slot].generation == generation_) slot = (slot + 1) & mask;
    return &seen_[slot];
  }

  const Interner* interner_ = nullptr;
  std::vector<std::uint32_t> found_;  ///< ids resolved at emission
  std::vector<Entry> entries_;        ///< new states, no two equal
  std::vector<std::uint64_t> words_;  ///< of the entries
  std::vector<Seen> seen_;
  std::uint64_t emitted_ = 0;  ///< emit() calls for this node
  std::uint32_t generation_ = 0;
  bool self_ = false;
  std::uint32_t terminal_ = kNoTerminal;
};

/// Frontier nodes a worker claims at a time: one claim per block instead
/// of per node, and neighbouring Emitter slots written by one thread.
inline constexpr std::uint32_t kClaimBlock = 32;

/// A domain that keeps per-worker buffers (see the header comment).
template <typename Domain>
concept DeclaresScratch = requires { typename Domain::Scratch; };

/// One worker's scratch, if its domain has one, on cache lines of its
/// own: no worker writes to a line another one uses.
template <typename Domain>
struct alignas(64) WorkerScratch {};
template <DeclaresScratch Domain>
struct alignas(64) WorkerScratch<Domain> {
  typename Domain::Scratch scratch;
};

template <typename Domain>
class Kernel {
 public:
  Kernel(const Domain& domain, const KernelOptions& options)
      : domain_(domain), options_(options) {}

  /// Explore everything reachable from `roots`; call once. Returns the
  /// stats; the graph accessors below are valid afterwards (partial on
  /// budget hit).
  const KernelStats& run(std::span<const std::vector<std::uint64_t>> roots) {
    obs::ObsSpan run_span("kernel_run", "verify");
    for (const std::vector<std::uint64_t>& root : roots)
      interner_.intern(root, hash_words(root));

    const unsigned threads =
        options_.threads != 0
            ? options_.threads
            : std::max(1u, std::thread::hardware_concurrency());
    engine::WorkerPool pool(threads);
    std::vector<Emitter> buffers(
        std::max<std::uint32_t>(options_.wave_chunk, 1));
    std::vector<WorkerScratch<Domain>> scratch(pool.workers());

    stats_ = KernelStats{};
    // Exploration observability (S24): per-wave spans + live gauges for
    // the progress heartbeat. All updates happen on the sequential
    // control path, once per wave — never per node.
    obs::Registry& registry = obs::Registry::global();
    obs::Gauge& nodes_gauge = registry.gauge("verify.nodes");
    obs::Gauge& edges_gauge = registry.gauge("verify.edges");
    obs::Gauge& frontier_gauge = registry.gauge("verify.frontier");
    obs::Gauge& bytes_gauge = registry.gauge("verify.interner_bytes");
    obs::Histogram& wave_micros = registry.histogram("verify.wave_micros");
    std::vector<std::uint32_t> succs;
    while (graph_.num_nodes() < interner_.size() &&
           stats_.limit == LimitKind::kNone) {
      const std::uint32_t wave_start = graph_.num_nodes();
      const std::uint32_t wave = std::min<std::uint32_t>(
          interner_.size() - wave_start,
          static_cast<std::uint32_t>(buffers.size()));
      obs::ObsSpan wave_span("wave", "verify");
      wave_span.set_value(static_cast<double>(wave));
      const std::uint64_t wave_begin_ns = obs::now_ns();
      // Parallel phase: expand the wave into per-node buffers, a block of
      // nodes per claim. The interner is frozen, so concurrent
      // find()/state() are safe. A wave of one block runs on the caller:
      // waking every worker per wave would dominate chain-shaped graphs.
      {
        obs::ObsSpan expand_span("expand", "verify");
        const auto expand_block = [&](unsigned worker, std::uint64_t block) {
          const std::uint32_t begin =
              static_cast<std::uint32_t>(block) * kClaimBlock;
          const std::uint32_t end = std::min(wave, begin + kClaimBlock);
          for (std::uint32_t i = begin; i < end; ++i) {
            buffers[i].reset(&interner_);
            const std::span<const std::uint64_t> state =
                interner_.state(wave_start + i);
            if constexpr (DeclaresScratch<Domain>)
              domain_.expand(state, buffers[i], scratch[worker].scratch);
            else
              domain_.expand(state, buffers[i]);
          }
        };
        const std::uint32_t blocks = (wave + kClaimBlock - 1) / kClaimBlock;
        if (blocks == 1)
          expand_block(0, 0);
        else
          pool.parallel_for_workers(blocks, expand_block);
      }
      // Sequential merge: assign ids in node order, emission order.
      obs::ObsSpan merge_span("merge", "verify");
      for (std::uint32_t i = 0; i < wave; ++i) {
        const std::uint32_t id = wave_start + i;
        if (interner_.size() > options_.max_nodes) {
          stats_.limit = LimitKind::kNodes;
          break;
        }
        const Emitter& buffer = buffers[i];
        terminal_tags_.push_back(buffer.terminal_);
        succs.assign(buffer.found_.begin(), buffer.found_.end());
        if (buffer.self_) succs.push_back(id);
        for (const Emitter::Entry& entry : buffer.entries_)
          succs.push_back(
              interner_.intern(buffer.words_of(entry), entry.hash).first);
        std::sort(succs.begin(), succs.end());
        succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
        graph_.append(succs);
        stats_.emitted += buffer.emitted_;
        if (graph_.num_edges() > options_.max_edges) {
          stats_.limit = LimitKind::kEdges;
          break;
        }
        if (bytes() > options_.max_bytes) {
          stats_.limit = LimitKind::kBytes;
          break;
        }
      }
      ++stats_.waves;
      nodes_gauge.set(static_cast<double>(interner_.size()));
      edges_gauge.set(static_cast<double>(graph_.num_edges()));
      frontier_gauge.set(
          static_cast<double>(interner_.size() - graph_.num_nodes()));
      bytes_gauge.set(static_cast<double>(bytes()));
      wave_micros.record((obs::now_ns() - wave_begin_ns) / 1000);
      obs::trace_counter("verify.interner_bytes",
                         static_cast<double>(bytes()));
    }
    // Nodes left unexpanded by a budget stop have no successors.
    while (graph_.num_nodes() < interner_.size()) {
      graph_.append({});
      terminal_tags_.push_back(kNoTerminal);
    }

    stats_.nodes = interner_.size();
    stats_.edges = graph_.num_edges();
    stats_.bytes = bytes();
    stats_.complete = stats_.limit == LimitKind::kNone;
    registry.counter("verify.successors_emitted").add(stats_.emitted);
    interner_.release_index();
    return stats_;
  }

  std::uint32_t num_nodes() const { return interner_.size(); }
  /// Valid for the kernel's lifetime.
  std::span<const std::uint64_t> state(std::uint32_t id) const {
    return interner_.state(id);
  }
  /// Sorted, without repeats; valid for the kernel's lifetime.
  std::span<const std::uint32_t> successors(std::uint32_t id) const {
    return graph_.successors(id);
  }
  std::uint32_t terminal_tag(std::uint32_t id) const {
    return terminal_tags_[id];
  }
  const KernelStats& stats() const { return stats_; }

  /// SCCs + bottom-SCC flags over the explored graph.
  SccAnalysis analyse() const { return analyse_sccs(graph_, terminal_tags_); }

 private:
  /// Bytes of the live graph store: the interner's, one CSR offset and
  /// one terminal tag per expanded node, and one id per edge. A pure
  /// function of the counts, so a byte budget stops at the same node at
  /// every thread count.
  std::uint64_t bytes() const {
    return interner_.bytes() +
           graph_.num_nodes() *
               (sizeof(std::uint64_t) + sizeof(std::uint32_t)) +
           graph_.num_edges() * sizeof(std::uint32_t);
  }

  const Domain& domain_;
  KernelOptions options_;
  Interner interner_;
  support::CsrGraph graph_;
  std::vector<std::uint32_t> terminal_tags_;
  KernelStats stats_;
};

}  // namespace ppde::verify
