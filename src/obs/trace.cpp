#include "obs/trace.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <set>

#include "obs/registry.hpp"
#include "smc/json.hpp"  // the one JSON emitter in the repo (S23)

namespace ppde::obs {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Single-producer (owning thread) / single-consumer (whoever holds the
/// ring registry mutex) event ring. The producer publishes slots with a
/// release store of head; a drainer acquires head, reads the slots below
/// it, and releases tail; the producer acquires tail to detect fullness.
struct ThreadRing {
  explicit ThreadRing(std::uint32_t capacity)
      : slots(capacity), mask(capacity - 1) {}

  std::vector<TraceEvent> slots;
  const std::uint64_t mask;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint32_t tid = 0;
};

/// Per-thread ring cache. Tracer ids are globally unique and never reused,
/// so a stale cache entry from a previous tracer can never alias a new one.
struct TlCache {
  std::uint64_t tracer_id = 0;
  ThreadRing* ring = nullptr;
};
thread_local TlCache tl_cache;

std::atomic<std::uint64_t> g_next_tracer_id{1};

}  // namespace

struct Tracer::Impl {
  std::uint64_t id = 0;
  TracerOptions options;
  std::FILE* file = nullptr;
  std::uint64_t epoch_ns = 0;
  bool capture = false;  // capture mode: no file, no collector thread

  std::mutex rings_mutex;  // guards rings + draining (one drainer at a time)
  std::vector<std::unique_ptr<ThreadRing>> rings;
  std::uint32_t next_tid = 1;  // tid 0 is the process-metadata pseudo-thread
  std::uint64_t written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t truncated_events = 0;  // suppressed past max_file_bytes
  bool truncated = false;
  std::set<std::uint64_t> announced_pids;  // foreign process_name records

  std::thread collector;
  std::mutex control_mutex;
  std::condition_variable control_cv;
  bool stop_requested = false;

  ThreadRing* ring_for_current_thread() {
    if (tl_cache.tracer_id == id) return tl_cache.ring;
    std::lock_guard<std::mutex> lock(rings_mutex);
    rings.push_back(std::make_unique<ThreadRing>(options.ring_capacity));
    ThreadRing* ring = rings.back().get();
    ring->tid = next_tid++;
    tl_cache = {id, ring};
    return ring;
  }

  void write_line(const std::string& object, bool last) {
    if (file == nullptr) return;  // closed by an interrupt_stop()
    std::fputs(object.c_str(), file);
    std::fputs(last ? "\n" : ",\n", file);
    bytes_written += object.size() + 2;
    if (options.max_file_bytes != 0 && bytes_written >= options.max_file_bytes)
      truncated = true;
  }

  /// True (and accounted) when the size cap says this event must be
  /// suppressed rather than written. Callers hold rings_mutex.
  bool suppress_for_cap() {
    if (!truncated) return false;
    ++truncated_events;
    static Counter& counter =
        Registry::global().counter("obs.trace_truncated");
    counter.add(1);
    return true;
  }

  /// A fresh tracer state: a new id, `options` with the ring capacity
  /// rounded down to a power of two (the mask invariant), epoch now.
  static Impl* create(const TracerOptions& options) {
    auto* impl = new Impl;
    impl->id = g_next_tracer_id.fetch_add(1, std::memory_order_relaxed);
    impl->options = options;
    std::uint32_t capacity = 1;
    while (capacity * 2 <= options.ring_capacity && capacity < (1u << 20))
      capacity *= 2;
    impl->options.ring_capacity = capacity;
    impl->epoch_ns = now_ns();
    return impl;
  }

  /// One trace-event line for `event` (absolute timestamp, rebased onto
  /// this tracer's epoch) in process `pid`: pid 1 for this process's own
  /// events, a worker's pid for stitched ones.
  std::string serialise(std::uint64_t pid, const CapturedEvent& event) const {
    smc::JsonWriter json;
    json.field("name", std::string_view(event.name));
    json.field("cat", std::string_view(event.cat));
    const std::uint64_t rel_ns =
        event.ts_ns > epoch_ns ? event.ts_ns - epoch_ns : 0;
    const double ts_us = static_cast<double>(rel_ns) / 1000.0;
    switch (event.kind) {
      case TraceEvent::Kind::kComplete:
        json.field("ph", std::string_view("X"));
        json.field("ts", ts_us);
        json.field("dur", static_cast<double>(event.dur_ns) / 1000.0);
        break;
      case TraceEvent::Kind::kCounter:
        json.field("ph", std::string_view("C"));
        json.field("ts", ts_us);
        break;
      case TraceEvent::Kind::kInstant:
        json.field("ph", std::string_view("i"));
        json.field("ts", ts_us);
        json.field("s", std::string_view("t"));
        break;
    }
    json.field("pid", pid);
    json.field("tid", static_cast<std::uint64_t>(event.tid));
    if (event.kind == TraceEvent::Kind::kCounter) {
      smc::JsonWriter args;
      args.field("value", event.value);
      json.raw_field("args", args.finish());
    } else if (event.has_value) {
      smc::JsonWriter args;
      args.field("n", event.value);
      json.raw_field("args", args.finish());
    }
    return json.finish();
  }

  /// Take every ring's pending events, oldest first within a ring, as
  /// absolute-timestamped records. Callers hold rings_mutex.
  template <typename Visit>
  void drain_rings(Visit&& visit) {
    for (const std::unique_ptr<ThreadRing>& ring : rings) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
      for (; tail != head; ++tail) {
        const TraceEvent& event = ring->slots[tail & ring->mask];
        visit(CapturedEvent{event.name, event.cat, event.kind,
                            epoch_ns + event.ts_ns, event.dur_ns, ring->tid,
                            event.value, event.has_value});
      }
      ring->tail.store(head, std::memory_order_release);
    }
  }

  /// Drain every ring to the file. Serialised by rings_mutex, so it is
  /// safe from the collector thread and from stop() after the join.
  /// Capture-mode tracers are drained by drain_capture() instead; here
  /// (their finish() path) leftover events are simply discarded.
  void drain() {
    std::lock_guard<std::mutex> lock(rings_mutex);
    drain_rings([&](const CapturedEvent& event) {
      if (capture || file == nullptr || suppress_for_cap()) return;
      write_line(serialise(1, event), /*last=*/false);
      ++written;
    });
  }

  /// Capture-mode drain: move every ring's pending events out as owned,
  /// absolute-timestamped records.
  std::vector<CapturedEvent> drain_to_memory() {
    std::lock_guard<std::mutex> lock(rings_mutex);
    std::vector<CapturedEvent> out;
    drain_rings([&](CapturedEvent&& event) {
      out.push_back(std::move(event));
      ++written;
    });
    return out;
  }

  void collector_loop() {
    std::unique_lock<std::mutex> lock(control_mutex);
    while (!stop_requested) {
      control_cv.wait_for(lock,
                          std::chrono::milliseconds(options.flush_period_ms),
                          [this] { return stop_requested; });
      lock.unlock();
      drain();
      lock.lock();
    }
  }

  std::uint64_t total_dropped() {
    std::lock_guard<std::mutex> lock(rings_mutex);
    std::uint64_t total = 0;
    for (const std::unique_ptr<ThreadRing>& ring : rings)
      total += ring->dropped.load(std::memory_order_relaxed);
    return total;
  }

  /// Shared tail of stop() / interrupt_stop(): stop the collector, drain,
  /// write the summary footer and close the file. Returns false if another
  /// shutdown path already ran (the collector is then already joined and
  /// the file closed — nothing left to do).
  bool finish() {
    {
      std::lock_guard<std::mutex> lock(control_mutex);
      if (stop_requested) return false;
      stop_requested = true;
    }
    control_cv.notify_all();
    if (collector.joinable()) collector.join();
    drain();  // anything recorded since the collector's final pass
    if (file == nullptr) return true;  // capture mode: nothing on disk

    // Footer: summary metadata (drop accounting) and the closing bracket —
    // the whole file is one valid JSON array. Written even past the size
    // cap (it is a handful of bytes and keeps the array valid).
    smc::JsonWriter summary;
    summary.field("obs_trace_v", 1);
    summary.field("ph", std::string_view("M"));
    summary.field("name", std::string_view("obs_summary"));
    summary.field("pid", 1);
    summary.field("tid", std::uint64_t{0});
    smc::JsonWriter args;
    args.field("written", written);
    args.field("dropped", total_dropped());
    args.field("truncated", truncated_events);
    summary.raw_field("args", args.finish());
    write_line(summary.finish(), /*last=*/true);
    std::fputs("]\n", file);
    std::fclose(file);
    {
      // write_line checks file without a lock of its own; the rings mutex
      // serialises the null-out against any concurrent drain.
      std::lock_guard<std::mutex> lock(rings_mutex);
      file = nullptr;
    }
    return true;
  }

  /// Emit a process_name metadata record for a foreign pid, once per pid.
  /// Callers hold rings_mutex.
  void announce_locked(std::uint64_t pid, const std::string& group_name) {
    if (file == nullptr || !announced_pids.insert(pid).second) return;
    smc::JsonWriter meta;
    meta.field("ph", std::string_view("M"));
    meta.field("name", std::string_view("process_name"));
    meta.field("pid", pid);
    meta.field("tid", std::uint64_t{0});
    smc::JsonWriter args;
    args.field("name", std::string_view(group_name));
    meta.raw_field("args", args.finish());
    write_line(meta.finish(), /*last=*/false);
  }
};

std::atomic<Tracer*> Tracer::g_active{nullptr};

Tracer::Tracer(Impl* impl) : impl_(impl), epoch_ns_(impl->epoch_ns) {}

bool Tracer::start(const std::string& path, const TracerOptions& options) {
  if (g_active.load(std::memory_order_relaxed) != nullptr) return false;
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;

  Impl* impl = Impl::create(options);
  impl->file = file;

  // Header: a JSON array, one event object per line (trailing commas, so
  // `sed 's/,$//'` yields pure JSONL). The first record carries the
  // versioned schema tag CI validates.
  {
    smc::JsonWriter meta;
    meta.field("obs_trace_v", 1);
    meta.field("ph", std::string_view("M"));
    meta.field("name", std::string_view("process_name"));
    meta.field("pid", 1);
    meta.field("tid", std::uint64_t{0});
    smc::JsonWriter args;
    args.field("name", std::string_view("ppde"));
    meta.raw_field("args", args.finish());
    std::fputs("[\n", file);
    impl->write_line(meta.finish(), /*last=*/false);
  }

  impl->collector = std::thread([impl] { impl->collector_loop(); });
  g_active.store(new Tracer(impl), std::memory_order_release);
  return true;
}

bool Tracer::start_capture(const TracerOptions& options) {
  if (g_active.load(std::memory_order_relaxed) != nullptr) return false;
  Impl* impl = Impl::create(options);
  impl->capture = true;
  // No file, no collector thread: the owner drains via drain_capture().
  g_active.store(new Tracer(impl), std::memory_order_release);
  return true;
}

bool Tracer::capturing() {
  Tracer* tracer = g_active.load(std::memory_order_relaxed);
  return tracer != nullptr && tracer->impl_->capture;
}

std::vector<CapturedEvent> Tracer::drain_capture() {
  Tracer* tracer = g_active.load(std::memory_order_relaxed);
  if (tracer == nullptr || !tracer->impl_->capture) return {};
  return tracer->impl_->drain_to_memory();
}

void Tracer::reset_after_fork() {
  // Leak whatever the child inherited: its collector thread did not
  // survive the fork and its FILE* is shared with the parent, so the
  // only safe interaction is none at all.
  g_active.store(nullptr, std::memory_order_relaxed);
  tl_cache = {};
}

void Tracer::stop() {
  Tracer* tracer = g_active.load(std::memory_order_relaxed);
  if (tracer == nullptr) return;
  // Uninstall first so no *new* spans begin; the contract requires
  // instrumented threads to have quiesced already, so no record() is in
  // flight past this point.
  g_active.store(nullptr, std::memory_order_release);

  if (!tracer->impl_->finish()) return;  // interrupt_stop() already ran
  delete tracer;
}

void Tracer::interrupt_stop() {
  Tracer* tracer = g_active.load(std::memory_order_relaxed);
  if (tracer == nullptr) return;
  // NOT uninstalled and deliberately leaked: see the header contract —
  // worker threads may be mid-record(), so the rings must stay live. The
  // drained-then-closed file is complete; later record() calls land in
  // rings nobody reads again.
  tracer->impl_->finish();
}

Tracer::~Tracer() { delete impl_; }

void Tracer::record(const TraceEvent& event) {
  ThreadRing* ring = impl_->ring_for_current_thread();
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  if (head - ring->tail.load(std::memory_order_acquire) > ring->mask) {
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring->slots[head & ring->mask] = event;
  ring->head.store(head + 1, std::memory_order_release);
}

void Tracer::emit_foreign(std::uint64_t pid, const std::string& group_name,
                          const CapturedEvent& event) {
  std::lock_guard<std::mutex> lock(impl_->rings_mutex);
  if (impl_->capture || impl_->file == nullptr) return;
  impl_->announce_locked(pid, group_name);
  if (impl_->suppress_for_cap()) return;
  impl_->write_line(impl_->serialise(pid, event), /*last=*/false);
  ++impl_->written;
}

void Tracer::announce_process(std::uint64_t pid,
                              const std::string& group_name) {
  std::lock_guard<std::mutex> lock(impl_->rings_mutex);
  if (impl_->capture) return;
  impl_->announce_locked(pid, group_name);
}

std::uint64_t Tracer::dropped() const { return impl_->total_dropped(); }

std::uint64_t Tracer::written() const {
  std::lock_guard<std::mutex> lock(impl_->rings_mutex);
  return impl_->written;
}

}  // namespace ppde::obs
