// Low-overhead span tracing for long-running computations (DESIGN.md S24).
//
// Every layer of the library — the ensemble engine (S21), the verification
// kernel (S22), the certification driver (S23) — now runs for minutes at a
// time, and "where does the wall clock go" must be answerable without
// attaching a debugger. This tracer records RAII spans and counter samples
// into per-thread lock-free ring buffers; a collector thread drains the
// rings periodically and serialises Chrome trace-event records (one JSON
// object per line, `obs_trace_v` = 1) that open directly in
// `about:tracing` and Perfetto.
//
// Overhead contract (the subsystem's reason to exist):
//   * Tracing disabled — the default — an ObsSpan construction is one
//     relaxed load of a global pointer plus a branch on null; no
//     allocation, no clock read, no atomic RMW. bench_obs measures this
//     at well under a nanosecond, and `bench_simulator` count+null-skip
//     throughput is within noise of the pre-obs baseline (EXPERIMENTS.md).
//   * Tracing enabled, the hot path (one `record()`) is a clock read plus
//     a handful of plain stores into the calling thread's own ring and
//     one release store of the ring head: no locks, no CAS, no sharing.
//     When a ring fills faster than the collector drains it, events are
//     *dropped and counted* — never blocked on.
//
// Concurrency contract:
//   * record()/ObsSpan may be used from any thread at any time while a
//     tracer is active; rings are strictly single-producer (the owning
//     thread) / single-consumer (the collector, serialised by the ring
//     registry mutex).
//   * start()/stop() are control-plane calls: they must not race with
//     each other, and stop() must only be called once instrumented worker
//     threads have quiesced (joined or idle) — the CLI stops the tracer
//     after every pool has drained. The collector thread itself is owned
//     and joined by stop().
//
// Determinism: the tracer observes; it never touches RNG streams, trial
// scheduling or any certified statistic. Certificates and verification
// verdicts are byte-identical with tracing on, off, and at every thread
// count (test_obs and the obs-smoke CI job assert exactly that).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ppde::obs {

/// Monotonic nanoseconds (steady_clock); the tracer's time base.
std::uint64_t now_ns();

/// One record in a thread ring. Name/category must be string literals (or
/// otherwise outlive the tracer): only the pointers travel through the
/// ring, the collector serialises the text.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kComplete,  ///< span: ts .. ts+dur ("ph":"X")
    kCounter,   ///< sampled value ("ph":"C")
    kInstant,   ///< point event ("ph":"i")
  };
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t ts_ns = 0;   ///< since tracer start
  std::uint64_t dur_ns = 0;  ///< kComplete only
  double value = 0.0;        ///< kCounter value / optional span arg "n"
  bool has_value = false;    ///< emit the span's "n" arg
  Kind kind = Kind::kComplete;
};

struct TracerOptions {
  /// Per-thread ring capacity in events; must be a power of two.
  std::uint32_t ring_capacity = 1u << 14;
  /// Collector wake-up period.
  std::uint32_t flush_period_ms = 100;
  /// Stop emitting event lines once the file reaches this many bytes
  /// (0 = unlimited). Past the cap the collector counts each suppressed
  /// event in the `obs.trace_truncated` registry counter instead of
  /// growing the file; the footer is still written so the trace on disk
  /// stays one valid JSON array. CLI: `--trace-max-mb=N` (S29).
  std::uint64_t max_file_bytes = 0;
};

/// A trace event drained out of a *capture-mode* tracer (S29): names are
/// owned strings (safe to ship across a process boundary) and the
/// timestamp is absolute steady-clock nanoseconds — CLOCK_MONOTONIC is
/// machine-global on Linux, so the serve daemon can rebase a worker's
/// events onto its own tracer epoch and stitch one coherent timeline.
struct CapturedEvent {
  std::string name;
  std::string cat;
  TraceEvent::Kind kind = TraceEvent::Kind::kComplete;
  std::uint64_t ts_ns = 0;   ///< absolute now_ns() timebase
  std::uint64_t dur_ns = 0;  ///< kComplete only
  std::uint32_t tid = 0;     ///< producing thread's ring id
  double value = 0.0;
  bool has_value = false;
};

/// The process-wide tracer. At most one is active; instrumentation sites
/// reach it through active(), whose nullptr result is the disabled path.
class Tracer {
 public:
  /// Open `path` and install a tracer. Returns false (and stays disabled)
  /// if the file cannot be opened or a tracer is already active.
  static bool start(const std::string& path, const TracerOptions& options = {});

  /// Drain everything, write the trace footer, close the file, uninstall.
  /// No-op when no tracer is active.
  static void stop();

  /// Install a *capture-mode* tracer: no file, no collector thread.
  /// Instrumentation sites record into the usual per-thread rings; the
  /// owner periodically calls drain_capture() to take the accumulated
  /// events as structured CapturedEvent records. This is how a serve
  /// worker participates in distributed tracing (S29): it captures its
  /// spans per batch and ships them back on the wire for the daemon to
  /// stitch. Returns false if a tracer is already active.
  static bool start_capture(const TracerOptions& options = {});

  /// True when the active tracer is capture-mode.
  static bool capturing();

  /// Drain every ring of a capture-mode tracer and return the events
  /// (absolute timestamps, owned strings). Empty if no capture-mode
  /// tracer is active. Call from the thread(s) that own the protocol —
  /// serialised internally, safe alongside concurrent record() calls.
  static std::vector<CapturedEvent> drain_capture();

  /// Forget any tracer inherited across fork() without touching it.
  /// A child process must not drain rings, join the collector, or share
  /// the parent's FILE*; clearing the active pointer (and leaking the
  /// inherited copy-on-write Impl) lets the child start its own capture
  /// tracer cleanly. Called in the serve supervisor's child branch.
  static void reset_after_fork();

  /// Interrupt-path variant of stop() for SIGINT/SIGTERM handling (S25):
  /// drains the rings, writes the footer and closes the file so the trace
  /// on disk is a complete, valid JSON array — but deliberately leaves the
  /// tracer installed and leaks it. stop() requires instrumented threads
  /// to have quiesced; an interrupt arrives while workers are mid-span,
  /// and uninstalling under them would race ~ObsSpan's record() against
  /// the teardown. A leaked tracer keeps those record() calls writing into
  /// live (never again drained) rings, which is harmless for a process
  /// about to _exit(). Called from a signal-watcher *thread* (not a
  /// handler) — it takes locks and does file IO. Safe to call at most
  /// once; a later stop() is a no-op.
  static void interrupt_stop();

  /// The active tracer, or nullptr when tracing is disabled. The relaxed
  /// load + branch on the result IS the documented disabled-path cost.
  static Tracer* active() {
    return g_active.load(std::memory_order_relaxed);
  }

  /// Append one event to the calling thread's ring (lock-free; drops and
  /// counts the event if the ring is full).
  void record(const TraceEvent& event);

  /// Stitch a foreign process's event into this (file-mode) tracer: the
  /// event is written with `pid` — not the tracer's own pid 1 — so every
  /// worker lands in its own Perfetto track group; the first event per
  /// pid also emits a `process_name` metadata record naming the group
  /// (e.g. "ppde worker 1234"). `event.ts_ns` is absolute (a capture-
  /// mode drain) and is rebased onto this tracer's epoch. Thread-safe;
  /// a no-op on capture-mode tracers and after the file is closed.
  void emit_foreign(std::uint64_t pid, const std::string& group_name,
                    const CapturedEvent& event);

  /// Announce a foreign process's track-group name without an event, so
  /// every fleet worker appears in the trace even before (or without)
  /// contributing spans. Idempotent per pid.
  void announce_process(std::uint64_t pid, const std::string& group_name);

  /// Convenience: a counter sample ("ph":"C").
  void counter(const char* name, double value) {
    TraceEvent event;
    event.name = name;
    event.cat = "obs";
    event.kind = TraceEvent::Kind::kCounter;
    event.ts_ns = now_ns() - epoch_ns_;
    event.value = value;
    record(event);
  }

  std::uint64_t epoch_ns() const { return epoch_ns_; }
  /// Events dropped on full rings so far (approximate while running).
  std::uint64_t dropped() const;
  /// Events serialised so far (approximate while running).
  std::uint64_t written() const;

  ~Tracer();

 private:
  struct Impl;
  explicit Tracer(Impl* impl);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static std::atomic<Tracer*> g_active;

  Impl* impl_;
  std::uint64_t epoch_ns_ = 0;
};

/// RAII span: records a "ph":"X" complete event over its own lifetime.
/// With tracing disabled both constructor and destructor reduce to a load
/// and a branch. `name` and `cat` must outlive the tracer (use literals).
class ObsSpan {
 public:
  explicit ObsSpan(const char* name, const char* cat = "ppde") {
    tracer_ = Tracer::active();
    if (tracer_ != nullptr) {
      name_ = name;
      cat_ = cat;
      start_ns_ = now_ns();
    }
  }

  /// Attach a numeric argument ("args":{"n":value}) to the span.
  void set_value(double value) {
    value_ = value;
    has_value_ = true;
  }

  ~ObsSpan() {
    if (tracer_ == nullptr) return;
    TraceEvent event;
    event.name = name_;
    event.cat = cat_;
    event.kind = TraceEvent::Kind::kComplete;
    event.ts_ns = start_ns_ - tracer_->epoch_ns();
    event.dur_ns = now_ns() - start_ns_;
    event.value = value_;
    event.has_value = has_value_;
    tracer_->record(event);
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t start_ns_ = 0;
  double value_ = 0.0;
  bool has_value_ = false;
};

/// Counter sample if tracing is active; a load + branch otherwise.
inline void trace_counter(const char* name, double value) {
  if (Tracer* tracer = Tracer::active()) tracer->counter(name, value);
}

}  // namespace ppde::obs
