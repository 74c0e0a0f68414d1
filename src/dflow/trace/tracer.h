#ifndef DFLOW_TRACE_TRACER_H_
#define DFLOW_TRACE_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dflow/sim/simulator.h"

namespace dflow::trace {

/// What one trace record describes.
enum class EventKind : uint8_t {
  kSpan,     // an interval of occupancy: device work, wire time, stage work
  kInstant,  // a point event: retransmit, stall, plan choice, EOS
  kCounter,  // a sampled value: queue depth, in-flight bytes
};

/// One record of the fabric-wide event trace. Every field is derived from
/// the deterministic simulation — virtual timestamps, stable names, byte
/// counts — never wall-clock time or addresses, so a (workload, config)
/// pair produces a byte-identical trace on every run (the CI regression
/// gate and the golden tests depend on this).
struct TraceEvent {
  sim::SimTime start = 0;
  sim::SimTime end = 0;  // == start for instants and counters
  /// Emission order; the tie-breaker that keeps exporter output stable when
  /// several events share a virtual timestamp.
  uint64_t seq = 0;
  EventKind kind = EventKind::kInstant;
  /// Which layer emitted it: "device" | "link" | "dma" | "stage" | "edge" |
  /// "fault" | "engine" | "sched" | "compile" (plan compilation, operator
  /// fusion, and program-cache hit / miss / recompile outcomes).
  std::string category;
  /// The timeline row the event belongs to (device / link / stage / edge
  /// name). Exporters group events by (category, track).
  std::string track;
  /// What happened ("scan", "xfer", "retransmit", "plan_choice", ...).
  std::string name;
  /// Bytes moved for spans, counter value for counters, duration or
  /// sequence number for instants (see the emitting site).
  uint64_t value = 0;
  /// Optional human-readable annotation (variant name, rationale, ...).
  std::string detail;
};

/// Knobs for the observability layer, threaded through ExecOptions and the
/// bench binaries' --dflow_trace_* flags.
struct TraceOptions {
  bool enabled = false;
  /// Ring capacity in events; the oldest events are dropped on overflow
  /// (dropped() reports how many). Sized so a full-pipeline figure run fits
  /// comfortably.
  size_t ring_capacity = 1 << 18;
};

/// Low-overhead, ring-buffered event tracer for the simulated fabric.
///
/// The simulator is single-threaded, so recording is a bounds check and a
/// slot write — no locks. Instrumentation sites hold a `Tracer*` that is
/// null when tracing is off; the DFLOW_TRACE macro below compiles the whole
/// call away under -DDFLOW_TRACE_DISABLED, making the tracer's steady-state
/// cost one branch per instrumented operation (see DESIGN.md's overhead
/// budget).
class Tracer {
 public:
  explicit Tracer(TraceOptions options = TraceOptions());
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const TraceOptions& options() const { return options_; }

  void Span(std::string category, std::string track, std::string name,
            sim::SimTime start, sim::SimTime end, uint64_t value = 0,
            std::string detail = "");
  void Instant(std::string category, std::string track, std::string name,
               sim::SimTime at, uint64_t value = 0, std::string detail = "");
  void Counter(std::string category, std::string track, std::string name,
               sim::SimTime at, uint64_t value);

  /// Events currently held, oldest first, sorted by (start, seq). The sort
  /// is stable and seq is unique, so the order is fully deterministic.
  std::vector<TraceEvent> Events() const;

  /// Events currently in the ring (<= ring_capacity).
  size_t size() const { return ring_.size(); }
  /// Events recorded since the last Clear, including dropped ones.
  uint64_t total_recorded() const { return total_recorded_; }
  /// Events overwritten because the ring was full.
  uint64_t dropped() const { return total_recorded_ - ring_.size(); }

  /// Drops all events and resets counters (fresh run on the same tracer).
  void Clear();

 private:
  void Record(TraceEvent event);

  TraceOptions options_;
  std::vector<TraceEvent> ring_;  // circular once size() == ring_capacity
  size_t head_ = 0;               // next slot to overwrite when full
  uint64_t next_seq_ = 0;
  uint64_t total_recorded_ = 0;
};

}  // namespace dflow::trace

/// Instrumentation-site wrapper: DFLOW_TRACE(tracer_, Span(...)) is a null
/// check plus the call, and compiles to nothing when tracing support is
/// compiled out.
#ifndef DFLOW_TRACE_DISABLED
#define DFLOW_TRACE(tracer_expr, ...)         \
  do {                                        \
    auto* dflow_trace_t_ = (tracer_expr);     \
    if (dflow_trace_t_ != nullptr) {          \
      dflow_trace_t_->__VA_ARGS__;            \
    }                                         \
  } while (0)
#else
// Compiled out, the call stays an unevaluated operand: it is type-checked
// and names its arguments (so trace-only locals are still used), but
// nothing is evaluated and no code is emitted.
#define DFLOW_TRACE(tracer_expr, ...)                          \
  do {                                                         \
    (void)sizeof((void)((tracer_expr)->__VA_ARGS__), 0);       \
  } while (0)
#endif

#endif  // DFLOW_TRACE_TRACER_H_
