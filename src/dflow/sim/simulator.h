#ifndef DFLOW_SIM_SIMULATOR_H_
#define DFLOW_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace dflow::sim {

/// Virtual time in nanoseconds.
using SimTime = uint64_t;

/// Deterministic discrete-event simulator. Events at equal timestamps run in
/// schedule order (stable), so simulations are exactly reproducible run to
/// run — a property the tests rely on.
///
/// This is the substrate on which the whole "pipeline of processing elements
/// along the data path" (§7) executes: every chunk hop, DMA transfer, credit
/// return, and device completion is an event here.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` ns from now.
  void Schedule(SimTime delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at an absolute virtual time (must be >= now).
  void ScheduleAt(SimTime time, std::function<void()> fn);

  /// Runs events until the queue drains. Returns the final virtual time.
  SimTime Run();

  /// Runs until the queue drains or `max_events` have executed (runaway
  /// guard for tests). Returns true if the queue drained.
  bool RunWithLimit(uint64_t max_events);

  uint64_t events_processed() const { return events_processed_; }

  /// Resets virtual time and drops pending events. Metrics owned by links
  /// and devices are unaffected.
  void Reset();

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Moves the earliest event out of the heap. Events are moved, never
  /// copied: their closures capture whole DataChunks.
  Event PopNext();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  // A binary min-heap on (time, seq) under EventLater. Not a
  // std::priority_queue: its top() only hands out a const reference.
  std::vector<Event> heap_;
};

}  // namespace dflow::sim

#endif  // DFLOW_SIM_SIMULATOR_H_
