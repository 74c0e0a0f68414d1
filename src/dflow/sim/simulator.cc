#include "dflow/sim/simulator.h"

#include <algorithm>

#include "dflow/common/logging.h"

namespace dflow::sim {

void Simulator::ScheduleAt(SimTime time, std::function<void()> fn) {
  DFLOW_CHECK_GE(time, now_);
  heap_.push_back(Event{time, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

Simulator::Event Simulator::PopNext() {
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

SimTime Simulator::Run() {
  while (!heap_.empty()) {
    Event ev = PopNext();
    now_ = ev.time;
    ++events_processed_;
    ev.fn();
  }
  return now_;
}

bool Simulator::RunWithLimit(uint64_t max_events) {
  uint64_t executed = 0;
  while (!heap_.empty()) {
    if (executed >= max_events) return false;
    Event ev = PopNext();
    now_ = ev.time;
    ++events_processed_;
    ++executed;
    ev.fn();
  }
  return true;
}

void Simulator::Reset() {
  now_ = 0;
  next_seq_ = 0;
  events_processed_ = 0;
  heap_.clear();
}

}  // namespace dflow::sim
