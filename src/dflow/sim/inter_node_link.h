#ifndef DFLOW_SIM_INTER_NODE_LINK_H_
#define DFLOW_SIM_INTER_NODE_LINK_H_

#include <cstdint>
#include <deque>
#include <string>

#include "dflow/sim/simulator.h"

namespace dflow::trace {
class Tracer;
}

namespace dflow::sim {

/// A directed inter-node transfer medium: the cluster-level analogue of
/// sim::Link. Where an intra-fabric Link only serializes transfers, an
/// InterNodeLink additionally carries the cluster's reliability contract:
///
///  - a credit window (`credits` unacked frames in flight; a sender whose
///    window is full stalls until the oldest ack returns, and the stall is
///    accounted in credit_stall_ns — the cross-node twin of the intra-node
///    credit-based flow control),
///  - checksummed frames with ack/timeout retransmission (capped
///    exponential backoff, mirroring the PR 1 edge-recovery policy), and
///  - a seeded per-frame drop/corrupt process so fault runs are
///    byte-identical per seed.
///
/// Each node pair gets its own directed link (full mesh), so per-link
/// byte/stall counters localize exchange hotspots. The link keeps no
/// pointer to any per-node Simulator: cluster execution is phase-structured
/// (local fragments run on their own fabrics, then exchanges are laid out
/// on cluster virtual time), so Reserve-style time algebra is all that is
/// needed — and it keeps the model deterministic by construction.
class InterNodeLink {
 public:
  InterNodeLink(std::string name, double bandwidth_gbps, SimTime latency_ns,
                uint32_t credits);

  /// Outcome of one frame send, after any retransmissions.
  struct FrameResult {
    SimTime depart = 0;   // when the final attempt's last byte left
    SimTime arrive = 0;   // when the final attempt reached the receiver
    uint32_t attempts = 1;
    bool delivered = true;  // false => attempts exhausted (frame lost)
  };

  const std::string& name() const { return name_; }
  double bandwidth_gbps() const { return bandwidth_gbps_; }
  SimTime latency_ns() const { return latency_ns_; }
  uint32_t credits() const { return credits_; }

  /// Time on the wire for `bytes` (no queueing, no latency).
  SimTime WireTimeNs(uint64_t bytes) const;

  /// Sends one checksummed frame that becomes ready at `ready`: acquires a
  /// credit (stalling while the window is full), serializes on the wire
  /// after earlier frames, and retransmits with capped backoff when the
  /// seeded fault process drops or corrupts an attempt. The checksum is
  /// folded into checksum_accum() so two runs that moved different bytes
  /// can never report byte-identical exchanges.
  FrameResult Send(SimTime ready, uint64_t bytes, uint64_t checksum);

  /// Arms the seeded frame-fault process. Each attempt's fate is a pure
  /// function of (seed, frame sequence, attempt): same seed, same schedule.
  void ArmFaults(double drop_probability, double corrupt_probability,
                 uint64_t seed, uint32_t max_attempts);

  /// Returns every in-flight credit (the cancel path). After this the
  /// window is empty and credits_released() == credits_acquired().
  void CancelWindow();

  /// Frames currently holding a credit.
  size_t credits_in_flight() const { return window_.size(); }
  uint64_t credits_acquired() const { return credits_acquired_; }
  uint64_t credits_released() const { return credits_released_; }

  uint64_t bytes_transferred() const { return bytes_transferred_; }
  uint64_t frames() const { return frames_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t frames_lost() const { return frames_lost_; }
  uint64_t busy_ns() const { return busy_ns_; }
  uint64_t credit_stall_ns() const { return credit_stall_ns_; }
  uint64_t checksum_accum() const { return checksum_accum_; }

  /// Emits one wire-occupancy span per attempt on the "xchg" category
  /// (track = link name); retransmissions also emit an instant event.
  void SetTracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Clears counters and timing state (fresh cluster run).
  void ResetStats();

 private:
  /// Attempt fate, decided by the seeded process.
  enum class Fate { kDelivered, kDropped, kCorrupted };
  Fate DecideFate(uint64_t frame_seq, uint32_t attempt) const;

  std::string name_;
  double bandwidth_gbps_;
  SimTime latency_ns_;
  uint32_t credits_;
  trace::Tracer* tracer_ = nullptr;

  bool faults_armed_ = false;
  double drop_probability_ = 0.0;
  double corrupt_probability_ = 0.0;
  uint64_t fault_seed_ = 0;
  uint32_t max_attempts_ = 6;

  SimTime next_free_ = 0;
  std::deque<SimTime> window_;  // ack-return times of in-flight frames
  uint64_t frame_seq_ = 0;

  uint64_t bytes_transferred_ = 0;
  uint64_t frames_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t frames_lost_ = 0;
  uint64_t busy_ns_ = 0;
  uint64_t credit_stall_ns_ = 0;
  uint64_t credits_acquired_ = 0;
  uint64_t credits_released_ = 0;
  uint64_t checksum_accum_ = 0;
};

}  // namespace dflow::sim

#endif  // DFLOW_SIM_INTER_NODE_LINK_H_
