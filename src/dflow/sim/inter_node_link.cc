#include "dflow/sim/inter_node_link.h"

#include <algorithm>
#include <cmath>

#include "dflow/common/hash.h"
#include "dflow/trace/tracer.h"

namespace dflow::sim {
namespace {

/// Retransmission backoff base: one extra round trip per failed attempt,
/// doubling and capped — the same shape as the PR 1 edge-recovery policy,
/// re-used across node boundaries.
constexpr uint32_t kBackoffCapShift = 4;  // at most 16x the base backoff

}  // namespace

InterNodeLink::InterNodeLink(std::string name, double bandwidth_gbps,
                             SimTime latency_ns, uint32_t credits)
    : name_(std::move(name)),
      bandwidth_gbps_(bandwidth_gbps),
      latency_ns_(latency_ns),
      credits_(credits == 0 ? 1 : credits) {}

SimTime InterNodeLink::WireTimeNs(uint64_t bytes) const {
  if (bandwidth_gbps_ <= 0.0) return 0;
  const double ns = static_cast<double>(bytes) * 8.0 / bandwidth_gbps_;
  return static_cast<SimTime>(std::llround(std::ceil(ns)));
}

InterNodeLink::Fate InterNodeLink::DecideFate(uint64_t frame_seq,
                                              uint32_t attempt) const {
  if (!faults_armed_) return Fate::kDelivered;
  uint64_t h = HashCombine(HashInt64(fault_seed_),
                           HashString(name_));
  h = HashCombine(h, frame_seq);
  h = HashCombine(h, attempt);
  // 53-bit mantissa-exact uniform in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1p-53;
  if (u < drop_probability_) return Fate::kDropped;
  if (u < drop_probability_ + corrupt_probability_) return Fate::kCorrupted;
  return Fate::kDelivered;
}

InterNodeLink::FrameResult InterNodeLink::Send(SimTime ready, uint64_t bytes,
                                               uint64_t checksum) {
  // Credit acquisition: with the window full, the sender stalls until the
  // oldest in-flight frame's ack returns the credit.
  SimTime start = ready;
  if (window_.size() >= credits_) {
    const SimTime ack = window_.front();
    window_.pop_front();
    credits_released_++;
    if (ack > start) {
      credit_stall_ns_ += static_cast<uint64_t>(ack - start);
      start = ack;
    }
  }
  credits_acquired_++;

  const uint64_t seq = frame_seq_++;
  const SimTime wire = WireTimeNs(bytes);
  FrameResult result;
  SimTime attempt_ready = start;
  uint32_t attempt = 0;
  while (true) {
    attempt++;
    const SimTime depart = std::max(attempt_ready, next_free_) + wire;
    const SimTime arrive = depart + latency_ns_;
    next_free_ = depart;
    bytes_transferred_ += bytes;
    busy_ns_ += static_cast<uint64_t>(wire);
    const Fate fate = DecideFate(seq, attempt);
    if (tracer_ != nullptr) {
      tracer_->Span("xchg", name_, attempt == 1 ? "frame" : "frame.retx",
                    depart - wire, arrive, bytes);
    }
    if (fate == Fate::kDelivered) {
      result.depart = depart;
      result.arrive = arrive;
      result.attempts = attempt;
      result.delivered = true;
      break;
    }
    retransmits_++;
    if (tracer_ != nullptr) {
      tracer_->Instant("xchg", name_,
                       fate == Fate::kDropped ? "frame.drop" : "frame.corrupt",
                       arrive, seq);
    }
    if (attempt >= max_attempts_) {
      result.depart = depart;
      result.arrive = arrive;
      result.attempts = attempt;
      result.delivered = false;
      frames_lost_++;
      break;
    }
    // A dropped frame is noticed at the ack timeout (one round trip past
    // delivery); a corrupted one is NACKed on arrival (checksum mismatch at
    // the receiver). Either way the retry backs off, doubling per attempt.
    const SimTime notice =
        fate == Fate::kDropped ? arrive + 2 * latency_ns_ : arrive + latency_ns_;
    const uint32_t shift = std::min(attempt - 1, kBackoffCapShift);
    attempt_ready = notice + (latency_ns_ << shift);
  }

  frames_++;
  checksum_accum_ = HashCombine(checksum_accum_, checksum);
  // The delivery ack returns this frame's credit one latency after arrival.
  window_.push_back(result.arrive + latency_ns_);
  return result;
}

void InterNodeLink::ArmFaults(double drop_probability,
                              double corrupt_probability, uint64_t seed,
                              uint32_t max_attempts) {
  faults_armed_ = true;
  drop_probability_ = drop_probability;
  corrupt_probability_ = corrupt_probability;
  fault_seed_ = seed;
  max_attempts_ = max_attempts == 0 ? 1 : max_attempts;
}

void InterNodeLink::CancelWindow() {
  credits_released_ += window_.size();
  window_.clear();
}

void InterNodeLink::ResetStats() {
  next_free_ = 0;
  window_.clear();
  frame_seq_ = 0;
  bytes_transferred_ = 0;
  frames_ = 0;
  retransmits_ = 0;
  frames_lost_ = 0;
  busy_ns_ = 0;
  credit_stall_ns_ = 0;
  credits_acquired_ = 0;
  credits_released_ = 0;
  checksum_accum_ = 0;
}

}  // namespace dflow::sim
