#include "dflow/exec/dataflow.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "dflow/common/logging.h"
#include "dflow/exec/invariants.h"

namespace dflow {

namespace {

/// What the receiver-side checksum of a corrupted chunk looks like: the
/// payload hash XORed with a fixed mask, so verification fails
/// deterministically without mutating the (shared) chunk data.
constexpr uint64_t kCorruptionMask = 0xBAD0C0DE5EEDULL;

sim::SimTime BackoffNs(sim::SimTime base, uint32_t attempt, sim::SimTime cap) {
  sim::SimTime v = base;
  for (uint32_t i = 0; i < attempt && v < cap; ++i) v *= 2;
  return std::min(v, cap);
}

}  // namespace

struct DataflowGraph::Edge {
  explicit Edge(uint32_t credits) : gate(credits) {}

  /// A chunk sent over an unreliable path, kept by the sender until its
  /// delivery is confirmed (consumed off this map by DeliverPending).
  struct PendingSend {
    DataChunk chunk;
    uint64_t wire = 0;
    uint32_t attempt = 0;   // transmissions so far
    uint64_t checksum = 0;  // sender-side ChecksumChunk
  };

  Node* from = nullptr;
  Node* to = nullptr;
  std::string label;  // "from->to", the edge's trace track
  std::vector<sim::Link*> path;
  std::unique_ptr<sim::DmaEngine> dma;  // present iff path is non-empty
  sim::CreditGate gate;
  std::deque<std::pair<DataChunk, uint64_t>> send_queue;  // chunk, wire bytes
  uint64_t next_seq = 0;
  std::map<uint64_t, PendingSend> pending;
  /// Verified chunks waiting for earlier sequence numbers (retransmission
  /// reorders arrivals; handoff to the receiver stays in send order so a
  /// faulty run computes bit-identical results).
  uint64_t next_deliver_seq = 0;
  std::map<uint64_t, std::pair<DataChunk, uint64_t>> reorder;
  bool eos_pending = false;
  bool eos_sent = false;
  /// Declared feedback edge (see Connect): verify-only, rejected by Run().
  bool feedback = false;
  /// Edge is currently blocked on credits (one trace instant per episode).
  bool credit_blocked = false;
  sim::SimTime path_latency = 0;
  sim::SimTime last_arrive = 0;
  uint64_t inflight_bytes = 0;
  uint64_t peak_inflight_bytes = 0;
  uint64_t bytes_sent = 0;

  /// Tuple-conservation ledger for the runtime invariant oracle (see
  /// exec/invariants.h). Maintained and checked only when the oracle is
  /// compiled in; at every event boundary
  ///   inv_enqueued == inv_launched + |send_queue|
  ///   inv_launched == inv_consumed + inv_transit + |pending| + |reorder|
  /// i.e. produced == consumed + in flight + dropped-awaiting-retransmit.
  uint64_t inv_enqueued = 0;  // chunks pushed into send_queue
  uint64_t inv_launched = 0;  // chunks that acquired a credit and left
  uint64_t inv_consumed = 0;  // chunks handed to the receiver (or sink)
  uint64_t inv_transit = 0;   // reliable-path deliveries scheduled, not run
  uint64_t inv_released = 0;  // credits returned to the gate
};

struct DataflowGraph::Node {
  enum class Type { kSource, kStage, kPartition, kBroadcast, kSink };

  Type type = Type::kStage;
  std::string name;
  sim::Device* device = nullptr;
  sim::CostClass source_cc = sim::CostClass::kScan;
  OperatorPtr op;
  std::optional<HashPartitioner> partitioner;
  double cost_factor = 1.0;
  std::vector<ScanBatch> batches;
  /// Declared schema of the source's chunks (see the AddSource overload);
  /// DataChunks are schema-less, so this is the verifier's only handle on
  /// what a source emits.
  std::optional<Schema> source_schema;
  size_t next_batch = 0;
  uint32_t storage_retries = 0;  // consecutive failed reads of the next batch
  /// Absolute virtual time before which a source stays idle (admission
  /// offset; see SetSourceStartTime).
  sim::SimTime start_at = 0;
  std::deque<std::tuple<DataChunk, uint64_t, Edge*>> inbox;
  size_t open_inputs = 0;
  std::vector<Edge*> outs;
  std::vector<Edge*> ins;
  bool device_busy = false;
  bool finished = false;
  std::vector<DataChunk> sink_chunks;
  sim::SimTime finish_time = 0;
};

DataflowGraph::DataflowGraph(sim::Simulator* sim) : sim_(sim) {
  DFLOW_CHECK(sim != nullptr);
}

DataflowGraph::~DataflowGraph() = default;

DataflowGraph::NodeId DataflowGraph::AddSource(std::string name,
                                               sim::Device* device,
                                               sim::CostClass cc,
                                               std::vector<ScanBatch> batches) {
  auto n = std::make_unique<Node>();
  n->type = Node::Type::kSource;
  n->name = std::move(name);
  n->device = device;
  n->source_cc = cc;
  n->batches = std::move(batches);
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

DataflowGraph::NodeId DataflowGraph::AddSource(std::string name,
                                               sim::Device* device,
                                               sim::CostClass cc,
                                               std::vector<ScanBatch> batches,
                                               Schema schema) {
  const NodeId id = AddSource(std::move(name), device, cc, std::move(batches));
  nodes_[id]->source_schema = std::move(schema);
  return id;
}

DataflowGraph::NodeId DataflowGraph::AddStage(std::string name, OperatorPtr op,
                                              sim::Device* device,
                                              double cost_factor) {
  auto n = std::make_unique<Node>();
  n->type = Node::Type::kStage;
  n->name = std::move(name);
  n->device = device;
  n->op = std::move(op);
  n->cost_factor = cost_factor;
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

DataflowGraph::NodeId DataflowGraph::AddPartitionStage(
    std::string name, HashPartitioner partitioner, sim::Device* device) {
  auto n = std::make_unique<Node>();
  n->type = Node::Type::kPartition;
  n->name = std::move(name);
  n->device = device;
  n->partitioner = partitioner;
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

DataflowGraph::NodeId DataflowGraph::AddBroadcastStage(
    std::string name, sim::Device* device) {
  auto n = std::make_unique<Node>();
  n->type = Node::Type::kBroadcast;
  n->name = std::move(name);
  n->device = device;
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

DataflowGraph::NodeId DataflowGraph::AddSink(std::string name) {
  auto n = std::make_unique<Node>();
  n->type = Node::Type::kSink;
  n->name = std::move(name);
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

Status DataflowGraph::Connect(NodeId from, NodeId to,
                              std::vector<sim::Link*> path, uint32_t credits,
                              bool feedback) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return Status::InvalidArgument("Connect: node id out of range");
  }
  if (credits == 0) {
    return Status::InvalidArgument("Connect: credits must be positive");
  }
  auto e = std::make_unique<Edge>(credits);
  e->feedback = feedback;
  e->from = GetNode(from);
  e->to = GetNode(to);
  e->label = e->from->name + "->" + e->to->name;
  e->path = std::move(path);
  for (sim::Link* l : e->path) {
    if (l == nullptr) return Status::InvalidArgument("Connect: null link");
    e->path_latency += l->latency_ns();
  }
  if (!e->path.empty()) {
    e->dma = std::make_unique<sim::DmaEngine>(e->label, e->path[0]);
    e->dma->SetTracer(tracer_);
  }
  e->from->outs.push_back(e.get());
  e->to->ins.push_back(e.get());
  edges_.push_back(std::move(e));
  return Status::OK();
}

DataflowGraph::Edge* DataflowGraph::FindEdge(NodeId from, NodeId to) const {
  for (const auto& e : edges_) {
    if (e->from == nodes_[from].get() && e->to == nodes_[to].get()) {
      return e.get();
    }
  }
  return nullptr;
}

void DataflowGraph::SetTracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  for (auto& e : edges_) {
    if (e->dma != nullptr) e->dma->SetTracer(tracer);
  }
}

Status DataflowGraph::SetEdgeRateLimit(NodeId from, NodeId to, double gbps) {
  Edge* e = FindEdge(from, to);
  if (e == nullptr) return Status::NotFound("no such edge");
  if (e->dma == nullptr) {
    return Status::InvalidArgument("edge has no link (colocated)");
  }
  e->dma->SetRateLimitGbps(gbps);
  return Status::OK();
}

void DataflowGraph::Fail(Status status, lifecycle::FailureKind kind) {
  if (status_.ok()) {
    status_ = std::move(status);
    failure_kind_ = kind;
  }
  MaybeComplete();
}

void DataflowGraph::Cancel(Status reason) {
  DFLOW_CHECK(!reason.ok());
  if (!started_ || completion_reported_ || !status_.ok()) return;
  const lifecycle::FailureKind kind =
      reason.IsDeadlineExceeded() ? lifecycle::FailureKind::kDeadlineExceeded
                                  : lifecycle::FailureKind::kCancelled;
  DFLOW_TRACE(tracer_, Instant("lifecycle", "graph", "cancel", sim_->now(),
                               /*value=*/0, reason.ToString()));
  Fail(std::move(reason), kind);
}

bool DataflowGraph::CancelRequested() {
  if (cancel_token_ == nullptr || !cancel_token_->cancelled()) return false;
  if (status_.ok()) Cancel(cancel_token_->reason());
  return true;
}

bool DataflowGraph::SendQueuesEmpty(const Node* n) const {
  for (const Edge* e : n->outs) {
    if (!e->send_queue.empty()) return false;
  }
  return true;
}

bool DataflowGraph::DeviceCrashed(Node* n) {
  if (fault_ == nullptr || n->device == nullptr) return false;
  if (!fault_->IsCrashed(n->device->name())) return false;
  if (status_.ok()) {
    failed_device_ = n->device->name();
    Fail(Status::IOError("device '" + n->device->name() +
                         "' crashed mid-query"),
         lifecycle::FailureKind::kDeviceCrash);
  }
  return true;
}

void DataflowGraph::CheckEdgeInvariants(Edge* e) {
#ifndef DFLOW_INVARIANTS_DISABLED
  if (!status_.ok()) return;
  DFLOW_INVARIANT(
      e->inv_enqueued == e->inv_launched + e->send_queue.size(),
      "edge " + e->label + ": enqueued=" + std::to_string(e->inv_enqueued) +
          " launched=" + std::to_string(e->inv_launched) +
          " queued=" + std::to_string(e->send_queue.size()));
  DFLOW_INVARIANT(
      e->inv_launched == e->inv_consumed + e->inv_transit +
                             e->pending.size() + e->reorder.size(),
      "edge " + e->label + ": launched=" + std::to_string(e->inv_launched) +
          " consumed=" + std::to_string(e->inv_consumed) +
          " transit=" + std::to_string(e->inv_transit) +
          " pending=" + std::to_string(e->pending.size()) +
          " reorder=" + std::to_string(e->reorder.size()));
  DFLOW_INVARIANT(e->inv_launched >= e->inv_released,
                  "edge " + e->label + ": more credits released (" +
                      std::to_string(e->inv_released) + ") than acquired (" +
                      std::to_string(e->inv_launched) + ")");
  const uint64_t held = e->inv_launched - e->inv_released;
  DFLOW_INVARIANT(held <= e->gate.capacity(),
                  "edge " + e->label + ": " + std::to_string(held) +
                      " credits held exceeds capacity " +
                      std::to_string(e->gate.capacity()));
  DFLOW_INVARIANT(e->gate.available() + held == e->gate.capacity(),
                  "edge " + e->label + ": gate ledger out of sync (available=" +
                      std::to_string(e->gate.available()) +
                      " held=" + std::to_string(held) + " capacity=" +
                      std::to_string(e->gate.capacity()) + ")");
#else
  (void)e;
#endif
}

void DataflowGraph::CheckEventTime() {
#ifndef DFLOW_INVARIANTS_DISABLED
  DFLOW_INVARIANT(sim_->now() >= inv_last_event_ns_,
                  "virtual time ran backwards: now=" +
                      std::to_string(sim_->now()) + " after " +
                      std::to_string(inv_last_event_ns_));
  inv_last_event_ns_ = sim_->now();
#endif
}

void DataflowGraph::Pump(Node* n) {
  if (!status_.ok() || CancelRequested()) return;
  CheckEventTime();
  if (n->type == Node::Type::kSink) return;
  if (n->finished || n->device_busy) return;
  if (DeviceCrashed(n)) return;
  if (!SendQueuesEmpty(n)) return;

  if (n->type == Node::Type::kSource) {
    if (n->next_batch < n->batches.size()) {
      if (fault_ != nullptr &&
          fault_->NextStorageRequestFails(n->device->name())) {
        recovery_stats_.storage_io_errors += 1;
        if (n->storage_retries >= policy_.max_storage_retries) {
          Fail(Status::IOError("storage read for '" + n->name +
                               "' failed after " +
                               std::to_string(n->storage_retries) +
                               " retries"),
               lifecycle::FailureKind::kStorageExhausted);
          return;
        }
        n->storage_retries += 1;
        recovery_stats_.storage_retries += 1;
        DFLOW_TRACE(tracer_, Instant("fault", n->name, "storage_retry",
                                     sim_->now(),
                                     /*value=*/n->storage_retries));
        // The failed round trip still occupies the device; try again after
        // a capped exponential backoff.
        n->device_busy = true;
        const auto work =
            n->device->Process(sim_->now(), 0, n->source_cc, n->cost_factor);
        const sim::SimTime backoff =
            BackoffNs(policy_.storage_retry_backoff_ns, n->storage_retries - 1,
                      policy_.max_backoff_ns);
        sim_->ScheduleAt(work.end + backoff, [this, n] {
          n->device_busy = false;
          Pump(n);
        });
        return;
      }
      n->storage_retries = 0;
      const size_t idx = n->next_batch++;
      n->device_busy = true;
      const auto work = n->device->Process(
          sim_->now(), n->batches[idx].device_bytes, n->source_cc,
          n->cost_factor);
      DFLOW_TRACE(tracer_, Span("stage", n->name, "read_batch", work.start,
                                work.end,
                                /*value=*/n->batches[idx].device_bytes));
      sim_->ScheduleAt(work.end, [this, n, idx] {
        n->device_busy = false;
        RouteScanBatch(n, idx);
        PumpEdges(n);
        Pump(n);
      });
    } else {
      MarkNodeDone(n);
    }
    return;
  }

  if (!n->inbox.empty()) {
    StartWork(n);
    return;
  }

  if (n->open_inputs == 0) {
    // All inputs finished and the inbox is drained: run Finish.
    std::vector<DataChunk> outputs;
    if (n->type == Node::Type::kStage) {
      Status st = n->op->Finish(&outputs);
      if (!st.ok()) {
        Fail(std::move(st));
        return;
      }
    }
    uint64_t bytes = 0;
    for (const DataChunk& c : outputs) bytes += c.ByteSize();
    const sim::CostClass cc =
        n->type == Node::Type::kStage ? n->op->traits().cost_class
        : n->type == Node::Type::kBroadcast ? sim::CostClass::kMemcpy
                                            : sim::CostClass::kPartition;
    n->device_busy = true;
    const auto work = n->device->Process(sim_->now(), bytes, cc,
                                         n->cost_factor);
    DFLOW_TRACE(tracer_, Span("stage", n->name, "finish", work.start, work.end,
                              /*value=*/bytes));
    sim_->ScheduleAt(work.end, [this, n, outputs = std::move(outputs)]() mutable {
      n->device_busy = false;
      RouteOutputs(n, std::move(outputs));
      MarkNodeDone(n);
      PumpEdges(n);
    });
  }
}

void DataflowGraph::StartWork(Node* n) {
  auto [chunk, wire, origin] = std::move(n->inbox.front());
  n->inbox.pop_front();
  PopCredit(origin, wire);

  std::vector<DataChunk> outputs;
  sim::CostClass cc;
  double work_scale = 1.0;
  if (n->type == Node::Type::kStage) {
    cc = n->op->traits().cost_class;
    Status st = n->op->Push(std::move(chunk), &outputs);
    if (!st.ok()) {
      Fail(std::move(st));
      return;
    }
  } else if (n->type == Node::Type::kBroadcast) {
    cc = sim::CostClass::kMemcpy;
    // One replica per outgoing edge; the device copies each of them.
    for (size_t i = 0; i < n->outs.size(); ++i) outputs.push_back(chunk);
    work_scale = static_cast<double>(n->outs.size());
  } else {
    cc = sim::CostClass::kPartition;
    Status st = n->partitioner->Split(chunk, &outputs);
    if (!st.ok()) {
      Fail(std::move(st));
      return;
    }
  }
  n->device_busy = true;
  const auto work = n->device->Process(
      sim_->now(), static_cast<uint64_t>(wire * work_scale), cc,
      n->cost_factor);
  DFLOW_TRACE(tracer_, Span("stage", n->name, "process", work.start, work.end,
                            /*value=*/wire));
  sim_->ScheduleAt(work.end, [this, n, outputs = std::move(outputs)]() mutable {
    n->device_busy = false;
    RouteOutputs(n, std::move(outputs));
    PumpEdges(n);
    Pump(n);
  });
}

void DataflowGraph::RouteOutputs(Node* n, std::vector<DataChunk> outputs) {
  if (n->type == Node::Type::kPartition ||
      n->type == Node::Type::kBroadcast) {
    if (outputs.empty()) return;  // Finish: no state to flush
    if (outputs.size() != n->outs.size()) {
      Fail(Status::Internal("partition fan-out does not match edge count"));
      return;
    }
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (outputs[i].num_rows() == 0) continue;
      const uint64_t wire = outputs[i].ByteSize();
      n->outs[i]->send_queue.emplace_back(std::move(outputs[i]), wire);
      DFLOW_INVARIANTS_ONLY(n->outs[i]->inv_enqueued += 1;)
    }
    return;
  }
  if (n->outs.empty()) return;  // terminal stage (e.g. join build sink)
  for (DataChunk& c : outputs) {
    if (c.num_rows() == 0) continue;
    const uint64_t wire =
        n->type == Node::Type::kStage ? n->op->OutputWireBytes(c) : c.ByteSize();
    n->outs[0]->send_queue.emplace_back(std::move(c), wire);
    DFLOW_INVARIANTS_ONLY(n->outs[0]->inv_enqueued += 1;)
  }
}

void DataflowGraph::RouteScanBatch(Node* n, size_t batch_index) {
  if (n->outs.empty()) return;
  ScanBatch& batch = n->batches[batch_index];
  for (ScanChunk& sc : batch.chunks) {
    if (sc.chunk.num_rows() == 0) continue;
    n->outs[0]->send_queue.emplace_back(std::move(sc.chunk), sc.wire_bytes);
    DFLOW_INVARIANTS_ONLY(n->outs[0]->inv_enqueued += 1;)
  }
  batch.chunks.clear();
}

void DataflowGraph::PumpEdges(Node* n) {
  for (Edge* e : n->outs) PumpEdge(e);
}

void DataflowGraph::PumpEdge(Edge* e) {
  if (!status_.ok() || CancelRequested()) return;
  while (!e->send_queue.empty() && e->gate.HasCredit()) {
    e->gate.Acquire();
    auto [chunk, wire] = std::move(e->send_queue.front());
    e->send_queue.pop_front();
    DFLOW_INVARIANTS_ONLY(e->inv_launched += 1;)
    e->inflight_bytes += wire;
    e->peak_inflight_bytes = std::max(e->peak_inflight_bytes,
                                      e->inflight_bytes);
    e->bytes_sent += wire;
    e->credit_blocked = false;
    DFLOW_TRACE(tracer_, Counter("edge", e->label, "inflight_bytes",
                                 sim_->now(), e->inflight_bytes));
    if (fault_ != nullptr && !e->path.empty()) {
      // Unreliable path: keep the chunk until delivery is confirmed.
      const uint64_t seq = e->next_seq++;
      Edge::PendingSend p;
      p.checksum = ChecksumChunk(chunk);
      p.chunk = std::move(chunk);
      p.wire = wire;
      e->pending.emplace(seq, std::move(p));
      Transmit(e, seq);
      continue;
    }
    sim::SimTime arrive = sim_->now();
    if (!e->path.empty()) {
      const auto first = e->dma->Transfer(arrive, wire);
      arrive = first.arrive;
      for (size_t i = 1; i < e->path.size(); ++i) {
        arrive = e->path[i]->Reserve(arrive, wire).arrive;
      }
    }
    e->last_arrive = std::max(e->last_arrive, arrive);
    DFLOW_INVARIANTS_ONLY(e->inv_transit += 1;)
    sim_->ScheduleAt(arrive,
                     [this, e, chunk = std::move(chunk), wire]() mutable {
                       DFLOW_INVARIANTS_ONLY(e->inv_transit -= 1;)
                       Deliver(e, std::move(chunk), wire);
                     });
  }
  if (!e->send_queue.empty() && !e->gate.HasCredit() && !e->credit_blocked) {
    // One instant per stall episode; the flag clears when a send gets
    // through again.
    e->credit_blocked = true;
    DFLOW_TRACE(tracer_, Instant("edge", e->label, "credit_stall", sim_->now(),
                                 /*value=*/e->send_queue.size()));
  }
  if (e->send_queue.empty() && e->pending.empty() && e->reorder.empty() &&
      e->eos_pending && !e->eos_sent) {
    e->eos_sent = true;
    const sim::SimTime t =
        std::max(e->last_arrive, sim_->now() + e->path_latency);
    sim_->ScheduleAt(t, [this, e] { HandleEos(e); });
  }
  CheckEdgeInvariants(e);
}

void DataflowGraph::Transmit(Edge* e, uint64_t seq) {
  if (!status_.ok()) return;
  auto it = e->pending.find(seq);
  DFLOW_CHECK(it != e->pending.end());
  Edge::PendingSend& p = it->second;
  p.attempt += 1;

  bool dropped = false;
  bool corrupted = false;
  const auto first = e->dma->Transfer(sim_->now(), p.wire);
  sim::SimTime arrive = first.arrive;
  dropped = first.outcome == sim::TransferOutcome::kDropped;
  corrupted = first.outcome == sim::TransferOutcome::kCorrupted;
  for (size_t i = 1; i < e->path.size() && !dropped; ++i) {
    const auto hop = e->path[i]->Reserve(arrive, p.wire);
    arrive = hop.arrive;
    if (hop.outcome == sim::TransferOutcome::kDropped) dropped = true;
    if (hop.outcome == sim::TransferOutcome::kCorrupted) corrupted = true;
  }
  e->last_arrive = std::max(e->last_arrive, arrive);
  if (!dropped) {
    sim_->ScheduleAt(arrive, [this, e, seq, corrupted] {
      DeliverPending(e, seq, corrupted);
    });
  }
  // Watchdog: if the chunk is still pending past its (backed-off) deadline,
  // it was lost or discarded — retransmit.
  const uint32_t attempt = p.attempt;
  const sim::SimTime deadline =
      arrive + BackoffNs(policy_.delivery_timeout_ns, attempt - 1,
                         policy_.max_backoff_ns);
  sim_->ScheduleAt(deadline,
                   [this, e, seq, attempt] { CheckDelivery(e, seq, attempt); });
}

void DataflowGraph::DeliverPending(Edge* e, uint64_t seq, bool corrupted) {
  if (!status_.ok()) return;
  auto it = e->pending.find(seq);
  if (it == e->pending.end()) return;  // late duplicate; already consumed
  Edge::PendingSend& p = it->second;
  uint64_t v = ChecksumChunk(p.chunk);
  if (corrupted) v ^= kCorruptionMask;
  if (v != p.checksum) {
    // Receiver discards the damaged chunk; the sender's watchdog will
    // retransmit from its pending copy.
    recovery_stats_.checksum_failures += 1;
    DFLOW_TRACE(tracer_, Instant("fault", e->label, "checksum_fail",
                                 sim_->now(), /*value=*/seq));
    return;
  }
  e->reorder.emplace(seq, std::make_pair(std::move(p.chunk), p.wire));
  e->pending.erase(it);
  // Hand off every verified chunk that is next in send order. Credits stay
  // held while a chunk sits in the reorder buffer, so flow control still
  // bounds sender-side memory plus at most the credit window per edge.
  while (!e->reorder.empty() &&
         e->reorder.begin()->first == e->next_deliver_seq) {
    auto [chunk, wire] = std::move(e->reorder.begin()->second);
    e->reorder.erase(e->reorder.begin());
    e->next_deliver_seq += 1;
    Deliver(e, std::move(chunk), wire);
  }
  // The pending set may have drained: a held-back EOS may now be due.
  PumpEdge(e);
}

void DataflowGraph::CheckDelivery(Edge* e, uint64_t seq, uint32_t attempt) {
  if (!status_.ok()) return;
  auto it = e->pending.find(seq);
  if (it == e->pending.end()) return;         // delivered in time
  if (it->second.attempt != attempt) return;  // superseded watchdog
  recovery_stats_.delivery_timeouts += 1;
  DFLOW_TRACE(tracer_, Instant("fault", e->label, "delivery_timeout",
                               sim_->now(), /*value=*/seq));
  if (it->second.attempt >= policy_.max_delivery_attempts) {
    Fail(Status::IOError(
             "edge " + e->from->name + "->" + e->to->name + " gave up after " +
             std::to_string(it->second.attempt) + " delivery attempts"),
         lifecycle::FailureKind::kDeliveryExhausted);
    return;
  }
  recovery_stats_.retransmits += 1;
  DFLOW_TRACE(tracer_, Instant("fault", e->label, "retransmit", sim_->now(),
                               /*value=*/seq));
  // Retransmit without re-acquiring credit: the credit from the original
  // send is still held and is released when the chunk is finally consumed.
  Transmit(e, seq);
}

void DataflowGraph::Deliver(Edge* e, DataChunk chunk, uint64_t wire_bytes) {
  if (!status_.ok() || CancelRequested()) return;
  CheckEventTime();
  DFLOW_INVARIANTS_ONLY(e->inv_consumed += 1;)
  CheckEdgeInvariants(e);
  Node* to = e->to;
  if (to->type == Node::Type::kSink) {
    to->sink_chunks.push_back(std::move(chunk));
    PopCredit(e, wire_bytes);  // the sink consumes immediately
    return;
  }
  to->inbox.emplace_back(std::move(chunk), wire_bytes, e);
  Pump(to);
}

void DataflowGraph::PopCredit(Edge* e, uint64_t wire_bytes) {
  DFLOW_CHECK_GE(e->inflight_bytes, wire_bytes);
  e->inflight_bytes -= wire_bytes;
  DFLOW_TRACE(tracer_, Counter("edge", e->label, "inflight_bytes", sim_->now(),
                               e->inflight_bytes));
  // The credit message travels the reverse path.
  sim_->Schedule(e->path_latency, [this, e] {
    e->gate.Release();
    DFLOW_INVARIANTS_ONLY(e->inv_released += 1;)
    PumpEdge(e);
    Pump(e->from);
  });
}

void DataflowGraph::HandleEos(Edge* e) {
  if (!status_.ok()) return;
  CheckEventTime();
  DFLOW_INVARIANT(e->send_queue.empty() && e->pending.empty() &&
                      e->reorder.empty() && e->inv_transit == 0 &&
                      e->inv_enqueued == e->inv_consumed,
                  "edge " + e->label +
                      " reached EOS with unconserved tuples: enqueued=" +
                      std::to_string(e->inv_enqueued) +
                      " consumed=" + std::to_string(e->inv_consumed) +
                      " transit=" + std::to_string(e->inv_transit));
  DFLOW_TRACE(tracer_, Instant("edge", e->label, "eos", sim_->now()));
  Node* to = e->to;
  DFLOW_CHECK_GT(to->open_inputs, 0u);
  to->open_inputs -= 1;
  if (to->type == Node::Type::kSink) {
    if (to->open_inputs == 0) {
      to->finished = true;
      to->finish_time = sim_->now();
      if (unfinished_sinks_ > 0) unfinished_sinks_ -= 1;
      MaybeComplete();
    }
    return;
  }
  Pump(to);
}

void DataflowGraph::MarkNodeDone(Node* n) {
  if (n->finished) return;
  n->finished = true;
  n->finish_time = sim_->now();
  for (Edge* e : n->outs) e->eos_pending = true;
  PumpEdges(n);
}

Status DataflowGraph::Validate() const {
  // Structural validation.
  for (const auto& e : edges_) {
    if (e->feedback) {
      return Status::InvalidArgument(
          "edge " + e->label +
          " is declared feedback; the executor's EOS protocol cannot "
          "terminate loops, so feedback graphs are verify-only");
    }
  }
  for (const auto& n : nodes_) {
    switch (n->type) {
      case Node::Type::kSource:
        if (n->outs.size() != 1) {
          return Status::InvalidArgument("source '" + n->name +
                                         "' must have exactly one output");
        }
        if (n->device == nullptr) {
          return Status::InvalidArgument("source '" + n->name +
                                         "' has no device");
        }
        break;
      case Node::Type::kStage:
        if (n->op == nullptr || n->device == nullptr) {
          return Status::InvalidArgument("stage '" + n->name +
                                         "' missing operator or device");
        }
        if (n->outs.size() > 1) {
          return Status::InvalidArgument(
              "stage '" + n->name +
              "' has multiple outputs (use a partition stage)");
        }
        if (n->ins.empty()) {
          return Status::InvalidArgument("stage '" + n->name +
                                         "' has no inputs");
        }
        if (!n->device->Supports(n->op->traits().cost_class)) {
          return Status::InvalidArgument(
              "device '" + n->device->name() + "' does not support " +
              std::string(sim::CostClassToString(n->op->traits().cost_class)) +
              " (stage '" + n->name + "')");
        }
        break;
      case Node::Type::kBroadcast:
        if (n->outs.empty()) {
          return Status::InvalidArgument("broadcast stage '" + n->name +
                                         "' has no outputs");
        }
        if (n->ins.empty()) {
          return Status::InvalidArgument("broadcast stage '" + n->name +
                                         "' has no inputs");
        }
        break;
      case Node::Type::kPartition:
        if (n->outs.size() != n->partitioner->num_partitions()) {
          return Status::InvalidArgument(
              "partition stage '" + n->name + "' expects " +
              std::to_string(n->partitioner->num_partitions()) + " outputs");
        }
        if (n->ins.empty()) {
          return Status::InvalidArgument("partition stage '" + n->name +
                                         "' has no inputs");
        }
        break;
      case Node::Type::kSink:
        if (n->ins.empty()) {
          return Status::InvalidArgument("sink '" + n->name +
                                         "' has no inputs");
        }
        break;
    }
  }
  return Status::OK();
}

Status DataflowGraph::Start() {
  unfinished_sinks_ = 0;
  for (auto& n : nodes_) {
    n->open_inputs = n->ins.size();
    if (n->type == Node::Type::kSink) unfinished_sinks_ += 1;
  }
  for (auto& n : nodes_) {
    if (n->type == Node::Type::kSource) {
      Node* raw = n.get();
      sim_->ScheduleAt(std::max(sim_->now(), raw->start_at),
                       [this, raw] { Pump(raw); });
    }
  }
  return Status::OK();
}

Status DataflowGraph::Launch() {
  if (started_) return Status::InvalidArgument("graph already launched");
  started_ = true;
  DFLOW_RETURN_NOT_OK(Validate());
  return Start();
}

Status DataflowGraph::SetSourceStartTime(NodeId source, sim::SimTime at) {
  if (source >= nodes_.size() ||
      nodes_[source]->type != Node::Type::kSource) {
    return Status::InvalidArgument("SetSourceStartTime: not a source");
  }
  nodes_[source]->start_at = at;
  return Status::OK();
}

void DataflowGraph::SetCompletionCallback(
    std::function<void(const Status&)> callback) {
  completion_callback_ = std::move(callback);
}

bool DataflowGraph::finished() const {
  if (!started_) return false;
  for (const auto& n : nodes_) {
    if (!n->finished) return false;
  }
  return true;
}

void DataflowGraph::MaybeComplete() {
  if (completion_reported_ || completion_callback_ == nullptr) return;
  if (!status_.ok()) {
    completion_reported_ = true;
    completion_callback_(status_);
    return;
  }
  if (unfinished_sinks_ > 0 || !finished()) return;
  completion_reported_ = true;
  completion_callback_(Status::OK());
}

Status DataflowGraph::Run(uint64_t max_events) {
  if (started_) return Status::InvalidArgument("graph already ran");
  started_ = true;
  DFLOW_RETURN_NOT_OK(Validate());
  DFLOW_RETURN_NOT_OK(Start());
  const bool drained = sim_->RunWithLimit(max_events);
  if (!drained) {
    return Status::Internal("dataflow graph exceeded event budget");
  }
  DFLOW_RETURN_NOT_OK(status_);
  for (const auto& n : nodes_) {
    if (!n->finished) {
      return Status::Internal("dataflow graph stalled at node '" + n->name +
                              "'");
    }
  }
#ifndef DFLOW_INVARIANTS_DISABLED
  // Quiesced conservation: with the event queue drained, every chunk must
  // have been consumed and every credit returned.
  for (const auto& e : edges_) {
    DFLOW_INVARIANT(e->inv_enqueued == e->inv_consumed &&
                        e->inv_transit == 0 && e->send_queue.empty() &&
                        e->pending.empty() && e->reorder.empty(),
                    "edge " + e->label +
                        " finished with unconserved tuples: enqueued=" +
                        std::to_string(e->inv_enqueued) +
                        " consumed=" + std::to_string(e->inv_consumed));
    DFLOW_INVARIANT(e->gate.available() == e->gate.capacity(),
                    "edge " + e->label + " finished holding credits: " +
                        std::to_string(e->gate.available()) + "/" +
                        std::to_string(e->gate.capacity()) + " available");
  }
#endif
  return Status::OK();
}

const std::vector<DataChunk>& DataflowGraph::sink_chunks(NodeId sink) const {
  return nodes_[sink]->sink_chunks;
}

sim::SimTime DataflowGraph::sink_finish_time(NodeId sink) const {
  return nodes_[sink]->finish_time;
}

Operator* DataflowGraph::stage_operator(NodeId id) {
  return nodes_[id]->op.get();
}

uint64_t DataflowGraph::TotalPeakQueueBytes() const {
  uint64_t total = 0;
  for (const auto& e : edges_) {
    total += e->peak_inflight_bytes;
  }
  return total;
}

uint64_t DataflowGraph::EdgePeakQueueBytes(NodeId from, NodeId to) const {
  Edge* e = FindEdge(from, to);
  return e == nullptr ? 0 : e->peak_inflight_bytes;
}

verify::GraphSpec DataflowGraph::Describe() const {
  verify::GraphSpec spec;
  spec.nodes.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = *nodes_[i];
    verify::NodeSpec ns;
    ns.id = i;
    ns.name = n.name;
    if (n.device != nullptr) ns.device = n.device->name();
    switch (n.type) {
      case Node::Type::kSource:
        ns.kind = verify::NodeKind::kSource;
        ns.has_cost_class = true;
        ns.cost_class = n.source_cc;
        if (n.source_schema.has_value()) {
          ns.has_output_schema = true;
          ns.output_schema = *n.source_schema;
        }
        for (const ScanBatch& b : n.batches) {
          ns.max_batch_chunks = std::max(ns.max_batch_chunks, b.chunks.size());
        }
        break;
      case Node::Type::kStage:
        ns.kind = verify::NodeKind::kStage;
        if (n.op != nullptr) {
          ns.has_traits = true;
          ns.traits = n.op->traits();
          ns.has_cost_class = true;
          ns.cost_class = ns.traits.cost_class;
          ns.has_output_schema = true;
          ns.output_schema = n.op->output_schema();
          if (const Schema* in = n.op->input_schema()) {
            ns.has_input_schema = true;
            ns.input_schema = *in;
          }
        }
        break;
      case Node::Type::kPartition:
        ns.kind = verify::NodeKind::kPartition;
        ns.has_cost_class = true;
        ns.cost_class = sim::CostClass::kPartition;
        ns.partition_fanout = n.partitioner->num_partitions();
        break;
      case Node::Type::kBroadcast:
        ns.kind = verify::NodeKind::kBroadcast;
        ns.has_cost_class = true;
        ns.cost_class = sim::CostClass::kMemcpy;
        break;
      case Node::Type::kSink:
        ns.kind = verify::NodeKind::kSink;
        break;
    }
    spec.nodes.push_back(std::move(ns));
  }

  // Map Node* back to indices for the edge endpoints.
  auto index_of = [this](const Node* n) -> size_t {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].get() == n) return i;
    }
    return nodes_.size();  // unreachable for edges built via Connect
  };
  spec.edges.reserve(edges_.size());
  for (const auto& e : edges_) {
    verify::EdgeSpec es;
    es.from = index_of(e->from);
    es.to = index_of(e->to);
    es.label = e->label;
    es.credits = e->gate.capacity();
    es.feedback = e->feedback;
    es.hops = e->path.size();
    spec.edges.push_back(std::move(es));
  }
  return spec;
}

}  // namespace dflow
