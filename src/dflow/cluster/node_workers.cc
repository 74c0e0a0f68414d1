#include "dflow/cluster/node_workers.h"

#include <algorithm>
#include <exception>
#include <string>

namespace dflow::cluster {

namespace {

uint32_t WorkerCount(int num_nodes) {
  const uint32_t hardware = std::max(1u, std::thread::hardware_concurrency());
  return std::min(static_cast<uint32_t>(std::max(num_nodes, 1)), hardware);
}

/// Runs one node's task; an escaping exception becomes its Status.
Status RunNode(const NodeWorkers::NodeFn& fn, int node) {
  try {
    return fn(node);
  } catch (const std::exception& e) {
    return Status::Internal("node " + std::to_string(node) +
                            " task threw: " + e.what());
  } catch (...) {
    return Status::Internal("node " + std::to_string(node) +
                            " task threw a non-std exception");
  }
}

}  // namespace

NodeWorkers::NodeWorkers(int num_nodes)
    : num_nodes_(num_nodes), workers_(WorkerCount(num_nodes)) {
  threads_.reserve(workers_ - 1);
  try {
    for (uint32_t i = 1; i < workers_; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
  } catch (...) {
    Stop();  // a thread failed to start: join the ones that did
    throw;
  }
}

NodeWorkers::~NodeWorkers() { Stop(); }

void NodeWorkers::Stop() {
  {
    RankedMutexLock lock(&mutex_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void NodeWorkers::RunShare(const Batch& batch, uint32_t worker) const {
  // Each worker writes only its own nodes' status slots; the caller reads
  // them after running_ reaches zero under the mutex.
  for (size_t k = 0; k < batch.nodes->size(); ++k) {
    const int node = (*batch.nodes)[k];
    if (static_cast<uint32_t>(node) % workers_ != worker) continue;
    (*batch.statuses)[k] = RunNode(*batch.fn, node);
  }
}

Status NodeWorkers::ForEachNode(const std::vector<int>& nodes,
                                const NodeFn& fn) {
  for (int node : nodes) {
    if (node < 0 || node >= num_nodes_) {
      return Status::InvalidArgument("node " + std::to_string(node) +
                                     " outside the cluster");
    }
  }
  std::vector<Status> statuses(nodes.size());
  const Batch batch{&nodes, &fn, &statuses};
  {
    RankedMutexLock lock(&mutex_);
    while (batch_ != nullptr) done_cv_.Wait(&mutex_);
    batch_ = &batch;
    generation_ += 1;
    running_ = workers_ - 1;
  }
  work_cv_.NotifyAll();
  RunShare(batch, 0);
  {
    RankedMutexLock lock(&mutex_);
    while (running_ != 0) done_cv_.Wait(&mutex_);
    batch_ = nullptr;
  }
  // A caller queued behind this batch may start its own now.
  done_cv_.NotifyAll();
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void NodeWorkers::WorkerLoop(uint32_t id) {
  uint64_t seen = 0;
  mutex_.lock();
  while (true) {
    while (!shutdown_ && generation_ == seen) work_cv_.Wait(&mutex_);
    if (shutdown_) break;
    seen = generation_;
    const Batch batch = *batch_;
    mutex_.unlock();
    RunShare(batch, id);
    mutex_.lock();
    running_ -= 1;
    if (running_ == 0) done_cv_.NotifyAll();
  }
  mutex_.unlock();
}

}  // namespace dflow::cluster
