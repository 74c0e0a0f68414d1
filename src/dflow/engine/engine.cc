#include "dflow/engine/engine.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "dflow/common/logging.h"
#include "dflow/common/string_util.h"
#include "dflow/exec/project.h"
#include "dflow/opt/selectivity.h"

namespace dflow {

void Engine::CollectColumnNames(const ExprPtr& expr,
                                std::set<std::string>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == Expr::Kind::kColumnRef) {
    if (!expr->column_name().empty()) out->insert(expr->column_name());
    return;
  }
  for (const ExprPtr& c : expr->children()) {
    CollectColumnNames(c, out);
  }
}

std::string ExecutionReport::ToString() const {
  std::ostringstream os;
  os << "variant=" << variant << " time=" << FormatNanos(sim_ns)
     << " rows=" << result_rows << " media=" << FormatBytes(media_bytes)
     << " network=" << FormatBytes(network_bytes)
     << " interconnect=" << FormatBytes(interconnect_bytes)
     << " membus=" << FormatBytes(membus_bytes)
     << " peak_queue=" << FormatBytes(peak_queue_bytes);
  if (fault.Any()) {
    os << " | faults: drops=" << fault.chunks_dropped
       << " corrupt=" << fault.chunks_corrupted
       << " retransmits=" << fault.retransmits
       << " timeouts=" << fault.delivery_timeouts
       << " checksum_fail=" << fault.checksum_failures
       << " io_errors=" << fault.storage_io_errors
       << " io_retries=" << fault.storage_retries
       << " stalls=" << fault.device_stalls;
    if (fault.cpu_fallback) os << " cpu_fallback";
    if (!fault.failed_device.empty()) {
      os << " failed_device=" << fault.failed_device;
    }
  }
  return os.str();
}

Engine::Engine(sim::FabricConfig config)
    : config_(config), fabric_(config), volcano_(config) {}

void Engine::EnableFaultInjection(const sim::FaultConfig& config,
                                  const RecoveryPolicy& policy) {
  fault_ = std::make_unique<sim::FaultInjector>(config, &fabric_.simulator());
  recovery_policy_ = policy;
  for (sim::Link* l : fabric_.AllLinks()) l->SetFaultInjector(fault_.get());
  for (sim::Device* d : fabric_.AllDevices()) {
    d->SetFaultInjector(fault_.get());
  }
}

void Engine::DisableFaultInjection() {
  for (sim::Link* l : fabric_.AllLinks()) l->SetFaultInjector(nullptr);
  for (sim::Device* d : fabric_.AllDevices()) d->SetFaultInjector(nullptr);
  fault_.reset();
}

Status Engine::EnableTracing(const trace::TraceOptions& options) {
  if (options.ring_capacity == 0) {
    return Status::InvalidArgument(
        "trace ring_capacity must be > 0 when tracing is enabled");
  }
  trace::TraceOptions effective = options;
  effective.enabled = true;
  tracer_ = std::make_unique<trace::Tracer>(effective);
  fabric_.AttachTracer(tracer_.get());
  return Status::OK();
}

namespace {

// Trailing digits of a device name identify its compute node ("cnic1" ->
// node 1). The storage chain ("store_media", "storage_nic", ...) has no
// suffix: those devices are shared, so a health change there is -1
// (every node's epoch moves).
int DeviceNode(const std::string& name) {
  size_t begin = name.size();
  while (begin > 0 && name[begin - 1] >= '0' && name[begin - 1] <= '9') {
    --begin;
  }
  if (begin == name.size()) return -1;
  return std::stoi(name.substr(begin));
}

}  // namespace

void Engine::MarkDeviceUnhealthy(const std::string& name) {
  if (!unhealthy_.insert(name).second) return;
  ++fabric_epoch_;
  if (node_epochs_.empty()) {
    node_epochs_.assign(std::max(1, config_.num_compute_nodes), 0);
  }
  const int node = DeviceNode(name);
  if (node >= 0 && node < static_cast<int>(node_epochs_.size())) {
    ++node_epochs_[node];
  } else {
    for (uint64_t& e : node_epochs_) ++e;
  }
}

bool Engine::IsDeviceHealthy(const std::string& name) const {
  return unhealthy_.count(name) == 0;
}

void Engine::ClearDeviceHealth() {
  if (!unhealthy_.empty()) {
    ++fabric_epoch_;
    for (uint64_t& e : node_epochs_) ++e;
  }
  unhealthy_.clear();
}

uint64_t Engine::fabric_epoch(int node) const {
  if (node < 0 || node >= static_cast<int>(node_epochs_.size())) {
    return fabric_epoch_;
  }
  return node_epochs_[node];
}

bool Engine::PlacementHealthy(const Placement& placement, int node) {
  if (unhealthy_.empty()) return true;
  for (Site s : placement.sites) {
    sim::Device* d = SiteDevice(s, node);
    if (d != nullptr && unhealthy_.count(d->name()) > 0) return false;
  }
  return true;
}

std::vector<std::string> Engine::PlacementDevices(const Placement& placement,
                                                  int node) {
  std::set<std::string> seen;
  std::vector<std::string> devices;
  for (Site s : placement.sites) {
    sim::Device* d = SiteDevice(s, node);
    if (d != nullptr && seen.insert(d->name()).second) {
      devices.push_back(d->name());
    }
  }
  return devices;
}

void Engine::ArmGraph(DataflowGraph* graph) {
  if (tracer_ != nullptr) graph->SetTracer(tracer_.get());
  if (fault_ == nullptr) return;
  graph->SetFaultInjector(fault_.get());
  graph->SetRecoveryPolicy(recovery_policy_);
}

Result<Engine::PreparedQuery> Engine::Prepare(const QuerySpec& spec) const {
  PreparedQuery prepared;
  DFLOW_ASSIGN_OR_RETURN(prepared.table, catalog_.Lookup(spec.table));
  const Schema& table_schema = prepared.table->schema();

  // ---- Column pruning: scan only what downstream stages reference.
  const bool select_all = spec.projections.empty() && !spec.count_only &&
                          spec.aggregates.empty();
  if (select_all) {
    for (const Field& f : table_schema.fields()) {
      prepared.scan_columns.push_back(f.name);
    }
  } else {
    std::set<std::string> needed;
    CollectColumnNames(spec.filter, &needed);
    for (const ExprPtr& e : spec.projections) CollectColumnNames(e, &needed);
    if (spec.projections.empty()) {
      // Aggregation over raw columns.
      for (const std::string& g : spec.group_by) needed.insert(g);
      for (const AggSpec& a : spec.aggregates) {
        if (!a.input.empty()) needed.insert(a.input);
      }
    }
    if (spec.order_by.has_value() && spec.projections.empty() &&
        spec.aggregates.empty() && !spec.count_only) {
      needed.insert(spec.order_by->column);
    }
    // Keep table column order for determinism.
    for (const Field& f : table_schema.fields()) {
      if (needed.count(f.name) > 0) prepared.scan_columns.push_back(f.name);
    }
    if (prepared.scan_columns.empty()) {
      // COUNT(*) with no predicate: scan the narrowest column.
      size_t best = 0;
      uint32_t best_width = UINT32_MAX;
      for (size_t i = 0; i < table_schema.num_fields(); ++i) {
        const uint32_t w = IsFixedWidth(table_schema.field(i).type)
                               ? FixedWidthBytes(table_schema.field(i).type)
                               : 64;
        if (w < best_width) {
          best_width = w;
          best = i;
        }
      }
      prepared.scan_columns.push_back(table_schema.field(best).name);
    }
  }
  {
    std::vector<size_t> indices;
    for (const std::string& name : prepared.scan_columns) {
      DFLOW_ASSIGN_OR_RETURN(size_t idx, table_schema.FieldIndex(name));
      indices.push_back(idx);
    }
    prepared.scan_schema = table_schema.Select(indices);
  }

  // ---- Resolve expressions against the pruned scan schema.
  if (spec.filter != nullptr) {
    DFLOW_ASSIGN_OR_RETURN(prepared.filter,
                           Expr::Resolve(spec.filter, prepared.scan_schema));
  }
  prepared.after_project = prepared.scan_schema;
  if (!spec.projections.empty()) {
    if (spec.projections.size() != spec.projection_names.size()) {
      return Status::InvalidArgument("projection arity mismatch");
    }
    std::vector<Field> fields;
    for (size_t i = 0; i < spec.projections.size(); ++i) {
      DFLOW_ASSIGN_OR_RETURN(
          ExprPtr r, Expr::Resolve(spec.projections[i], prepared.scan_schema));
      DFLOW_ASSIGN_OR_RETURN(DataType type,
                             r->OutputType(prepared.scan_schema));
      fields.push_back(Field{spec.projection_names[i], type});
      prepared.projections.push_back(std::move(r));
    }
    prepared.after_project = Schema(std::move(fields));
  }

  // ---- Stage plan. Reductions for decode are patched in later (they
  // depend on measured encoded/decoded sizes).
  using SK = PreparedQuery::StageKind;
  prepared.kinds.push_back(SK::kDecode);
  prepared.descs.push_back(
      StageDesc{"decode", sim::CostClass::kDecode, 1.0, true});
  if (spec.filter != nullptr) {
    prepared.kinds.push_back(SK::kFilter);
    prepared.descs.push_back(StageDesc{
        "filter", sim::CostClass::kFilter,
        EstimatePredicateSelectivity(spec.filter, *prepared.table), true});
  }
  if (!spec.projections.empty()) {
    // Width ratio from a prototype operator.
    std::vector<ExprPtr> exprs = prepared.projections;
    DFLOW_ASSIGN_OR_RETURN(
        OperatorPtr proto,
        ProjectOperator::Make(std::move(exprs), spec.projection_names,
                              prepared.scan_schema));
    prepared.kinds.push_back(SK::kProject);
    prepared.descs.push_back(StageDesc{"project", sim::CostClass::kProject,
                                       proto->traits().reduction_hint, true});
  }
  if (spec.count_only) {
    prepared.kinds.push_back(SK::kCount);
    prepared.descs.push_back(
        StageDesc{"count", sim::CostClass::kCount, 1e-6, true});
  } else if (!spec.aggregates.empty()) {
    prepared.kinds.push_back(SK::kPartialAgg);
    prepared.descs.push_back(
        StageDesc{"agg*", sim::CostClass::kAggregate, 0.05, true});
    prepared.kinds.push_back(SK::kFinalAgg);
    prepared.descs.push_back(
        StageDesc{"agg", sim::CostClass::kAggregate, 1.0, false});
  }
  if (spec.order_by.has_value()) {
    prepared.kinds.push_back(SK::kSort);
    prepared.descs.push_back(StageDesc{
        "sort", sim::CostClass::kSort,
        spec.order_by->limit > 0 ? 0.1 : 1.0, false});
  }
  if (spec.limit > 0) {
    prepared.kinds.push_back(SK::kLimit);
    prepared.descs.push_back(
        StageDesc{"limit", sim::CostClass::kMemcpy, 0.5, false});
  }
  return prepared;
}

Result<std::vector<RankedPlacement>> Engine::EnumerateVariants(
    const PreparedQuery& prepared) const {
  DFLOW_ASSIGN_OR_RETURN(
      TableScanSource scan,
      TableScanSource::Make(prepared.table, prepared.scan_columns,
                            prepared.filter));
  // Sized from row-group metadata: planning decodes nothing.
  const TableScanSource::ScanStats stats = scan.Stats();
  const uint64_t encoded = stats.encoded_bytes_read;
  const uint64_t decoded = stats.decoded_bytes;
  PlacementOptimizer::Input input;
  input.input_bytes = static_cast<double>(encoded);
  input.media_ns = static_cast<double>(encoded) / config_.store_media_gbps +
                   static_cast<double>(stats.row_groups_read()) *
                       static_cast<double>(config_.store_request_latency_ns);
  input.stages = prepared.descs;
  // Decode expands the stream from at-rest to in-memory size.
  if (!input.stages.empty() && encoded > 0) {
    input.stages[0].reduction =
        static_cast<double>(decoded) / static_cast<double>(encoded);
  }
  input.config = config_;
  std::vector<RankedPlacement> variants = PlacementOptimizer(input).Enumerate();
  if (variants.empty()) {
    return Status::Internal("no valid placement found");
  }
  return variants;
}

Placement Engine::HealthiestVariant(
    const std::vector<RankedPlacement>& variants, int node) {
  DFLOW_CHECK(!variants.empty());
  for (const RankedPlacement& v : variants) {
    if (PlacementHealthy(v.placement, node)) return v.placement;
  }
  return variants.front().placement;
}

Status Engine::CheckNode(int node) const {
  if (node >= 0 && node < fabric_.num_nodes()) return Status::OK();
  return Status::InvalidArgument(
      "compute node " + std::to_string(node) + " is outside the fabric's " +
      std::to_string(fabric_.num_nodes()) + " node(s)");
}

Result<Placement> Engine::ResolvePlacement(const PreparedQuery& prepared,
                                           PlacementChoice choice, int node) {
  DFLOW_RETURN_NOT_OK(CheckNode(node));
  PlacementOptimizer::Input input;
  input.stages = prepared.descs;
  input.config = config_;
  switch (choice) {
    case PlacementChoice::kAuto: {
      DFLOW_ASSIGN_OR_RETURN(std::vector<RankedPlacement> variants,
                             EnumerateVariants(prepared));
      return HealthiestVariant(variants, node);
    }
    case PlacementChoice::kCpuOnly:
      return PlacementOptimizer(input).CpuOnly();
    case PlacementChoice::kFullOffload:
      return PlacementOptimizer(input).FullOffload();
  }
  return Status::InvalidArgument("unknown placement choice");
}

sim::Device* Engine::SiteDevice(Site site, int node) {
  switch (site) {
    case Site::kStorageProc:
      return fabric_.storage_proc();
    case Site::kStorageNic:
      return fabric_.storage_nic();
    case Site::kComputeNic:
      return fabric_.node(node).nic.get();
    case Site::kNearMemory:
      return fabric_.node(node).near_mem.get();
    case Site::kCpu:
      return fabric_.node(node).cpu.get();
  }
  return nullptr;
}

std::vector<sim::Link*> Engine::PathBetween(Site from, Site to, int node) {
  std::vector<sim::Link*> path;
  // Links crossed when entering each site along the chain.
  for (int s = static_cast<int>(from) + 1; s <= static_cast<int>(to); ++s) {
    switch (static_cast<Site>(s)) {
      case Site::kStorageProc:
      case Site::kStorageNic:
        break;  // on the storage node
      case Site::kComputeNic:
        path.push_back(fabric_.storage_uplink());
        path.push_back(fabric_.node(node).net_rx.get());
        break;
      case Site::kNearMemory:
        path.push_back(fabric_.node(node).interconnect.get());
        break;
      case Site::kCpu:
        path.push_back(fabric_.node(node).memory_bus.get());
        break;
    }
  }
  return path;
}

ExecutionReport Engine::CollectReport(const DataflowGraph& graph,
                                      DataflowGraph::NodeId sink,
                                      const std::string& variant,
                                      const TableScanSource::ScanStats& scan) {
  ExecutionReport report;
  report.variant = variant;
  report.sim_ns = fabric_.simulator().now();
  uint64_t rows = 0;
  for (const DataChunk& c : graph.sink_chunks(sink)) rows += c.num_rows();
  report.result_rows = rows;
  report.media_bytes = fabric_.store_media()->bytes_processed();
  report.network_bytes = fabric_.storage_uplink()->bytes_transferred();
  report.interconnect_bytes =
      fabric_.node(0).interconnect->bytes_transferred();
  report.membus_bytes = fabric_.node(0).memory_bus->bytes_transferred();
  report.peak_queue_bytes = graph.TotalPeakQueueBytes();
  for (sim::Link* l : fabric_.AllLinks()) {
    if (l->num_messages() > 0) {
      report.link_bytes[l->name()] = l->bytes_transferred();
    }
  }
  for (sim::Device* d : fabric_.AllDevices()) {
    if (d->items_processed() > 0) {
      report.device_busy_ns[d->name()] = d->busy_ns();
    }
  }
  report.scan = scan;

  FaultReport& f = report.fault;
  const DataflowGraph::RecoveryStats& rs = graph.recovery_stats();
  f.retransmits = rs.retransmits;
  f.delivery_timeouts = rs.delivery_timeouts;
  f.checksum_failures = rs.checksum_failures;
  f.storage_io_errors = rs.storage_io_errors;
  f.storage_retries = rs.storage_retries;
  f.failed_device = graph.failed_device();
  for (sim::Link* l : fabric_.AllLinks()) {
    f.chunks_dropped += l->messages_dropped();
    f.chunks_corrupted += l->messages_corrupted();
  }
  for (sim::Device* d : fabric_.AllDevices()) {
    f.device_stalls += d->stalls();
    f.device_stall_ns += d->stall_ns();
  }
  return report;
}

Result<Placement> Engine::ChoosePlacement(const QuerySpec& spec,
                                          PlacementChoice choice, int node) {
  DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(spec));
  return ResolvePlacement(prepared, choice, node);
}

Result<std::vector<RankedPlacement>> Engine::PlanVariants(
    const QuerySpec& spec) const {
  DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(spec));
  return EnumerateVariants(prepared);
}

Result<QueryResult> Engine::Execute(const QuerySpec& spec,
                                    const ExecOptions& options) {
  if (options.mode == ExecMode::kParallel) {
    return ExecuteParallel(spec, options);
  }
  DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(spec));
  DFLOW_ASSIGN_OR_RETURN(
      Placement placement,
      ResolvePlacement(prepared, options.placement, options.node));
  DFLOW_ASSIGN_OR_RETURN(
      compile::ProgramPtr program,
      LowerProgram(spec, prepared, placement, options, spec.table));
  return RunProgram(*program, options, /*allow_fallback=*/true);
}

Result<QueryResult> Engine::ExecuteWithPlacement(const QuerySpec& spec,
                                                 const Placement& placement,
                                                 const ExecOptions& options) {
  DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(spec));
  DFLOW_ASSIGN_OR_RETURN(
      compile::ProgramPtr program,
      LowerProgram(spec, prepared, placement, options, spec.table));
  return RunProgram(*program, options, /*allow_fallback=*/true);
}

verify::VerifyReport Engine::VerifyGraphSpec(const verify::GraphSpec& spec) {
  verify::VerifyContext ctx;
  ctx.fabric = &fabric_;
  ctx.unhealthy = &unhealthy_;
  return verify::VerifyGraph(spec, ctx);
}

Result<verify::VerifyReport> Engine::Verify(const QuerySpec& spec,
                                            const Placement& placement,
                                            const ExecOptions& options) {
  DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(spec));
  ExecOptions warn = options;
  warn.verify = verify::VerifyMode::kWarn;  // report errors, never refuse
  DFLOW_ASSIGN_OR_RETURN(
      compile::ProgramPtr program,
      LowerProgram(spec, prepared, placement, warn, spec.table));
  return program->verify_stamp();
}

Result<verify::VerifyReport> Engine::Verify(const QuerySpec& spec,
                                            const ExecOptions& options) {
  DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(spec));
  DFLOW_ASSIGN_OR_RETURN(
      Placement placement,
      ResolvePlacement(prepared, PlacementChoice::kAuto, options.node));
  ExecOptions warn = options;
  warn.verify = verify::VerifyMode::kWarn;
  DFLOW_ASSIGN_OR_RETURN(
      compile::ProgramPtr program,
      LowerProgram(spec, prepared, placement, warn, spec.table));
  return program->verify_stamp();
}

Result<Engine::ConcurrentResult> Engine::ExecuteConcurrent(
    const std::vector<QuerySpec>& specs,
    const std::vector<Placement>& placements,
    const std::vector<double>& network_rate_limits_gbps,
    const std::vector<sim::SimTime>& start_offsets_ns) {
  if (specs.size() != placements.size()) {
    return Status::InvalidArgument("one placement per query required");
  }
  if (!network_rate_limits_gbps.empty() &&
      network_rate_limits_gbps.size() != specs.size()) {
    return Status::InvalidArgument("rate limit list length mismatch");
  }
  if (!start_offsets_ns.empty() && start_offsets_ns.size() != specs.size()) {
    return Status::InvalidArgument("start offset list length mismatch");
  }
  fabric_.Reset();
  if (tracer_ != nullptr) tracer_->Clear();
  DataflowGraph graph(&fabric_.simulator());
  // Each query's program passes the same static gate as a single-query
  // run (the pipelines share no stage, so per-program verdicts cover the
  // combined graph).
  const ExecOptions options;
  std::vector<AdmittedPipeline> built;
  for (size_t q = 0; q < specs.size(); ++q) {
    const std::string label = specs[q].table + "#" + std::to_string(q);
    DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(specs[q]));
    DFLOW_ASSIGN_OR_RETURN(
        compile::ProgramPtr program,
        LowerProgram(specs[q], prepared, placements[q], options, label));
    DFLOW_ASSIGN_OR_RETURN(
        AdmittedPipeline b,
        BuildProgramPipeline(&graph, *program, label,
                             network_rate_limits_gbps.empty()
                                 ? 0.0
                                 : network_rate_limits_gbps[q]));
    if (!start_offsets_ns.empty() && start_offsets_ns[q] > 0) {
      DFLOW_RETURN_NOT_OK(
          graph.SetSourceStartTime(b.source, start_offsets_ns[q]));
    }
    built.push_back(b);
  }
  DFLOW_RETURN_NOT_OK(graph.Run());
  ConcurrentResult result;
  for (const AdmittedPipeline& b : built) {
    result.completion_ns.push_back(graph.sink_finish_time(b.sink));
    uint64_t rows = 0;
    for (const DataChunk& c : graph.sink_chunks(b.sink)) rows += c.num_rows();
    result.result_rows.push_back(rows);
    result.makespan_ns =
        std::max(result.makespan_ns, graph.sink_finish_time(b.sink));
  }
  return result;
}

Result<VolcanoRunResult> Engine::ExecuteOnVolcano(const QuerySpec& spec,
                                                  size_t pool_pages,
                                                  int repeats) {
  return volcano_.Run(catalog_, spec, pool_pages, repeats);
}

}  // namespace dflow
