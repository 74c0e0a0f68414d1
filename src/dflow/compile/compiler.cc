// The plan compiler: the one lowering from a prepared query to an
// immutable, verified, always-fused DflowProgram, and the one builder that
// turns a program into a dataflow graph. Every entry point (Execute, Verify,
// ExecuteConcurrent, CompileVariant, the serving loop, the cluster router,
// kParallel) runs the program LowerProgram builds, so a stamp covers the
// graph that runs. These are Engine member functions (lowering needs the
// engine's private query preparation); they live here because the program
// format, the fusion pass, and the cache they feed are this subsystem.

#include <set>
#include <utility>

#include "dflow/common/logging.h"
#include "dflow/compile/compiler.h"
#include "dflow/compile/fuse.h"
#include "dflow/compile/program.h"
#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/aggregate.h"
#include "dflow/exec/filter.h"
#include "dflow/exec/join.h"
#include "dflow/exec/misc_ops.h"
#include "dflow/exec/project.h"
#include "dflow/exec/scan.h"
#include "dflow/plan/fingerprint.h"

namespace dflow {

namespace {

using compile::DflowProgram;
using compile::FusedGroup;
using compile::OpCode;
using compile::ProgramOp;

/// Appends every literal of `e` (pre-order) to the pool, recording its slot.
void CollectLiterals(const Expr& e, std::vector<Value>* pool,
                     std::vector<uint32_t>* slots) {
  if (e.kind() == Expr::Kind::kLiteral) {
    slots->push_back(static_cast<uint32_t>(pool->size()));
    pool->push_back(e.value());
    return;
  }
  for (const ExprPtr& c : e.children()) CollectLiterals(*c, pool, slots);
}

/// The one opcode -> operator table of query programs: the live operator
/// for `code`, built from the plan's spec, its resolved filter and
/// projections, and the schema entering the op. The operator's
/// output_schema() is the op's entry in the program's schema table, so the
/// lowering types its ops through this table and the graph builder and the
/// real-parallel executor instantiate them through it.
Result<OperatorPtr> NewQueryOperator(const QuerySpec& spec,
                                     const ExprPtr& filter,
                                     const std::vector<ExprPtr>& projections,
                                     OpCode code, const Schema& input) {
  switch (code) {
    case OpCode::kDecode:
    case OpCode::kReDecode:
      return OperatorPtr(new DecodeOperator(input));
    case OpCode::kFilter:
      return FilterOperator::Make(filter, input);
    case OpCode::kProject:
      return ProjectOperator::Make(projections, spec.projection_names, input);
    case OpCode::kCount:
      return OperatorPtr(new CountOperator());
    case OpCode::kPartialAgg:
      return HashAggregateOperator::Make(input, spec.group_by, spec.aggregates,
                                         AggMode::kPartial,
                                         spec.preagg_budget);
    case OpCode::kFinalAgg:
      return HashAggregateOperator::Make(input, spec.group_by,
                                         MakeMergeSpecs(spec.aggregates),
                                         AggMode::kFinal);
    case OpCode::kCompleteAgg:
      return HashAggregateOperator::Make(input, spec.group_by, spec.aggregates,
                                         AggMode::kComplete);
    case OpCode::kSort:
      return SortOperator::Make(input, spec.order_by->column,
                                spec.order_by->descending,
                                spec.order_by->limit);
    case OpCode::kLimit:
      return OperatorPtr(new LimitOperator(input, spec.limit));
    case OpCode::kEncode:
      return OperatorPtr(new EncodeOperator(input));
    case OpCode::kPartition:
    case OpCode::kBuild:
    case OpCode::kProbe:
      break;  // join phases only: InstantiateJoinOp
  }
  return Status::Internal("opcode " + std::string(OpCodeToString(code)) +
                          " is not a query operator");
}

struct LoweredOps {
  std::vector<ProgramOp> ops;
  std::vector<Value> literals;
};

/// Lowers (prepared, placement) to the final instruction list, normalizing
/// the plan on the way: a CPU-placed partial aggregate collapses into a
/// single complete aggregate, and compress_uplink inserts the encode/decode
/// pair around the network hop. The schema table is then typed through the
/// opcode table, op by op.
Result<LoweredOps> LowerStages(const QuerySpec& spec,
                               const Engine::PreparedQuery& prepared,
                               const Placement& placement) {
  using SK = Engine::PreparedQuery::StageKind;
  LoweredOps out;
  bool partial_dropped = false;
  auto add = [&](OpCode code, const char* label, Site site,
                 std::vector<uint32_t> slots = {}) {
    out.ops.push_back(ProgramOp{code, label, site, std::move(slots), {}});
  };
  for (size_t i = 0; i < prepared.kinds.size(); ++i) {
    const Site site = placement.sites[i];
    switch (prepared.kinds[i]) {
      case SK::kDecode:
        add(OpCode::kDecode, "decode", site);
        break;
      case SK::kFilter: {
        std::vector<uint32_t> slots;
        if (prepared.filter != nullptr) {
          CollectLiterals(*prepared.filter, &out.literals, &slots);
        }
        add(OpCode::kFilter, "filter", site, std::move(slots));
        break;
      }
      case SK::kProject: {
        std::vector<uint32_t> slots;
        for (const ExprPtr& p : prepared.projections) {
          CollectLiterals(*p, &out.literals, &slots);
        }
        add(OpCode::kProject, "project", site, std::move(slots));
        break;
      }
      case SK::kCount:
        add(OpCode::kCount, "count", site);
        break;
      case SK::kPartialAgg:
        if (site == Site::kCpu) {
          partial_dropped = true;
        } else {
          add(OpCode::kPartialAgg, "agg_partial", site);
        }
        break;
      case SK::kFinalAgg:
        add(partial_dropped ? OpCode::kCompleteAgg : OpCode::kFinalAgg,
            "agg_final", site);
        break;
      case SK::kSort:
        add(OpCode::kSort, "sort", site);
        break;
      case SK::kLimit:
        add(OpCode::kLimit, "limit", site);
        break;
    }
  }

  if (spec.compress_uplink) {
    size_t last_storage = out.ops.size();
    for (size_t i = 0; i < out.ops.size(); ++i) {
      if (out.ops[i].site <= Site::kStorageNic) last_storage = i;
    }
    if (last_storage != out.ops.size()) {
      Site dec_site = Site::kCpu;
      for (size_t i = last_storage + 1; i < out.ops.size(); ++i) {
        if (out.ops[i].site > Site::kStorageNic) {
          dec_site = out.ops[i].site;
          break;
        }
      }
      out.ops.insert(out.ops.begin() + last_storage + 1,
                     ProgramOp{OpCode::kEncode, "encode",
                               out.ops[last_storage].site, {}, {}});
      out.ops.insert(out.ops.begin() + last_storage + 2,
                     ProgramOp{OpCode::kReDecode, "decode2", dec_site, {}, {}});
    }
  }

  Schema current = prepared.scan_schema;
  for (ProgramOp& op : out.ops) {
    DFLOW_ASSIGN_OR_RETURN(
        OperatorPtr typed,
        NewQueryOperator(spec, prepared.filter, prepared.projections, op.code,
                         current));
    current = typed->output_schema();
    op.output_schema = current;
  }
  return out;
}

}  // namespace

namespace compile {

Result<OperatorPtr> InstantiateOp(const DflowProgram& program,
                                  const ProgramOp& pop, Schema* current) {
  DFLOW_ASSIGN_OR_RETURN(
      OperatorPtr op,
      NewQueryOperator(program.spec(), program.filter(), program.projections(),
                       pop.code, *current));
  *current = op->output_schema();
  return op;
}

Result<PartitionSplit> PartitionSplit::Make(ProgramPtr program) {
  PartitionSplit split(std::move(program));
  const std::vector<ProgramOp>& ops = split.program_->ops();
  split.partition_schema_ = split.program_->scan_schema();
  for (size_t i = 0; i < ops.size(); ++i) {
    switch (ops[i].code) {
      case OpCode::kDecode:
        break;  // identity on data
      case OpCode::kFilter:
      case OpCode::kProject:
        split.stream_.push_back(i);
        split.partition_schema_ = ops[i].output_schema;
        break;
      case OpCode::kCount:
      case OpCode::kCompleteAgg:
        split.partition_ = i;
        break;
      case OpCode::kSort:
      case OpCode::kLimit:
        split.output_.push_back(i);
        break;
      default:
        return Status::Internal("partition split cannot run opcode " +
                                std::string(OpCodeToString(ops[i].code)));
    }
  }
  if (split.partition_.has_value()) {
    DFLOW_ASSIGN_OR_RETURN(OperatorPtr partition, split.MakePartition());
    split.merge_schema_ = partition->output_schema();
  }
  return split;
}

bool PartitionSplit::counts() const {
  return partition_.has_value() &&
         program_->ops()[*partition_].code == OpCode::kCount;
}

Result<std::vector<OperatorPtr>> PartitionSplit::MakeOps(
    const std::vector<size_t>& indices) const {
  std::vector<OperatorPtr> ops;
  for (size_t i : indices) {
    Schema current =
        i == 0 ? program_->scan_schema() : program_->ops()[i - 1].output_schema;
    DFLOW_ASSIGN_OR_RETURN(OperatorPtr op,
                           InstantiateOp(*program_, program_->ops()[i],
                                         &current));
    ops.push_back(std::move(op));
  }
  return ops;
}

Result<std::vector<OperatorPtr>> PartitionSplit::MakeStream() const {
  return MakeOps(stream_);
}

Result<std::vector<OperatorPtr>> PartitionSplit::MakeOutput() const {
  return MakeOps(output_);
}

Result<OperatorPtr> PartitionSplit::MakePartition() const {
  if (!partition_.has_value()) return OperatorPtr();
  if (counts()) {
    Schema current = partition_schema_;
    return InstantiateOp(*program_, program_->ops()[*partition_], &current);
  }
  const QuerySpec& spec = program_->spec();
  return HashAggregateOperator::Make(partition_schema_, spec.group_by,
                                     spec.aggregates, AggMode::kPartial);
}

Result<OperatorPtr> PartitionSplit::MakeMerge() const {
  if (!partition_.has_value()) return OperatorPtr();
  if (counts()) {
    // Each partition's COUNT emits one row (possibly 0); their sum is the
    // global COUNT(*).
    const std::vector<AggSpec> sum_counts{{AggFunc::kSum, "count", "count"}};
    return HashAggregateOperator::Make(merge_schema_, {}, sum_counts,
                                       AggMode::kComplete);
  }
  return NewQueryOperator(program_->spec(), program_->filter(),
                          program_->projections(), OpCode::kFinalAgg,
                          merge_schema_);
}

namespace {

/// The join case of the opcode table: BUILD and PROBE bind `table`, their
/// partition's hash table. PARTITION is a graph fan-out, not an operator.
Result<OperatorPtr> InstantiateJoinOp(
    const JoinProgram::Phase& phase, const ProgramOp& op,
    const std::shared_ptr<JoinHashTable>& table) {
  switch (op.code) {
    case OpCode::kDecode:
      return OperatorPtr(new DecodeOperator(phase.scan_schema));
    case OpCode::kFilter:
      return FilterOperator::Make(phase.filter, phase.scan_schema);
    case OpCode::kBuild:
      return JoinBuildOperator::Make(table);
    case OpCode::kProbe:
      return HashJoinProbeOperator::Make(table, phase.scan_schema, phase.key);
    case OpCode::kCount:
      return OperatorPtr(new CountOperator());
    default:
      return Status::Internal("opcode " + std::string(OpCodeToString(op.code)) +
                              " is not a join operator");
  }
}

/// One empty hash table per partition, shared by the join's two phases.
std::vector<std::shared_ptr<JoinHashTable>> NewJoinTables(
    const JoinProgram& program) {
  std::vector<std::shared_ptr<JoinHashTable>> tables;
  for (uint32_t i = 0; i < program.partitions; ++i) {
    tables.push_back(std::make_shared<JoinHashTable>(program.build.scan_schema,
                                                     program.build.key));
  }
  return tables;
}

}  // namespace

}  // namespace compile

namespace {

/// ExecOptions::credits, checked in the two lowerings every program passes
/// through, before anything is built or any thread starts.
Status CheckCredits(uint32_t credits) {
  if (credits > 0) return Status::OK();
  return Status::InvalidArgument(
      "credits must be >= 1: an edge with zero credits can never carry a "
      "chunk");
}

}  // namespace

Result<compile::ProgramPtr> Engine::LowerProgram(
    const QuerySpec& spec, const PreparedQuery& prepared,
    const Placement& placement, const ExecOptions& options,
    const std::string& label, const CostEstimate& demand) {
  DFLOW_RETURN_NOT_OK(CheckCredits(options.credits));
  DFLOW_RETURN_NOT_OK(CheckNode(options.node));
  if (placement.sites.size() != prepared.kinds.size()) {
    return Status::InvalidArgument("placement '" + placement.name +
                                   "' does not match query stages");
  }
  DFLOW_ASSIGN_OR_RETURN(LoweredOps lowered,
                         LowerStages(spec, prepared, placement));
  DflowProgram::Builder b;
  b.spec = spec;
  b.table = prepared.table;
  b.scan_columns = prepared.scan_columns;
  b.scan_schema = prepared.scan_schema;
  b.filter = prepared.filter;
  b.projections = prepared.projections;
  b.ops = std::move(lowered.ops);
  b.literals = std::move(lowered.literals);
  b.fused_groups = PlanFusion(b.ops);
  b.placement = placement;
  b.credits = options.credits;
  b.node = options.node;
  b.demand = demand;
  b.plan_fingerprint = FingerprintQuerySpec(spec);
  b.fabric_epoch = fabric_epoch_;
  b.verifier_version = verify::kVerifierVersion;
  if (options.verify == verify::VerifyMode::kOff) return std::move(b).Build();

  // The one verifier entry. The program's graph is built without scan rows:
  // building schedules nothing and charges no fabric work, and the only
  // check that reads batch occupancy (credit starvation) inspects cycles,
  // which a linear query pipeline has none of.
  compile::ProgramPtr unstamped = DflowProgram::Builder(b).Build();
  DataflowGraph scratch(&fabric_.simulator());
  DFLOW_RETURN_NOT_OK(
      BuildProgramGraph(&scratch, *unstamped, {}, label, 0.0).status());
  b.verify_stamp = VerifyGraphSpec(scratch.Describe());
  for (const verify::VerifyIssue& issue : b.verify_stamp.issues) {
    DFLOW_LOG(Warning) << "verify: " << issue.ToString();
  }
  if (options.verify == verify::VerifyMode::kStrict && !b.verify_stamp.ok()) {
    return Status::InvalidArgument("plan rejected by static verifier: " +
                                   b.verify_stamp.ToString());
  }
  return std::move(b).Build();
}

Result<compile::JoinProgramPtr> Engine::LowerJoin(const JoinSpec& spec,
                                                  const ExecOptions& options) {
  DFLOW_RETURN_NOT_OK(CheckCredits(options.credits));
  const bool parallel = options.mode == ExecMode::kParallel;
  if (spec.num_nodes < 1 ||
      (!parallel && spec.num_nodes > fabric_.num_nodes())) {
    return Status::InvalidArgument(
        parallel ? "join needs >= 1 partition"
                 : "join needs 1.." + std::to_string(fabric_.num_nodes()) +
                       " nodes");
  }
  const bool nic_scatter = spec.exchange == JoinSpec::Exchange::kNicScatter;
  auto program = std::make_shared<compile::JoinProgram>();
  program->partitions = static_cast<uint32_t>(spec.num_nodes);
  program->credits = options.credits;
  program->variant = nic_scatter ? "nic-scatter" : "cpu-exchange";

  // NIC scatter decodes and filters on the storage processor and
  // partitions on the storage NIC; CPU exchange ships everything to node
  // 0's CPU first and re-partitions from there.
  const Site front = nic_scatter ? Site::kStorageProc : Site::kCpu;
  auto lower_phase = [&](compile::JoinProgram::Phase* phase,
                         const std::string& table_name, const std::string& key,
                         const ExprPtr& filter) -> Status {
    DFLOW_ASSIGN_OR_RETURN(phase->table, catalog_.Lookup(table_name));
    // The join's one column rule: the simulated join ships whole tuples
    // (every report's bytes depend on it); the kParallel join reads only
    // the key and the filter's columns, in table order. The third consumer,
    // the cluster join (QueryRouter::ExecuteJoin), does not lower here: its
    // per-node fragments are SELECT <key> FROM t [WHERE f] queries, which
    // read the same columns as kParallel and ship the key alone.
    std::set<std::string> needed{key};
    CollectColumnNames(filter, &needed);
    const Schema& schema = phase->table->schema();
    std::vector<size_t> indices;
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      if (parallel && needed.count(schema.field(i).name) == 0) continue;
      indices.push_back(i);
      phase->scan_columns.push_back(schema.field(i).name);
    }
    phase->scan_schema = schema.Select(indices);
    DFLOW_ASSIGN_OR_RETURN(phase->key, phase->scan_schema.FieldIndex(key));
    if (filter != nullptr) {
      DFLOW_ASSIGN_OR_RETURN(phase->filter,
                             Expr::Resolve(filter, phase->scan_schema));
    }
    auto add = [phase](OpCode code, std::string label, Site site) {
      phase->ops.push_back(ProgramOp{code, std::move(label), site, {}, {}});
    };
    add(OpCode::kDecode, "decode", front);
    if (filter != nullptr) add(OpCode::kFilter, "filter", front);
    add(OpCode::kPartition, nic_scatter ? "scatter" : "exchange",
        nic_scatter ? Site::kStorageNic : Site::kCpu);
    for (uint32_t i = 0; i < program->partitions; ++i) {
      const std::string at = "@" + std::to_string(i);
      if (phase == &program->build) {
        add(OpCode::kBuild, "build" + at, Site::kCpu);
      } else {
        add(OpCode::kProbe, "probe" + at, Site::kCpu);
        add(OpCode::kCount, "count" + at, Site::kCpu);
      }
    }
    return Status::OK();
  };
  DFLOW_RETURN_NOT_OK(lower_phase(&program->build, spec.build_table,
                                  spec.build_key, nullptr));
  DFLOW_RETURN_NOT_OK(lower_phase(&program->probe, spec.probe_table,
                                  spec.probe_key, spec.probe_filter));
  DFLOW_RETURN_NOT_OK(CheckJoinKeyTypes(
      program->build.scan_schema.field(program->build.key).type,
      program->probe.scan_schema.field(program->probe.key).type));
  // kParallel runs scans and keys, not graphs: there is nothing to verify.
  if (parallel || options.verify == verify::VerifyMode::kOff) {
    return compile::JoinProgramPtr(std::move(program));
  }

  // Both phase graphs, built without scan rows over empty hash tables, are
  // verified before either phase runs.
  const auto tables = compile::NewJoinTables(*program);
  for (compile::JoinProgram::Phase* phase :
       {&program->build, &program->probe}) {
    DataflowGraph scratch(&fabric_.simulator());
    DFLOW_RETURN_NOT_OK(
        BuildJoinPhaseGraph(&scratch, *program, *phase, tables, {}).status());
    phase->verify = VerifyGraphSpec(scratch.Describe());
    if (options.verify == verify::VerifyMode::kStrict && !phase->verify.ok()) {
      return Status::InvalidArgument(
          std::string("join ") +
          (phase == &program->build ? "build" : "probe") +
          " phase rejected by static verifier: " + phase->verify.ToString());
    }
  }
  return compile::JoinProgramPtr(std::move(program));
}

Result<std::vector<DataflowGraph::NodeId>> Engine::BuildJoinPhaseGraph(
    DataflowGraph* graph, const compile::JoinProgram& program,
    const compile::JoinProgram::Phase& phase,
    const std::vector<std::shared_ptr<JoinHashTable>>& tables,
    std::vector<ScanBatch> batches) {
  DataflowGraph::NodeId prev =
      graph->AddSource("scan:" + phase.table->name(), fabric_.store_media(),
                       sim::CostClass::kScan, std::move(batches),
                       phase.scan_schema);
  Site prev_site = Site::kStorageProc;  // the media feeds the storage side
  DataflowGraph::NodeId partition = 0;
  Site partition_site = Site::kCpu;
  uint32_t node = 0;  // 0 on the front, i on partition i's branch
  uint32_t branches = 0;
  std::vector<DataflowGraph::NodeId> sinks;
  for (const ProgramOp& op : phase.ops) {
    DataflowGraph::NodeId id;
    std::vector<sim::Link*> path;
    if (op.code == OpCode::kPartition) {
      id = graph->AddPartitionStage(
          op.label, HashPartitioner(phase.key, program.partitions),
          SiteDevice(op.site, 0));
      partition = id;
      partition_site = op.site;
      path = PathBetween(prev_site, op.site, 0);
    } else {
      // BUILD and PROBE open the next partition's branch, fed by the
      // partition stage: over the storage NIC's links, or (CPU exchange)
      // from node 0's CPU across the inter-node network.
      const bool opens_branch =
          op.code == OpCode::kBuild || op.code == OpCode::kProbe;
      if (opens_branch) {
        node = branches++;
        prev = partition;
        prev_site = partition_site;
      }
      DFLOW_ASSIGN_OR_RETURN(
          OperatorPtr live, compile::InstantiateJoinOp(phase, op, tables[node]));
      id = graph->AddStage(op.label, std::move(live),
                           SiteDevice(op.site, node));
      if (opens_branch && partition_site == Site::kCpu && node > 0) {
        path = {fabric_.node(0).net_tx.get(), fabric_.node(node).net_rx.get(),
                fabric_.node(node).interconnect.get(),
                fabric_.node(node).memory_bus.get()};
      } else {
        path = PathBetween(prev_site, op.site, node);
      }
    }
    DFLOW_RETURN_NOT_OK(
        graph->Connect(prev, id, std::move(path), program.credits));
    prev = id;
    prev_site = op.site;
    if (op.code == OpCode::kCount) {  // ends the branch at node i's client
      sinks.push_back(graph->AddSink("client@" + std::to_string(node)));
      DFLOW_RETURN_NOT_OK(
          graph->Connect(id, sinks.back(), {}, program.credits));
    }
  }
  return sinks;
}

Result<JoinRunResult> Engine::ExecutePartitionedJoin(
    const JoinSpec& spec, const ExecOptions& options) {
  DFLOW_ASSIGN_OR_RETURN(compile::JoinProgramPtr program,
                         LowerJoin(spec, options));
  if (options.mode == ExecMode::kParallel) {
    return ExecuteParallelJoin(*program, options);
  }
  DFLOW_RETURN_NOT_OK(BeginRun(options));

  // The build phase fills one hash table per node; the probe phase counts
  // each node's matches into its client sink.
  const auto tables = compile::NewJoinTables(*program);
  JoinRunResult result;
  for (const compile::JoinProgram::Phase* phase :
       {&program->build, &program->probe}) {
    DataflowGraph graph(&fabric_.simulator());
    ArmGraph(&graph);
    TableScanSource::ScanStats stats;
    DFLOW_ASSIGN_OR_RETURN(TableScanSource scan, ScanOf(*phase));
    DFLOW_ASSIGN_OR_RETURN(std::vector<ScanBatch> batches,
                           scan.Produce(&stats));
    DFLOW_ASSIGN_OR_RETURN(
        std::vector<DataflowGraph::NodeId> sinks,
        BuildJoinPhaseGraph(&graph, *program, *phase, tables,
                            std::move(batches)));
    DFLOW_RETURN_NOT_OK(graph.Run());
    if (phase == &program->build) continue;
    for (DataflowGraph::NodeId sink : sinks) {
      const auto& chunks = graph.sink_chunks(sink);
      int64_t count = 0;
      if (!chunks.empty()) count = chunks[0].GetValue(0, 0).int64_value();
      result.node_counts.push_back(count);
      result.total_rows += count;
    }
    result.report = CollectReport(graph, sinks[0], program->variant, stats);
    result.report.verify = phase->verify;
  }
  return result;
}

Result<TableScanSource> Engine::ScanOf(
    const compile::JoinProgram::Phase& phase) {
  return TableScanSource::Make(phase.table, phase.scan_columns, phase.filter);
}

Result<TableScanSource> Engine::ScanOf(const compile::DflowProgram& program) {
  return TableScanSource::Make(program.table(), program.scan_columns(),
                               program.filter());
}

Result<std::vector<ScanBatch>> Engine::DecodeScan(
    const compile::DflowProgram& program,
    TableScanSource::ScanStats* stats) const {
  DFLOW_ASSIGN_OR_RETURN(TableScanSource scan, ScanOf(program));
  return scan.Produce(stats);
}

Result<Engine::AdmittedPipeline> Engine::BuildProgramGraph(
    DataflowGraph* graph, const compile::DflowProgram& program,
    std::vector<ScanBatch> batches, const std::string& label,
    double rate_limit_gbps) {
  AdmittedPipeline built;
  built.variant = program.variant();
  built.source =
      graph->AddSource("scan:" + label, fabric_.store_media(),
                       sim::CostClass::kScan, std::move(batches),
                       program.scan_schema());

  // Live operators, one per program op.
  std::vector<OperatorPtr> live;
  Schema current = program.scan_schema();
  for (const ProgramOp& pop : program.ops()) {
    DFLOW_ASSIGN_OR_RETURN(OperatorPtr op,
                           compile::InstantiateOp(program, pop, &current));
    live.push_back(std::move(op));
  }

  // Collapse fused groups into single kernels.
  struct Stage {
    std::string name;
    OperatorPtr op;
    Site site;
  };
  std::vector<Stage> stages;
  const std::vector<FusedGroup>& groups = program.fused_groups();
  size_t gi = 0;
  for (size_t i = 0; i < live.size();) {
    if (gi < groups.size() && groups[gi].first == i) {
      const FusedGroup& g = groups[gi];
      std::string name = "fused(";
      std::vector<OperatorPtr> inner;
      for (uint32_t k = 0; k < g.count; ++k) {
        if (k > 0) name += "+";
        name += program.ops()[i + k].label;
        inner.push_back(std::move(live[i + k]));
      }
      name += ")";
      DFLOW_ASSIGN_OR_RETURN(OperatorPtr fused,
                             compile::FusedOperator::Make(std::move(inner)));
      stages.push_back(
          Stage{std::move(name), std::move(fused), program.ops()[i].site});
      i += g.count;
      ++gi;
    } else {
      stages.push_back(Stage{program.ops()[i].label, std::move(live[i]),
                             program.ops()[i].site});
      ++i;
    }
  }

  // Wire the chain: source -> stages -> sink (client colocated with CPU).
  const int node = program.node();
  DataflowGraph::NodeId prev = built.source;
  int prev_site = -1;  // media, before kStorageProc
  auto connect = [&](DataflowGraph::NodeId from, DataflowGraph::NodeId to,
                     int from_site, int to_site) -> Status {
    const Site path_from =
        from_site < 0 ? Site::kStorageProc : static_cast<Site>(from_site);
    const bool crosses_network =
        from_site < static_cast<int>(Site::kComputeNic) &&
        to_site >= static_cast<int>(Site::kComputeNic);
    DFLOW_RETURN_NOT_OK(graph->Connect(
        from, to, PathBetween(path_from, static_cast<Site>(to_site), node),
        program.credits()));
    if (crosses_network && !built.has_network_edge) {
      built.has_network_edge = true;
      built.net_from = from;
      built.net_to = to;
    }
    return Status::OK();
  };
  for (Stage& stage : stages) {
    const DataflowGraph::NodeId id =
        graph->AddStage(stage.name + ":" + label, std::move(stage.op),
                        SiteDevice(stage.site, node));
    DFLOW_RETURN_NOT_OK(
        connect(prev, id, prev_site, static_cast<int>(stage.site)));
    prev = id;
    prev_site = static_cast<int>(stage.site);
  }
  built.sink = graph->AddSink("client:" + label);
  DFLOW_RETURN_NOT_OK(connect(prev, built.sink, prev_site,
                              static_cast<int>(Site::kCpu)));
  if (rate_limit_gbps > 0 && built.has_network_edge) {
    DFLOW_RETURN_NOT_OK(
        graph->SetEdgeRateLimit(built.net_from, built.net_to, rate_limit_gbps));
  }
  return built;
}

Result<std::shared_ptr<compile::CompiledQuery>> Engine::CompilePlan(
    const QuerySpec& spec) {
  DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(spec));
  auto plan = std::make_shared<compile::CompiledQuery>();
  DFLOW_ASSIGN_OR_RETURN(plan->variants, EnumerateVariants(prepared));
  DFLOW_ASSIGN_OR_RETURN(
      plan->cpu_only,
      ResolvePlacement(prepared, PlacementChoice::kCpuOnly, /*node=*/0));
  DFLOW_ASSIGN_OR_RETURN(
      plan->full_offload,
      ResolvePlacement(prepared, PlacementChoice::kFullOffload, /*node=*/0));
  plan->spec = spec;
  plan->plan_fingerprint = FingerprintQuerySpec(spec);
  plan->fabric_epoch = fabric_epoch_;
  DFLOW_TRACE(tracer_.get(),
              Instant("compile", "compiler", "plan",
                      fabric_.simulator().now(),
                      /*value=*/plan->variants.size(), spec.table));
  return plan;
}

Result<compile::ProgramPtr> Engine::CompileVariant(
    compile::CompiledQuery* plan, const Placement& placement,
    verify::VerifyMode mode, int node) {
  DFLOW_CHECK(plan != nullptr);
  compile::ProgramPtr existing = plan->ProgramFor(placement.name);
  if (existing != nullptr && existing->node() == node) return existing;
  const RankedPlacement* variant = nullptr;
  for (const RankedPlacement& v : plan->variants) {
    if (v.placement.sites == placement.sites) {
      variant = &v;
      break;
    }
  }
  if (variant == nullptr) {
    return Status::Internal("compiler: placement '" + placement.name +
                            "' is not among the enumerated plan variants");
  }
  DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(plan->spec));
  ExecOptions options;
  options.verify = mode;
  options.node = node;
  DFLOW_ASSIGN_OR_RETURN(
      compile::ProgramPtr program,
      LowerProgram(plan->spec, prepared, placement, options, "compile",
                   variant->cost));
  DFLOW_TRACE(tracer_.get(),
              Instant("compile", "compiler", "compile",
                      fabric_.simulator().now(),
                      /*value=*/program->ops().size(),
                      plan->spec.table + " -> " + placement.name));
  if (!program->fused_groups().empty()) {
    DFLOW_TRACE(tracer_.get(),
                Instant("compile", "compiler", "fuse",
                        fabric_.simulator().now(),
                        /*value=*/program->fused_groups().size(),
                        placement.name));
  }
  plan->programs[placement.name] = program;
  return program;
}

Result<compile::ProgramPtr> Engine::Compile(const QuerySpec& spec,
                                            PlacementChoice choice,
                                            verify::VerifyMode mode, int node) {
  DFLOW_RETURN_NOT_OK(CheckNode(node));
  DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<compile::CompiledQuery> plan,
                         CompilePlan(spec));
  Placement placement = plan->full_offload;
  if (choice == PlacementChoice::kAuto) {
    placement = HealthiestVariant(plan->variants, node);
  } else if (choice == PlacementChoice::kCpuOnly) {
    placement = plan->cpu_only;
  }
  return CompileVariant(plan.get(), placement, mode, node);
}

Result<QueryResult> Engine::ExecuteProgram(const compile::DflowProgram& program,
                                           const ExecOptions& options) {
  if (options.node != program.node()) {
    return Status::InvalidArgument(
        "program was compiled for compute node " +
        std::to_string(program.node()) + ", not node " +
        std::to_string(options.node));
  }
  return RunProgram(program, options, /*allow_fallback=*/true);
}

Status Engine::BeginRun(const ExecOptions& options) {
  if (options.trace.enabled && tracer_ == nullptr) {
    DFLOW_RETURN_NOT_OK(EnableTracing(options.trace));
  }
  if (options.reset_fabric) {
    fabric_.Reset();
    // Trace and report describe the same window: the events of this run.
    if (tracer_ != nullptr) tracer_->Clear();
  } else {
    // Chained run: keep the clock and timing state but zero the byte/busy
    // counters so this run's report counts only its own traffic.
    fabric_.ResetMetrics();
  }
  return Status::OK();
}

Result<QueryResult> Engine::RunProgram(const compile::DflowProgram& program,
                                       const ExecOptions& options,
                                       bool allow_fallback) {
  TableScanSource::ScanStats stats;
  DFLOW_ASSIGN_OR_RETURN(std::vector<ScanBatch> batches,
                         DecodeScan(program, &stats));
  DFLOW_RETURN_NOT_OK(BeginRun(options));
  DataflowGraph graph(&fabric_.simulator());
  ArmGraph(&graph);
  DFLOW_TRACE(tracer_.get(),
              Instant("engine", "engine", "plan_choice",
                      fabric_.simulator().now(), /*value=*/0,
                      program.variant()));
  const QuerySpec& spec = program.spec();
  DFLOW_ASSIGN_OR_RETURN(
      AdmittedPipeline built,
      BuildProgramGraph(&graph, program, std::move(batches), spec.table,
                        options.network_rate_limit_gbps));
  const Status run_status = graph.Run();
  if (!run_status.ok()) {
    const std::string dead = graph.failed_device();
    if (allow_fallback && !dead.empty()) {
      // Graceful degradation (§7): a processing element died permanently
      // mid-query. Quarantine it (which bumps the fabric epoch, stranding
      // stale cache entries) and re-run the traditional CPU-centric plan,
      // which touches only the media, the links, and the CPU.
      MarkDeviceUnhealthy(dead);
      DFLOW_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(spec));
      DFLOW_ASSIGN_OR_RETURN(
          Placement cpu_only,
          ResolvePlacement(prepared, PlacementChoice::kCpuOnly,
                           program.node()));
      const bool dead_is_unavoidable =
          dead == fabric_.store_media()->name() ||
          dead == fabric_.node(program.node()).cpu->name();
      if (!dead_is_unavoidable &&
          cpu_only.sites != program.placement().sites) {
        ExecOptions retry = options;
        retry.reset_fabric = true;  // fresh timeline for the recovery run
        retry.credits = program.credits();
        DFLOW_ASSIGN_OR_RETURN(
            compile::ProgramPtr fallback,
            LowerProgram(spec, prepared, cpu_only, retry, spec.table));
        DFLOW_ASSIGN_OR_RETURN(
            QueryResult result,
            RunProgram(*fallback, retry, /*allow_fallback=*/false));
        result.report.fault.cpu_fallback = true;
        result.report.fault.failed_device = dead;
        result.report.variant += "(fallback:" + dead + ")";
        DFLOW_TRACE(tracer_.get(),
                    Instant("engine", "engine", "cpu_fallback",
                            fabric_.simulator().now(), /*value=*/0, dead));
        return result;
      }
    }
    return run_status;
  }

  QueryResult result;
  result.chunks = graph.sink_chunks(built.sink);
  result.report = CollectReport(graph, built.sink, program.variant(), stats);
  result.report.verify = program.verify_stamp();
  return result;
}

Result<Engine::AdmittedPipeline> Engine::BuildProgramPipeline(
    DataflowGraph* graph, const compile::DflowProgram& program,
    const std::string& label, double rate_limit_gbps) {
  DFLOW_CHECK(graph != nullptr);
  DFLOW_ASSIGN_OR_RETURN(std::vector<ScanBatch> batches, DecodeScan(program));
  ArmGraph(graph);
  return BuildProgramGraph(graph, program, std::move(batches), label,
                           rate_limit_gbps);
}

}  // namespace dflow
