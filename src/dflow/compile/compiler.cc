// The plan compiler: the one lowering from a prepared query to an
// immutable, verified DflowProgram, and the one builder that turns a
// program into a dataflow graph. Every simulated entry point (Execute,
// ExecuteWithPlacement, Verify, ExecuteConcurrent, CompileVariant, the
// serving loop) goes through LowerProgram and BuildProgramGraph. These are
// Engine member functions (lowering needs the engine's private query
// preparation); they live here because the program format, the fusion
// pass, and the cache they feed are this subsystem.

#include <utility>

#include "dflow/common/logging.h"
#include "dflow/compile/compiler.h"
#include "dflow/compile/fuse.h"
#include "dflow/compile/program.h"
#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/aggregate.h"
#include "dflow/exec/filter.h"
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

struct LoweredOps {
  std::vector<ProgramOp> ops;
  std::vector<Value> literals;
};

/// Lowers (prepared, placement) to the final instruction list, normalizing
/// the plan on the way: a CPU-placed partial aggregate collapses into a
/// single complete aggregate, and compress_uplink inserts the encode/decode
/// pair around the network hop. Prototype operators are constructed once
/// to type the schema table.
Result<LoweredOps> LowerStages(const QuerySpec& spec,
                               const Engine::PreparedQuery& prepared,
                               const Placement& placement) {
  using SK = Engine::PreparedQuery::StageKind;
  LoweredOps out;
  Schema current = prepared.scan_schema;
  bool partial_dropped = false;
  auto add = [&](OpCode code, const char* label, Site site,
                 std::vector<uint32_t> slots = {}) {
    out.ops.push_back(
        ProgramOp{code, label, site, std::move(slots), current});
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
        std::vector<ExprPtr> exprs = prepared.projections;
        DFLOW_ASSIGN_OR_RETURN(
            OperatorPtr proto,
            ProjectOperator::Make(std::move(exprs), spec.projection_names,
                                  current));
        current = proto->output_schema();
        add(OpCode::kProject, "project", site, std::move(slots));
        break;
      }
      case SK::kCount: {
        OperatorPtr proto(new CountOperator());
        current = proto->output_schema();
        add(OpCode::kCount, "count", site);
        break;
      }
      case SK::kPartialAgg: {
        if (site == Site::kCpu) {
          partial_dropped = true;
          break;
        }
        DFLOW_ASSIGN_OR_RETURN(
            OperatorPtr proto,
            HashAggregateOperator::Make(current, spec.group_by,
                                        spec.aggregates, AggMode::kPartial,
                                        spec.preagg_budget));
        current = proto->output_schema();
        add(OpCode::kPartialAgg, "agg_partial", site);
        break;
      }
      case SK::kFinalAgg: {
        OperatorPtr proto;
        if (partial_dropped) {
          DFLOW_ASSIGN_OR_RETURN(
              proto, HashAggregateOperator::Make(current, spec.group_by,
                                                 spec.aggregates,
                                                 AggMode::kComplete));
          current = proto->output_schema();
          add(OpCode::kCompleteAgg, "agg_final", site);
        } else {
          DFLOW_ASSIGN_OR_RETURN(
              proto,
              HashAggregateOperator::Make(current, spec.group_by,
                                          MakeMergeSpecs(spec.aggregates),
                                          AggMode::kFinal));
          current = proto->output_schema();
          add(OpCode::kFinalAgg, "agg_final", site);
        }
        break;
      }
      case SK::kSort: {
        DFLOW_ASSIGN_OR_RETURN(
            OperatorPtr proto,
            SortOperator::Make(current, spec.order_by->column,
                               spec.order_by->descending,
                               spec.order_by->limit));
        add(OpCode::kSort, "sort", site);
        break;
      }
      case SK::kLimit: {
        add(OpCode::kLimit, "limit", site);
        break;
      }
    }
  }

  if (spec.compress_uplink) {
    size_t last_storage = out.ops.size();
    for (size_t i = 0; i < out.ops.size(); ++i) {
      if (out.ops[i].site <= Site::kStorageNic) last_storage = i;
    }
    if (last_storage != out.ops.size()) {
      const Schema enc_schema = out.ops[last_storage].output_schema;
      Site dec_site = Site::kCpu;
      for (size_t i = last_storage + 1; i < out.ops.size(); ++i) {
        if (out.ops[i].site > Site::kStorageNic) {
          dec_site = out.ops[i].site;
          break;
        }
      }
      out.ops.insert(out.ops.begin() + last_storage + 1,
                     ProgramOp{OpCode::kEncode, "encode",
                               out.ops[last_storage].site, {}, enc_schema});
      out.ops.insert(out.ops.begin() + last_storage + 2,
                     ProgramOp{OpCode::kReDecode, "decode2", dec_site, {},
                               enc_schema});
    }
  }
  return out;
}

}  // namespace

namespace compile {

Result<OperatorPtr> InstantiateOp(const DflowProgram& program,
                                  const ProgramOp& pop, Schema* current) {
  const QuerySpec& spec = program.spec();
  switch (pop.code) {
    case OpCode::kDecode:
      return OperatorPtr(new DecodeOperator(*current));
    case OpCode::kFilter:
      return FilterOperator::Make(program.filter(), *current);
    case OpCode::kProject: {
      std::vector<ExprPtr> exprs = program.projections();
      DFLOW_ASSIGN_OR_RETURN(
          OperatorPtr op,
          ProjectOperator::Make(std::move(exprs), spec.projection_names,
                                *current));
      *current = op->output_schema();
      return op;
    }
    case OpCode::kCount: {
      OperatorPtr op(new CountOperator());
      *current = op->output_schema();
      return op;
    }
    case OpCode::kPartialAgg: {
      DFLOW_ASSIGN_OR_RETURN(
          OperatorPtr op,
          HashAggregateOperator::Make(*current, spec.group_by, spec.aggregates,
                                      AggMode::kPartial, spec.preagg_budget));
      *current = op->output_schema();
      return op;
    }
    case OpCode::kFinalAgg: {
      DFLOW_ASSIGN_OR_RETURN(
          OperatorPtr op,
          HashAggregateOperator::Make(*current, spec.group_by,
                                      MakeMergeSpecs(spec.aggregates),
                                      AggMode::kFinal));
      *current = op->output_schema();
      return op;
    }
    case OpCode::kCompleteAgg: {
      DFLOW_ASSIGN_OR_RETURN(
          OperatorPtr op,
          HashAggregateOperator::Make(*current, spec.group_by, spec.aggregates,
                                      AggMode::kComplete));
      *current = op->output_schema();
      return op;
    }
    case OpCode::kSort:
      return SortOperator::Make(*current, spec.order_by->column,
                                spec.order_by->descending,
                                spec.order_by->limit);
    case OpCode::kLimit:
      return OperatorPtr(new LimitOperator(*current, spec.limit));
    case OpCode::kEncode:
      return OperatorPtr(new EncodeOperator(pop.output_schema));
    case OpCode::kReDecode:
      return OperatorPtr(new DecodeOperator(pop.output_schema));
  }
  return Status::Internal("unknown opcode in program");
}

}  // namespace compile

Result<compile::ProgramPtr> Engine::LowerProgram(
    const QuerySpec& spec, const PreparedQuery& prepared,
    const Placement& placement, compile::FuseMode fuse,
    const ExecOptions& options, const std::string& label,
    const CostEstimate& demand) {
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
  if (fuse == compile::FuseMode::kOn) b.fused_groups = PlanFusion(b.ops);
  b.fuse = fuse;
  b.placement = placement;
  b.credits = options.credits;
  b.node = options.node;
  b.demand = demand;
  b.plan_fingerprint = FingerprintQuerySpec(spec);
  b.fabric_epoch = fabric_epoch_;
  b.verifier_version = verify::kVerifierVersion;
  b.compile_cost_ns = compile::kLowerPerOpCostNs * b.ops.size();
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
  const uint64_t num_stages = b.ops.size() + 2;  // + source + sink
  b.compile_cost_ns += compile::kVerifyPerStageCostNs * num_stages +
                       compile::kVerifyPerEdgeCostNs * (num_stages - 1);
  for (const verify::VerifyIssue& issue : b.verify_stamp.issues) {
    DFLOW_LOG(Warning) << "verify: " << issue.ToString();
  }
  if (options.verify == verify::VerifyMode::kStrict && !b.verify_stamp.ok()) {
    return Status::InvalidArgument("plan rejected by static verifier: " +
                                   b.verify_stamp.ToString());
  }
  return std::move(b).Build();
}

Result<std::vector<ScanBatch>> Engine::DecodeScan(
    const compile::DflowProgram& program,
    TableScanSource::ScanStats* stats) const {
  DFLOW_ASSIGN_OR_RETURN(
      TableScanSource scan,
      TableScanSource::Make(program.table(), program.scan_columns(),
                            program.filter()));
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
  plan->plan_cost_ns = compile::kPlanPrepareCostNs +
                       compile::kPlanScanSizingCostNs +
                       compile::kPlanPerVariantCostNs * plan->variants.size();
  DFLOW_TRACE(tracer_.get(),
              Instant("compile", "compiler", "plan",
                      fabric_.simulator().now(),
                      /*value=*/plan->variants.size(), spec.table));
  return plan;
}

Result<compile::ProgramPtr> Engine::CompileVariant(
    compile::CompiledQuery* plan, const Placement& placement,
    verify::VerifyMode mode, compile::FuseMode fuse, int node) {
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
      LowerProgram(plan->spec, prepared, placement, fuse, options, "compile",
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
                                            verify::VerifyMode mode,
                                            compile::FuseMode fuse, int node) {
  DFLOW_ASSIGN_OR_RETURN(std::shared_ptr<compile::CompiledQuery> plan,
                         CompilePlan(spec));
  Placement placement = plan->full_offload;
  if (choice == PlacementChoice::kAuto) {
    placement = HealthiestVariant(plan->variants, node);
  } else if (choice == PlacementChoice::kCpuOnly) {
    placement = plan->cpu_only;
  }
  return CompileVariant(plan.get(), placement, mode, fuse, node);
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

Result<QueryResult> Engine::RunProgram(const compile::DflowProgram& program,
                                       const ExecOptions& options,
                                       bool allow_fallback) {
  TableScanSource::ScanStats stats;
  DFLOW_ASSIGN_OR_RETURN(std::vector<ScanBatch> batches,
                         DecodeScan(program, &stats));
  if (options.trace.enabled && tracer_ == nullptr) {
    EnableTracing(options.trace);
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
            LowerProgram(spec, prepared, cpu_only, program.fuse(), retry,
                         spec.table));
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
