#include "dflow/cluster/router.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "dflow/common/hash.h"
#include "dflow/common/logging.h"
#include "dflow/compile/compiler.h"
#include "dflow/exec/join.h"
#include "dflow/exec/local_executor.h"
#include "dflow/plan/expr.h"

namespace dflow::cluster {
namespace {

/// Modeled per-row cost of router-level operators (pre-aggregation, merge,
/// join build/probe on exchanged rows). The heavy lifting — scans, filters,
/// projections — is priced by each node's fabric simulator; this constant
/// only keeps the cluster-level merge work from being free.
constexpr sim::SimTime kClusterOpNsPerRow = 40;

/// Sum of the per-node join counts a gather delivered to the coordinator.
int64_t SumCounts(const std::vector<DataChunk>& chunks) {
  int64_t total = 0;
  for (const DataChunk& chunk : chunks) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      total += chunk.GetValue(r, 0).AsInt64();
    }
  }
  return total;
}

/// An exchange that moves rows to every alive node, as a query shape names
/// it: a shuffle on `key_col` of the producer's `input_arity` columns, or a
/// broadcast.
struct Spread {
  std::string name;
  verify::ExchangeKind kind;
  size_t key_col;
  size_t input_arity;
};

/// The exchange plan of one distributed query: the one description of its
/// data movement, both verified and run. Every exchange reads from all
/// alive nodes. Each of `spreads` moves rows to every alive node for the
/// per-node `stage` fragments ("merge", "join"); the plan ends with the
/// gather `gather_name` to the coordinator. Credits are the links' own
/// window.
verify::ExchangePlanSpec BuildExchangePlan(const Cluster& cluster,
                                           const std::vector<int>& alive,
                                           int coord, const std::string& stage,
                                           const std::vector<Spread>& spreads,
                                           const std::string& gather_name) {
  verify::ExchangePlanSpec plan;
  plan.num_nodes = cluster.num_nodes();
  plan.lost_nodes = cluster.LostNodes();
  plan.lossy_links = cluster.link_faults_armed();
  for (int i : alive) plan.fragments.push_back("scan@" + std::to_string(i));
  if (!spreads.empty()) {
    for (int i : alive) {
      plan.fragments.push_back(stage + "@" + std::to_string(i));
    }
  }
  plan.fragments.push_back("coord");
  for (const Spread& spread : spreads) {
    verify::ExchangeSpec x;
    x.name = spread.name;
    x.kind = spread.kind;
    x.from_nodes = alive;
    x.to_nodes = alive;
    x.partition_count = spread.kind == verify::ExchangeKind::kShuffle
                            ? static_cast<uint32_t>(alive.size())
                            : 0;
    x.key_col = static_cast<int>(spread.key_col);
    x.input_arity = static_cast<int>(spread.input_arity);
    x.consumer = stage + "@" + std::to_string(alive.front());
    plan.exchanges.push_back(std::move(x));
  }
  verify::ExchangeSpec gather;
  gather.name = gather_name;
  gather.kind = verify::ExchangeKind::kGather;
  gather.from_nodes = alive;
  gather.to_nodes = {coord};
  gather.consumer = "coord";
  plan.exchanges.push_back(std::move(gather));
  for (verify::ExchangeSpec& x : plan.exchanges) {
    x.credits = cluster.config().xlink_credits;
  }
  return plan;
}

/// Owns one query's exchange plan: verifies it, then runs its exchanges one
/// at a time in plan order, each exactly as the plan describes it. Every
/// exchange's counters fold into the query result; one that does not
/// finish also sets the query's outcome code and closes the coordinator
/// task as cancelled or failed, and the query ends there.
class PlanRunner {
 public:
  PlanRunner(Cluster* cluster, verify::ExchangePlanSpec plan,
             const RouterOptions& options, DistributedResult* result)
      : cluster_(cluster),
        plan_(std::move(plan)),
        options_(options),
        result_(result) {}

  /// Runs the VY_XCHG_* family over the plan into the result; strict mode
  /// refuses a plan with errors.
  Status Verify() {
    result_->plan = plan_;
    result_->verify = verify::VerifyExchangePlan(plan_);
    if (options_.verify == verify::VerifyMode::kStrict &&
        !result_->verify.ok()) {
      return Status::InvalidArgument("exchange plan rejected: " +
                                     result_->verify.ToString());
    }
    return Status::OK();
  }

  /// Runs the plan's next exchange over `inputs`, which it takes over;
  /// nullopt when it did not finish.
  Result<std::optional<ExchangeResult>> Next(
      NodeChunks inputs, const std::vector<sim::SimTime>& ready) {
    DFLOW_CHECK(next_ < plan_.exchanges.size());
    DFLOW_ASSIGN_OR_RETURN(
        ExchangeResult xr,
        RunExchange(cluster_, plan_.exchanges[next_++], options_.cancel_at_ns,
                    std::move(inputs), ready));
    result_->exchange.Accumulate(xr.stats);
    if (xr.outcome == ExchangeOutcome::kDone) {
      return std::optional<ExchangeResult>(std::move(xr));
    }
    result_->outcome = std::string(ExchangeOutcomeToString(xr.outcome));
    result_->tasks.push_back(
        TaskInfo{options_.coordinator, "coord",
                 xr.outcome == ExchangeOutcome::kCancelled
                     ? TaskInfo::State::kCancelled
                     : TaskInfo::State::kFailed});
    return std::optional<ExchangeResult>();
  }

 private:
  Cluster* cluster_;
  const verify::ExchangePlanSpec plan_;
  const RouterOptions& options_;
  DistributedResult* result_;
  size_t next_ = 0;
};

}  // namespace

QueryRouter::QueryRouter(Cluster* cluster, RouterOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    schedulers_.push_back(std::make_unique<Scheduler>(&cluster_->node(i)));
    ledgers_.push_back(std::make_unique<DemandLedger>());
  }
  if (options_.coordinator < 0 ||
      options_.coordinator >= cluster_->num_nodes() ||
      !cluster_->node_alive(options_.coordinator)) {
    options_.coordinator = cluster_->AliveNodes().empty()
                               ? 0
                               : cluster_->AliveNodes().front();
  }
}

Status QueryRouter::PrepareCluster() {
  if (cluster_->needs_reshard()) {
    DFLOW_RETURN_NOT_OK(cluster_->ReshardAll());
    // The coordinator itself may have been the lost node: re-home it.
    if (!cluster_->node_alive(options_.coordinator)) {
      const std::vector<int> alive = cluster_->AliveNodes();
      if (alive.empty()) {
        return Status::InvalidArgument("cluster has no alive nodes");
      }
      options_.coordinator = alive.front();
    }
  }
  return Status::OK();
}

Result<QueryResult> QueryRouter::RunLocalFragment(int node,
                                                  const QuerySpec& spec) {
  Engine& engine = cluster_->node(node);
  // Compile the fragment once (placement enumeration, lowering and
  // verification) and charge the chosen program's demand to the node's
  // ledger for the duration of the run — the same charge/release
  // discipline the serving loop applies, kept per node so a hot shard's
  // commitment is visible.
  DFLOW_ASSIGN_OR_RETURN(
      compile::ProgramPtr program,
      engine.Compile(spec, options_.placement, options_.verify));
  const CostEstimate cost = program->demand();
  ledgers_[node]->Charge(*schedulers_[node], cost);
  ledger_charges_++;
  ExecOptions exec;
  exec.verify = options_.verify;
  Result<QueryResult> result = engine.ExecuteProgram(*program, exec);
  ledgers_[node]->Release(*schedulers_[node], cost);
  ledger_releases_++;
  return result;
}

Result<std::vector<sim::SimTime>> QueryRouter::RunLocalPhase(
    const std::vector<int>& alive, const std::vector<QuerySpec>& fragments,
    std::vector<NodeChunks>* rows, DistributedResult* result) {
  const int n = cluster_->num_nodes();
  const ClusterFaultConfig& fault = cluster_->config().fault;
  rows->assign(fragments.size(), NodeChunks(n));
  std::vector<sim::SimTime> ready(n, 0);
  DFLOW_RETURN_NOT_OK(cluster_->ForEachNode(alive, [&](int i) -> Status {
    sim::SimTime t = 0;
    for (size_t f = 0; f < fragments.size(); ++f) {
      DFLOW_ASSIGN_OR_RETURN(QueryResult run,
                             RunLocalFragment(i, fragments[f]));
      t += run.report.sim_ns;
      (*rows)[f][i] = std::move(run.chunks);
    }
    if (fault.slow_node == i && fault.slow_factor > 1.0) {
      t = static_cast<sim::SimTime>(static_cast<double>(t) *
                                    fault.slow_factor);
    }
    ready[i] = t;
    return Status::OK();
  }));
  std::vector<sim::SimTime> local_ns;
  for (int i : alive) local_ns.push_back(ready[i]);
  const std::vector<bool> slow =
      FlagStragglers(local_ns, cluster_->config().straggler_factor);
  for (size_t k = 0; k < alive.size(); ++k) {
    result->tasks.push_back(TaskInfo{alive[k], "local",
                                     TaskInfo::State::kDone, local_ns[k],
                                     slow[k]});
    if (slow[k]) result->straggler_events++;
  }
  return ready;
}

Result<int> QueryRouter::HomeNode(const std::string& tenant) const {
  const std::vector<int> alive = cluster_->AliveNodes();
  if (alive.empty()) {
    return Status::InvalidArgument("cluster has no alive nodes");
  }
  return alive[HashString(tenant) % alive.size()];
}

Result<DistributedResult> QueryRouter::ExecuteQuery(const QuerySpec& spec) {
  DFLOW_RETURN_NOT_OK(PrepareCluster());
  const std::vector<int> alive = cluster_->AliveNodes();
  if (alive.empty()) {
    return Status::InvalidArgument("cluster has no alive nodes");
  }
  const int coord = options_.coordinator;
  DistributedResult result;

  // The query's one lowering, split into the halves every phase below runs
  // (compile::PartitionSplit). The program itself never runs, so it needs
  // no verification; each node fragment compiles its own.
  DFLOW_ASSIGN_OR_RETURN(
      compile::ProgramPtr program,
      cluster_->node(coord).Compile(spec, PlacementChoice::kCpuOnly,
                                    verify::VerifyMode::kOff));
  DFLOW_ASSIGN_OR_RETURN(compile::PartitionSplit split,
                         compile::PartitionSplit::Make(std::move(program)));

  // ---- Exchange plan, verified before any frame moves: grouped
  // aggregates shuffle partial states so each group has one home, and every
  // shape gathers to the coordinator.
  const bool has_agg = !spec.count_only && !spec.aggregates.empty();
  const bool grouped = has_agg && !spec.group_by.empty();
  std::vector<Spread> spreads;
  if (grouped) {
    // Group columns lead the partial layout, so the key is column 0.
    spreads.push_back({"shuffle.partial", verify::ExchangeKind::kShuffle, 0,
                       spec.group_by.size() + spec.aggregates.size()});
  }
  PlanRunner plan(cluster_,
                  BuildExchangePlan(*cluster_, alive, coord, "merge", spreads,
                                    "gather.result"),
                  options_, &result);
  DFLOW_RETURN_NOT_OK(plan.Verify());

  // ---- Phase A: per-node local fragments, each on its own fabric: the
  // stream half (scan/filter/project, the bytes-heavy part), or the whole
  // COUNT. Aggregation, ordering and limits move to the merge phases.
  QuerySpec local_spec = spec;
  local_spec.order_by.reset();
  local_spec.limit = 0;
  if (!spec.count_only) {
    local_spec.aggregates.clear();
    local_spec.group_by.clear();
  }
  if (has_agg && spec.projections.empty()) {
    // Aggregates over raw columns: project exactly the columns the
    // partition half reads, so each shard scans what Execute scans.
    for (const Field& f : split.partition_schema().fields()) {
      local_spec.projections.push_back(Expr::Col(f.name));
      local_spec.projection_names.push_back(f.name);
    }
  }
  std::vector<NodeChunks> rows;
  DFLOW_ASSIGN_OR_RETURN(std::vector<sim::SimTime> ready,
                         RunLocalPhase(alive, {local_spec}, &rows, &result));
  NodeChunks& sent = rows[0];
  uint64_t local_rows = 0;
  for (int i : alive) local_rows += TotalRows(sent[i]);

  if (has_agg && local_rows == 0) {
    // Zero rows survived the filter on every shard, so the distributed
    // answer equals the full query over any (empty-result) shard: run it
    // on the coordinator, which also yields the scalar-aggregate
    // empty-state row.
    DFLOW_ASSIGN_OR_RETURN(QueryResult run, RunLocalFragment(coord, spec));
    result.chunks = std::move(run.chunks);
    sim::SimTime worst = 0;
    for (const TaskInfo& t : result.tasks) worst = std::max(worst, t.local_ns);
    result.makespan_ns = worst + run.report.sim_ns;
  } else {
    // ---- Phases B/C: what each node sends to the coordinator is its
    // local rows (count, plain select), its partial states (global
    // aggregate) or its merged groups (grouped aggregate).
    if (has_agg) {
      NodeChunks partial(sent.size());
      DFLOW_RETURN_NOT_OK(cluster_->ForEachNode(alive, [&](int i) -> Status {
        DFLOW_ASSIGN_OR_RETURN(OperatorPtr agg, split.MakePartition());
        ready[i] += TotalRows(sent[i]) * kClusterOpNsPerRow;
        DFLOW_ASSIGN_OR_RETURN(
            partial[i], RunLocalPipeline(std::move(sent[i]), {agg.get()}));
        return Status::OK();
      }));
      sent = std::move(partial);
    }
    if (grouped) {
      DFLOW_ASSIGN_OR_RETURN(
          std::optional<ExchangeResult> xr,
          plan.Next(std::exchange(sent, NodeChunks(sent.size())), ready));
      if (!xr.has_value()) return result;
      DFLOW_RETURN_NOT_OK(cluster_->ForEachNode(alive, [&](int i) -> Status {
        DFLOW_ASSIGN_OR_RETURN(OperatorPtr merge, split.MakeMerge());
        ready[i] = xr->done_ns[i] +
                   TotalRows(xr->received[i]) * kClusterOpNsPerRow;
        DFLOW_ASSIGN_OR_RETURN(
            sent[i],
            RunLocalPipeline(std::move(xr->received[i]), {merge.get()}));
        return Status::OK();
      }));
      for (int i : alive) {
        result.tasks.push_back(TaskInfo{i, "merge", TaskInfo::State::kDone});
      }
    }
    DFLOW_ASSIGN_OR_RETURN(std::optional<ExchangeResult> gx,
                           plan.Next(std::move(sent), ready));
    if (!gx.has_value()) return result;
    std::vector<DataChunk>& gathered = gx->received[coord];
    result.makespan_ns =
        gx->done_ns[coord] +
        (spec.count_only ? 1 : TotalRows(gathered)) * kClusterOpNsPerRow;
    if (spec.count_only || (has_agg && !grouped)) {
      // The merge half at the coordinator: the SUM of the per-node counts,
      // or the global aggregate's kFinal merge (which emits the
      // empty-state row when nothing came).
      DFLOW_ASSIGN_OR_RETURN(OperatorPtr merge, split.MakeMerge());
      DFLOW_ASSIGN_OR_RETURN(
          result.chunks,
          RunLocalPipeline(std::move(gathered), {merge.get()}));
    } else {
      result.chunks = std::move(gathered);
    }
  }

  // ---- The output half (ORDER BY / LIMIT) at the coordinator, over the
  // gathered result: the single-node engine's operators, so tie-breaking
  // and top-K selection are identical by construction.
  if (!spec.count_only &&
      (spec.order_by.has_value() || spec.limit > 0)) {
    DFLOW_ASSIGN_OR_RETURN(std::vector<OperatorPtr> output, split.MakeOutput());
    std::vector<Operator*> ops;
    for (const OperatorPtr& op : output) ops.push_back(op.get());
    const uint64_t sorted_rows = TotalRows(result.chunks);
    DFLOW_ASSIGN_OR_RETURN(result.chunks,
                           RunLocalPipeline(std::move(result.chunks), ops));
    result.makespan_ns += sorted_rows * kClusterOpNsPerRow;
  }

  result.tasks.push_back(TaskInfo{coord, "coord", TaskInfo::State::kDone});
  return result;
}

Result<DistributedResult> QueryRouter::ExecuteJoin(const JoinSpec& spec) {
  DFLOW_RETURN_NOT_OK(PrepareCluster());
  const std::vector<int> alive = cluster_->AliveNodes();
  if (alive.empty()) {
    return Status::InvalidArgument("cluster has no alive nodes");
  }
  const int coord = options_.coordinator;
  DistributedResult result;

  DFLOW_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> build_shard,
      cluster_->node(alive.front()).catalog().Lookup(spec.build_table));
  DFLOW_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> probe_shard,
      cluster_->node(alive.front()).catalog().Lookup(spec.probe_table));
  const Schema& build_schema = build_shard->schema();
  const Schema& probe_schema = probe_shard->schema();
  DFLOW_ASSIGN_OR_RETURN(size_t build_key,
                         build_schema.FieldIndex(spec.build_key));
  DFLOW_ASSIGN_OR_RETURN(size_t probe_key,
                         probe_schema.FieldIndex(spec.probe_key));
  DFLOW_RETURN_NOT_OK(CheckJoinKeyTypes(build_schema.field(build_key).type,
                                        probe_schema.field(probe_key).type));

  // ---- Phase A: each side's fragment is SELECT <key> FROM t [WHERE f], so
  // the shard filters in place and only keys cross the links.
  QuerySpec build_scan;
  build_scan.table = spec.build_table;
  build_scan.projections = {Expr::Col(spec.build_key)};
  build_scan.projection_names = {spec.build_key};
  QuerySpec probe_scan;
  probe_scan.table = spec.probe_table;
  probe_scan.filter = spec.probe_filter;
  probe_scan.projections = {Expr::Col(spec.probe_key)};
  probe_scan.projection_names = {spec.probe_key};
  std::vector<NodeChunks> rows;
  DFLOW_ASSIGN_OR_RETURN(
      std::vector<sim::SimTime> ready,
      RunLocalPhase(alive, {build_scan, probe_scan}, &rows, &result));
  uint64_t total_build_rows = 0;
  for (int i : alive) total_build_rows += TotalRows(rows[0][i]);
  const bool broadcast =
      options_.broadcast_build_max_rows > 0 &&
      total_build_rows <= options_.broadcast_build_max_rows;

  // ---- Exchange plan, verified before any frame moves: the build side
  // shuffles on its key (or broadcasts when small), the probe side
  // shuffles too (it stays local under broadcast), and the per-node counts
  // gather to the coordinator. Each side's rows are its key alone.
  std::vector<Spread> spreads;
  if (broadcast) {
    spreads.push_back({"broadcast.build", verify::ExchangeKind::kBroadcast,
                       0, 1});
  } else {
    spreads.push_back({"shuffle.build", verify::ExchangeKind::kShuffle, 0, 1});
    spreads.push_back({"shuffle.probe", verify::ExchangeKind::kShuffle, 0, 1});
  }
  PlanRunner plan(cluster_,
                  BuildExchangePlan(*cluster_, alive, coord, "join", spreads,
                                    "gather.counts"),
                  options_, &result);
  DFLOW_RETURN_NOT_OK(plan.Verify());

  // ---- Phase B: move the build side, then the probe side.
  DFLOW_ASSIGN_OR_RETURN(std::optional<ExchangeResult> bx,
                         plan.Next(std::move(rows[0]), ready));
  if (!bx.has_value()) return result;
  ExchangeResult px;
  if (broadcast) {
    px.received = std::move(rows[1]);
    px.done_ns = ready;
  } else {
    DFLOW_ASSIGN_OR_RETURN(std::optional<ExchangeResult> moved,
                           plan.Next(std::move(rows[1]), ready));
    if (!moved.has_value()) return result;
    px = std::move(*moved);
  }

  // ---- Phase C: per-node build + probe + count, then gather the counts.
  NodeChunks counts(ready.size());
  std::vector<sim::SimTime> count_ready(ready.size(), 0);
  // Each node counts its matches straight off the probe loop: no joined
  // row is materialized, and the one-row count chunk is what gathers.
  DFLOW_RETURN_NOT_OK(cluster_->ForEachNode(alive, [&](int i) -> Status {
    JoinHashTable table(build_schema.Select({build_key}), 0);
    for (const DataChunk& chunk : bx->received[i]) {
      DFLOW_RETURN_NOT_OK(table.Insert(chunk));
    }
    uint64_t matches = 0;
    for (const DataChunk& chunk : px.received[i]) {
      DFLOW_ASSIGN_OR_RETURN(uint64_t n, table.CountMatches(chunk.column(0)));
      matches += n;
    }
    counts[i].emplace_back(std::vector<ColumnVector>{
        ColumnVector::FromInt64({static_cast<int64_t>(matches)})});
    const uint64_t local_work = table.num_rows() + TotalRows(px.received[i]);
    count_ready[i] = std::max(bx->done_ns[i], px.done_ns[i]) +
                     local_work * kClusterOpNsPerRow;
    return Status::OK();
  }));
  for (int i : alive) {
    result.tasks.push_back(TaskInfo{i, "join", TaskInfo::State::kDone});
  }
  DFLOW_ASSIGN_OR_RETURN(std::optional<ExchangeResult> gx,
                         plan.Next(std::move(counts), count_ready));
  if (!gx.has_value()) return result;
  result.total_rows = SumCounts(gx->received[coord]);
  result.makespan_ns = gx->done_ns[coord] + kClusterOpNsPerRow;
  result.tasks.push_back(TaskInfo{coord, "coord", TaskInfo::State::kDone});
  return result;
}

}  // namespace dflow::cluster
