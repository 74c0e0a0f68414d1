#ifndef DFLOW_ENGINE_ENGINE_H_
#define DFLOW_ENGINE_ENGINE_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dflow/compile/program.h"
#include "dflow/engine/report.h"
#include "dflow/engine/volcano_runner.h"
#include "dflow/exec/dataflow.h"
#include "dflow/exec/parallel/parallel_executor.h"
#include "dflow/opt/placement.h"
#include "dflow/plan/query_spec.h"
#include "dflow/storage/catalog.h"
#include "dflow/trace/tracer.h"
#include "dflow/verify/verifier.h"

namespace dflow {

class JoinHashTable;

namespace compile {
struct CompiledQuery;
}  // namespace compile

/// Which data-path alternative to run (§7.3's plan variants).
enum class PlacementChoice {
  kAuto,         // movement-cost-first optimizer picks
  kCpuOnly,      // the traditional CPU-centric plan
  kFullOffload,  // every stage at the earliest capable site
};

/// How Engine::Execute actually runs the plan.
enum class ExecMode {
  /// The discrete-event simulator over the modeled fabric (the default,
  /// and the oracle every other mode is differential-tested against).
  kSimulated,
  /// Real threads on the host: the morsel-driven work-stealing executor
  /// (src/dflow/exec/parallel/). No fabric, no placement, no simulated
  /// time — wall-clock performance with byte-identical results.
  kParallel,
};

/// The most worker threads one kParallel call may ask for.
inline constexpr uint32_t kMaxParallelWorkers = 256;

struct ExecOptions {
  PlacementChoice placement = PlacementChoice::kAuto;
  /// Simulator (default) or the real multithreaded executor.
  ExecMode mode = ExecMode::kSimulated;
  /// Worker threads for ExecMode::kParallel: 0 runs one, and more than
  /// kMaxParallelWorkers is refused with InvalidArgument.
  uint32_t parallel_workers = 4;
  /// Credits (chunks in flight) per edge of the simulated pipeline. Must be
  /// >= 1 in every mode: kParallel runs no credit-gated edges and only
  /// validates it.
  uint32_t credits = 8;
  /// DMA rate limit on the network edge, Gbps (0 = none). Set by the
  /// scheduler to tame background queries.
  double network_rate_limit_gbps = 0.0;
  /// Compute node hosting the query's final stages. Every entry point
  /// taking a node (this, or the `node` of Compile, CompileVariant and
  /// ChoosePlacement) refuses one outside the fabric: InvalidArgument.
  int node = 0;
  /// Reset fabric clock/stats before running (disable to chain phases).
  bool reset_fabric = true;
  /// Observability: when trace.enabled, the engine records a virtual-time
  /// event trace of the run (device/link/stage/edge timelines), retrievable
  /// via Engine::tracer(). Tracing never changes scheduling or results.
  trace::TraceOptions trace;
  /// Static plan verification before execution. kStrict (the process-wide
  /// default) refuses to run a graph with verifier errors; kWarn records
  /// the report in ExecutionReport::verify but runs anyway; kOff skips the
  /// pass. Benches override the default via --dflow_verify=.
  verify::VerifyMode verify = verify::DefaultMode();
};

struct QueryResult {
  std::vector<DataChunk> chunks;
  ExecutionReport report;
  /// Populated only by ExecMode::kParallel (morsel/steal/wall-clock
  /// counters); all zeros for simulated runs.
  parallel::ParallelExecStats parallel;
};

/// Result of a distributed partitioned join.
struct JoinRunResult {
  /// Joined-row count per node (the per-node COUNT sink). In
  /// ExecMode::kParallel this is the per-partition count (the same hash
  /// routing, so the same values the simulated per-node sinks report).
  std::vector<int64_t> node_counts;
  int64_t total_rows = 0;
  ExecutionReport report;
  /// Populated only by ExecMode::kParallel.
  parallel::ParallelExecStats parallel;
};

/// The data flow engine: a catalog, a simulated fabric, the placement
/// optimizer, and executors for the data-flow architecture and for the
/// conventional (Volcano + buffer pool) baseline — everything the paper's
/// experiments compare.
class Engine {
 public:
  explicit Engine(sim::FabricConfig config = sim::FabricConfig());
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Catalog& catalog() { return catalog_; }
  sim::Fabric& fabric() { return fabric_; }
  const sim::FabricConfig& config() const { return config_; }

  // ------------------------------------------------- unreliable-fabric mode
  /// Arms deterministic fault injection on every fabric link and device and
  /// enables the matching recovery layer on graphs the engine builds:
  /// checksummed transfers with timeout/backoff retransmission, bounded
  /// storage-read retry, and CPU-only fallback when an accelerator crashes
  /// permanently. Same config and seed => byte-identical event trace.
  void EnableFaultInjection(const sim::FaultConfig& config,
                            const RecoveryPolicy& policy = RecoveryPolicy());
  void DisableFaultInjection();
  /// The active injector (crash scheduling, trace, counters); null when
  /// fault injection is off.
  sim::FaultInjector* fault_injector() { return fault_.get(); }

  // ------------------------------------------------------- observability
  /// Attaches an event tracer to every fabric device/link and to graphs the
  /// engine builds. The trace covers the most recent run whose options had
  /// reset_fabric set (chained runs append). Also enabled lazily by
  /// ExecOptions::trace.enabled. InvalidArgument, with no tracer attached,
  /// when `options.ring_capacity` is 0.
  Status EnableTracing(const trace::TraceOptions& options);
  /// The active tracer; null when tracing is off.
  trace::Tracer* tracer() { return tracer_.get(); }

  /// Device-health registry: a device marked unhealthy (by fallback after a
  /// crash, or manually) is excluded from kAuto placement and from the
  /// scheduler's variant choices until cleared.
  void MarkDeviceUnhealthy(const std::string& name);
  bool IsDeviceHealthy(const std::string& name) const;
  void ClearDeviceHealth();
  /// Monotone device-health epoch: every MarkDeviceUnhealthy /
  /// ClearDeviceHealth bumps it. Part of the program-cache key, so a
  /// compiled program verified against a stale health registry is never
  /// served — the key simply stops matching.
  uint64_t fabric_epoch() const { return fabric_epoch_; }
  /// Per-compute-node epoch: a health change on a node-scoped device
  /// ("cnic1", "cpu0", ...) bumps only that node's epoch; a change on a
  /// shared device (the storage chain has no node suffix) bumps every
  /// node. Cache keys that carry a node id use this so a crash on node 1
  /// never invalidates node 0's compiled programs.
  uint64_t fabric_epoch(int node) const;
  /// True iff every device this placement uses (on `node`) is healthy.
  bool PlacementHealthy(const Placement& placement, int node);
  /// The (deduplicated, ordered) device names this placement runs stages
  /// on — what the circuit-breaker registry keys its per-device state by.
  std::vector<std::string> PlacementDevices(const Placement& placement,
                                            int node);

  // --------------------------------------------------- static verification
  /// Statically checks the program Execute would run for (spec, placement)
  /// — structure, schema flow, credit safety, placement legality — on its
  /// graph built without scan rows: no decode, no simulation events, no
  /// fabric state change. Returns the diagnostics; callers decide whether
  /// errors are fatal.
  Result<verify::VerifyReport> Verify(
      const QuerySpec& spec, const Placement& placement,
      const ExecOptions& options = ExecOptions());

  /// Same, for the placement Execute would auto-choose.
  Result<verify::VerifyReport> Verify(
      const QuerySpec& spec, const ExecOptions& options = ExecOptions());

  /// Runs the check catalogue over an arbitrary graph snapshot (e.g. from
  /// DataflowGraph::Describe on a hand-built graph) against this engine's
  /// fabric topology, device-health registry, and fault injector.
  verify::VerifyReport VerifyGraphSpec(const verify::GraphSpec& spec);

  /// Runs a query on the data-flow architecture: lowers it to the fused
  /// DflowProgram Compile builds for the chosen placement (verified per
  /// options.verify) and runs it. ExecMode::kParallel lowers the CPU-only
  /// program and runs it on the morsel-driven executor instead.
  Result<QueryResult> Execute(const QuerySpec& spec,
                              const ExecOptions& options = ExecOptions());

  // ---------------------------------- plan compiler (src/dflow/compile/)
  /// Front half of the compiler: prepares the query and enumerates + costs
  /// its placement variants — the expensive, spec-only part of admission
  /// that the program cache lets repeat queries skip.
  Result<std::shared_ptr<compile::CompiledQuery>> CompilePlan(
      const QuerySpec& spec);

  /// Back half: lowers one chosen variant of `plan` into an immutable
  /// DflowProgram (opcode list with literal parameter slots, schema table,
  /// placement, credit layout, fused groups, precomputed demand vector,
  /// verifier stamp), verifies the lowered graph once, and records the
  /// program in `plan->programs`. Strict mode refuses to produce a program
  /// whose stamp has errors.
  Result<compile::ProgramPtr> CompileVariant(
      compile::CompiledQuery* plan, const Placement& placement,
      verify::VerifyMode mode = verify::DefaultMode(), int node = 0);

  /// One-shot convenience: CompilePlan, resolve `choice` to a placement
  /// (healthy-first for kAuto, the forced extreme otherwise), CompileVariant.
  Result<compile::ProgramPtr> Compile(
      const QuerySpec& spec, PlacementChoice choice = PlacementChoice::kAuto,
      verify::VerifyMode mode = verify::DefaultMode(), int node = 0);

  /// Executes a compiled program on the simulated fabric, on the compute
  /// node it was compiled (and verified) for: `options.node` must match
  /// the program's node. No planning, no placement enumeration, no
  /// re-verification — the program's embedded stamp and its epoch key
  /// already cover those. If a device dies permanently mid-run, the
  /// CPU-only variant is relowered (a recompile, not a re-plan) and re-run.
  Result<QueryResult> ExecuteProgram(const compile::DflowProgram& program,
                                     const ExecOptions& options =
                                         ExecOptions());

  /// The placement Execute would pick for `choice` (kAuto: best healthy
  /// variant; kCpuOnly / kFullOffload: the forced extreme). Exposed so the
  /// serving layer and the scheduler resolve plan variants without
  /// executing anything.
  Result<Placement> ChoosePlacement(const QuerySpec& spec,
                                    PlacementChoice choice, int node = 0);

  // --------------------------------------------------------- serving hooks
  /// One query pipeline admitted into an externally-owned graph (the
  /// serving layer launches many of these onto the shared fabric while the
  /// simulation is live).
  struct AdmittedPipeline {
    size_t source = 0;
    size_t sink = 0;
    bool has_network_edge = false;
    size_t net_from = 0;
    size_t net_to = 0;
    std::string variant;  // placement name
  };

  /// Builds `program` into `graph`, which must run on this engine's fabric
  /// simulator, on the compute node the program was compiled for. Arms the
  /// graph with the engine's fault injector and tracer and applies
  /// `rate_limit_gbps` to the pipeline's network edge (0 = uncapped). No
  /// Prepare, no re-verification; launching and draining the simulator stay
  /// with the caller — see DataflowGraph::Launch.
  Result<AdmittedPipeline> BuildProgramPipeline(
      DataflowGraph* graph, const compile::DflowProgram& program,
      const std::string& label, double rate_limit_gbps = 0.0);

  /// Runs with an explicitly chosen placement (one of PlanVariants).
  Result<QueryResult> ExecuteWithPlacement(
      const QuerySpec& spec, const Placement& placement,
      const ExecOptions& options = ExecOptions());

  /// Enumerates this query's data-path alternatives with cost estimates,
  /// best first.
  Result<std::vector<RankedPlacement>> PlanVariants(
      const QuerySpec& spec) const;

  /// Runs several queries concurrently on the shared fabric, one pipeline
  /// each. `placements[i]` chooses query i's variant;
  /// `network_rate_limits_gbps` (same length, or empty) caps each query's
  /// network DMA, and `start_offsets_ns` (same length, or empty) delays
  /// each query's admission to the given virtual time — the batch
  /// degenerates to the classic everything-at-t=0 run when empty. Returns
  /// per-query completion and the overall makespan. Every program passes
  /// the default-mode static gate before any query runs.
  struct ConcurrentResult {
    std::vector<sim::SimTime> completion_ns;
    std::vector<uint64_t> result_rows;
    sim::SimTime makespan_ns = 0;
  };
  Result<ConcurrentResult> ExecuteConcurrent(
      const std::vector<QuerySpec>& specs,
      const std::vector<Placement>& placements,
      const std::vector<double>& network_rate_limits_gbps = {},
      const std::vector<sim::SimTime>& start_offsets_ns = {});

  /// Distributed partitioned hash join across compute nodes (Figure 4):
  /// runs the LowerJoin program, on the simulated fabric or, with
  /// ExecMode::kParallel, on the morsel-driven executor.
  Result<JoinRunResult> ExecutePartitionedJoin(
      const JoinSpec& spec, const ExecOptions& options = ExecOptions());

  /// The one join lowering: both phases' scans (whole tuples on the
  /// simulated fabric, as Figure 4 ships them; keys and probe-filter
  /// columns for kParallel), ops, sites and credits. Unless options.verify
  /// is kOff or the mode is kParallel, each phase's graph is verified,
  /// without scan rows, before anything runs; strict refuses errors.
  Result<compile::JoinProgramPtr> LowerJoin(
      const JoinSpec& spec, const ExecOptions& options = ExecOptions());

  /// Runs the same query on the conventional engine (pull-based iterators
  /// over a buffer pool of `pool_pages` pages).
  Result<VolcanoRunResult> ExecuteOnVolcano(const QuerySpec& spec,
                                            size_t pool_pages,
                                            int repeats = 1);

  // Lowering internals: the prepared query the compiler's lowering reads,
  // and the site -> device map its graph builders wire with. Dataflow
  // graphs are built only by the compiler (BuildProgramGraph,
  // BuildJoinPhaseGraph).
  struct PreparedQuery {
    enum class StageKind {
      kDecode,
      kFilter,
      kProject,
      kPartialAgg,
      kFinalAgg,
      kCount,
      kSort,
      kLimit,
    };

    std::shared_ptr<Table> table;
    std::vector<std::string> scan_columns;
    Schema scan_schema;
    ExprPtr filter;                    // resolved against scan_schema
    std::vector<ExprPtr> projections;  // resolved against scan_schema
    Schema after_project;              // schema entering aggregation
    std::vector<StageKind> kinds;
    std::vector<StageDesc> descs;
  };

  /// The processing element hosting `site` on compute node `node`.
  sim::Device* SiteDevice(Site site, int node);

 private:
  /// The ordered links a chunk crosses moving from `from` to `to`.
  std::vector<sim::Link*> PathBetween(Site from, Site to, int node);
  /// Collects the names of all column references in an expression tree.
  static void CollectColumnNames(const ExprPtr& expr,
                                 std::set<std::string>* out);
  Result<PreparedQuery> Prepare(const QuerySpec& spec) const;
  /// InvalidArgument unless `node` is one of the fabric's compute nodes.
  Status CheckNode(int node) const;
  /// Sizes the prepared query's scan from row-group metadata (no decode)
  /// and enumerates + costs its placement variants, best first.
  Result<std::vector<RankedPlacement>> EnumerateVariants(
      const PreparedQuery& prepared) const;
  /// Resolves `choice` for a prepared query: kAuto enumerates and takes
  /// HealthiestVariant; the forced extremes need no scan sizes.
  Result<Placement> ResolvePlacement(const PreparedQuery& prepared,
                                     PlacementChoice choice, int node);
  /// The best-ranked variant whose devices on `node` are all healthy; the
  /// best variant when every one touches a dead device (fallback handles
  /// it).
  Placement HealthiestVariant(const std::vector<RankedPlacement>& variants,
                              int node);

  // Program lowering, verification and execution live in
  // src/dflow/compile/compiler.cc.
  /// The one path from a prepared query to something executable: lowers
  /// (spec, placement) into a fused DflowProgram with options.credits and
  /// options.node, and — unless options.verify is kOff — stamps it with the
  /// verifier's verdict on the program's graph built without scan rows and
  /// labelled `label`. Strict mode refuses a stamp with errors.
  Result<compile::ProgramPtr> LowerProgram(
      const QuerySpec& spec, const PreparedQuery& prepared,
      const Placement& placement, const ExecOptions& options,
      const std::string& label, const CostEstimate& demand = CostEstimate());
  /// The program's (or join phase's) scan: its columns, pruned by its
  /// filter's zone maps.
  static Result<TableScanSource> ScanOf(const compile::DflowProgram& program);
  static Result<TableScanSource> ScanOf(
      const compile::JoinProgram::Phase& phase);
  /// Decodes the program's surviving row groups.
  Result<std::vector<ScanBatch>> DecodeScan(
      const compile::DflowProgram& program,
      TableScanSource::ScanStats* stats = nullptr) const;
  /// Replays the program's instruction list into `graph` (one stage per op
  /// or per fused group, wired on the program's node with its credit
  /// layout) over `batches`, which may be empty for a verification graph.
  Result<AdmittedPipeline> BuildProgramGraph(
      DataflowGraph* graph, const compile::DflowProgram& program,
      std::vector<ScanBatch> batches, const std::string& label,
      double rate_limit_gbps);
  /// Replays one join phase into `graph` over `batches` (empty for a
  /// verification graph): the front chain on node 0 or the storage side,
  /// then partition i's ops on node i, bound to `tables[i]`. Returns the
  /// phase's client sinks, one per partition (none for the build phase).
  Result<std::vector<DataflowGraph::NodeId>> BuildJoinPhaseGraph(
      DataflowGraph* graph, const compile::JoinProgram& program,
      const compile::JoinProgram::Phase& phase,
      const std::vector<std::shared_ptr<JoinHashTable>>& tables,
      std::vector<ScanBatch> batches);
  /// Opens a simulated run's window per options.trace and
  /// options.reset_fabric. InvalidArgument on an enabled trace with a
  /// zero-event ring.
  Status BeginRun(const ExecOptions& options);
  /// Runs a program on the fabric and collects its report. Never verifies:
  /// the program's stamp is the report's verdict. On a permanent device
  /// death (with `allow_fallback`) quarantines the device and re-runs the
  /// CPU-only variant relowered.
  Result<QueryResult> RunProgram(const compile::DflowProgram& program,
                                 const ExecOptions& options,
                                 bool allow_fallback);
  /// ExecMode::kParallel implementations (engine/parallel_runner.cc) on
  /// the morsel-driven work-stealing executor with real threads: a query
  /// runs its CPU-only program, a join its join program's scans, keys and
  /// probe filter.
  Result<QueryResult> ExecuteParallel(const QuerySpec& spec,
                                      const ExecOptions& options);
  Result<JoinRunResult> ExecuteParallelJoin(
      const compile::JoinProgram& program, const ExecOptions& options);
  ExecutionReport CollectReport(const DataflowGraph& graph,
                                DataflowGraph::NodeId sink,
                                const std::string& variant,
                                const TableScanSource::ScanStats& scan);
  /// Attaches the active injector and recovery policy to a graph (no-op
  /// when fault injection is off).
  void ArmGraph(DataflowGraph* graph);

  sim::FabricConfig config_;
  sim::Fabric fabric_;
  Catalog catalog_;
  VolcanoRunner volcano_;
  std::unique_ptr<sim::FaultInjector> fault_;
  std::unique_ptr<trace::Tracer> tracer_;
  RecoveryPolicy recovery_policy_;
  std::set<std::string> unhealthy_;
  uint64_t fabric_epoch_ = 0;
  /// Indexed by compute node; grown lazily (see fabric_epoch(int)).
  std::vector<uint64_t> node_epochs_;
};

}  // namespace dflow

#endif  // DFLOW_ENGINE_ENGINE_H_
