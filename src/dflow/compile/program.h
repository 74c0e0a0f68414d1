#ifndef DFLOW_COMPILE_PROGRAM_H_
#define DFLOW_COMPILE_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dflow/opt/placement.h"
#include "dflow/plan/expr.h"
#include "dflow/plan/query_spec.h"
#include "dflow/storage/table.h"
#include "dflow/types/schema.h"
#include "dflow/types/value.h"
#include "dflow/verify/verify_report.h"

namespace dflow::compile {

/// Opcode of one lowered pipeline stage. The list is the *final* stage
/// sequence after plan normalization: a CPU-placed partial aggregate has
/// already been collapsed into a single kCompleteAgg, and the optional
/// uplink-recompression pair (kEncode / kReDecode) has been inserted. A
/// program is therefore position-for-position what the dataflow graph will
/// contain — no re-planning happens at execution time.
enum class OpCode : uint8_t {
  kDecode = 0,
  kFilter = 1,
  kProject = 2,
  kPartialAgg = 3,
  kFinalAgg = 4,
  kCompleteAgg = 5,
  kCount = 6,
  kSort = 7,
  kLimit = 8,
  kEncode = 9,    // compress_uplink: re-encode before the network hop
  kReDecode = 10,  // compress_uplink: decode right after the network hop
  kPartition = 11,  // join: hash-partition on the key, one edge per node
  kBuild = 12,      // join: insert into this node's hash table
  kProbe = 13,      // join: match against this node's hash table
};

std::string_view OpCodeToString(OpCode code);

/// One instruction of the program: an opcode, the site it is pinned to, and
/// the parameter slots (indices into the literal pool) its expressions
/// read. `output_schema` is the stage's statically-known output layout —
/// the program's schema table, used for serialization, fingerprinting, and
/// the fused-kernel wrappers.
struct ProgramOp {
  OpCode code = OpCode::kDecode;
  std::string label;  // stage label as it appears in the graph ("filter")
  Site site = Site::kCpu;
  std::vector<uint32_t> literal_slots;
  Schema output_schema;
};

/// A maximal run of adjacent same-site ops the fusion pass collapsed into
/// one kernel: ops [first, first + count) execute as a single fused stage.
struct FusedGroup {
  uint32_t first = 0;
  uint32_t count = 0;
};

/// A compact, immutable compiled query: the unit the program cache stores,
/// the serving layer admits, and a future adaptive re-placer would swap.
///
/// The artifact has two faces. The *bytecode* face — opcode list with
/// parameter slots into a literal pool, schema table, placement, credit
/// layout, fused groups — is what SerializeToString renders and what the
/// fingerprint covers; it is byte-identical across processes for the same
/// plan. The *execution* face — the resolved expression trees and the
/// pinned table — is the in-memory payload Engine::ExecuteProgram feeds to
/// the operator constructors; it references the same literals the slots
/// index. Programs are created through Builder (by the engine's one
/// lowering, behind Engine::Compile and every Execute entry point) and
/// never mutated afterwards, so they are safe to share across admissions.
class DflowProgram {
 public:
  struct Builder {
    QuerySpec spec;
    std::shared_ptr<Table> table;
    std::vector<std::string> scan_columns;
    Schema scan_schema;
    ExprPtr filter;                    // resolved against scan_schema
    std::vector<ExprPtr> projections;  // resolved against scan_schema
    std::vector<ProgramOp> ops;
    std::vector<FusedGroup> fused_groups;
    std::vector<Value> literals;
    Placement placement;
    uint32_t credits = 8;
    int node = 0;
    CostEstimate demand;
    verify::VerifyReport verify_stamp;
    uint64_t plan_fingerprint = 0;
    uint64_t fabric_epoch = 0;
    int verifier_version = 0;
    uint64_t compile_cost_ns = 0;

    std::shared_ptr<const DflowProgram> Build() &&;
  };

  // ------------------------------------------------------------- identity --
  /// Fingerprint of the *plan* (QuerySpec) this program was compiled from.
  uint64_t plan_fingerprint() const { return plan_fingerprint_; }
  /// Engine fabric epoch at compile time; a health/quarantine change bumps
  /// the epoch and strands programs compiled under the old one.
  uint64_t fabric_epoch() const { return fabric_epoch_; }
  int verifier_version() const { return verifier_version_; }
  /// Fingerprint of the full serialized artifact (SerializeToString).
  uint64_t fingerprint() const { return fingerprint_; }

  // ------------------------------------------------------------- bytecode --
  const std::vector<ProgramOp>& ops() const { return ops_; }
  const std::vector<FusedGroup>& fused_groups() const { return fused_groups_; }
  const std::vector<Value>& literals() const { return literals_; }
  const Placement& placement() const { return placement_; }
  const std::string& variant() const { return placement_.name; }
  uint32_t credits() const { return credits_; }
  /// Compute node the program was lowered and verified for; its graph is
  /// built there and nowhere else.
  int node() const { return node_; }
  /// The chosen variant's cost-model output — the demand vector the
  /// scheduler charges the ledger from on a cache hit.
  const CostEstimate& demand() const { return demand_; }
  /// Verifier verdict recorded at compile time. A strict-mode compile
  /// refuses to produce a program whose stamp has errors, so a cached
  /// program needs no re-verification while its epoch key is current.
  const verify::VerifyReport& verify_stamp() const { return verify_stamp_; }
  /// Modeled virtual-time cost of lowering + verifying this program (see
  /// compiler.h's cost constants); what a cache hit saves per admission.
  uint64_t compile_cost_ns() const { return compile_cost_ns_; }

  // ------------------------------------------------------------ execution --
  const QuerySpec& spec() const { return spec_; }
  const std::shared_ptr<Table>& table() const { return table_; }
  const std::vector<std::string>& scan_columns() const { return scan_columns_; }
  const Schema& scan_schema() const { return scan_schema_; }
  const ExprPtr& filter() const { return filter_; }
  const std::vector<ExprPtr>& projections() const { return projections_; }

  /// Canonical textual serialization of the artifact: header, placement,
  /// credit layout, literal pool, schema table, instruction list, fused
  /// groups, verifier stamp. Deterministic — a pure function of the plan
  /// and the compile environment, byte-identical across process runs (the
  /// compile_test gate). The layout is documented in DESIGN.md §10.
  std::string SerializeToString() const;

 private:
  friend struct Builder;
  DflowProgram() = default;

  QuerySpec spec_;
  std::shared_ptr<Table> table_;
  std::vector<std::string> scan_columns_;
  Schema scan_schema_;
  ExprPtr filter_;
  std::vector<ExprPtr> projections_;
  std::vector<ProgramOp> ops_;
  std::vector<FusedGroup> fused_groups_;
  std::vector<Value> literals_;
  Placement placement_;
  uint32_t credits_ = 8;
  int node_ = 0;
  CostEstimate demand_;
  verify::VerifyReport verify_stamp_;
  uint64_t plan_fingerprint_ = 0;
  uint64_t fabric_epoch_ = 0;
  int verifier_version_ = 0;
  uint64_t compile_cost_ns_ = 0;
  uint64_t fingerprint_ = 0;
};

using ProgramPtr = std::shared_ptr<const DflowProgram>;

/// A partitioned hash join (Figure 4) lowered once, by Engine::LowerJoin,
/// for both executors: the simulator builds each phase's dataflow graph
/// from it (Engine::BuildJoinPhaseGraph), the kParallel executor runs its
/// scans, keys and probe filter on worker threads. Shared as an immutable
/// JoinProgramPtr; never serialized or cached.
struct JoinProgram {
  /// One phase's scan and instruction list: DECODE and [FILTER] on the
  /// front site, PARTITION on the key, then per partition i (compute node
  /// i) a BUILD, or a PROBE and a COUNT that ends in node i's client sink.
  /// Join ops carry no literal slots or output schema: nothing serializes
  /// or fuses a join program.
  struct Phase {
    std::shared_ptr<Table> table;
    std::vector<std::string> scan_columns;
    Schema scan_schema;
    ExprPtr filter;  // resolved against scan_schema; null = none
    size_t key = 0;  // join key column in scan_schema
    std::vector<ProgramOp> ops;
    /// Verifier verdict on this phase's graph (empty when not verified).
    verify::VerifyReport verify;
  };
  Phase build;
  Phase probe;
  uint32_t partitions = 1;
  uint32_t credits = 8;
  std::string variant;  // "nic-scatter" | "cpu-exchange"
};

using JoinProgramPtr = std::shared_ptr<const JoinProgram>;

}  // namespace dflow::compile

#endif  // DFLOW_COMPILE_PROGRAM_H_
