#ifndef DFLOW_EXEC_AGGREGATE_H_
#define DFLOW_EXEC_AGGREGATE_H_

#include <string>
#include <vector>

#include "dflow/exec/operator.h"

namespace dflow {

/// Aggregate functions supported by the hash aggregate. AVG is lowered by
/// the planner into SUM + COUNT plus a final division, so every function
/// here merges trivially across partial stages (sum of sums, min of mins,
/// ...), which is what makes the paper's staged pre-aggregation pipeline
/// (storage -> sending NIC -> receiving NIC -> CPU, §4.4) composable.
enum class AggFunc { kCount, kSum, kMin, kMax };

std::string_view AggFuncToString(AggFunc func);

/// One aggregate column: func over input column `input` (ignored for
/// COUNT(*), pass empty), emitted as `output_name`.
struct AggSpec {
  AggFunc func;
  std::string input;        // empty = COUNT(*)
  std::string output_name;
};

/// Where this aggregate sits in a multi-stage aggregation chain.
///  kComplete  raw rows in -> final values out (single-stage)
///  kPartial   raw rows in -> partial states out; may flush early when the
///             bounded table fills (accelerator mode)
///  kFinal     partial states in -> final values out
enum class AggMode { kComplete, kPartial, kFinal };

/// Vectorized hash group-by on typed state.
///
/// Group keys live in typed key columns, one row per group, in insertion
/// order — the order every output follows. A flat open-addressing directory
/// maps a row's key hash (HashColumn over the group columns) to its group
/// id; two keys are the same group iff their hashes match and every key
/// column compares equal under Value::Compare (NULL equals NULL; -0.0
/// equals 0.0 only when their hashes collide, as for any two keys). Each
/// aggregate then updates its accumulators in one typed loop over the
/// chunk's row -> group vector, visiting rows in order, so every DOUBLE sum
/// adds its inputs in arrival order.
///
/// In kPartial mode with `max_groups > 0` the operator enforces the bounded
/// state budget accelerators require: when a new group would exceed
/// max_groups, the oldest half of the groups is emitted downstream and
/// dropped. The result is still exact once a downstream kFinal stage merges
/// — only the *reduction factor* degrades, which is precisely the trade-off
/// §3.3 describes ("pre-aggregation ... probably only to parts of the
/// data").
class HashAggregateOperator : public Operator {
 public:
  /// `group_by` are input column names; `specs` the aggregates. For kFinal
  /// mode, `input_schema` must be the partial-stage output schema (group
  /// cols followed by agg cols, as produced by a kPartial instance).
  static Result<OperatorPtr> Make(const Schema& input_schema,
                                  const std::vector<std::string>& group_by,
                                  const std::vector<AggSpec>& specs,
                                  AggMode mode, size_t max_groups = 0);

  std::string name() const override;
  const Schema& output_schema() const override { return output_schema_; }
  const Schema* input_schema() const override { return &input_schema_; }
  OperatorTraits traits() const override;
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;
  Status Finish(std::vector<DataChunk>* out) override;

  /// Consumes the view's rows in order: the same state and output as
  /// Push(view.Materialize()), without materializing it. The fused kernel
  /// hands its (chunk, selection) pair over through here.
  Status Consume(const ChunkView& input, std::vector<DataChunk>* out);

  /// Number of early partial flushes forced by the bounded table.
  uint64_t partial_flushes() const { return partial_flushes_; }
  size_t num_groups() const { return hashes_.size(); }

 private:
  /// One aggregate's accumulators, indexed by group id.
  struct AggState {
    std::vector<int64_t> count;  // COUNT
    std::vector<uint8_t> seen;   // SUM/MIN/MAX: a non-NULL input arrived
    /// SUM: the running sum (INT64 or DOUBLE). MIN/MAX: the extreme so far,
    /// of the input type. Never NULL; `seen` says whether it is set.
    ColumnVector value;
    /// STRING MIN/MAX instead of `value`: the only values overwritten in
    /// place, so they live one std::string per group until emitted.
    std::vector<std::string> strings;
  };

  static constexpr uint32_t kNoGroup = UINT32_MAX;

  HashAggregateOperator() = default;

  uint32_t FindGroup(uint64_t hash, const ChunkView& input, size_t row) const;
  uint32_t AddGroup(uint64_t hash, const ChunkView& input, size_t row);
  void RebuildDirectory(size_t capacity);
  /// Gives every accumulator array one entry per group.
  void SizeAccumulators();
  /// Applies view rows [begin, end), whose groups are gids[begin, end).
  void Accumulate(const ChunkView& input, const std::vector<uint32_t>& gids,
                  size_t begin, size_t end);
  /// Emits groups [0, count) as chunks and drops them.
  void EmitOldest(size_t count, std::vector<DataChunk>* out);

  AggMode mode_ = AggMode::kComplete;
  size_t max_groups_ = 0;
  std::vector<size_t> group_cols_;            // indices into input
  std::vector<AggSpec> specs_;
  std::vector<int64_t> agg_cols_;             // input index, -1 = COUNT(*)
  std::vector<DataType> agg_output_types_;
  Schema output_schema_;
  Schema input_schema_;

  std::vector<ColumnVector> keys_;  // keys_[k] row g: group g's k-th key
  std::vector<uint64_t> hashes_;    // group g's key hash
  std::vector<AggState> aggs_;      // one per spec
  std::vector<uint32_t> directory_;  // group id + 1 per slot; 0 = empty
  uint64_t partial_flushes_ = 0;
};

/// Rewrites partial-stage specs into the merge specs a kFinal stage needs:
/// COUNT becomes SUM over the partial count column; SUM/MIN/MAX keep their
/// function but read the partial column. Inputs are positional: the partial
/// schema lays out group columns first, then one column per spec.
std::vector<AggSpec> MakeMergeSpecs(const std::vector<AggSpec>& specs);

}  // namespace dflow

#endif  // DFLOW_EXEC_AGGREGATE_H_
