#ifndef DFLOW_EXEC_JOIN_H_
#define DFLOW_EXEC_JOIN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dflow/exec/operator.h"

namespace dflow {

/// Shared in-memory hash table for an equi-join: built once (by a
/// JoinBuildOperator or directly), probed by one or more
/// HashJoinProbeOperator instances — possibly on different nodes, which is
/// how the distributed partitioned join of Figure 4 shares code with the
/// single-node join.
class JoinHashTable {
 public:
  JoinHashTable(Schema build_schema, size_t key_col);

  const Schema& build_schema() const { return build_schema_; }
  size_t key_col() const { return key_col_; }
  size_t num_rows() const { return rows_.num_rows(); }

  /// Appends all rows of `chunk` (must match build_schema).
  Status Insert(const DataChunk& chunk);

  /// For each probe row whose key equals a build key, appends the pair
  /// (probe row index, build row index) — the standard join match list.
  Status Probe(const ColumnVector& probe_keys,
               std::vector<std::pair<uint32_t, uint32_t>>* matches) const;

  /// All build rows, columnar (for probe-side payload materialization).
  const DataChunk& rows() const { return rows_; }

 private:
  Schema build_schema_;
  size_t key_col_;
  DataChunk rows_;  // all build rows, columnar
  // determinism-ok: hash-bucket index only; match lists come out in probe-row
  // order, never in table iteration order.
  std::unordered_map<uint64_t, std::vector<uint32_t>> table_;
};

/// Pipeline sink that builds a JoinHashTable: blocking, unbounded state —
/// placement will always put this on a CPU.
class JoinBuildOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(std::shared_ptr<JoinHashTable> table);

  std::string name() const override { return "join_build"; }
  const Schema& output_schema() const override { return empty_schema_; }
  const Schema* input_schema() const override {
    return &table_->build_schema();
  }
  OperatorTraits traits() const override;
  Status Push(const DataChunk& input, std::vector<DataChunk>* out) override;

 private:
  explicit JoinBuildOperator(std::shared_ptr<JoinHashTable> table)
      : table_(std::move(table)) {}

  std::shared_ptr<JoinHashTable> table_;
  Schema empty_schema_;
};

/// Streaming probe side of a hash equi-join. Output schema = probe columns
/// followed by build columns (build fields renamed with a "b_" prefix when
/// they would clash).
class HashJoinProbeOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(std::shared_ptr<const JoinHashTable> table,
                                  Schema probe_schema, size_t probe_key_col);

  std::string name() const override { return "hash_join_probe"; }
  const Schema& output_schema() const override { return output_schema_; }
  const Schema* input_schema() const override { return &probe_schema_; }
  OperatorTraits traits() const override;
  Status Push(const DataChunk& input, std::vector<DataChunk>* out) override;

 private:
  HashJoinProbeOperator(std::shared_ptr<const JoinHashTable> table,
                        Schema probe_schema, size_t probe_key_col,
                        Schema output_schema)
      : table_(std::move(table)),
        probe_schema_(std::move(probe_schema)),
        probe_key_col_(probe_key_col),
        output_schema_(std::move(output_schema)) {}

  std::shared_ptr<const JoinHashTable> table_;
  Schema probe_schema_;
  size_t probe_key_col_;
  Schema output_schema_;
};

}  // namespace dflow

#endif  // DFLOW_EXEC_JOIN_H_
