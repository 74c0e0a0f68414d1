#ifndef DFLOW_EXEC_JOIN_H_
#define DFLOW_EXEC_JOIN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dflow/exec/operator.h"

namespace dflow {

/// OK iff a build key of type `build` can ever equal a probe key of type
/// `probe`: the same type, or any two of INT32, DATE32 and INT64. Every
/// other pair is InvalidArgument: a STRING or BOOL key against another type
/// cannot be compared at all, and a DOUBLE key never hashes like an integer
/// one, so such a join could only return no rows.
Status CheckJoinKeyTypes(DataType build, DataType probe);

/// Shared in-memory hash table for an equi-join: built once (by a
/// JoinBuildOperator or directly), probed by one or more
/// HashJoinProbeOperator instances — possibly on different nodes, which is
/// how the distributed partitioned join of Figure 4 shares code with the
/// single-node join.
///
/// Build rows are stored columnar, in insertion order. A flat
/// open-addressing directory holds one slot per distinct key hash: the
/// hash, and the first and last build row with it; `next_` links each row
/// to the next one with the same hash, so a chain lists its rows in
/// insertion order. Rows with a NULL key are stored but never chained.
///
/// A probe key matches a build row iff their 64-bit key hashes are equal
/// and the keys compare equal under Value::Compare, compared in their own
/// types (so NaN equals any DOUBLE it collides with, and -0.0 equals 0.0
/// only if their hashes collide); a NULL key never matches. Matches come
/// out in probe-row order, then build insertion order.
class JoinHashTable {
 public:
  JoinHashTable(Schema build_schema, size_t key_col);

  const Schema& build_schema() const { return build_schema_; }
  size_t key_col() const { return key_col_; }
  size_t num_rows() const { return rows_.num_rows(); }

  /// Appends all rows of `chunk` (must match build_schema).
  Status Insert(const DataChunk& chunk);
  /// The same, given the chunk's key hashes (HashColumn over the key
  /// column), so that a caller inserting under a lock can hash outside it.
  Status Insert(const DataChunk& chunk, const std::vector<uint64_t>& hashes);

  /// Lists every match: entry i of `probe_rows` and `build_rows` is one
  /// (probe row, build row) pair. Both vectors are appended to.
  Status Probe(const ColumnVector& probe_keys,
               std::vector<uint32_t>* probe_rows,
               std::vector<uint32_t>* build_rows) const;

  /// The number of pairs Probe would list, without listing them.
  Result<uint64_t> CountMatches(const ColumnVector& probe_keys) const;
  /// The same, given the probe keys' hashes (HashColumn's), over only the
  /// rows `sel` selects when it is non-null (`hashes` still has one entry
  /// per probe row).
  Result<uint64_t> CountMatches(const ColumnVector& probe_keys,
                                const std::vector<uint64_t>& hashes,
                                const SelectionVector* sel = nullptr) const;

  /// All build rows, columnar (for probe-side payload materialization).
  const DataChunk& rows() const { return rows_; }

 private:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// One distinct key hash and its chain; `head == kNoRow` marks it empty.
  struct Slot {
    uint64_t hash = 0;
    uint32_t head = kNoRow;
    uint32_t tail = kNoRow;
  };

  /// The slot holding `hash`, or the empty slot where it would go.
  size_t FindSlot(uint64_t hash) const;
  void Grow();
  /// Calls emit(probe_row, build_row) for every match, in match order,
  /// over the probe rows `sel` selects (all when null).
  template <typename Emit>
  Status ForEachMatch(const ColumnVector& probe_keys,
                      const std::vector<uint64_t>& hashes,
                      const SelectionVector* sel, Emit emit) const;

  Schema build_schema_;
  size_t key_col_;
  DataChunk rows_;  // all build rows, columnar
  // Indexed by the hash's top bits: partitioned build sides share their
  // low bits (the partition is hash % P).
  std::vector<Slot> directory_;  // power-of-two size, at most half full
  int shift_ = 64;               // 64 - log2(directory_.size())
  size_t used_slots_ = 0;
  std::vector<uint32_t> next_;  // next_[row]: the next row with its hash
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
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;

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
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;

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
