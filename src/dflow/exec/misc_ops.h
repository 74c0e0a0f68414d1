#ifndef DFLOW_EXEC_MISC_OPS_H_
#define DFLOW_EXEC_MISC_OPS_H_

#include <string>
#include <vector>

#include "dflow/encode/encoding.h"
#include "dflow/exec/operator.h"

namespace dflow {

/// COUNT(*) with 8 bytes of state: the paper's "a query returning only a
/// COUNT can be executed directly on the NIC that simply counts the data as
/// it arrives and discards it" (§4.4). Emits a single-row {count: INT64}
/// chunk at Finish.
class CountOperator : public Operator {
 public:
  CountOperator();

  std::string name() const override { return "count"; }
  const Schema& output_schema() const override { return schema_; }
  OperatorTraits traits() const override;
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;
  Status Finish(std::vector<DataChunk>* out) override;

 private:
  Schema schema_;
  int64_t count_ = 0;
};

/// Passes through the first `limit` rows, dropping everything after.
class LimitOperator : public Operator {
 public:
  LimitOperator(Schema schema, uint64_t limit);

  std::string name() const override { return "limit"; }
  const Schema& output_schema() const override { return schema_; }
  const Schema* input_schema() const override { return &schema_; }
  OperatorTraits traits() const override;
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;

 private:
  Schema schema_;
  uint64_t limit_;
  uint64_t seen_ = 0;
};

/// Blocking sort by one column (asc/desc), stable: equal keys keep their
/// arrival order. Buffers its input — under a LIMIT only the running top
/// rows — and emits sorted chunks at Finish. Never placeable on an
/// accelerator (unbounded state).
class SortOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(Schema schema, const std::string& sort_col,
                                  bool descending = false,
                                  uint64_t limit = 0 /* 0 = no limit */);

  std::string name() const override { return "sort"; }
  const Schema& output_schema() const override { return schema_; }
  const Schema* input_schema() const override { return &schema_; }
  OperatorTraits traits() const override;
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;
  Status Finish(std::vector<DataChunk>* out) override;

 private:
  SortOperator(Schema schema, size_t sort_col, bool descending, uint64_t limit)
      : schema_(std::move(schema)),
        sort_col_(sort_col),
        descending_(descending),
        limit_(limit),
        buffer_(DataChunk::EmptyFromSchema(schema_)) {}

  Schema schema_;
  size_t sort_col_;
  bool descending_;
  uint64_t limit_;
  /// Every row pushed so far — or, under a LIMIT, a superset of the first
  /// `limit_` of their stable sort — in arrival order.
  DataChunk buffer_;
  bool key_has_nan_ = false;
};

/// Marks the stream as decoded: identity on data, but downstream edges are
/// charged the full in-memory size. Placed right after a scan whose bytes
/// arrive in at-rest (compressed) form.
class DecodeOperator : public Operator {
 public:
  explicit DecodeOperator(Schema schema) : schema_(std::move(schema)) {}

  std::string name() const override { return "decode"; }
  const Schema& output_schema() const override { return schema_; }
  const Schema* input_schema() const override { return &schema_; }
  OperatorTraits traits() const override;
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;

 private:
  Schema schema_;
};

/// Re-compresses the stream for the wire: identity on data, but downstream
/// edges are charged the size the chunk would encode to (computed with the
/// real encoders, per column). The storage processor uses this before the
/// uplink when the optimizer decides compressed shipping wins.
class EncodeOperator : public Operator {
 public:
  explicit EncodeOperator(Schema schema) : schema_(std::move(schema)) {}

  std::string name() const override { return "encode"; }
  const Schema& output_schema() const override { return schema_; }
  const Schema* input_schema() const override { return &schema_; }
  OperatorTraits traits() const override;
  Status Push(DataChunk input, std::vector<DataChunk>* out) override;
  uint64_t OutputWireBytes(const DataChunk& output) const override;

 private:
  Schema schema_;
};

}  // namespace dflow

#endif  // DFLOW_EXEC_MISC_OPS_H_
