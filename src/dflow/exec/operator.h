#ifndef DFLOW_EXEC_OPERATOR_H_
#define DFLOW_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/sim/cost_class.h"
#include "dflow/types/schema.h"
#include "dflow/vector/data_chunk.h"

namespace dflow {

/// Placement-relevant properties of an operator. The paper's constraint that
/// storage/NIC processing "has to be done in a streaming fashion ... and
/// probably has to be mostly stateless" (§3.3) is enforced through these
/// flags: a device only hosts an operator whose traits it can honor.
struct OperatorTraits {
  /// What kind of work the device is charged for per input chunk.
  sim::CostClass cost_class = sim::CostClass::kFilter;
  /// Emits output as input arrives (no end-of-stream barrier needed for
  /// correctness of earlier output).
  bool streaming = true;
  /// Holds no state across chunks.
  bool stateless = true;
  /// Holds state, but bounded by a fixed budget (e.g. partial aggregation
  /// with a fixed-size table that spills partials downstream).
  bool bounded_state = false;
  /// Estimated output bytes / input bytes (1.0 = pass-through); used by the
  /// movement-cost model before execution.
  double reduction_hint = 1.0;
};

/// Chunk and row counts through one operator. Bytes are not counted here:
/// the graph charges each edge the output's wire size once, and a second
/// ByteSize per operator would walk every string of every chunk again.
struct OperatorStats {
  uint64_t chunks_in = 0;
  uint64_t rows_in = 0;
  uint64_t chunks_out = 0;
  uint64_t rows_out = 0;
};

/// A push-based streaming operator: the unit of work that placement assigns
/// to a processing element. The same operator implementation runs unchanged
/// on the CPU, a smart NIC, a storage processor, or a near-memory unit —
/// only the device it is charged to differs.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual std::string name() const = 0;
  virtual const Schema& output_schema() const = 0;
  virtual OperatorTraits traits() const = 0;

  /// Schema this operator requires on its input, or nullptr when it accepts
  /// any chunk layout (e.g. COUNT(*)). Used by the static plan verifier to
  /// type-check each edge; execution never consults it.
  virtual const Schema* input_schema() const { return nullptr; }

  /// Consumes one input chunk; appends zero or more output chunks. The
  /// chunk is handed over by value: a caller that owns it std::moves it
  /// in, and an operator that passes rows on unchanged (decode, encode, a
  /// filter or LIMIT that keeps the whole chunk) moves it on, so no stage
  /// copies a chunk it could forward.
  virtual Status Push(DataChunk input, std::vector<DataChunk>* out) = 0;

  /// Called once after the last Push; flushes any remaining state.
  virtual Status Finish(std::vector<DataChunk>* out) {
    (void)out;
    return Status::OK();
  }

  /// Wire size the graph charges when shipping `output` downstream.
  /// Default: the decoded in-memory size. Encode-type operators override
  /// this to report their compressed size.
  virtual uint64_t OutputWireBytes(const DataChunk& output) const {
    return output.ByteSize();
  }

  const OperatorStats& stats() const { return stats_; }

 protected:
  /// Helper for subclasses: updates stats around a Push call.
  void RecordIn(const DataChunk& input) {
    stats_.chunks_in += 1;
    stats_.rows_in += input.num_rows();
  }
  void RecordOut(const DataChunk& output) {
    stats_.chunks_out += 1;
    stats_.rows_out += output.num_rows();
  }

  OperatorStats stats_;
};

using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace dflow

#endif  // DFLOW_EXEC_OPERATOR_H_
