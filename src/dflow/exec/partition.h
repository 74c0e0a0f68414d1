#ifndef DFLOW_EXEC_PARTITION_H_
#define DFLOW_EXEC_PARTITION_H_

#include <vector>

#include "dflow/common/result.h"
#include "dflow/vector/data_chunk.h"

namespace dflow {

/// Hash-partitions chunks into a fixed number of output streams: the
/// exchange operator. Runs identically on a CPU or on a smart NIC; the
/// latter is the "NICs can partition data on the fly ... without
/// involvement of the CPU" capability of §4.4 / Figure 4.
///
/// Rows route to partition HashInt-like(key) % num_partitions with the same
/// hash function everywhere, so a NIC-side partitioner and CPU-side join
/// tables always agree.
class HashPartitioner {
 public:
  HashPartitioner(size_t key_col, uint32_t num_partitions);

  size_t key_col() const { return key_col_; }
  uint32_t num_partitions() const { return num_partitions_; }

  /// Splits `input` into `num_partitions` chunks (some possibly empty).
  /// `outs` is resized to num_partitions. A non-null `hashes` gets each
  /// partition's key hashes (HashColumn's), in its rows' order, so that a
  /// consumer keyed on the same column need not hash them again.
  Status Split(const DataChunk& input, std::vector<DataChunk>* outs,
               std::vector<std::vector<uint64_t>>* hashes = nullptr) const;

 private:
  size_t key_col_;
  uint32_t num_partitions_;
};

}  // namespace dflow

#endif  // DFLOW_EXEC_PARTITION_H_
