#include "dflow/exec/partition.h"

#include "dflow/common/logging.h"
#include "dflow/vector/kernels.h"

namespace dflow {

HashPartitioner::HashPartitioner(size_t key_col, uint32_t num_partitions)
    : key_col_(key_col), num_partitions_(num_partitions) {
  DFLOW_CHECK_GT(num_partitions, 0u);
}

Status HashPartitioner::Split(
    const DataChunk& input, std::vector<DataChunk>* outs,
    std::vector<std::vector<uint64_t>>* hashes) const {
  if (key_col_ >= input.num_columns()) {
    return Status::InvalidArgument("partition key column out of range");
  }
  std::vector<uint64_t> row_hashes;
  DFLOW_RETURN_NOT_OK(HashColumn(input.column(key_col_), &row_hashes));
  std::vector<SelectionVector> sels(num_partitions_);
  for (size_t r = 0; r < input.num_rows(); ++r) {
    sels[row_hashes[r] % num_partitions_].Append(static_cast<uint32_t>(r));
  }
  outs->clear();
  outs->reserve(num_partitions_);
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    outs->push_back(input.Gather(sels[p]));
  }
  if (hashes != nullptr) {
    hashes->assign(num_partitions_, {});
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      (*hashes)[p].reserve(sels[p].size());
      for (uint32_t r : sels[p].indices()) {
        (*hashes)[p].push_back(row_hashes[r]);
      }
    }
  }
  return Status::OK();
}

}  // namespace dflow
