#ifndef DFLOW_EXEC_LOCAL_EXECUTOR_H_
#define DFLOW_EXEC_LOCAL_EXECUTOR_H_

#include <vector>

#include "dflow/common/result.h"
#include "dflow/exec/operator.h"

namespace dflow {

/// Runs a linear operator chain over a set of chunks directly on the host,
/// with no fabric, no timing, no placement — the reference executor used by
/// unit tests and by correctness cross-checks (the simulated plans must
/// produce exactly the same rows this produces). The chunks move through
/// the chain: a caller that still needs `inputs` passes a copy.
Result<std::vector<DataChunk>> RunLocalPipeline(
    std::vector<DataChunk> inputs, const std::vector<Operator*>& ops);

/// Convenience: total row count across chunks.
uint64_t TotalRows(const std::vector<DataChunk>& chunks);

/// Convenience: total byte size across chunks.
uint64_t TotalBytes(const std::vector<DataChunk>& chunks);

/// Flattens chunks into one chunk (empty input yields an empty chunk with
/// no columns).
DataChunk ConcatChunks(const std::vector<DataChunk>& chunks);

}  // namespace dflow

#endif  // DFLOW_EXEC_LOCAL_EXECUTOR_H_
