#ifndef DFLOW_EXEC_SCAN_H_
#define DFLOW_EXEC_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/plan/expr.h"
#include "dflow/storage/table.h"

namespace dflow {

/// A chunk as it leaves storage: the data plus the number of bytes it
/// occupies *on the wire* at this point of the pipeline. Straight off the
/// media that is its at-rest (encoded) share of the row group; after a
/// decode stage it becomes the in-memory size; after an encode stage it
/// shrinks again.
struct ScanChunk {
  DataChunk chunk;
  uint64_t wire_bytes = 0;
};

/// One row group's worth of scan output. The media device is charged once
/// per batch (one object-store request + the encoded bytes), and the
/// batch's chunks then enter the pipeline together.
struct ScanBatch {
  std::vector<ScanChunk> chunks;
  uint64_t device_bytes = 0;
};

/// Columnar scan over a table with projection pushdown (only requested
/// columns are read) and zone-map row-group pruning (conjuncts of the form
/// `col <op> constant` skip row groups that cannot match).
class TableScanSource {
 public:
  /// `columns`: names to read, in order (empty = all). `prune_predicate`
  /// may be null; only its column-vs-constant conjuncts are used for
  /// pruning (it is NOT applied row-wise — add a FilterOperator for that).
  static Result<TableScanSource> Make(std::shared_ptr<const Table> table,
                                      const std::vector<std::string>& columns,
                                      ExprPtr prune_predicate = nullptr);

  const Schema& output_schema() const { return schema_; }

  struct ScanStats {
    size_t row_groups_total = 0;
    size_t row_groups_pruned = 0;
    uint64_t rows_produced = 0;
    uint64_t encoded_bytes_read = 0;
    /// Sum of DataChunk::ByteSize() over every produced chunk.
    uint64_t decoded_bytes = 0;

    size_t row_groups_read() const {
      return row_groups_total - row_groups_pruned;
    }
  };

  /// The stats Produce would report, from row-group metadata alone: zone
  /// maps prune, and the encoded and decoded sizes are recorded per column.
  /// Nothing is decoded.
  ScanStats Stats() const;

  /// Decodes the surviving row groups into batches. Host-side work; the
  /// simulator charges the time to whatever device hosts the scan.
  Result<std::vector<ScanBatch>> Produce(ScanStats* stats = nullptr) const;

  /// Indices of the row groups the prune conjuncts cannot rule out, in
  /// table order: the one zone-map pruning loop, shared by Stats, Produce
  /// and the parallel executor's morsel dispatch.
  std::vector<size_t> SurvivingRowGroups() const;

  /// Decodes the scan's columns of row group `rg_idx` into kVectorSize-row
  /// chunks (ranges moved out of each decoded column, not copied).
  Result<std::vector<DataChunk>> DecodeRowGroup(size_t rg_idx) const;

 private:
  TableScanSource() = default;

  ScanStats StatsOver(const std::vector<size_t>& survivors) const;

  std::shared_ptr<const Table> table_;
  std::vector<size_t> column_indices_;
  Schema schema_;
  // (column index in table, op, constant) conjuncts for zone pruning.
  struct PruneConjunct {
    size_t column;
    CompareOp op;
    Value constant;
  };
  std::vector<PruneConjunct> prune_conjuncts_;
};

}  // namespace dflow

#endif  // DFLOW_EXEC_SCAN_H_
