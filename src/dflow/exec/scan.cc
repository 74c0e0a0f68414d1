#include "dflow/exec/scan.h"

#include "dflow/common/logging.h"

namespace dflow {

namespace {

// Walks an AND tree collecting column-vs-constant comparisons. Any other
// node shape contributes nothing (conservative).
void CollectPruneConjuncts(
    const ExprPtr& expr, const Schema& schema,
    std::vector<std::tuple<size_t, CompareOp, Value>>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == Expr::Kind::kAnd) {
    for (const ExprPtr& c : expr->children()) {
      CollectPruneConjuncts(c, schema, out);
    }
    return;
  }
  if (expr->IsColumnConstantCompare()) {
    const ExprPtr& col = expr->children()[0];
    const ExprPtr& lit = expr->children()[1];
    // Resolve by NAME against the full table schema: the predicate may have
    // been resolved against a pruned scan schema, whose indices do not line
    // up with the table's zone maps. Nameless positional references are
    // only safe when they already target the table schema.
    size_t idx;
    if (!col->column_name().empty()) {
      auto r = schema.FieldIndex(col->column_name());
      if (!r.ok()) return;
      idx = r.ValueOrDie();
    } else if (col->is_resolved()) {
      idx = col->column_index();
    } else {
      return;
    }
    out->emplace_back(idx, expr->compare_op(), lit->value());
  }
}

}  // namespace

Result<TableScanSource> TableScanSource::Make(
    std::shared_ptr<const Table> table, const std::vector<std::string>& columns,
    ExprPtr prune_predicate) {
  if (table == nullptr) {
    return Status::InvalidArgument("scan requires a table");
  }
  TableScanSource src;
  src.table_ = table;
  if (columns.empty()) {
    for (size_t i = 0; i < table->schema().num_fields(); ++i) {
      src.column_indices_.push_back(i);
    }
  } else {
    for (const std::string& name : columns) {
      DFLOW_ASSIGN_OR_RETURN(size_t idx, table->schema().FieldIndex(name));
      src.column_indices_.push_back(idx);
    }
  }
  src.schema_ = table->schema().Select(src.column_indices_);
  std::vector<std::tuple<size_t, CompareOp, Value>> conjuncts;
  CollectPruneConjuncts(prune_predicate, table->schema(), &conjuncts);
  for (auto& [col, op, value] : conjuncts) {
    src.prune_conjuncts_.push_back(PruneConjunct{col, op, std::move(value)});
  }
  return src;
}

std::vector<size_t> TableScanSource::SurvivingRowGroups() const {
  std::vector<size_t> survivors;
  for (size_t rg_idx = 0; rg_idx < table_->num_row_groups(); ++rg_idx) {
    const RowGroup& rg = table_->row_group(rg_idx);
    bool may_match = true;
    for (const PruneConjunct& pc : prune_conjuncts_) {
      if (!rg.zone_map(pc.column).MayMatch(pc.op, pc.constant)) {
        may_match = false;
        break;
      }
    }
    if (may_match) survivors.push_back(rg_idx);
  }
  return survivors;
}

TableScanSource::ScanStats TableScanSource::StatsOver(
    const std::vector<size_t>& survivors) const {
  ScanStats stats;
  stats.row_groups_total = table_->num_row_groups();
  stats.row_groups_pruned = stats.row_groups_total - survivors.size();
  for (size_t rg_idx : survivors) {
    const RowGroup& rg = table_->row_group(rg_idx);
    stats.rows_produced += rg.num_rows();
    stats.encoded_bytes_read += rg.EncodedBytes(column_indices_);
    stats.decoded_bytes += rg.DecodedBytes(column_indices_);
  }
  return stats;
}

TableScanSource::ScanStats TableScanSource::Stats() const {
  return StatsOver(SurvivingRowGroups());
}

Result<std::vector<DataChunk>> TableScanSource::DecodeRowGroup(
    size_t rg_idx) const {
  return table_->row_group(rg_idx).DecodeChunks(column_indices_);
}

Result<std::vector<ScanBatch>> TableScanSource::Produce(
    ScanStats* stats) const {
  const std::vector<size_t> survivors = SurvivingRowGroups();
  std::vector<ScanBatch> batches;
  batches.reserve(survivors.size());
  for (size_t rg_idx : survivors) {
    const RowGroup& rg = table_->row_group(rg_idx);
    const uint64_t encoded_bytes = rg.EncodedBytes(column_indices_);
    DFLOW_ASSIGN_OR_RETURN(std::vector<DataChunk> chunks,
                           DecodeRowGroup(rg_idx));
    ScanBatch batch;
    batch.device_bytes = encoded_bytes;
    batch.chunks.reserve(chunks.size());
    const uint64_t rg_rows = rg.num_rows();
    for (DataChunk& chunk : chunks) {
      // Pro-rate the row group's encoded size across its chunks.
      const uint64_t wire =
          rg_rows == 0 ? 0
                       : encoded_bytes * chunk.num_rows() / rg_rows;
      batch.chunks.push_back(ScanChunk{std::move(chunk), wire});
    }
    batches.push_back(std::move(batch));
  }
  if (stats != nullptr) *stats = StatsOver(survivors);
  return batches;
}

}  // namespace dflow
