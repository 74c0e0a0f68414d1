#include "dflow/exec/join.h"

#include <string>
#include <string_view>
#include <type_traits>

#include "dflow/common/logging.h"
#include "dflow/vector/kernels.h"

namespace dflow {

namespace {

bool IsIntegerKey(DataType type) {
  return type == DataType::kInt32 || type == DataType::kDate32 ||
         type == DataType::kInt64;
}

/// Value::Compare(b, p) == 0 for two valid keys of comparable storage
/// types (CheckJoinKeyTypes).
template <typename B, typename P>
bool KeyEquals(const B& b, const P& p) {
  if constexpr (std::is_same_v<B, double>) {
    return !(b < p) && !(b > p);  // NaN compares equal to everything
  } else if constexpr (std::is_same_v<B, std::string_view>) {
    return b == p;
  } else {
    return static_cast<int64_t>(b) == static_cast<int64_t>(p);
  }
}

/// Storage types whose keys KeyEquals compares: the same type, or INT32 /
/// DATE32 (int32_t) against INT64.
template <typename B, typename P>
constexpr bool kComparableKeys =
    std::is_same_v<B, P> ||
    ((std::is_same_v<B, int32_t> || std::is_same_v<B, int64_t>) &&
     (std::is_same_v<P, int32_t> || std::is_same_v<P, int64_t>));

}  // namespace

Status CheckJoinKeyTypes(DataType build, DataType probe) {
  if (build == probe || (IsIntegerKey(build) && IsIntegerKey(probe))) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "join keys of types " + std::string(DataTypeToString(build)) + " and " +
      std::string(DataTypeToString(probe)) + " can never match");
}

JoinHashTable::JoinHashTable(Schema build_schema, size_t key_col)
    : build_schema_(std::move(build_schema)),
      key_col_(key_col),
      rows_(DataChunk::EmptyFromSchema(build_schema_)) {
  DFLOW_CHECK_LT(key_col_, build_schema_.num_fields());
}

Status JoinHashTable::Insert(const DataChunk& chunk) {
  if (chunk.num_columns() != build_schema_.num_fields()) {
    return Status::InvalidArgument("join build chunk arity mismatch");
  }
  std::vector<uint64_t> hashes;
  DFLOW_RETURN_NOT_OK(HashColumn(chunk.column(key_col_), &hashes));
  return Insert(chunk, hashes);
}

Status JoinHashTable::Insert(const DataChunk& chunk,
                             const std::vector<uint64_t>& hashes) {
  if (chunk.num_columns() != build_schema_.num_fields()) {
    return Status::InvalidArgument("join build chunk arity mismatch");
  }
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    if (chunk.column(c).type() != build_schema_.field(c).type) {
      return Status::InvalidArgument("join build chunk does not match " +
                                     build_schema_.ToString());
    }
  }
  const size_t n = chunk.num_rows();
  if (hashes.size() != n) {
    return Status::InvalidArgument("join build hashes do not match the chunk");
  }
  const size_t base = rows_.num_rows();
  if (base + n >= kNoRow) {
    return Status::InvalidArgument("join build side exceeds 2^32 - 1 rows");
  }
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    rows_.column(c).AppendRange(chunk.column(c), 0, n);
  }
  next_.resize(base + n, kNoRow);
  const ColumnVector& keys = chunk.column(key_col_);
  for (size_t r = 0; r < n; ++r) {
    if (!keys.IsValid(r)) continue;  // NULL keys never join
    if ((used_slots_ + 1) * 2 > directory_.size()) Grow();
    const auto row = static_cast<uint32_t>(base + r);
    Slot& slot = directory_[FindSlot(hashes[r])];
    if (slot.head == kNoRow) {
      slot = Slot{hashes[r], row, row};
      ++used_slots_;
    } else {
      next_[slot.tail] = row;
      slot.tail = row;
    }
  }
  return Status::OK();
}

size_t JoinHashTable::FindSlot(uint64_t hash) const {
  const size_t mask = directory_.size() - 1;
  for (size_t i = hash >> shift_;; i = (i + 1) & mask) {
    const Slot& slot = directory_[i];
    if (slot.head == kNoRow || slot.hash == hash) return i;
  }
}

void JoinHashTable::Grow() {
  std::vector<Slot> old = std::move(directory_);
  if (old.empty()) {
    directory_.assign(16, Slot{});
    shift_ = 60;
  } else {
    directory_.assign(old.size() * 2, Slot{});
    --shift_;
  }
  for (const Slot& slot : old) {
    if (slot.head != kNoRow) directory_[FindSlot(slot.hash)] = slot;
  }
}

template <typename Emit>
Status JoinHashTable::ForEachMatch(const ColumnVector& probe_keys,
                                   const std::vector<uint64_t>& hashes,
                                   const SelectionVector* sel,
                                   Emit emit) const {
  const ColumnVector& build_keys = rows_.column(key_col_);
  DFLOW_RETURN_NOT_OK(CheckJoinKeyTypes(build_keys.type(), probe_keys.type()));
  if (hashes.size() != probe_keys.size()) {
    return Status::InvalidArgument("join probe hashes do not match the keys");
  }
  if (used_slots_ == 0) return Status::OK();
  build_keys.Visit([&](const auto& build) {
    probe_keys.Visit([&](const auto& probe) {
      using B = typename std::decay_t<decltype(build)>::value_type;
      using P = typename std::decay_t<decltype(probe)>::value_type;
      if constexpr (kComparableKeys<B, P>) {
        const size_t rows = sel == nullptr ? probe.size() : sel->size();
        for (size_t i = 0; i < rows; ++i) {
          const size_t r = sel == nullptr ? i : (*sel)[i];
          if (!probe_keys.IsValid(r)) continue;
          const Slot& slot = directory_[FindSlot(hashes[r])];
          // Every chained row has this hash and a non-NULL key.
          for (uint32_t b = slot.head; b != kNoRow; b = next_[b]) {
            if (KeyEquals(build[b], probe[r])) {
              emit(static_cast<uint32_t>(r), b);
            }
          }
        }
      }
    });
  });
  return Status::OK();
}

Status JoinHashTable::Probe(const ColumnVector& probe_keys,
                            std::vector<uint32_t>* probe_rows,
                            std::vector<uint32_t>* build_rows) const {
  std::vector<uint64_t> hashes;
  DFLOW_RETURN_NOT_OK(HashColumn(probe_keys, &hashes));
  return ForEachMatch(probe_keys, hashes, nullptr,
                      [&](uint32_t probe_row, uint32_t build_row) {
                        probe_rows->push_back(probe_row);
                        build_rows->push_back(build_row);
                      });
}

Result<uint64_t> JoinHashTable::CountMatches(
    const ColumnVector& probe_keys) const {
  std::vector<uint64_t> hashes;
  DFLOW_RETURN_NOT_OK(HashColumn(probe_keys, &hashes));
  return CountMatches(probe_keys, hashes);
}

Result<uint64_t> JoinHashTable::CountMatches(
    const ColumnVector& probe_keys, const std::vector<uint64_t>& hashes,
    const SelectionVector* sel) const {
  uint64_t count = 0;
  DFLOW_RETURN_NOT_OK(ForEachMatch(probe_keys, hashes, sel,
                                   [&](uint32_t, uint32_t) { ++count; }));
  return count;
}

Result<OperatorPtr> JoinBuildOperator::Make(
    std::shared_ptr<JoinHashTable> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("join build requires a table");
  }
  return OperatorPtr(new JoinBuildOperator(std::move(table)));
}

OperatorTraits JoinBuildOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kJoinBuild;
  t.streaming = false;
  t.stateless = false;
  t.bounded_state = false;
  t.reduction_hint = 0.0;  // sink: nothing flows on
  return t;
}

Status JoinBuildOperator::Push(DataChunk input,
                               std::vector<DataChunk>* out) {
  (void)out;
  RecordIn(input);
  return table_->Insert(input);
}

Result<OperatorPtr> HashJoinProbeOperator::Make(
    std::shared_ptr<const JoinHashTable> table, Schema probe_schema,
    size_t probe_key_col) {
  if (table == nullptr) {
    return Status::InvalidArgument("join probe requires a table");
  }
  if (probe_key_col >= probe_schema.num_fields()) {
    return Status::InvalidArgument("probe key column out of range");
  }
  DFLOW_RETURN_NOT_OK(CheckJoinKeyTypes(
      table->build_schema().field(table->key_col()).type,
      probe_schema.field(probe_key_col).type));
  std::vector<Field> fields = probe_schema.fields();
  for (const Field& f : table->build_schema().fields()) {
    Field out = f;
    if (probe_schema.HasField(out.name)) out.name = "b_" + out.name;
    fields.push_back(std::move(out));
  }
  return OperatorPtr(new HashJoinProbeOperator(std::move(table),
                                               std::move(probe_schema),
                                               probe_key_col,
                                               Schema(std::move(fields))));
}

OperatorTraits HashJoinProbeOperator::traits() const {
  OperatorTraits t;
  t.cost_class = sim::CostClass::kJoinProbe;
  t.streaming = true;
  t.stateless = false;  // references the build table
  t.reduction_hint = 1.0;
  return t;
}

Status HashJoinProbeOperator::Push(DataChunk input,
                                   std::vector<DataChunk>* out) {
  RecordIn(input);
  if (input.num_columns() != probe_schema_.num_fields()) {
    return Status::InvalidArgument("join probe chunk arity mismatch");
  }
  std::vector<uint32_t> probe_rows;
  std::vector<uint32_t> build_rows;
  DFLOW_RETURN_NOT_OK(
      table_->Probe(input.column(probe_key_col_), &probe_rows, &build_rows));

  // Emit in kVectorSize slices to keep chunk sizes bounded even for
  // high-multiplicity keys. Each output column gathers its rows in one
  // call, and carries a validity mask iff one of them is NULL.
  const DataChunk& build = table_->rows();
  for (size_t start = 0; start < probe_rows.size(); start += kVectorSize) {
    const size_t count = std::min(kVectorSize, probe_rows.size() - start);
    std::vector<ColumnVector> cols;
    cols.reserve(output_schema_.num_fields());
    auto gather = [&](const ColumnVector& from, const uint32_t* rows) {
      cols.emplace_back(from.type());
      cols.back().AppendRows(from, rows + start, count);
    };
    for (const ColumnVector& col : input.columns()) {
      gather(col, probe_rows.data());
    }
    for (const ColumnVector& col : build.columns()) {
      gather(col, build_rows.data());
    }
    DataChunk chunk(std::move(cols));
    RecordOut(chunk);
    out->push_back(std::move(chunk));
  }
  return Status::OK();
}

}  // namespace dflow
