#include "dflow/vector/data_chunk.h"

#include <cstring>
#include <sstream>
#include <type_traits>

#include "dflow/common/hash.h"
#include "dflow/common/logging.h"

namespace dflow {

DataChunk DataChunk::EmptyFromSchema(const Schema& schema) {
  std::vector<ColumnVector> cols;
  cols.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    cols.emplace_back(f.type);
  }
  return DataChunk(std::move(cols));
}

void DataChunk::AppendRowFrom(const DataChunk& other, size_t row) {
  DFLOW_CHECK_EQ(columns_.size(), other.columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendFrom(other.columns_[c], row);
  }
}

DataChunk DataChunk::Gather(const SelectionVector& sel) const {
  std::vector<ColumnVector> cols;
  cols.reserve(columns_.size());
  for (const ColumnVector& col : columns_) {
    cols.push_back(col.Gather(sel));
  }
  return DataChunk(std::move(cols));
}

DataChunk DataChunk::Slice(size_t start, size_t count) const {
  std::vector<ColumnVector> cols;
  cols.reserve(columns_.size());
  for (const ColumnVector& col : columns_) {
    cols.push_back(col.TakeRange(start, count));
  }
  return DataChunk(std::move(cols));
}

ChunkView ChunkView::Of(const DataChunk& chunk, const SelectionVector* sel) {
  ChunkView view;
  view.num_rows = sel == nullptr ? chunk.num_rows() : sel->size();
  view.columns.reserve(chunk.num_columns());
  for (const ColumnVector& col : chunk.columns()) {
    view.columns.push_back(ViewColumn{&col, sel});
  }
  return view;
}

DataChunk ChunkView::Materialize() const {
  std::vector<ColumnVector> cols;
  cols.reserve(columns.size());
  for (const ViewColumn& c : columns) {
    cols.push_back(c.sel == nullptr ? *c.column : c.column->Gather(*c.sel));
  }
  return DataChunk(std::move(cols));
}

DataChunk DataChunk::SelectColumns(const std::vector<size_t>& indices) const {
  std::vector<ColumnVector> cols;
  cols.reserve(indices.size());
  for (size_t idx : indices) {
    DFLOW_CHECK_LT(idx, columns_.size());
    cols.push_back(columns_[idx]);
  }
  return DataChunk(std::move(cols));
}

uint64_t DataChunk::ByteSize() const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : columns_) {
    bytes += col.ByteSize();
  }
  return bytes;
}

bool DataChunk::IsWellFormed() const {
  for (const ColumnVector& col : columns_) {
    if (col.size() != num_rows()) return false;
  }
  return true;
}

std::string DataChunk::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << "DataChunk(" << num_rows() << " rows, " << num_columns() << " cols)\n";
  const size_t limit = std::min(max_rows, num_rows());
  for (size_t r = 0; r < limit; ++r) {
    os << "  [";
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) os << ", ";
      os << GetValue(r, c).ToString();
    }
    os << "]\n";
  }
  if (limit < num_rows()) os << "  ... (" << (num_rows() - limit) << " more)\n";
  return os.str();
}

namespace {

/// One multiply-xorshift step: a bijection of `h` for a given word, and
/// one-to-one in the word for a given `h`.
inline uint64_t WordStep(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}

/// Folds `len` bytes into `h` eight at a time (the tail zero-padded), over
/// four independent lanes that are folded together at the end. Changing
/// any one word changes its lane and so the result.
uint64_t HashWords(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  auto word = [&](size_t at) {
    uint64_t w;
    std::memcpy(&w, p + at, 8);
    return w;
  };
  uint64_t lane[4] = {h, h + 1, h + 2, h + 3};
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    for (size_t k = 0; k < 4; ++k) lane[k] = WordStep(lane[k], word(i + 8 * k));
  }
  for (; i + 8 <= len; i += 8) lane[0] = WordStep(lane[0], word(i));
  if (i < len) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, len - i);
    lane[0] = WordStep(lane[0], w);
  }
  uint64_t r = lane[0];
  for (size_t k = 1; k < 4; ++k) r = WordStep(r, lane[k]);
  return HashInt64(r ^ len);
}

}  // namespace

uint64_t ChecksumChunk(const DataChunk& chunk) {
  uint64_t h = HashInt64(chunk.num_columns());
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const ColumnVector& col = chunk.column(c);
    h = HashCombine(h, static_cast<uint64_t>(col.type()));
    h = HashCombine(h, col.size());
    col.Visit([&](const auto& data) {
      using Storage = std::decay_t<decltype(data)>;
      if constexpr (std::is_same_v<Storage, StringColumn>) {
        // The arena's bytes plus the offsets, which fix every row's length
        // and are the same however the arena was built.
        const std::vector<char>& bytes = data.bytes();
        const std::vector<uint64_t>& offsets = data.offsets();
        h = HashWords(h, bytes.data(), bytes.size());
        h = HashWords(h, offsets.data(), offsets.size() * sizeof(uint64_t));
      } else {
        h = HashWords(h, data.data(),
                      data.size() * sizeof(typename Storage::value_type));
      }
    });
    if (col.HasNulls()) {
      for (size_t i = 0; i < col.size(); ++i) {
        if (!col.IsValid(i)) h = HashCombine(h, i);
      }
    }
  }
  return h;
}

}  // namespace dflow
