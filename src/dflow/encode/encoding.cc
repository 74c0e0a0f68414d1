#include "dflow/encode/encoding.h"

#include <algorithm>
#include <unordered_map>

#include "dflow/common/logging.h"
#include "dflow/encode/byte_io.h"

namespace dflow {

std::string_view EncodingToString(Encoding encoding) {
  switch (encoding) {
    case Encoding::kPlain:
      return "PLAIN";
    case Encoding::kRle:
      return "RLE";
    case Encoding::kDictionary:
      return "DICTIONARY";
    case Encoding::kForBitPack:
      return "FOR_BITPACK";
  }
  return "UNKNOWN";
}

namespace {

bool IsIntLike(DataType type) {
  return type == DataType::kInt32 || type == DataType::kInt64 ||
         type == DataType::kDate32 || type == DataType::kBool;
}

// Reads element i of an int-like column as int64 (placeholder 0 for nulls is
// whatever the storage holds; validity is serialized separately).
int64_t IntAt(const ColumnVector& col, size_t i) {
  switch (col.type()) {
    case DataType::kInt32:
    case DataType::kDate32:
      return col.i32()[i];
    case DataType::kInt64:
      return col.i64()[i];
    case DataType::kBool:
      return col.bool_data()[i];
    default:
      DFLOW_CHECK(false) << "IntAt on non-int column";
      return 0;
  }
}

void IntAppend(ColumnVector* col, int64_t v) {
  switch (col->type()) {
    case DataType::kInt32:
    case DataType::kDate32:
      col->i32().push_back(static_cast<int32_t>(v));
      break;
    case DataType::kInt64:
      col->i64().push_back(v);
      break;
    case DataType::kBool:
      col->bool_data().push_back(static_cast<uint8_t>(v));
      break;
    default:
      DFLOW_CHECK(false) << "IntAppend on non-int column";
  }
}

void WriteValidity(const ColumnVector& col, ByteWriter* w) {
  if (!col.HasNulls()) {
    w->PutU8(0);
    return;
  }
  w->PutU8(1);
  for (size_t i = 0; i < col.size(); ++i) {
    w->PutU8(col.IsValid(i) ? 1 : 0);
  }
}

// ---------------------------------------------------------------- plain ----

Status EncodePlain(const ColumnVector& col, ByteWriter* w) {
  const size_t n = col.size();
  switch (col.type()) {
    case DataType::kBool:
      w->PutBytes(col.bool_data().data(), n);
      break;
    case DataType::kInt32:
    case DataType::kDate32:
      w->PutBytes(col.i32().data(), n * sizeof(int32_t));
      break;
    case DataType::kInt64:
      w->PutBytes(col.i64().data(), n * sizeof(int64_t));
      break;
    case DataType::kDouble:
      w->PutBytes(col.f64().data(), n * sizeof(double));
      break;
    case DataType::kString:
      for (const std::string& s : col.strs()) w->PutString(s);
      break;
  }
  return Status::OK();
}

Status DecodePlain(ByteReader* r, size_t n, ColumnVector* col) {
  switch (col->type()) {
    case DataType::kBool:
      col->bool_data().resize(n);
      return r->GetBytes(col->bool_data().data(), n);
    case DataType::kInt32:
    case DataType::kDate32:
      col->i32().resize(n);
      return r->GetBytes(col->i32().data(), n * sizeof(int32_t));
    case DataType::kInt64:
      col->i64().resize(n);
      return r->GetBytes(col->i64().data(), n * sizeof(int64_t));
    case DataType::kDouble:
      col->f64().resize(n);
      return r->GetBytes(col->f64().data(), n * sizeof(double));
    case DataType::kString: {
      col->strs().resize(n);
      for (size_t i = 0; i < n; ++i) {
        DFLOW_RETURN_NOT_OK(r->GetString(&col->strs()[i]));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

// ------------------------------------------------------------------ rle ----

Status EncodeRle(const ColumnVector& col, ByteWriter* w) {
  if (!IsIntLike(col.type())) {
    return Status::InvalidArgument("RLE supports integer-like columns only");
  }
  const size_t n = col.size();
  size_t i = 0;
  while (i < n) {
    const int64_t v = IntAt(col, i);
    size_t run = 1;
    while (i + run < n && IntAt(col, i + run) == v) ++run;
    w->PutU32(static_cast<uint32_t>(run));
    w->PutI64(v);
    i += run;
  }
  return Status::OK();
}

Status DecodeRle(ByteReader* r, size_t n, ColumnVector* col) {
  size_t produced = 0;
  while (produced < n) {
    uint32_t run = 0;
    int64_t v = 0;
    DFLOW_RETURN_NOT_OK(r->GetU32(&run));
    DFLOW_RETURN_NOT_OK(r->GetI64(&v));
    if (run == 0 || produced + run > n) {
      return Status::OutOfRange("RLE: corrupt run length");
    }
    for (uint32_t k = 0; k < run; ++k) IntAppend(col, v);
    produced += run;
  }
  return Status::OK();
}

// ----------------------------------------------------------- dictionary ----

Status EncodeDictionary(const ColumnVector& col, ByteWriter* w) {
  if (col.type() != DataType::kString) {
    return Status::InvalidArgument("dictionary encoding supports strings only");
  }
  const auto& values = col.strs();
  std::unordered_map<std::string, uint32_t> dict;
  std::vector<const std::string*> entries;
  std::vector<uint32_t> codes;
  codes.reserve(values.size());
  for (const std::string& s : values) {
    auto [it, inserted] =
        dict.emplace(s, static_cast<uint32_t>(entries.size()));
    if (inserted) entries.push_back(&it->first);
    codes.push_back(it->second);
  }
  w->PutU32(static_cast<uint32_t>(entries.size()));
  for (const std::string* s : entries) w->PutString(*s);
  for (uint32_t code : codes) w->PutU32(code);
  return Status::OK();
}

Status DecodeDictionary(ByteReader* r, size_t n, ColumnVector* col) {
  uint32_t dict_size = 0;
  DFLOW_RETURN_NOT_OK(r->GetU32(&dict_size));
  std::vector<std::string> entries(dict_size);
  for (uint32_t i = 0; i < dict_size; ++i) {
    DFLOW_RETURN_NOT_OK(r->GetString(&entries[i]));
  }
  col->strs().reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t code = 0;
    DFLOW_RETURN_NOT_OK(r->GetU32(&code));
    if (code >= dict_size) {
      return Status::OutOfRange("dictionary: code out of range");
    }
    col->strs().push_back(entries[code]);
  }
  return Status::OK();
}

// --------------------------------------------------------- FOR bitpack ----

uint8_t BitsNeeded(uint64_t range) {
  uint8_t bits = 0;
  while (range > 0) {
    ++bits;
    range >>= 1;
  }
  return bits == 0 ? 1 : bits;
}

Status EncodeForBitPack(const ColumnVector& col, ByteWriter* w) {
  if (!IsIntLike(col.type())) {
    return Status::InvalidArgument("FOR bitpack supports integer-like columns");
  }
  const size_t n = col.size();
  int64_t min_v = 0, max_v = 0;
  if (n > 0) {
    min_v = max_v = IntAt(col, 0);
    for (size_t i = 1; i < n; ++i) {
      const int64_t v = IntAt(col, i);
      min_v = std::min(min_v, v);
      max_v = std::max(max_v, v);
    }
  }
  const uint64_t range = static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
  const uint8_t bits = BitsNeeded(range);
  // The packer keeps at most 7 residual bits in `acc` before adding the next
  // value, so widths above 56 bits would overflow the 64-bit accumulator.
  if (bits > 56) {
    return Status::InvalidArgument(
        "FOR bitpack: value range too wide, use PLAIN");
  }
  w->PutI64(min_v);
  w->PutU8(bits);
  // Pack `bits` bits per value into a little-endian bit stream.
  uint64_t acc = 0;
  uint32_t acc_bits = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t delta =
        static_cast<uint64_t>(IntAt(col, i)) - static_cast<uint64_t>(min_v);
    acc |= (bits < 64 ? (delta & ((1ULL << bits) - 1)) : delta) << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      w->PutU8(static_cast<uint8_t>(acc & 0xff));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) w->PutU8(static_cast<uint8_t>(acc & 0xff));
  return Status::OK();
}

Status DecodeForBitPack(ByteReader* r, size_t n, ColumnVector* col) {
  int64_t min_v = 0;
  uint8_t bits = 0;
  DFLOW_RETURN_NOT_OK(r->GetI64(&min_v));
  DFLOW_RETURN_NOT_OK(r->GetU8(&bits));
  if (bits == 0 || bits > 56) {
    return Status::OutOfRange("FOR: corrupt bit width");
  }
  uint64_t acc = 0;
  uint32_t acc_bits = 0;
  const uint64_t mask = bits < 64 ? (1ULL << bits) - 1 : ~0ULL;
  for (size_t i = 0; i < n; ++i) {
    while (acc_bits < bits) {
      uint8_t byte = 0;
      DFLOW_RETURN_NOT_OK(r->GetU8(&byte));
      acc |= static_cast<uint64_t>(byte) << acc_bits;
      acc_bits += 8;
    }
    const uint64_t delta = acc & mask;
    acc >>= bits;
    acc_bits -= bits;
    IntAppend(col, static_cast<int64_t>(static_cast<uint64_t>(min_v) + delta));
  }
  return Status::OK();
}

}  // namespace

Result<EncodedColumn> EncodeColumn(const ColumnVector& col, Encoding encoding) {
  EncodedColumn out;
  out.type = col.type();
  out.encoding = encoding;
  out.num_rows = static_cast<uint32_t>(col.size());
  ByteWriter w(&out.data);
  WriteValidity(col, &w);
  switch (encoding) {
    case Encoding::kPlain:
      DFLOW_RETURN_NOT_OK(EncodePlain(col, &w));
      break;
    case Encoding::kRle:
      DFLOW_RETURN_NOT_OK(EncodeRle(col, &w));
      break;
    case Encoding::kDictionary:
      DFLOW_RETURN_NOT_OK(EncodeDictionary(col, &w));
      break;
    case Encoding::kForBitPack: {
      DFLOW_RETURN_NOT_OK(EncodeForBitPack(col, &w));
      break;
    }
  }
  return out;
}

namespace {

// Refuses (type, encoding) pairs no encoder produces, so corrupt headers
// surface as a Status instead of reaching a typed accessor.
Status CheckDecodable(const EncodedColumn& encoded) {
  switch (encoded.type) {
    case DataType::kBool:
    case DataType::kInt32:
    case DataType::kInt64:
    case DataType::kDouble:
    case DataType::kString:
    case DataType::kDate32:
      break;
    default:
      return Status::OutOfRange("encoded column: corrupt type byte");
  }
  switch (encoded.encoding) {
    case Encoding::kPlain:
      return Status::OK();
    case Encoding::kRle:
    case Encoding::kForBitPack:
      if (IsIntLike(encoded.type)) return Status::OK();
      break;
    case Encoding::kDictionary:
      if (encoded.type == DataType::kString) return Status::OK();
      break;
  }
  return Status::OutOfRange("encoded column: encoding " +
                            std::string(EncodingToString(encoded.encoding)) +
                            " cannot hold " +
                            std::string(DataTypeToString(encoded.type)));
}

}  // namespace

Result<ColumnVector> DecodeColumn(const EncodedColumn& encoded) {
  DFLOW_RETURN_NOT_OK(CheckDecodable(encoded));
  ColumnVector col(encoded.type);
  const size_t n = encoded.num_rows;
  col.Reserve(n);
  ByteReader r(encoded.data);
  // Validity header is at the front but applied after data materializes.
  uint8_t has_nulls = 0;
  DFLOW_RETURN_NOT_OK(r.GetU8(&has_nulls));
  std::vector<uint8_t> validity;
  if (has_nulls) {
    validity.resize(n);
    DFLOW_RETURN_NOT_OK(r.GetBytes(validity.data(), n));
  }
  switch (encoded.encoding) {
    case Encoding::kPlain:
      DFLOW_RETURN_NOT_OK(DecodePlain(&r, n, &col));
      break;
    case Encoding::kRle:
      DFLOW_RETURN_NOT_OK(DecodeRle(&r, n, &col));
      break;
    case Encoding::kDictionary:
      DFLOW_RETURN_NOT_OK(DecodeDictionary(&r, n, &col));
      break;
    case Encoding::kForBitPack:
      DFLOW_RETURN_NOT_OK(DecodeForBitPack(&r, n, &col));
      break;
  }
  if (col.size() != n) {
    return Status::Internal("decode produced wrong row count");
  }
  for (size_t i = 0; i < validity.size(); ++i) {
    if (!validity[i]) col.SetNull(i);
  }
  return col;
}

Result<uint64_t> DecodedByteSize(const EncodedColumn& encoded) {
  DFLOW_RETURN_NOT_OK(CheckDecodable(encoded));
  const size_t n = encoded.num_rows;
  ByteReader r(encoded.data);
  uint64_t bytes = 0;
  uint8_t has_nulls = 0;
  DFLOW_RETURN_NOT_OK(r.GetU8(&has_nulls));
  if (has_nulls) {
    const uint8_t* validity = r.cursor();
    DFLOW_RETURN_NOT_OK(r.Skip(n));
    if (std::find(validity, validity + n, 0) != validity + n) bytes += n;
  }
  if (encoded.type != DataType::kString) {
    const uint64_t width = FixedWidthBytes(encoded.type);
    if (encoded.encoding == Encoding::kPlain) {
      DFLOW_RETURN_NOT_OK(r.Skip(n * width));
    }
    return bytes + n * width;
  }
  // Strings: 4 bytes of length prefix per row plus the payload.
  bytes += 4 * static_cast<uint64_t>(n);
  if (encoded.encoding == Encoding::kPlain) {
    for (size_t i = 0; i < n; ++i) {
      uint32_t len = 0;
      DFLOW_RETURN_NOT_OK(r.GetU32(&len));
      DFLOW_RETURN_NOT_OK(r.Skip(len));
      bytes += len;
    }
    return bytes;
  }
  uint32_t dict_size = 0;
  DFLOW_RETURN_NOT_OK(r.GetU32(&dict_size));
  if (dict_size > r.remaining() / 4) {
    return Status::OutOfRange("dictionary: corrupt entry count");
  }
  std::vector<uint32_t> entry_lengths(dict_size);
  for (uint32_t& entry_len : entry_lengths) {
    DFLOW_RETURN_NOT_OK(r.GetU32(&entry_len));
    DFLOW_RETURN_NOT_OK(r.Skip(entry_len));
  }
  for (size_t i = 0; i < n; ++i) {
    uint32_t code = 0;
    DFLOW_RETURN_NOT_OK(r.GetU32(&code));
    if (code >= dict_size) {
      return Status::OutOfRange("dictionary: code out of range");
    }
    bytes += entry_lengths[code];
  }
  return bytes;
}

Encoding ChooseEncoding(const ColumnVector& col) {
  const size_t n = col.size();
  if (n == 0) return Encoding::kPlain;
  switch (col.type()) {
    case DataType::kDouble:
      return Encoding::kPlain;
    case DataType::kString: {
      // Dictionary pays off when the distinct count is small.
      std::unordered_map<std::string_view, int> distinct;
      for (const std::string& s : col.strs()) {
        distinct.emplace(s, 0);
        if (distinct.size() > n / 4 + 1) return Encoding::kPlain;
      }
      return Encoding::kDictionary;
    }
    case DataType::kBool:
      return Encoding::kRle;
    case DataType::kInt32:
    case DataType::kInt64:
    case DataType::kDate32: {
      // Count runs and value range in one pass.
      size_t runs = 1;
      int64_t min_v = IntAt(col, 0), max_v = min_v;
      for (size_t i = 1; i < n; ++i) {
        const int64_t v = IntAt(col, i);
        if (v != IntAt(col, i - 1)) ++runs;
        min_v = std::min(min_v, v);
        max_v = std::max(max_v, v);
      }
      if (runs <= n / 4) return Encoding::kRle;
      const uint64_t range =
          static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
      const uint8_t bits = BitsNeeded(range);
      const uint32_t plain_bits = FixedWidthBytes(col.type()) * 8;
      if (bits <= plain_bits / 2) return Encoding::kForBitPack;
      return Encoding::kPlain;
    }
  }
  return Encoding::kPlain;
}

}  // namespace dflow
