#include "dflow/encode/encoding.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
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

// Calls fn(values) with an integer-like column's typed storage (uint8_t,
// int32_t or int64_t); does nothing for DOUBLE and STRING.
template <typename Fn>
void VisitInts(const ColumnVector& col, Fn fn) {
  col.Visit([&](const auto& values) {
    using T = typename std::decay_t<decltype(values)>::value_type;
    if constexpr (std::is_integral_v<T>) fn(values);
  });
}

// The same for a column being decoded into.
template <typename Fn>
void VisitMutableInts(ColumnVector* col, Fn fn) {
  switch (col->type()) {
    case DataType::kInt32:
    case DataType::kDate32:
      return fn(col->i32());
    case DataType::kInt64:
      return fn(col->i64());
    case DataType::kBool:
      return fn(col->bool_data());
    default:
      DFLOW_CHECK(false) << "integer decode into a non-integer column";
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
    case DataType::kString: {
      const StringColumn& strs = col.strs();
      for (size_t i = 0; i < n; ++i) w->PutString(strs[i]);
      break;
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------------ rle ----

Status EncodeRle(const ColumnVector& col, ByteWriter* w) {
  if (!IsIntLike(col.type())) {
    return Status::InvalidArgument("RLE supports integer-like columns only");
  }
  VisitInts(col, [&](const auto& values) {
    const size_t n = values.size();
    size_t i = 0;
    while (i < n) {
      const auto v = values[i];
      size_t run = 1;
      while (i + run < n && values[i + run] == v) ++run;
      w->PutU32(static_cast<uint32_t>(run));
      w->PutI64(static_cast<int64_t>(v));
      i += run;
    }
  });
  return Status::OK();
}

// ----------------------------------------------------------- dictionary ----

Status EncodeDictionary(const ColumnVector& col, ByteWriter* w) {
  if (col.type() != DataType::kString) {
    return Status::InvalidArgument("dictionary encoding supports strings only");
  }
  const StringColumn& values = col.strs();
  std::unordered_map<std::string_view, uint32_t> dict;
  std::vector<std::string_view> entries;
  std::vector<uint32_t> codes;
  codes.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    auto [it, inserted] =
        dict.emplace(values[i], static_cast<uint32_t>(entries.size()));
    if (inserted) entries.push_back(it->first);
    codes.push_back(it->second);
  }
  w->PutU32(static_cast<uint32_t>(entries.size()));
  for (std::string_view s : entries) w->PutString(s);
  for (uint32_t code : codes) w->PutU32(code);
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
  Status status;
  VisitInts(col, [&](const auto& values) {
    const size_t n = values.size();
    int64_t min_v = 0, max_v = 0;
    if (n > 0) {
      min_v = max_v = static_cast<int64_t>(values[0]);
      for (size_t i = 1; i < n; ++i) {
        const auto v = static_cast<int64_t>(values[i]);
        min_v = std::min(min_v, v);
        max_v = std::max(max_v, v);
      }
    }
    const uint64_t range =
        static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
    const uint8_t bits = BitsNeeded(range);
    // The packer keeps at most 7 residual bits in `acc` before adding the
    // next value, so widths above 56 bits would overflow the accumulator.
    if (bits > 56) {
      status = Status::InvalidArgument(
          "FOR bitpack: value range too wide, use PLAIN");
      return;
    }
    w->PutI64(min_v);
    w->PutU8(bits);
    // Pack `bits` bits per value into a little-endian bit stream.
    const uint64_t mask = (1ULL << bits) - 1;
    uint64_t acc = 0;
    uint32_t acc_bits = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t delta = static_cast<uint64_t>(
                                 static_cast<int64_t>(values[i])) -
                             static_cast<uint64_t>(min_v);
      acc |= (delta & mask) << acc_bits;
      acc_bits += bits;
      while (acc_bits >= 8) {
        w->PutU8(static_cast<uint8_t>(acc & 0xff));
        acc >>= 8;
        acc_bits -= 8;
      }
    }
    if (acc_bits > 0) w->PutU8(static_cast<uint8_t>(acc & 0xff));
  });
  return status;
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

ColumnDecoder::ColumnDecoder(const EncodedColumn& encoded)
    : type_(encoded.type),
      encoding_(encoded.encoding),
      num_rows_(encoded.num_rows),
      reader_(encoded.data) {}

Result<ColumnDecoder> ColumnDecoder::Open(const EncodedColumn& encoded) {
  DFLOW_RETURN_NOT_OK(CheckDecodable(encoded));
  ColumnDecoder d(encoded);
  const size_t n = d.num_rows_;
  ByteReader& r = d.reader_;
  // The validity header is at the front; each span applies its slice.
  uint8_t has_nulls = 0;
  DFLOW_RETURN_NOT_OK(r.GetU8(&has_nulls));
  if (has_nulls) {
    const uint8_t* validity = r.cursor();
    DFLOW_RETURN_NOT_OK(r.Skip(n));
    // An all-valid mask on the wire decodes to no mask at all.
    if (std::find(validity, validity + n, 0) != validity + n) {
      d.validity_ = validity;
    }
  }
  switch (d.encoding_) {
    case Encoding::kDictionary: {
      uint32_t dict_size = 0;
      DFLOW_RETURN_NOT_OK(r.GetU32(&dict_size));
      if (dict_size > r.remaining() / 4) {
        return Status::OutOfRange("dictionary: corrupt entry count");
      }
      d.entries_.resize(dict_size);
      for (std::string_view& entry : d.entries_) {
        DFLOW_RETURN_NOT_OK(r.GetStringView(&entry));
      }
      break;
    }
    case Encoding::kForBitPack:
      DFLOW_RETURN_NOT_OK(r.GetI64(&d.for_min_));
      DFLOW_RETURN_NOT_OK(r.GetU8(&d.for_bits_));
      if (d.for_bits_ == 0 || d.for_bits_ > 56) {
        return Status::OutOfRange("FOR: corrupt bit width");
      }
      break;
    case Encoding::kPlain:
    case Encoding::kRle:
      break;
  }
  return d;
}

Result<ColumnVector> ColumnDecoder::Next(size_t rows) {
  DFLOW_CHECK_LE(rows, rows_left());
  ColumnVector col(type_);
  switch (encoding_) {
    case Encoding::kPlain:
      DFLOW_RETURN_NOT_OK(NextPlain(rows, &col));
      break;
    case Encoding::kRle:
      DFLOW_RETURN_NOT_OK(NextRle(rows, &col));
      break;
    case Encoding::kDictionary:
      DFLOW_RETURN_NOT_OK(NextDictionary(rows, &col));
      break;
    case Encoding::kForBitPack:
      DFLOW_RETURN_NOT_OK(NextForBitPack(rows, &col));
      break;
  }
  DFLOW_CHECK_EQ(col.size(), rows);
  if (validity_ != nullptr) col.SetValidity(validity_ + produced_);
  produced_ += rows;
  return col;
}

Status ColumnDecoder::NextPlain(size_t rows, ColumnVector* col) {
  ByteReader& r = reader_;
  switch (type_) {
    case DataType::kBool:
      col->bool_data().resize(rows);
      return r.GetBytes(col->bool_data().data(), rows);
    case DataType::kInt32:
    case DataType::kDate32:
      col->i32().resize(rows);
      return r.GetBytes(col->i32().data(), rows * sizeof(int32_t));
    case DataType::kInt64:
      col->i64().resize(rows);
      return r.GetBytes(col->i64().data(), rows * sizeof(int64_t));
    case DataType::kDouble:
      col->f64().resize(rows);
      return r.GetBytes(col->f64().data(), rows * sizeof(double));
    case DataType::kString: {
      // One pass checks the lengths; the arena is then filled in one go.
      std::vector<std::string_view> views(rows);
      for (std::string_view& s : views) {
        DFLOW_RETURN_NOT_OK(r.GetStringView(&s));
      }
      col->strs().AppendViews(rows, [&](size_t i) { return views[i]; });
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status ColumnDecoder::NextRle(size_t rows, ColumnVector* col) {
  Status status;
  VisitMutableInts(col, [&](auto& values) {
    using T = typename std::decay_t<decltype(values)>::value_type;
    values.resize(rows);
    size_t filled = 0;
    while (filled < rows) {
      if (run_left_ == 0) {
        uint32_t run = 0;
        status = reader_.GetU32(&run);
        if (status.ok()) status = reader_.GetI64(&run_value_);
        if (!status.ok()) return;
        // The whole column's rows bound every run, as in one-span decode.
        if (run == 0 || produced_ + filled + run > num_rows_) {
          status = Status::OutOfRange("RLE: corrupt run length");
          return;
        }
        run_left_ = run;
      }
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(run_left_, rows - filled));
      std::fill_n(values.begin() + filled, take, static_cast<T>(run_value_));
      filled += take;
      run_left_ -= take;
    }
  });
  return status;
}

Status ColumnDecoder::NextDictionary(size_t rows, ColumnVector* col) {
  const uint8_t* codes = reader_.cursor();
  DFLOW_RETURN_NOT_OK(reader_.Skip(rows * 4));
  std::vector<uint32_t> code(rows);
  if (rows > 0) std::memcpy(code.data(), codes, rows * 4);
  for (uint32_t c : code) {
    if (c >= entries_.size()) {
      return Status::OutOfRange("dictionary: code out of range");
    }
  }
  col->strs().AppendViews(rows, [&](size_t i) { return entries_[code[i]]; });
  return Status::OK();
}

Status ColumnDecoder::NextForBitPack(size_t rows, ColumnVector* col) {
  const uint32_t bits = for_bits_;
  // Bits this span still needs beyond those carried from the last one; a
  // span of kVectorSize rows always ends on a byte boundary. One bounds
  // check covers the span.
  const uint64_t need_bits = static_cast<uint64_t>(rows) * bits;
  const size_t bytes =
      need_bits > acc_bits_
          ? static_cast<size_t>((need_bits - acc_bits_ + 7) / 8)
          : 0;
  const uint8_t* p = reader_.cursor();
  DFLOW_RETURN_NOT_OK(reader_.Skip(bytes));
  const uint64_t mask = (1ULL << bits) - 1;
  const auto min_v = static_cast<uint64_t>(for_min_);
  uint64_t acc = acc_;
  uint32_t acc_bits = acc_bits_;
  VisitMutableInts(col, [&](auto& values) {
    using T = typename std::decay_t<decltype(values)>::value_type;
    values.resize(rows);
    T* out = values.data();
    size_t i = 0;
    if (acc_bits == 0) {
      // A span that starts on a byte: value i is one unaligned 8-byte load
      // at bit i * bits (bits <= 56, so it fits), while 8 bytes remain.
      const uint8_t* base = p;
      for (; i < rows; ++i) {
        const uint64_t bit = static_cast<uint64_t>(i) * bits;
        if (bit / 8 + 8 > bytes) break;
        uint64_t word;
        std::memcpy(&word, base + bit / 8, sizeof(word));
        out[i] = static_cast<T>(
            static_cast<int64_t>(min_v + ((word >> (bit % 8)) & mask)));
      }
      // The rest byte by byte, from where the loads stopped.
      const uint64_t bit = static_cast<uint64_t>(i) * bits;
      p = base + bit / 8;
      if (bit % 8 != 0) {
        acc = static_cast<uint64_t>(*p++) >> (bit % 8);
        acc_bits = static_cast<uint32_t>(8 - bit % 8);
      }
    }
    for (; i < rows; ++i) {
      while (acc_bits < bits) {
        acc |= static_cast<uint64_t>(*p++) << acc_bits;
        acc_bits += 8;
      }
      out[i] = static_cast<T>(static_cast<int64_t>(min_v + (acc & mask)));
      acc >>= bits;
      acc_bits -= bits;
    }
  });
  acc_ = acc;
  acc_bits_ = acc_bits;
  return Status::OK();
}

Result<ColumnVector> DecodeColumn(const EncodedColumn& encoded) {
  DFLOW_ASSIGN_OR_RETURN(ColumnDecoder decoder, ColumnDecoder::Open(encoded));
  return decoder.Next(decoder.rows_left());
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
      const StringColumn& strs = col.strs();
      for (size_t i = 0; i < n; ++i) {
        distinct.emplace(strs[i], 0);
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
      int64_t min_v = 0, max_v = 0;
      VisitInts(col, [&](const auto& values) {
        min_v = max_v = static_cast<int64_t>(values[0]);
        for (size_t i = 1; i < n; ++i) {
          const auto v = static_cast<int64_t>(values[i]);
          if (values[i] != values[i - 1]) ++runs;
          min_v = std::min(min_v, v);
          max_v = std::max(max_v, v);
        }
      });
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
