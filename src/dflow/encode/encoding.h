#ifndef DFLOW_ENCODE_ENCODING_H_
#define DFLOW_ENCODE_ENCODING_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/encode/byte_io.h"
#include "dflow/vector/column_vector.h"

namespace dflow {

/// Columnar encodings used by storage pages and by the "keep memory
/// compressed, decompress on demand" near-memory experiments (§5.4).
///
///  kPlain       raw values (strings length-prefixed)
///  kRle         (run length, value) pairs — wins on sorted / low-churn data
///  kDictionary  distinct values + per-row codes — wins on low-cardinality
///               strings (TPC-H flags, statuses)
///  kForBitPack  frame-of-reference + bit packing for integers — wins on
///               value ranges much narrower than the physical type
enum class Encoding : uint8_t {
  kPlain = 0,
  kRle = 1,
  kDictionary = 2,
  kForBitPack = 3,
};

std::string_view EncodingToString(Encoding encoding);

/// A serialized column: the unit stored in row-group pages and shipped over
/// links when data moves compressed.
struct EncodedColumn {
  DataType type = DataType::kInt64;
  Encoding encoding = Encoding::kPlain;
  uint32_t num_rows = 0;
  std::vector<uint8_t> data;

  uint64_t ByteSize() const { return data.size() + 16; }  // payload + header
};

/// Encodes `col` with the requested encoding. Returns InvalidArgument when
/// the encoding does not support the column type (e.g. RLE on doubles).
Result<EncodedColumn> EncodeColumn(const ColumnVector& col, Encoding encoding);

/// Decodes an encoded column span by span, straight from its bytes (which
/// must outlive the decoder): each Next call returns the following rows as
/// a column of their own, with no full-column intermediate. Every loop is
/// a bulk one — a memcpy for fixed-width PLAIN, one bounds check per span
/// for FOR, dictionary entries read once as views of the encoded bytes,
/// an RLE run carried across span boundaries. A span carries a validity
/// mask iff the whole column has a NULL, exactly as if the column were
/// decoded whole and split. Corrupt or truncated bytes are OutOfRange.
class ColumnDecoder {
 public:
  /// Checks the header and reads what all spans share: the validity mask's
  /// place, a dictionary's entries, a FOR frame.
  static Result<ColumnDecoder> Open(const EncodedColumn& encoded);

  size_t rows_left() const { return num_rows_ - produced_; }

  /// The next `rows` rows; `rows` must not exceed rows_left().
  Result<ColumnVector> Next(size_t rows);

 private:
  explicit ColumnDecoder(const EncodedColumn& encoded);

  Status NextPlain(size_t rows, ColumnVector* col);
  Status NextRle(size_t rows, ColumnVector* col);
  Status NextDictionary(size_t rows, ColumnVector* col);
  Status NextForBitPack(size_t rows, ColumnVector* col);

  DataType type_;
  Encoding encoding_;
  size_t num_rows_;
  size_t produced_ = 0;
  ByteReader reader_;
  const uint8_t* validity_ = nullptr;  // num_rows_ bytes iff a NULL exists
  std::vector<std::string_view> entries_;  // dictionary, viewing the bytes
  // FOR frame, and the bits read but not yet unpacked.
  int64_t for_min_ = 0;
  uint8_t for_bits_ = 0;
  uint64_t acc_ = 0;
  uint32_t acc_bits_ = 0;
  // RLE: what is left of the run the last span stopped in.
  uint64_t run_left_ = 0;
  int64_t run_value_ = 0;
};

/// Decodes back to a full column: one ColumnDecoder span of num_rows.
/// Exact roundtrip for all encodings.
Result<ColumnVector> DecodeColumn(const EncodedColumn& encoded);

/// `DecodeColumn(encoded)->ByteSize()` without decoding: a walk over the
/// encoded bytes that reads only the validity header and string lengths
/// (or dictionary codes). The decoder allocates a validity mask only when
/// it meets a null, so an all-valid mask on the wire adds nothing here
/// either. Errors on bytes the decoder would also refuse.
Result<uint64_t> DecodedByteSize(const EncodedColumn& encoded);

/// Picks the cheapest supported encoding for the column by trial encoding
/// (small columns) or heuristics: run-heavy ints -> RLE, narrow ints -> FOR,
/// low-cardinality strings -> dictionary, else plain.
Encoding ChooseEncoding(const ColumnVector& col);

}  // namespace dflow

#endif  // DFLOW_ENCODE_ENCODING_H_
