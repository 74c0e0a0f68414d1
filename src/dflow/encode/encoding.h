#ifndef DFLOW_ENCODE_ENCODING_H_
#define DFLOW_ENCODE_ENCODING_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "dflow/common/result.h"
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

/// Decodes back to a full column. Exact roundtrip for all encodings.
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
