#ifndef DFLOW_VECTOR_KERNELS_H_
#define DFLOW_VECTOR_KERNELS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "dflow/common/status.h"
#include "dflow/types/value.h"
#include "dflow/vector/column_vector.h"

namespace dflow {

/// Vectorized compute kernels. These are the primitive operations that run
/// identically on every processing element — CPU core, smart storage
/// processor, smart NIC, near-memory accelerator. Placement decides *where*
/// a kernel runs; the kernel itself is location-agnostic (the paper's
/// "operators redesigned to work on data as it flows", §1).

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

std::string_view CompareOpToString(CompareOp op);
std::string_view ArithOpToString(ArithOp op);

/// Byte-per-row boolean mask; 1 = row passes.
using Mask = std::vector<uint8_t>;

/// mask[i] = (col[i] op constant). NULL rows produce 0. With a non-null
/// `sel`, only the selected rows are compared: mask[i] = (col[sel[i]] op
/// constant).
Status CompareToConstant(const ColumnVector& col, CompareOp op,
                         const Value& constant, Mask* mask,
                         const SelectionVector* sel = nullptr);

/// mask[i] = (a[i] op b[i]). Columns must have equal length and comparable
/// types. NULL on either side produces 0.
Status CompareColumns(const ColumnVector& a, CompareOp op,
                      const ColumnVector& b, Mask* mask);

/// mask[i] = LIKE(col[i], pattern). Column must be kString. With a non-null
/// `sel`, only the selected rows are tested: mask[i] = LIKE(col[sel[i]]).
Status ComputeLikeMask(const ColumnVector& col, std::string_view pattern,
                       Mask* mask, const SelectionVector* sel = nullptr);

/// In-place mask combinators (sizes must match).
void AndMasks(const Mask& other, Mask* mask);
void OrMasks(const Mask& other, Mask* mask);
void NotMask(Mask* mask);

/// Indices of all set positions, in order.
SelectionVector MaskToSelection(const Mask& mask);

/// Count of set positions.
size_t MaskPopCount(const Mask& mask);

/// out[i] = a[i] op b[i] for numeric columns. Result type: kDouble if either
/// input is kDouble, else kInt64. Integer division by zero yields NULL;
/// double division by zero yields inf (IEEE).
Status Arithmetic(const ColumnVector& a, ArithOp op, const ColumnVector& b,
                  ColumnVector* out);

/// out[i] = col[i] op constant (same typing rules as Arithmetic).
Status ArithmeticConst(const ColumnVector& col, ArithOp op,
                       const Value& constant, ColumnVector* out);

/// Hashes each row of `col`, or with `sel` only the selected rows (entry i
/// hashes row sel[i]). If `hashes` is empty it is filled with fresh hashes;
/// otherwise each entry is combined with the column's hash (for
/// multi-column keys). NULL hashes to a fixed sentinel.
Status HashColumn(const ColumnVector& col, std::vector<uint64_t>* hashes,
                  const SelectionVector* sel = nullptr);

}  // namespace dflow

#endif  // DFLOW_VECTOR_KERNELS_H_
