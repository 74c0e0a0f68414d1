#ifndef DFLOW_ACCEL_KERNEL_H_
#define DFLOW_ACCEL_KERNEL_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dflow/common/result.h"
#include "dflow/vector/data_chunk.h"

namespace dflow {

/// A unit of installable logic for an accelerator — what §7.2 calls a
/// kernel: "registers can be used to characterize the filter, but parsing
/// logic is necessary to find where the tuples and relevant attributes are
/// within a page", installed "through other means than an ISA".
///
/// A kernel maps one input chunk to zero or more output chunks.
using KernelFn =
    std::function<Status(const DataChunk& input, std::vector<DataChunk>* out)>;

/// Holds the kernels installed on one accelerator. Installation replaces;
/// invocation of an uninstalled kernel faults.
class KernelRegistry {
 public:
  KernelRegistry() = default;

  Status Install(const std::string& name, KernelFn fn);
  Status Uninstall(const std::string& name);
  bool Has(const std::string& name) const;

  /// Runs the named kernel on a chunk.
  Status Invoke(const std::string& name, const DataChunk& input,
                std::vector<DataChunk>* out) const;

 private:
  std::map<std::string, KernelFn> kernels_;
};

}  // namespace dflow

#endif  // DFLOW_ACCEL_KERNEL_H_
