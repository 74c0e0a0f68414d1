#include "dflow/accel/kernel.h"

namespace dflow {

Status KernelRegistry::Install(const std::string& name, KernelFn fn) {
  if (name.empty()) {
    return Status::InvalidArgument("kernel name must not be empty");
  }
  if (fn == nullptr) {
    return Status::InvalidArgument("kernel function must not be null");
  }
  kernels_[name] = std::move(fn);
  return Status::OK();
}

Status KernelRegistry::Uninstall(const std::string& name) {
  if (kernels_.erase(name) == 0) {
    return Status::NotFound("no kernel named '" + name + "'");
  }
  return Status::OK();
}

bool KernelRegistry::Has(const std::string& name) const {
  return kernels_.count(name) > 0;
}

Status KernelRegistry::Invoke(const std::string& name, const DataChunk& input,
                              std::vector<DataChunk>* out) const {
  auto it = kernels_.find(name);
  if (it == kernels_.end()) {
    return Status::NotFound("no kernel named '" + name + "' installed");
  }
  return it->second(input, out);
}

}  // namespace dflow
