#ifndef DFLOW_ENCODE_BYTE_IO_H_
#define DFLOW_ENCODE_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "dflow/common/status.h"

namespace dflow {

/// Append-only little-endian byte sink used by page and column serializers.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }

  template <typename T>
  void PutRaw(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t offset = out_->size();
    out_->resize(offset + sizeof(T));
    std::memcpy(out_->data() + offset, &v, sizeof(T));
  }

  void PutU32(uint32_t v) { PutRaw(v); }
  void PutU64(uint64_t v) { PutRaw(v); }
  void PutI32(int32_t v) { PutRaw(v); }
  void PutI64(int64_t v) { PutRaw(v); }
  void PutDouble(double v) { PutRaw(v); }

  void PutBytes(const void* data, size_t len) {
    if (len == 0) return;  // `data` may be null; memcpy forbids that
    const size_t offset = out_->size();
    out_->resize(offset + len);
    std::memcpy(out_->data() + offset, data, len);
  }

  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian byte source.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& data)
      : data_(data.data()), size_(data.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ >= size_; }

  Status GetU8(uint8_t* v) { return GetRaw(v); }
  Status GetU32(uint32_t* v) { return GetRaw(v); }
  Status GetU64(uint64_t* v) { return GetRaw(v); }
  Status GetI32(int32_t* v) { return GetRaw(v); }
  Status GetI64(int64_t* v) { return GetRaw(v); }
  Status GetDouble(double* v) { return GetRaw(v); }

  template <typename T>
  Status GetRaw(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) {
      return Status::OutOfRange("ByteReader: truncated input");
    }
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status GetBytes(void* out, size_t len) {
    if (remaining() < len) {
      return Status::OutOfRange("ByteReader: truncated input");
    }
    if (len == 0) return Status::OK();  // `out` may be null
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// Advances past `len` bytes without reading them.
  Status Skip(size_t len) {
    if (remaining() < len) {
      return Status::OutOfRange("ByteReader: truncated input");
    }
    pos_ += len;
    return Status::OK();
  }

  /// The unread bytes, starting at the cursor.
  const uint8_t* cursor() const { return data_ + pos_; }

  Status GetString(std::string* out) {
    std::string_view view;
    DFLOW_RETURN_NOT_OK(GetStringView(&view));
    out->assign(view);
    return Status::OK();
  }

  /// A length-prefixed string as a view into the input bytes: valid while
  /// they are.
  Status GetStringView(std::string_view* out) {
    uint32_t len = 0;
    DFLOW_RETURN_NOT_OK(GetU32(&len));
    if (remaining() < len) {
      return Status::OutOfRange("ByteReader: truncated string");
    }
    *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace dflow

#endif  // DFLOW_ENCODE_BYTE_IO_H_
