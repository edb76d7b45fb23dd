// Canonical little-endian byte encoding shared by the sweep cache key
// hasher and the on-disk result serializer. Using one fixed encoding for
// both means cache keys and cached payloads are identical across
// platforms and compiler versions (doubles are encoded bit-exactly).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ccas::sweep {

inline void put_u64(std::string& out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(bytes, 8);
}

inline void put_i64(std::string& out, int64_t v) {
  put_u64(out, static_cast<uint64_t>(v));
}

inline void put_u32(std::string& out, uint32_t v) {
  put_u64(out, v);
}

inline void put_bool(std::string& out, bool v) {
  put_u64(out, v ? 1 : 0);
}

inline void put_double(std::string& out, double v) {
  put_u64(out, std::bit_cast<uint64_t>(v));
}

inline void put_string(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s.data(), s.size());
}

// Bounds-checked reader over a serialized buffer. All get_* return false
// once the buffer underruns (or a length prefix is implausible); callers
// treat any failure as a corrupt cache entry.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  // One unaligned load; the encoding is little-endian on every host.
  bool get_u64(uint64_t& v) {
    if (data_.size() - pos_ < 8) return false;
    std::memcpy(&v, data_.data() + pos_, 8);
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
    pos_ += 8;
    return true;
  }

  bool get_i64(int64_t& v) {
    uint64_t u = 0;
    if (!get_u64(u)) return false;
    v = static_cast<int64_t>(u);
    return true;
  }

  bool get_u32(uint32_t& v) {
    uint64_t u = 0;
    if (!get_u64(u) || u > UINT32_MAX) return false;
    v = static_cast<uint32_t>(u);
    return true;
  }

  bool get_bool(bool& v) {
    uint64_t u = 0;
    if (!get_u64(u) || u > 1) return false;
    v = u != 0;
    return true;
  }

  bool get_double(double& v) {
    uint64_t u = 0;
    if (!get_u64(u)) return false;
    v = std::bit_cast<double>(u);
    return true;
  }

  // A length-prefixed byte string as a view into the buffer (no copy); it
  // stays valid while the buffer does. The bound is written as a
  // subtraction so a prefix near 2^64 cannot wrap past it.
  bool get_view(std::string_view& s) {
    uint64_t n = 0;
    if (!get_u64(n) || n > data_.size() - pos_) return false;
    s = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  bool get_string(std::string& s) {
    std::string_view v;
    if (!get_view(v)) return false;
    s.assign(v);
    return true;
  }

  // A count prefix for a vector whose elements take >= min_element_bytes;
  // rejects counts that could not possibly fit in the remaining buffer.
  bool get_count(uint64_t& n, size_t min_element_bytes) {
    if (!get_u64(n)) return false;
    return n <= (data_.size() - pos_) / std::max<size_t>(min_element_bytes, 1);
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// FNV-1a, 64-bit: small, dependency-free, and stable across platforms.
// Used for cache keys and payload checksums, not for security.
inline uint64_t fnv1a64(std::string_view data, uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace ccas::sweep
