// Deterministic binary serialization for checkpoint images.
//
// The writeback protocol externalizes kernel state into application-kernel
// records ("writeback completeness", docs/CHECKPOINT.md); this Writer/Reader
// pair turns those records into a byte stream that is identical for identical
// state: fixed little-endian encoding, no padding, no pointers, no host
// addresses. Every record in a CkptImage is framed and CRC-protected so a
// corrupted image fails loudly at parse time instead of loading a partial
// kernel.

#ifndef SRC_CKPT_SERIALIZER_H_
#define SRC_CKPT_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ckckpt {

// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`. `seed` chains calls:
// Crc32(b, n, Crc32(a, m)) equals the CRC of a followed by b. Slice-by-8: one
// step folds eight input bytes through eight independent table lookups.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

// Append-only little-endian encoder.
class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) {
    U8(static_cast<uint8_t>(v));
    U8(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    U16(static_cast<uint16_t>(v));
    U16(static_cast<uint16_t>(v >> 16));
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Bytes(const void* data, size_t len) {
    if (len == 0) {
      return;  // data may be null (e.g. an empty record payload)
    }
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  // Pre-size the buffer when the final length is known (no regrowth copies).
  void Reserve(size_t n) { buf_.reserve(n); }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Bounds-checked decoder. Any overrun (or an explicit Fail() from a semantic
// check) makes the reader sticky-bad; reads after that return zeros, so
// callers can decode a whole record and check ok() once at the end.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Reader(const std::vector<uint8_t>& buf) : Reader(buf.data(), buf.size()) {}

  uint8_t U8() {
    if (!Need(1)) {
      return 0;
    }
    return data_[pos_++];
  }
  uint16_t U16() {
    uint16_t lo = U8();
    return static_cast<uint16_t>(lo | (static_cast<uint16_t>(U8()) << 8));
  }
  uint32_t U32() {
    uint32_t lo = U16();
    return lo | (static_cast<uint32_t>(U16()) << 16);
  }
  uint64_t U64() {
    uint64_t lo = U32();
    return lo | (static_cast<uint64_t>(U32()) << 32);
  }
  bool Bool() { return U8() != 0; }
  void Bytes(void* out, size_t n) {
    if (n == 0) {
      return;  // out may be null (e.g. an empty record payload)
    }
    if (!Need(n)) {
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }
  // Borrow the next n bytes in place, without copying; nullptr on overrun.
  const uint8_t* Span(size_t n) {
    if (!Need(n)) {
      return nullptr;
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!Need(n)) {
      return std::string();
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  void Fail(const std::string& why) {
    ok_ = false;
    if (error_.empty()) {
      error_ = why;
    }
  }
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  size_t remaining() const { return len_ - pos_; }
  // A fully-consumed record with no decode errors.
  bool Done() const { return ok_ && pos_ == len_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      Fail("record truncated");
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace ckckpt

#endif  // SRC_CKPT_SERIALIZER_H_
