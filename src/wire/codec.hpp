// Network-byte-order wire codec.
//
// Every protocol PDU in this repository is encoded to bytes and decoded on
// receipt, so the message/byte counters reported by the benchmarks reflect
// real serialized sizes rather than in-memory struct sizes, and so codecs
// can be round-trip and fuzz tested like a real implementation's.
//
// Writer appends big-endian fields to a growable buffer. Reader consumes
// them with sticky failure: after the first out-of-bounds read every later
// read returns zero values and ok() stays false, so decoders can be written
// straight-line and check ok() once at the end.
//
// Lists (AD sets, paths, stub listings) have one codec: a u16 count, then
// that many big-endian u32 words. Its element type is a template parameter,
// so callers code their own one-word types (AdId) straight to and from
// bytes without a u32 staging vector.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace idr::wire {

// An element the list codec carries as one u32 word: std::uint32_t or a
// trivially copyable one-word wrapper around it.
template <typename T>
concept Word32 = std::is_trivially_copyable_v<T> && sizeof(T) == 4;

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  // Overwrites the u16 written at byte `pos`: a count known only once the
  // items after it are written.
  void u16_at(std::size_t pos, std::uint16_t v) {
    buf_[pos] = static_cast<std::uint8_t>(v >> 8);
    buf_[pos + 1] = static_cast<std::uint8_t>(v);
  }
  // Length-prefixed (u16) byte string.
  void str(std::string_view v);
  // Length-prefixed (u16) list of u32 words; the buffer grows once.
  template <Word32 T>
  void list(const std::vector<T>& values) {
    std::uint8_t* p = open_list(values.size());
    for (const T v : values) {
      const auto word = std::bit_cast<std::uint32_t>(v);
      p[0] = static_cast<std::uint8_t>(word >> 24);
      p[1] = static_cast<std::uint8_t>(word >> 16);
      p[2] = static_cast<std::uint8_t>(word >> 8);
      p[3] = static_cast<std::uint8_t>(word);
      p += 4;
    }
  }
  void raw(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  // Reuse the buffer across encodes (hot paths keep one Writer and clear
  // it per PDU instead of reallocating).
  void clear() noexcept { buf_.clear(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  // Writes the count (checked against the u16 prefix) and grows the buffer
  // by 4 x count bytes; returns where the first word goes.
  std::uint8_t* open_list(std::size_t count);

  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) noexcept
      : data_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(be(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(be(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(be(4)); }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  std::string str();
  // Decodes a list written by Writer::list into `out`, replacing what it
  // held; an empty `out` gets exactly the capacity the list needs. A
  // count that claims more words than remain fails the reader and leaves
  // `out` empty.
  template <Word32 T>
  void list(std::vector<T>& out) {
    const std::span<const std::uint8_t> words = take_list();
    out.clear();
    out.resize(words.size() / 4);
    const std::uint8_t* p = words.data();
    for (T& v : out) {
      v = std::bit_cast<T>((std::uint32_t{p[0]} << 24) |
                           (std::uint32_t{p[1]} << 16) |
                           (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]});
      p += 4;
    }
  }

  // True iff no read has run past the end of the buffer so far.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  // True iff ok() and the whole buffer was consumed (strict decoders).
  [[nodiscard]] bool done() const noexcept {
    return ok_ && pos_ == data_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return ok_ ? data_.size() - pos_ : 0;
  }

 private:
  // Reads a list's count and consumes its 4 x count bytes, checked once;
  // empty on a short read.
  std::span<const std::uint8_t> take_list();

  [[nodiscard]] bool take(std::size_t n) noexcept {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  // The next `n` (at most 4) bytes as a big-endian number; 0 on a short
  // read.
  std::uint32_t be(std::size_t n) noexcept {
    if (!take(n)) return 0;
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace idr::wire
