#include "wire/codec.hpp"

#include "util/check.hpp"

namespace idr::wire {

void Writer::str(std::string_view v) {
  IDR_CHECK_MSG(v.size() <= 0xffff, "string too long for u16 length prefix");
  u16(static_cast<std::uint16_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

std::uint8_t* Writer::open_list(std::size_t count) {
  IDR_CHECK_MSG(count <= 0xffff, "list too long for u16 length prefix");
  u16(static_cast<std::uint16_t>(count));
  const std::size_t at = buf_.size();
  buf_.resize(at + 4 * count);
  return buf_.data() + at;
}

void Writer::raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::string Reader::str() {
  const std::uint16_t len = u16();
  if (!take(len)) return {};
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

std::span<const std::uint8_t> Reader::take_list() {
  const std::size_t bytes = std::size_t{u16()} * 4;
  if (!take(bytes)) return {};
  const auto words = data_.subspan(pos_, bytes);
  pos_ += bytes;
  return words;
}

}  // namespace idr::wire
