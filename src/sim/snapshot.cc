#include "src/sim/snapshot.h"

#include <cstring>

namespace fragvisor {
namespace {

constexpr uint8_t kTagSection = 0xA5;
constexpr uint8_t kTagEnd = 0x5A;
// A section tag or string longer than this is corruption, not data; the cap
// keeps a flipped length byte from driving a multi-gigabyte resize.
constexpr size_t kMaxStringLen = 1u << 20;

}  // namespace

uint64_t SnapshotHashBytes(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

SnapshotWriter::SnapshotWriter() {
  U64(kSnapshotMagic);
  U32(kSnapshotFormatVersion);
}

void SnapshotWriter::U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void SnapshotWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void SnapshotWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void SnapshotWriter::F64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void SnapshotWriter::Bytes(const void* data, size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void SnapshotWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void SnapshotWriter::BeginSection(const char* tag) {
  U8(kTagSection);
  Str(tag);
}

std::string SnapshotWriter::Finish() {
  finished_ = true;
  U8(kTagEnd);
  U64(SnapshotHashBytes(buf_.data(), buf_.size()));
  return std::move(buf_);
}

SnapshotReader::SnapshotReader(const std::string& data) : data_(data) {
  // Trailer first: without a verified checksum no field can be trusted.
  if (data_.size() < 8 + 4 + 1 + 8) {
    Fail("stream too short to hold a snapshot header");
    return;
  }
  payload_end_ = data_.size() - 8;
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(static_cast<uint8_t>(data_[payload_end_ + i])) << (8 * i);
  }
  if (stored != SnapshotHashBytes(data_.data(), payload_end_)) {
    Fail("checksum mismatch (truncated or corrupted stream)");
    return;
  }
  const uint64_t magic = U64();
  if (ok() && magic != kSnapshotMagic) {
    Fail("bad magic (not a FragVisor snapshot)");
    return;
  }
  const uint32_t version = U32();
  if (ok() && version != kSnapshotFormatVersion) {
    Fail("unsupported snapshot format version " + std::to_string(version) + " (this build reads " +
         std::to_string(kSnapshotFormatVersion) + ")");
  }
}

void SnapshotReader::Fail(const std::string& why) {
  if (error_.empty()) {
    error_ = "snapshot: " + why + " (offset " + std::to_string(pos_) + ")";
  }
}

bool SnapshotReader::Need(size_t n) {
  if (!ok()) {
    return false;
  }
  if (pos_ + n > payload_end_) {
    Fail("unexpected end of stream reading " + std::to_string(n) + " bytes");
    return false;
  }
  return true;
}

uint8_t SnapshotReader::U8() {
  if (!Need(1)) {
    return 0;
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t SnapshotReader::U32() {
  if (!Need(4)) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t SnapshotReader::U64() {
  if (!Need(8)) {
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 8;
  return v;
}

double SnapshotReader::F64() {
  const uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool SnapshotReader::BytesInto(void* dst, size_t size) {
  if (!Need(size)) {
    return false;
  }
  std::memcpy(dst, data_.data() + pos_, size);
  pos_ += size;
  return true;
}

bool SnapshotReader::NeedItems(uint64_t count, size_t size) {
  if (!ok()) {
    return false;
  }
  if (count > (payload_end_ - pos_) / size) {
    Fail("count " + std::to_string(count) + " exceeds the rest of the stream");
    return false;
  }
  return true;
}

std::string SnapshotReader::Str() {
  const uint32_t len = U32();
  if (!ok()) {
    return std::string();
  }
  if (len > kMaxStringLen) {
    Fail("string length " + std::to_string(len) + " exceeds sanity cap");
    return std::string();
  }
  if (!Need(len)) {
    return std::string();
  }
  std::string s = data_.substr(pos_, len);
  pos_ += len;
  return s;
}

bool SnapshotReader::Section(const char* tag) {
  const uint8_t marker = U8();
  if (!ok()) {
    return false;
  }
  if (marker != kTagSection) {
    Fail(std::string("expected section '") + tag + "', found marker byte " +
         std::to_string(marker));
    return false;
  }
  const std::string found = Str();
  if (!ok()) {
    return false;
  }
  if (found != tag) {
    Fail(std::string("expected section '") + tag + "', found '" + found + "'");
    return false;
  }
  return true;
}

bool SnapshotReader::AtEnd() {
  const uint8_t marker = U8();
  if (!ok()) {
    return false;
  }
  if (marker != kTagEnd) {
    Fail("trailing data where the end marker should be");
    return false;
  }
  if (pos_ != payload_end_) {
    Fail("payload bytes after the end marker");
    return false;
  }
  return true;
}

}  // namespace fragvisor
