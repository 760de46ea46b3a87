#include "src/snapshot/snapshot_format.h"

#include <array>

namespace yask {

const char* SectionIdToString(SectionId id) {
  switch (id) {
    case SectionId::kVocabulary:
      return "vocabulary";
    case SectionId::kObjectStore:
      return "object_store";
    case SectionId::kRetiredInvertedIndex:
      return "inverted_index";
    case SectionId::kRetiredSetRTree:
      return "setr_tree (retired)";
    case SectionId::kRetiredKcRTree:
      return "kcr_tree (retired)";
    case SectionId::kShardManifest:
      return "shard_manifest";
    case SectionId::kRTree:
      return "rtree";
  }
  return "unknown";
}

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void BufWriter::PutVarU64(uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
}

void BufWriter::PutString(std::string_view s) {
  PutVarU64(s.size());
  out_.append(s.data(), s.size());
}

void BufWriter::PutDeltaIds(const std::vector<uint32_t>& sorted_ids) {
  PutVarU64(sorted_ids.size());
  uint32_t prev = 0;
  for (size_t i = 0; i < sorted_ids.size(); ++i) {
    // First id verbatim, then gaps; strict ascent makes every gap >= 1.
    PutVarU32(i == 0 ? sorted_ids[0] : sorted_ids[i] - prev);
    prev = sorted_ids[i];
  }
}

bool BufReader::Need(size_t n) {
  if (!ok_) return false;
  if (size_ - pos_ < n) {
    Fail("truncated payload (wanted " + std::to_string(n) + " bytes, " +
         std::to_string(size_ - pos_) + " left)");
    return false;
  }
  return true;
}

void BufReader::Fail(std::string message) {
  if (!ok_) return;
  ok_ = false;
  status_ = Status::InvalidArgument("snapshot decode: " + std::move(message));
  pos_ = size_;
}

uint8_t BufReader::GetU8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}

uint32_t BufReader::GetU32() {
  if (!Need(4)) return 0;
  uint32_t v;
  std::memcpy(&v, data_ + pos_, 4);
  pos_ += 4;
  return v;
}

uint64_t BufReader::GetU64() {
  if (!Need(8)) return 0;
  uint64_t v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

double BufReader::GetF64() {
  const uint64_t bits = GetU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t BufReader::GetVarU64() {
  if (!ok_) return 0;
  uint64_t v = 0;
  size_t p = pos_;
  for (int shift = 0; shift < 70 && p < size_; shift += 7) {
    const uint8_t byte = data_[p++];
    // The 10th byte holds only bit 63; higher payload bits would be
    // silently shifted out, so treat them as corruption, not truncation.
    if (shift == 63 && (byte & 0x7F) > 1) {
      Fail("varint overflows 64 bits");
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      pos_ = p;
      return v;
    }
  }
  Fail(p == size_ ? "truncated varint" : "varint longer than 10 bytes");
  return 0;
}

uint32_t BufReader::GetVarU32() {
  const uint64_t v = GetVarU64();
  if (v > 0xFFFFFFFFull) {
    Fail("varint exceeds 32 bits");
    return 0;
  }
  return static_cast<uint32_t>(v);
}

std::string BufReader::GetString() {
  const uint64_t len = GetVarU64();
  if (!CheckCount(len) || !Need(len)) return std::string();
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return s;
}

std::vector<uint32_t> BufReader::GetDeltaIds() {
  const uint64_t count = GetVarU64();
  if (!CheckCount(count)) return {};
  std::vector<uint32_t> ids;
  ids.reserve(static_cast<size_t>(count));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    // Hot loop (object docs, posting lists, node keyword sets): decode the
    // common 1-2 byte deltas inline, fall back to GetVarU64 for the rest.
    uint64_t delta;
    if (pos_ < size_ && data_[pos_] < 0x80) {
      delta = data_[pos_++];
    } else if (pos_ + 1 < size_ && data_[pos_ + 1] < 0x80) {
      delta = static_cast<uint64_t>(data_[pos_] & 0x7F) |
              (static_cast<uint64_t>(data_[pos_ + 1]) << 7);
      pos_ += 2;
    } else {
      delta = GetVarU64();
      if (!ok_) return {};
    }
    if (i > 0 && delta == 0) {
      Fail("id sequence not strictly ascending");
      return {};
    }
    // Cap the delta before summing: prev and delta both <= 2^32-1 keeps
    // prev + delta far from wrapping uint64, so the range check below is
    // sound (a wrapped sum could smuggle a non-ascending id past it).
    if (delta > 0xFFFFFFFFull) {
      Fail("id sequence overflows 32 bits");
      return {};
    }
    const uint64_t id = (i == 0) ? delta : prev + delta;
    if (id > 0xFFFFFFFFull) {
      Fail("id sequence overflows 32 bits");
      return {};
    }
    ids.push_back(static_cast<uint32_t>(id));
    prev = id;
  }
  if (!ok_) return {};
  return ids;
}

bool BufReader::Skip(size_t n) {
  if (!Need(n)) return false;
  pos_ += n;
  return true;
}

bool BufReader::CheckCount(uint64_t count, size_t min_bytes_each) {
  if (!ok_) return false;
  if (count > remaining() / (min_bytes_each == 0 ? 1 : min_bytes_each)) {
    Fail("element count " + std::to_string(count) +
         " impossible for remaining " + std::to_string(remaining()) + " bytes");
    return false;
  }
  return true;
}

}  // namespace yask
