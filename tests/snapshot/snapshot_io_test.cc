// Container-level tests: header/table validation and the corruption
// taxonomy the ISSUE requires — truncated file, bad magic, bad CRC, future
// format version — must each surface as an error Status, never a crash.

#include "src/snapshot/snapshot_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace yask {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "yask_snapshot_io_" + name + ".snap";
}

/// Writes a two-section snapshot and returns its path.
std::string WriteSample(const std::string& name) {
  SnapshotWriter writer;
  BufWriter* vocab = writer.AddSection(SectionId::kVocabulary);
  vocab->PutVarU64(2);
  vocab->PutString("coffee");
  vocab->PutString("wifi");
  BufWriter* store = writer.AddSection(SectionId::kObjectStore);
  store->PutVarU64(0);
  store->PutVarU32(0);
  const std::string path = TestPath(name);
  EXPECT_TRUE(writer.WriteTo(path).ok());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotIoTest, RoundTripSections) {
  const std::string path = WriteSample("roundtrip");
  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->format_version(), kSnapshotFormatVersion);
  EXPECT_EQ(reader->sections().size(), 2u);
  EXPECT_TRUE(reader->Has(SectionId::kVocabulary));
  EXPECT_TRUE(reader->Has(SectionId::kObjectStore));
  EXPECT_FALSE(reader->Has(SectionId::kRTree));

  auto section = reader->OpenSection(SectionId::kVocabulary);
  ASSERT_TRUE(section.ok());
  EXPECT_EQ(section->GetVarU64(), 2u);
  EXPECT_EQ(section->GetString(), "coffee");
  EXPECT_EQ(section->GetString(), "wifi");
  EXPECT_TRUE(section->AtEnd());

  auto missing = reader->OpenSection(SectionId::kRetiredKcRTree);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(SnapshotIoTest, MissingFileIsNotFound) {
  auto reader = SnapshotReader::Open(TestPath("does_not_exist"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotIoTest, BadMagicRejected) {
  const std::string path = WriteSample("bad_magic");
  std::string bytes = ReadFile(path);
  bytes[0] ^= 0xFF;
  WriteFile(path, bytes);
  auto reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotIoTest, FutureFormatVersionRejected) {
  const std::string path = WriteSample("future_version");
  std::string bytes = ReadFile(path);
  bytes[8] = static_cast<char>(kSnapshotFormatVersion + 1);  // version u32.
  WriteFile(path, bytes);
  auto reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SnapshotIoTest, TruncationRejectedAtEveryPrefixLength) {
  const std::string path = WriteSample("truncated");
  const std::string bytes = ReadFile(path);
  // Every proper prefix must be rejected cleanly: the container either
  // fails to open, or the damaged section fails its CRC on access.
  for (size_t len = 0; len < bytes.size(); len += 3) {
    WriteFile(path, bytes.substr(0, len));
    auto reader = SnapshotReader::Open(path);
    if (!reader.ok()) continue;
    for (const SnapshotSectionInfo& info : reader->sections()) {
      auto section = reader->OpenSection(info.id);
      EXPECT_FALSE(section.ok()) << "prefix " << len << " section "
                                 << SectionIdToString(info.id);
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotIoTest, PayloadCorruptionFailsSectionCrc) {
  const std::string path = WriteSample("payload_crc");
  std::string bytes = ReadFile(path);
  // Flip one byte inside the first payload (right after the header).
  bytes[kSnapshotHeaderBytes + 2] ^= 0x01;
  WriteFile(path, bytes);
  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto section = reader->OpenSection(SectionId::kVocabulary);
  ASSERT_FALSE(section.ok());
  EXPECT_EQ(section.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(section.status().message().find("checksum"), std::string::npos);
  // The undamaged section still opens.
  EXPECT_TRUE(reader->OpenSection(SectionId::kObjectStore).ok());
  std::remove(path.c_str());
}

TEST(SnapshotIoTest, TableCorruptionRejected) {
  const std::string path = WriteSample("table_crc");
  std::string bytes = ReadFile(path);
  // The table is the 2 * 28 bytes before the trailing 4-byte footer.
  bytes[bytes.size() - 4 - 2 * kSnapshotTableEntryBytes + 1] ^= 0x01;
  WriteFile(path, bytes);
  auto reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotIoTest, WriteIsAtomicViaRename) {
  const std::string path = WriteSample("atomic");
  // The temporary sibling used during the write must be gone.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace yask
