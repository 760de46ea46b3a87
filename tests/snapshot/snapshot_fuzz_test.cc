// Seeded fuzz of the snapshot readers. The payload of each section
// (vocabulary, object store, R-tree, shard manifest) of a valid standalone
// file and of a valid per-shard file is mutated — bit flips, truncation,
// splices from another section, varint blow-ups — and every mutant is
// rewritten through SnapshotWriter, so the checksums pass and the decoders
// see the damaged bytes. Each load must either fail with a Status or yield
// a corpus whose R-tree validates, covers the store, and answers the served
// top-k with TopKScan's rows. Seeds are fixed: a failure replays exactly.
// Run it under scripts/check.sh --sanitize too, where a read past a buffer
// or an undefined shift fails the run.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/corpus/corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/query/topk_engine.h"
#include "src/snapshot/snapshot_io.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace {

constexpr int kMutantsPerSection = 120;

using Sections = std::vector<std::pair<SectionId, std::string>>;

/// Every section of a snapshot file, in file order, as raw payload bytes.
Sections ReadSections(const std::string& path) {
  Sections sections;
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return sections;
  for (const SnapshotSectionInfo& info : reader->sections()) {
    Result<BufReader> payload = reader->OpenSection(info.id);
    EXPECT_TRUE(payload.ok()) << payload.status().ToString();
    if (!payload.ok()) continue;
    sections.emplace_back(
        info.id, std::string(reinterpret_cast<const char*>(payload->cursor()),
                             payload->remaining()));
  }
  return sections;
}

void WriteSections(const Sections& sections, const std::string& path) {
  SnapshotWriter writer;
  for (const auto& [id, payload] : sections) {
    writer.AddSection(id)->PutRaw(payload);
  }
  ASSERT_TRUE(writer.WriteTo(path).ok());
}

/// One seeded mutation of `payload`; `donor` is another section's payload
/// of the same file, the source of splices.
std::string Mutate(std::string payload, const std::string& donor, Rng* rng) {
  auto position = [&](size_t size) {
    // The leading count of every payload sits at offset 0: hit it often.
    return rng->NextBernoulli(0.25) || size == 0
               ? size_t{0}
               : static_cast<size_t>(rng->NextBounded(size));
  };
  switch (rng->NextBounded(4)) {
    case 0: {  // Flip one to three bits.
      if (payload.empty()) return payload;
      const uint64_t flips = 1 + rng->NextBounded(3);
      for (uint64_t i = 0; i < flips; ++i) {
        payload[position(payload.size())] ^=
            static_cast<char>(1u << rng->NextBounded(8));
      }
      return payload;
    }
    case 1:  // Truncate.
      payload.resize(payload.empty() ? 0 : rng->NextBounded(payload.size()));
      return payload;
    case 2: {  // Overwrite a range with bytes of another section.
      if (payload.empty() || donor.empty()) return payload;
      const size_t from = rng->NextBounded(donor.size());
      const size_t to = position(payload.size());
      const size_t len = std::min<size_t>(
          {1 + rng->NextBounded(64), donor.size() - from, payload.size() - to});
      payload.replace(to, len, donor, from, len);
      return payload;
    }
    default: {  // Varint blow-up: continuation bytes, then a high byte.
      const size_t at = position(payload.size());
      const std::string huge(1 + rng->NextBounded(9), '\xFF');
      payload.insert(at, huge + '\x7F');
      return payload;
    }
  }
}

/// A loaded mutant must be a whole, correct corpus.
void ExpectServesCorrectly(const Corpus& corpus, uint64_t seed,
                           const std::string& label) {
  const Status valid = corpus.rtree().Validate();
  ASSERT_TRUE(valid.ok()) << label << ": " << valid.ToString();
  ASSERT_EQ(corpus.rtree().size(), corpus.size()) << label;
  const ObjectStore& store = corpus.store();
  const LocalWhyNotOracle oracle(corpus);
  Rng rng(seed);
  for (const uint32_t k : {1u, 5u, 40u}) {
    Query q;
    q.loc = store.empty() ? Point{0.5, 0.5}
                          : store.Get(static_cast<ObjectId>(
                                          rng.NextBounded(store.size())))
                                .loc;
    if (store.vocab().size() > 0) {
      for (int t = 0; t < 3; ++t) {
        q.doc.Insert(static_cast<TermId>(rng.NextBounded(store.vocab().size())));
      }
    }
    q.k = k;
    q.w = Weights::FromWs(rng.NextDouble(0.1, 0.9));
    ASSERT_EQ(oracle.TopK(q), TopKScan(store, q)) << label << " k=" << k;
  }
}

struct FuzzTally {
  size_t rejected = 0;
  size_t loaded = 0;
};

/// Mutates each section of the file at `path` in turn and loads every
/// mutant; `per_shard` files load with a manifest sink.
void FuzzFile(const std::string& path, bool per_shard, uint64_t seed,
              FuzzTally* tally) {
  const Sections original = ReadSections(path);
  const std::string mutant_path = path + ".mutant";
  Rng rng(seed);
  for (size_t target = 0; target < original.size(); ++target) {
    const std::string& donor =
        original[(target + 1) % original.size()].second;
    for (int i = 0; i < kMutantsPerSection; ++i) {
      Sections sections = original;
      sections[target].second =
          Mutate(sections[target].second, donor, &rng);
      WriteSections(sections, mutant_path);
      const std::string label =
          std::string(SectionIdToString(original[target].first)) +
          " mutant " + std::to_string(i);
      std::unique_ptr<ShardManifest> manifest;
      Result<Corpus> corpus = CorpusBuilder().FromSnapshot(
          mutant_path, per_shard ? &manifest : nullptr);
      if (!corpus.ok()) {
        ++tally->rejected;
        continue;
      }
      ++tally->loaded;
      if (per_shard) {
        ASSERT_NE(manifest, nullptr) << label;
        ASSERT_EQ(manifest->global_ids.size(), corpus->size()) << label;
      }
      ExpectServesCorrectly(*corpus, seed + i, label);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  std::remove(mutant_path.c_str());
}

ObjectStore FuzzStore() {
  DatasetSpec spec;
  spec.num_objects = 400;
  spec.vocabulary_size = 50;
  spec.seed = 4099;
  return GenerateDataset(spec);
}

TEST(SnapshotFuzz, StandaloneFileMutants) {
  const std::string path = ::testing::TempDir() + "snapshot_fuzz_standalone";
  const Corpus corpus = CorpusBuilder().Build(FuzzStore());
  ASSERT_TRUE(corpus.Save(path).ok());
  ASSERT_EQ(ReadSections(path).size(), 3u);  // Vocabulary, store, R-tree.

  FuzzTally tally;
  FuzzFile(path, /*per_shard=*/false, 0xF022, &tally);
  // Both outcomes occur: the mutations reach past the first check.
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.loaded, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotFuzz, PerShardFileMutants) {
  const std::string prefix = ::testing::TempDir() + "snapshot_fuzz_sharded";
  const ObjectStore store = FuzzStore();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ASSERT_TRUE(sharded.Save(prefix).ok());
  const std::string path = ShardedCorpus::ShardFilePath(prefix, 1);
  // Vocabulary, store, R-tree, shard manifest.
  ASSERT_EQ(ReadSections(path).size(), 4u);

  FuzzTally tally;
  FuzzFile(path, /*per_shard=*/true, 0xF023, &tally);
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.loaded, 0u);
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    std::remove(ShardedCorpus::ShardFilePath(prefix, s).c_str());
  }
}

}  // namespace
}  // namespace yask
