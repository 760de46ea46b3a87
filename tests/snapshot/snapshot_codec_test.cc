// Round-trip tests for the component codecs and the whole-server bundle:
// the restored state must answer top-k and why-not questions *identically*
// to the saved state, the restored trees must pass the deep structural
// check, and the vocabulary must be shared (not re-interned) by the
// restored store.

#include "src/snapshot/snapshot_codec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/index/inverted_index.h"
#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/hotel_generator.h"
#include "src/whynot/why_not_engine.h"

namespace yask {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "yask_snapshot_codec_" + name + ".snap";
}

ObjectStore SyntheticStore(size_t n) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.vocabulary_size = 300;
  spec.seed = 7;
  return GenerateDataset(spec);
}

TEST(VocabularyCodecTest, RoundTripPreservesIds) {
  Vocabulary vocab;
  vocab.Intern("coffee");
  vocab.Intern("wifi");
  vocab.Intern("quiet");
  BufWriter out;
  SaveVocabulary(vocab, &out);

  Vocabulary loaded;
  BufReader in(out.data().data(), out.size());
  ASSERT_TRUE(LoadVocabulary(&in, &loaded).ok());
  EXPECT_TRUE(in.AtEnd());
  ASSERT_EQ(loaded.size(), 3u);
  for (TermId id = 0; id < vocab.size(); ++id) {
    EXPECT_EQ(loaded.Word(id), vocab.Word(id));
    EXPECT_EQ(loaded.Find(vocab.Word(id)), id);
  }
}

TEST(VocabularyCodecTest, DuplicateWordRejected) {
  BufWriter out;
  out.PutVarU64(2);
  out.PutString("twice");
  out.PutString("twice");
  Vocabulary loaded;
  BufReader in(out.data().data(), out.size());
  EXPECT_FALSE(LoadVocabulary(&in, &loaded).ok());
}

TEST(ObjectStoreCodecTest, RoundTripSharesVocabularyWithoutReinterning) {
  const ObjectStore original = GenerateHotelDataset();
  BufWriter vocab_out, store_out;
  SaveVocabulary(original.vocab(), &vocab_out);
  SaveObjectStore(original, &store_out);

  auto vocab = std::make_shared<Vocabulary>();
  BufReader vocab_in(vocab_out.data().data(), vocab_out.size());
  ASSERT_TRUE(LoadVocabulary(&vocab_in, vocab.get()).ok());

  ObjectStore loaded(vocab);
  BufReader store_in(store_out.data().data(), store_out.size());
  ASSERT_TRUE(LoadObjectStore(&store_in, &loaded).ok());

  // The deserialized vocabulary is reused as-is: same instance, no new ids.
  EXPECT_EQ(loaded.shared_vocab().get(), vocab.get());
  EXPECT_EQ(loaded.vocab().size(), original.vocab().size());

  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.bounds(), original.bounds());
  for (ObjectId id = 0; id < original.size(); ++id) {
    const SpatialObject& a = original.Get(id);
    const SpatialObject& b = loaded.Get(id);
    EXPECT_EQ(b.id, id);
    EXPECT_EQ(b.loc, a.loc);
    EXPECT_EQ(b.doc, a.doc);
    EXPECT_EQ(b.name, a.name);
  }
}

TEST(ObjectStoreCodecTest, EmptyStoreRoundTrips) {
  ObjectStore original;
  BufWriter out;
  SaveObjectStore(original, &out);
  ObjectStore loaded;
  BufReader in(out.data().data(), out.size());
  ASSERT_TRUE(LoadObjectStore(&in, &loaded).ok());
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_TRUE(loaded.bounds().empty());
}

TEST(ObjectStoreCodecTest, KeywordOutsideVocabularyRejected) {
  ObjectStore original;  // Owns an empty vocabulary.
  original.Add(Point{1, 2}, KeywordSet({5}), "ghost-term");
  BufWriter out;
  SaveObjectStore(original, &out);
  ObjectStore loaded;  // Empty vocabulary: term 5 cannot resolve.
  BufReader in(out.data().data(), out.size());
  EXPECT_FALSE(LoadObjectStore(&in, &loaded).ok());
}

template <typename Tree>
void ExpectTreesEquivalent(const Tree& a, const Tree& b) {
  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.node_count(), a.node_count());
  EXPECT_EQ(b.height(), a.height());
  EXPECT_EQ(b.options().max_entries, a.options().max_entries);
  EXPECT_EQ(b.options().min_entries, a.options().min_entries);
  EXPECT_TRUE(b.node(b.root()).summary.Equals(a.node(a.root()).summary));
  Status valid = b.Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(RTreeCodecTest, SetRTreeRoundTripAnswersIdentically) {
  const ObjectStore store = SyntheticStore(2000);
  SetRTree original(&store);
  original.BulkLoad();
  BufWriter out;
  SaveSetRTree(original, &out);

  SetRTree loaded(&store);
  BufReader in(out.data().data(), out.size());
  ASSERT_TRUE(LoadSetRTree(&in, &loaded).ok());
  EXPECT_TRUE(in.AtEnd());
  ExpectTreesEquivalent(original, loaded);

  SetRTopKEngine before(store, original);
  SetRTopKEngine after(store, loaded);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 3, &rng);
    q.k = 10;
    q.w = Weights::FromWs(0.5);
    EXPECT_EQ(before.Query(q), after.Query(q));
  }
}

TEST(RTreeCodecTest, EmptyTreeRoundTrips) {
  ObjectStore store;
  SetRTree original(&store);
  original.BulkLoad();
  BufWriter out;
  SaveSetRTree(original, &out);
  SetRTree loaded(&store);
  BufReader in(out.data().data(), out.size());
  ASSERT_TRUE(LoadSetRTree(&in, &loaded).ok());
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_TRUE(loaded.Validate().ok());
}

class SnapshotBundleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<ObjectStore>(GenerateHotelDataset());
    setr_ = std::make_unique<SetRTree>(store_.get());
    setr_->BulkLoad();
    path_ = TestPath("bundle");
    auto bytes = WriteSnapshot(path_, *store_, setr_.get());
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_GT(*bytes, 0u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Query CarolQuery(uint32_t k = 3) const {
    Query q;
    q.loc = Point{114.158, 22.281};
    KeywordSet doc;
    doc.Insert(store_->vocab().Find("clean"));
    doc.Insert(store_->vocab().Find("comfortable"));
    q.doc = doc;
    q.k = k;
    q.w = Weights::FromWs(0.5);
    return q;
  }

  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<SetRTree> setr_;
  std::string path_;
};

TEST_F(SnapshotBundleTest, TopKAndWhyNotAnswersIdenticalAfterReload) {
  auto bundle = LoadSnapshot(path_);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_NE(bundle->store, nullptr);
  ASSERT_NE(bundle->setr, nullptr);

  // The why-not engine runs over a Corpus; build one around each state
  // (bulk loading from the same store reproduces the identical trees).
  const Corpus before_corpus = CorpusBuilder().Build(ObjectStore(*store_));
  auto after_corpus = CorpusBuilder().FromSnapshot(path_);
  ASSERT_TRUE(after_corpus.ok()) << after_corpus.status().ToString();
  WhyNotEngine before(before_corpus);
  WhyNotEngine after(*after_corpus);

  // Top-k answers must be bit-identical (ids and scores).
  const Query q = CarolQuery();
  const TopKResult before_topk = before.TopK(q);
  const TopKResult after_topk = after.TopK(q);
  ASSERT_EQ(before_topk, after_topk);

  // A why-not question about an object outside the top-k must produce the
  // same explanation and the same refined queries.
  const Query wide = CarolQuery(25);
  const TopKResult wide_topk = before.TopK(wide);
  const ObjectId missing = wide_topk[18].id;
  auto before_answer = before.Answer(q, {missing});
  auto after_answer = after.Answer(q, {missing});
  ASSERT_TRUE(before_answer.ok());
  ASSERT_TRUE(after_answer.ok());
  ASSERT_EQ(before_answer->explanations.size(),
            after_answer->explanations.size());
  EXPECT_EQ(before_answer->explanations[0].rank,
            after_answer->explanations[0].rank);
  EXPECT_EQ(before_answer->explanations[0].text,
            after_answer->explanations[0].text);
  ASSERT_EQ(before_answer->preference.has_value(),
            after_answer->preference.has_value());
  if (before_answer->preference.has_value()) {
    EXPECT_EQ(before_answer->preference->refined.w,
              after_answer->preference->refined.w);
    EXPECT_EQ(before_answer->preference->refined.k,
              after_answer->preference->refined.k);
  }
  ASSERT_EQ(before_answer->keyword.has_value(),
            after_answer->keyword.has_value());
  if (before_answer->keyword.has_value()) {
    EXPECT_EQ(before_answer->keyword->refined.doc,
              after_answer->keyword->refined.doc);
    EXPECT_EQ(before_answer->keyword->refined.k,
              after_answer->keyword->refined.k);
  }
  EXPECT_EQ(before_answer->recommended, after_answer->recommended);
  EXPECT_EQ(before_answer->refined_result, after_answer->refined_result);
}

TEST_F(SnapshotBundleTest, StoreOnlySnapshotLeavesIndexesNull) {
  const std::string path = TestPath("store_only");
  ASSERT_TRUE(WriteSnapshot(path, *store_).ok());
  auto bundle = LoadSnapshot(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_NE(bundle->store, nullptr);
  EXPECT_EQ(bundle->setr, nullptr);
  std::remove(path.c_str());
}

TEST_F(SnapshotBundleTest, RetiredKcRSectionIsSkipped) {
  // Files written before the KcR-tree was retired carry section 5; readers
  // skip it unread, whatever its payload.
  const std::string path = TestPath("retired_kcr");
  SnapshotWriter writer;
  SaveVocabulary(store_->vocab(), writer.AddSection(SectionId::kVocabulary));
  SaveObjectStore(*store_, writer.AddSection(SectionId::kObjectStore));
  SaveSetRTree(*setr_, writer.AddSection(SectionId::kSetRTree));
  writer.AddSection(SectionId::kRetiredKcRTree)->PutString("old tree bytes");
  uint64_t bytes = 0;
  ASSERT_TRUE(writer.WriteTo(path, &bytes).ok());

  auto bundle = LoadSnapshot(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle->store->size(), store_->size());
  ASSERT_NE(bundle->setr, nullptr);
  auto corpus = CorpusBuilder().FromSnapshot(path);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const SetRTopKEngine restored(corpus->store(), corpus->setr());
  EXPECT_EQ(restored.Query(CarolQuery()),
            SetRTopKEngine(*store_, *setr_).Query(CarolQuery()));
  std::remove(path.c_str());
}

TEST_F(SnapshotBundleTest, RetiredInvertedIndexSectionIsSkipped) {
  // Files written before the corpus dropped its inverted index carry
  // section 3 (varu64 term count, then each term's delta-coded posting
  // list); readers skip it unread, and the corpus answers as before.
  const std::string path = TestPath("retired_inverted");
  SnapshotWriter writer;
  SaveVocabulary(store_->vocab(), writer.AddSection(SectionId::kVocabulary));
  SaveObjectStore(*store_, writer.AddSection(SectionId::kObjectStore));
  const InvertedIndex inverted(*store_);
  BufWriter* postings = writer.AddSection(SectionId::kInvertedIndex);
  postings->PutVarU64(store_->vocab().size());
  for (TermId t = 0; t < store_->vocab().size(); ++t) {
    postings->PutDeltaIds(inverted.Postings(t));
  }
  SaveSetRTree(*setr_, writer.AddSection(SectionId::kSetRTree));
  uint64_t bytes = 0;
  ASSERT_TRUE(writer.WriteTo(path, &bytes).ok());

  auto corpus = CorpusBuilder().FromSnapshot(path);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(corpus->size(), store_->size());
  const Corpus rebuilt = CorpusBuilder().Build(ObjectStore(*store_));
  const WhyNotEngine before(rebuilt);
  const WhyNotEngine after(*corpus);
  const Query q = CarolQuery();
  ASSERT_EQ(after.TopK(q), before.TopK(q));
  const ObjectId missing = before.TopK(CarolQuery(25))[18].id;
  auto before_answer = before.Answer(q, {missing});
  auto after_answer = after.Answer(q, {missing});
  ASSERT_TRUE(before_answer.ok() && after_answer.ok());
  EXPECT_EQ(after_answer->explanations[0].rank,
            before_answer->explanations[0].rank);
  EXPECT_EQ(after_answer->explanations[0].text,
            before_answer->explanations[0].text);
  EXPECT_EQ(after_answer->recommended, before_answer->recommended);
  EXPECT_EQ(after_answer->refined_result, before_answer->refined_result);
  std::remove(path.c_str());
}

TEST_F(SnapshotBundleTest, CorruptTreeSectionFailsCleanly) {
  std::ifstream f(path_, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(f), {});
  f.close();
  // Flip a byte inside the SetR-tree payload.
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  for (const SnapshotSectionInfo& info : reader->sections()) {
    if (info.id == SectionId::kSetRTree) {
      bytes[info.offset + info.size / 2] ^= 0x01;
    }
  }
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  auto bundle = LoadSnapshot(path_);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotBundleTest, InspectReportsSections) {
  auto report = InspectSnapshot(path_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->format_version, kSnapshotFormatVersion);
  // Vocabulary, store, SetR-tree: no inverted index or KcR-tree section.
  ASSERT_EQ(report->sections.size(), 3u);
  bool saw_store = false;
  for (const SnapshotSectionReport& s : report->sections) {
    EXPECT_GT(s.size, 0u);
    if (s.name == "object_store") {
      saw_store = true;
      EXPECT_EQ(s.item_count, static_cast<int64_t>(store_->size()));
    }
  }
  EXPECT_TRUE(saw_store);
}

}  // namespace
}  // namespace yask
