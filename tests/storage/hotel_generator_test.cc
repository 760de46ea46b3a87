#include "src/storage/hotel_generator.h"

#include <gtest/gtest.h>

namespace yask {
namespace {

/// True if `p` lies inside `r` or on its boundary.
bool Contains(const Rect& r, const Point& p) {
  return p.x >= r.min_x && p.x <= r.max_x && p.y >= r.min_y && p.y <= r.max_y;
}

TEST(HotelGeneratorTest, DefaultIs539Hotels) {
  // §4: "The data set ... contains some 539 hotels."
  const ObjectStore store = GenerateHotelDataset();
  EXPECT_EQ(store.size(), 539u);
}

TEST(HotelGeneratorTest, LocationsInsideHongKongFrame) {
  const ObjectStore store = GenerateHotelDataset();
  const Rect frame = HongKongBounds();
  for (const SpatialObject& o : store.objects()) {
    EXPECT_TRUE(Contains(frame, o.loc))
        << "hotel " << o.id << " at (" << o.loc.x << "," << o.loc.y << ")";
  }
}

TEST(HotelGeneratorTest, EveryHotelHasNameAndKeywords) {
  const ObjectStore store = GenerateHotelDataset();
  for (const SpatialObject& o : store.objects()) {
    EXPECT_FALSE(o.name.empty());
    EXPECT_GE(o.doc.size(), 3u);  // Category + district + >=1 facility/comment.
  }
}

TEST(HotelGeneratorTest, CommonFacilityVocabPresent) {
  const ObjectStore store = GenerateHotelDataset();
  const Vocabulary& vocab = store.vocab();
  for (const char* w : {"hotel", "wifi", "clean", "comfortable", "luxury"}) {
    EXPECT_TRUE(vocab.Contains(w)) << w;
  }
  // "wifi" should describe many hotels, "helipad" very few.
  size_t wifi = 0;
  size_t helipad = 0;
  for (const SpatialObject& o : store.objects()) {
    if (o.doc.Contains(vocab.Find("wifi"))) ++wifi;
    if (vocab.Contains("helipad") && o.doc.Contains(vocab.Find("helipad"))) {
      ++helipad;
    }
  }
  EXPECT_GT(wifi, store.size() / 5);
  EXPECT_LT(helipad, wifi);
}

TEST(HotelGeneratorTest, Deterministic) {
  const ObjectStore a = GenerateHotelDataset();
  const ObjectStore b = GenerateHotelDataset();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.Get(i).loc, b.Get(i).loc);
    EXPECT_EQ(a.Get(i).name, b.Get(i).name);
  }
}

TEST(HotelGeneratorTest, CustomSize) {
  HotelDatasetSpec spec;
  spec.num_hotels = 42;
  EXPECT_EQ(GenerateHotelDataset(spec).size(), 42u);
}

TEST(HotelGeneratorTest, NamesAreUniqueEnoughForLookup) {
  const ObjectStore store = GenerateHotelDataset();
  const SpatialObject& o = store.Get(17);
  EXPECT_EQ(store.FindByName(o.name), o.id);  // Suffix index disambiguates.
}

}  // namespace
}  // namespace yask
