#include "src/snapshot/snapshot_codec.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace yask {

namespace {

/// Shorthand: the reader's sticky error as a Status (OK while reads succeed).
Status ReaderStatus(const BufReader& in) {
  return in.ok() ? Status::OK() : in.status();
}

}  // namespace

// --- Vocabulary --------------------------------------------------------------
// Payload: varu64 word_count | word_count x string.
// Words are written in TermId order, so re-interning them in order on load
// reproduces the identical dense id assignment.

void SaveVocabulary(const Vocabulary& vocab, BufWriter* out) {
  out->PutVarU64(vocab.size());
  for (TermId id = 0; id < vocab.size(); ++id) {
    out->PutString(vocab.Word(id));
  }
}

Status LoadVocabulary(BufReader* in, Vocabulary* vocab) {
  if (vocab->size() != 0) {
    return Status::FailedPrecondition(
        "LoadVocabulary requires an empty vocabulary");
  }
  const uint64_t count = in->GetVarU64();
  if (!in->CheckCount(count)) return ReaderStatus(*in);
  vocab->Reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    const std::string word = in->GetString();
    if (!in->ok()) return ReaderStatus(*in);
    if (vocab->Intern(word) != i) {
      return Status::InvalidArgument(
          "snapshot decode: duplicate vocabulary word '" + word + "'");
    }
  }
  return ReaderStatus(*in);
}

// --- ObjectStore -------------------------------------------------------------
// Payload: varu64 object_count | varu32 stripe_count
//        | stripe_count x varu64 stripe_byte_length
//        | the stripes, back to back; each stripe holds a contiguous id
//          range of objects (count/stripes, earlier stripes one longer),
//          encoded per object as f64 x | f64 y | delta-ids doc | string name.
//
// The stripes exist purely for load parallelism: their byte lengths let a
// cold start decode all of them concurrently straight into the final object
// vector. Ids and bounds are reproduced positionally (AdoptObjects); the doc
// term ids must resolve in the (already loaded, shared) vocabulary.

namespace {

/// Stripes are a load-parallelism knob, not a data property: enough to fan
/// out a big store across cores, 1 for small stores where threads cost more
/// than they save, and hard-capped so a corrupt header cannot demand
/// thousands of threads.
constexpr uint32_t kMaxObjectStripes = 64;

uint32_t PickStripeCount(size_t object_count) {
  if (object_count < 4096) return object_count == 0 ? 0 : 1;
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min({kMaxObjectStripes, hw,
                   static_cast<uint32_t>(object_count / 1024)});
}

/// Object ranges per stripe: sizes differ by at most one.
std::vector<std::pair<size_t, size_t>> StripeRanges(size_t count,
                                                    uint32_t stripes) {
  std::vector<std::pair<size_t, size_t>> ranges;
  ranges.reserve(stripes);
  const size_t base = stripes == 0 ? 0 : count / stripes;
  const size_t extra = stripes == 0 ? 0 : count % stripes;
  size_t begin = 0;
  for (uint32_t s = 0; s < stripes; ++s) {
    const size_t len = base + (s < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + len);
    begin += len;
  }
  return ranges;
}

/// Decodes one stripe's object range into objects[begin, end). Runs on a
/// worker thread; touches only its slice.
Status DecodeObjectStripe(BufReader in, size_t begin, size_t end,
                          size_t vocab_size,
                          std::vector<SpatialObject>* objects) {
  for (size_t i = begin; i < end; ++i) {
    SpatialObject& o = (*objects)[i];
    o.id = static_cast<ObjectId>(i);
    o.loc.x = in.GetF64();
    o.loc.y = in.GetF64();
    std::vector<TermId> doc_ids = in.GetDeltaIds();
    o.name = in.GetString();
    if (!in.ok()) return in.status();
    if (!std::isfinite(o.loc.x) || !std::isfinite(o.loc.y)) {
      return Status::InvalidArgument(
          "snapshot decode: non-finite object coordinates");
    }
    if (!doc_ids.empty() && doc_ids.back() >= vocab_size) {
      return Status::InvalidArgument(
          "snapshot decode: object keyword id " +
          std::to_string(doc_ids.back()) + " outside vocabulary of " +
          std::to_string(vocab_size));
    }
    // GetDeltaIds guarantees strict ascent, so skip KeywordSet's re-sort.
    o.doc = KeywordSet::FromSortedUnique(std::move(doc_ids));
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument(
        "snapshot decode: object stripe has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

void SaveObjectStore(const ObjectStore& store, BufWriter* out) {
  const uint32_t stripes = PickStripeCount(store.size());
  const auto ranges = StripeRanges(store.size(), stripes);

  out->PutVarU64(store.size());
  out->PutVarU32(stripes);
  std::vector<BufWriter> stripe_payloads(stripes);
  for (uint32_t s = 0; s < stripes; ++s) {
    BufWriter& stripe = stripe_payloads[s];
    for (size_t i = ranges[s].first; i < ranges[s].second; ++i) {
      const SpatialObject& o = store.Get(static_cast<ObjectId>(i));
      stripe.PutF64(o.loc.x);
      stripe.PutF64(o.loc.y);
      stripe.PutDeltaIds(o.doc.ids());
      stripe.PutString(o.name);
    }
    out->PutVarU64(stripe.size());
  }
  for (const BufWriter& stripe : stripe_payloads) {
    out->PutRaw(stripe.data());
  }
}

Status LoadObjectStore(BufReader* in, ObjectStore* store) {
  if (!store->empty()) {
    return Status::FailedPrecondition("LoadObjectStore requires an empty store");
  }
  const size_t vocab_size = store->vocab().size();
  const uint64_t count = in->GetVarU64();
  const uint32_t stripes = in->GetVarU32();
  // Two doubles + two varints is the floor per object.
  if (!in->CheckCount(count, 18)) return ReaderStatus(*in);
  if (stripes > kMaxObjectStripes || (stripes == 0) != (count == 0)) {
    return Status::InvalidArgument(
        "snapshot decode: bad object stripe count " + std::to_string(stripes));
  }
  std::vector<uint64_t> lengths(stripes);
  for (uint32_t s = 0; s < stripes; ++s) lengths[s] = in->GetVarU64();
  if (!in->ok()) return ReaderStatus(*in);
  // Overflow-safe sum check: every length must fit in what is left, and the
  // lengths must tile the remaining payload exactly.
  uint64_t total = 0;
  for (const uint64_t len : lengths) {
    if (len > in->remaining() - total) {
      return Status::InvalidArgument(
          "snapshot decode: object stripe lengths exceed payload size");
    }
    total += len;
  }
  if (total != in->remaining()) {
    return Status::InvalidArgument(
        "snapshot decode: object stripe lengths disagree with payload size");
  }

  const auto ranges = StripeRanges(static_cast<size_t>(count), stripes);
  std::vector<SpatialObject> objects(static_cast<size_t>(count));
  std::vector<Status> stripe_status(stripes);
  std::vector<std::thread> workers;
  const uint8_t* cursor = in->cursor();
  for (uint32_t s = 0; s < stripes; ++s) {
    BufReader stripe_reader(cursor, static_cast<size_t>(lengths[s]));
    cursor += lengths[s];
    auto task = [stripe_reader, range = ranges[s], vocab_size, &objects,
                 out_status = &stripe_status[s]]() mutable {
      *out_status = DecodeObjectStripe(stripe_reader, range.first,
                                       range.second, vocab_size, &objects);
    };
    if (stripes == 1) {
      task();  // No thread overhead for small stores.
    } else {
      workers.emplace_back(std::move(task));
    }
  }
  for (std::thread& t : workers) t.join();
  in->Skip(in->remaining());
  for (const Status& s : stripe_status) {
    if (!s.ok()) return s;
  }
  store->AdoptObjects(std::move(objects));
  return ReaderStatus(*in);
}

// --- R-tree ------------------------------------------------------------------
// Payload: varu32 node_count | varu32 root_index | varu64 object_count
//        | varu32 max_entries | varu32 min_entries
//        | node_count x node, children strictly before parents:
//            u8 is_leaf | varu32 entry_count
//          | entry_count x varu32 id   (ObjectId for leaves, else the child's
//                                       position in this node stream).
//
// Rects and parent pointers are NOT stored: leaf entry rects come from the
// store's object points, node rects and internal entry rects fold up from
// children (which, by the write order, are always decoded first).

void SaveRTree(const RTree& tree, BufWriter* out) {
  using NodeId = RTree::NodeId;

  // Post-order DFS: emit children before their parent; the root comes last.
  std::vector<NodeId> order;
  order.reserve(tree.node_count());
  std::vector<std::pair<NodeId, size_t>> stack{{tree.root(), 0}};
  while (!stack.empty()) {
    auto& [nid, next_child] = stack.back();
    const auto& n = tree.node(nid);
    if (n.is_leaf || next_child == n.entries.size()) {
      order.push_back(nid);
      stack.pop_back();
      continue;
    }
    stack.emplace_back(n.entries[next_child++].id, 0);
  }

  std::unordered_map<NodeId, uint32_t> remap;
  remap.reserve(order.size());
  for (uint32_t i = 0; i < order.size(); ++i) remap[order[i]] = i;

  out->PutVarU32(static_cast<uint32_t>(order.size()));
  out->PutVarU32(remap.at(tree.root()));
  out->PutVarU64(tree.size());
  out->PutVarU32(static_cast<uint32_t>(tree.options().max_entries));
  out->PutVarU32(static_cast<uint32_t>(tree.options().min_entries));
  for (const NodeId nid : order) {
    const auto& n = tree.node(nid);
    out->PutU8(n.is_leaf ? 1 : 0);
    out->PutVarU32(static_cast<uint32_t>(n.entries.size()));
    for (const auto& e : n.entries) {
      out->PutVarU32(n.is_leaf ? e.id : remap.at(e.id));
    }
  }
}

Status LoadRTree(BufReader* in, RTree* tree) {
  using Node = RTree::Node;
  using Entry = RTree::Entry;
  constexpr auto kNoNode = RTree::kNoNode;

  const ObjectStore& store = tree->store();

  const uint32_t node_count = in->GetVarU32();
  const uint32_t root_index = in->GetVarU32();
  const uint64_t object_count = in->GetVarU64();
  RTreeOptions options;
  options.max_entries = in->GetVarU32();
  options.min_entries = in->GetVarU32();
  if (!in->ok()) return ReaderStatus(*in);
  if (!in->CheckCount(node_count, 2)) return ReaderStatus(*in);
  if (node_count == 0 || root_index != node_count - 1) {
    return Status::InvalidArgument(
        "snapshot decode: r-tree root must be the last node of the stream");
  }
  if (options.min_entries < 1 ||
      options.min_entries * 2 > options.max_entries) {
    return Status::InvalidArgument(
        "snapshot decode: r-tree fanout options violate min*2 <= max");
  }
  // The served top-k finds every non-holder through the tree, so a tree
  // that misses an object answers wrong rows: it must index the whole store.
  if (object_count != store.size()) {
    return Status::InvalidArgument(
        "snapshot decode: r-tree indexes " + std::to_string(object_count) +
        " objects but the store holds " + std::to_string(store.size()));
  }

  std::vector<Node> nodes(node_count);
  // Per node: leaf depth below it (leaves are 1), uniform across children.
  std::vector<uint32_t> height(node_count, 0);
  std::vector<bool> object_seen(store.size(), false);
  uint64_t objects_in_leaves = 0;
  for (uint32_t i = 0; i < node_count; ++i) {
    Node& n = nodes[i];
    const uint8_t leaf_byte = in->GetU8();
    const uint32_t entry_count = in->GetVarU32();
    if (!in->ok()) return ReaderStatus(*in);
    if (leaf_byte > 1) {
      return Status::InvalidArgument("snapshot decode: bad r-tree leaf flag");
    }
    n.is_leaf = leaf_byte == 1;
    if (entry_count > options.max_entries ||
        (!n.is_leaf && entry_count == 0) ||
        (entry_count == 0 && node_count != 1)) {
      return Status::InvalidArgument(
          "snapshot decode: r-tree node entry count out of range");
    }
    // max_entries itself comes from the file, so bound the reserve against
    // the bytes actually present (each entry is at least one varint byte).
    if (!in->CheckCount(entry_count)) return ReaderStatus(*in);
    // Non-root underflow (Guttman invariant); the root (last node) is exempt.
    if (i != node_count - 1 && entry_count < options.min_entries) {
      return Status::InvalidArgument(
          "snapshot decode: underfull non-root r-tree node");
    }
    n.rect = Rect::Empty();
    n.entries.reserve(entry_count);
    if (n.is_leaf) height[i] = 1;
    for (uint32_t e = 0; e < entry_count; ++e) {
      const uint32_t id = in->GetVarU32();
      if (!in->ok()) return ReaderStatus(*in);
      Entry entry;
      entry.id = id;
      if (n.is_leaf) {
        if (id >= store.size() || object_seen[id]) {
          return Status::InvalidArgument(
              "snapshot decode: r-tree leaf references object " +
              std::to_string(id) + " (out of range or duplicated)");
        }
        object_seen[id] = true;
        ++objects_in_leaves;
        entry.rect = Rect::FromPoint(store.Get(id).loc);
      } else {
        // Children are written before parents, so a valid child index is
        // strictly below i and not yet claimed by another parent.
        if (id >= i || nodes[id].parent != kNoNode) {
          return Status::InvalidArgument(
              "snapshot decode: r-tree child link " + std::to_string(id) +
              " breaks the children-before-parents order");
        }
        if (e == 0) {
          height[i] = height[id] + 1;
        } else if (height[id] + 1 != height[i]) {
          return Status::InvalidArgument(
              "snapshot decode: r-tree leaves at uneven depths under node " +
              std::to_string(i));
        }
        nodes[id].parent = i;
        entry.rect = nodes[id].rect;
      }
      n.rect.Extend(entry.rect);
      n.entries.push_back(std::move(entry));
    }
  }
  if (!in->AtEnd()) {
    return Status::InvalidArgument(
        "snapshot decode: r-tree section has trailing bytes");
  }
  if (objects_in_leaves != object_count) {
    return Status::InvalidArgument(
        "snapshot decode: r-tree leaf entries (" +
        std::to_string(objects_in_leaves) + ") disagree with object_count (" +
        std::to_string(object_count) + ")");
  }
  // Every node except the root must have been claimed as someone's child.
  for (uint32_t i = 0; i + 1 < node_count; ++i) {
    if (nodes[i].parent == kNoNode) {
      return Status::InvalidArgument(
          "snapshot decode: orphaned r-tree node " + std::to_string(i));
    }
  }
  tree->AdoptArena(std::move(nodes), root_index,
                   static_cast<size_t>(object_count), options);
  return Status::OK();
}

// --- Shard manifest ----------------------------------------------------------
// Payload: varu64 object_count (leading count for inspect-snapshot)
//        | varu32 shard_index | varu32 shard_count
//        | u8 has_bounds [ | f64 min_x | f64 min_y | f64 max_x | f64 max_y ]
//        | delta-ids global_ids | string router.

void SaveShardManifest(const ShardManifest& manifest, BufWriter* out) {
  out->PutVarU64(manifest.global_ids.size());
  out->PutVarU32(manifest.shard_index);
  out->PutVarU32(manifest.shard_count);
  out->PutU8(manifest.global_bounds.empty() ? 0 : 1);
  if (!manifest.global_bounds.empty()) {
    out->PutF64(manifest.global_bounds.min_x);
    out->PutF64(manifest.global_bounds.min_y);
    out->PutF64(manifest.global_bounds.max_x);
    out->PutF64(manifest.global_bounds.max_y);
  }
  out->PutDeltaIds(manifest.global_ids);
  out->PutString(manifest.router);
}

Result<ShardManifest> LoadShardManifest(BufReader* in) {
  ShardManifest m;
  const uint64_t count = in->GetVarU64();
  m.shard_index = in->GetVarU32();
  m.shard_count = in->GetVarU32();
  const uint8_t has_bounds = in->GetU8();
  if (!in->ok()) return ReaderStatus(*in);
  if (has_bounds > 1) {
    return Status::InvalidArgument("snapshot decode: bad bounds flag");
  }
  if (has_bounds == 1) {
    const double min_x = in->GetF64();
    const double min_y = in->GetF64();
    const double max_x = in->GetF64();
    const double max_y = in->GetF64();
    if (!in->ok()) return ReaderStatus(*in);
    if (!std::isfinite(min_x) || !std::isfinite(min_y) ||
        !std::isfinite(max_x) || !std::isfinite(max_y) || min_x > max_x ||
        min_y > max_y) {
      return Status::InvalidArgument(
          "snapshot decode: non-finite or inverted shard bounds");
    }
    m.global_bounds = Rect{min_x, min_y, max_x, max_y};
  }
  m.global_ids = in->GetDeltaIds();
  m.router = in->GetString();
  if (!in->ok()) return ReaderStatus(*in);
  if (m.shard_count == 0 || m.shard_index >= m.shard_count) {
    return Status::InvalidArgument(
        "snapshot decode: shard index " + std::to_string(m.shard_index) +
        " outside shard count " + std::to_string(m.shard_count));
  }
  if (m.global_ids.size() != count) {
    return Status::InvalidArgument(
        "snapshot decode: shard manifest id count disagrees with header");
  }
  return m;
}

// --- Bundle ------------------------------------------------------------------

Result<uint64_t> WriteSnapshot(const std::string& path,
                               const ObjectStore& store, const RTree* rtree,
                               const ShardManifest* shard) {
  SnapshotWriter writer;
  SaveVocabulary(store.vocab(), writer.AddSection(SectionId::kVocabulary));
  SaveObjectStore(store, writer.AddSection(SectionId::kObjectStore));
  if (rtree != nullptr) {
    SaveRTree(*rtree, writer.AddSection(SectionId::kRTree));
  }
  if (shard != nullptr) {
    SaveShardManifest(*shard, writer.AddSection(SectionId::kShardManifest));
  }
  uint64_t bytes = 0;
  if (Status s = writer.WriteTo(path, &bytes); !s.ok()) return s;
  return bytes;
}

Result<SnapshotBundle> LoadSnapshot(const std::string& path) {
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  if (!reader.ok()) return reader.status();

  // Vocabulary first: the restored store shares this exact instance, so no
  // token is re-interned and saved term ids stay valid verbatim.
  auto vocab = std::make_shared<Vocabulary>();
  {
    Result<BufReader> section = reader->OpenSection(SectionId::kVocabulary);
    if (!section.ok()) return section.status();
    if (Status s = LoadVocabulary(&section.value(), vocab.get()); !s.ok()) {
      return s;
    }
  }

  SnapshotBundle bundle;
  bundle.store = std::make_unique<ObjectStore>(vocab);
  {
    Result<BufReader> section = reader->OpenSection(SectionId::kObjectStore);
    if (!section.ok()) return section.status();
    if (Status s = LoadObjectStore(&section.value(), bundle.store.get());
        !s.ok()) {
      return s;
    }
  }

  // The R-tree is the one index section read. Retired sections (3, 4 and 5;
  // see SectionId) are skipped unread.
  if (reader->Has(SectionId::kRTree)) {
    bundle.rtree = std::make_unique<RTree>(bundle.store.get());
    Result<BufReader> section = reader->OpenSection(SectionId::kRTree);
    if (!section.ok()) return section.status();
    if (Status s = LoadRTree(&section.value(), bundle.rtree.get()); !s.ok()) {
      return s;
    }
  }

  if (reader->Has(SectionId::kShardManifest)) {
    Result<BufReader> section = reader->OpenSection(SectionId::kShardManifest);
    if (!section.ok()) return section.status();
    Result<ShardManifest> manifest = LoadShardManifest(&section.value());
    if (!manifest.ok()) return manifest.status();
    if (manifest->global_ids.size() != bundle.store->size()) {
      return Status::InvalidArgument(
          "snapshot decode: shard manifest maps " +
          std::to_string(manifest->global_ids.size()) +
          " objects but the store holds " +
          std::to_string(bundle.store->size()));
    }
    bundle.shard = std::make_unique<ShardManifest>(std::move(manifest).value());
  }
  return bundle;
}

// --- Inspection --------------------------------------------------------------

Result<SnapshotReport> InspectSnapshot(const std::string& path) {
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  if (!reader.ok()) return reader.status();

  SnapshotReport report;
  report.format_version = reader->format_version();
  report.file_size = reader->file_size();
  for (const SnapshotSectionInfo& info : reader->sections()) {
    SnapshotSectionReport row;
    row.id = info.id;
    row.name = SectionIdToString(info.id);
    row.size = info.size;
    row.crc32 = info.crc32;
    // Every section payload leads with its element count (words, objects,
    // terms, nodes) — surface it without decoding the rest.
    Result<BufReader> section = reader->OpenSection(info.id);
    if (section.ok()) {
      const uint64_t count = section->GetVarU64();
      if (section->ok()) row.item_count = static_cast<int64_t>(count);
    }
    report.sections.push_back(std::move(row));
  }

  // The shard manifest is a few hundred bytes; decode it in full so the
  // inspection reports the shard layout (index/count, router, global ids)
  // instead of skipping past it. A corrupt manifest stays nullopt — the
  // section row above already flags the damaged payload.
  if (reader->Has(SectionId::kShardManifest)) {
    Result<BufReader> section = reader->OpenSection(SectionId::kShardManifest);
    if (section.ok()) {
      Result<ShardManifest> manifest = LoadShardManifest(&section.value());
      if (manifest.ok()) report.shard = std::move(manifest).value();
    }
  }
  return report;
}

}  // namespace yask
