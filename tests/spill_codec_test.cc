// The main queue's spill record format (queue/spill_codec.h and its
// PairEntry specialization in core/pair_entry.h): what each pair kind
// keeps through a round trip, how many bytes it takes, and how many spill
// pages a pile of them fills.

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/hs_join.h"
#include "core/pair_entry.h"
#include "queue/segment_file.h"
#include "queue/spill_codec.h"
#include "storage/disk_manager.h"

namespace amdj::core {
namespace {

using Codec = queue::SpillCodec<PairEntry>;

PairRef Ref(RefKind kind, uint32_t id, double x, uint8_t level = 0) {
  PairRef ref;
  ref.rect = geom::Rect(x, x + 1, x + 2, x + 3);
  ref.id = id;
  ref.kind = kind;
  ref.level = level;
  return ref;
}

PairEntry ObjectPair(uint32_t r_id, uint32_t s_id, double key) {
  PairEntry e = MakePair(Ref(RefKind::kObject, r_id, 1.0),
                         Ref(RefKind::kObject, s_id, 7.0));
  e.key = geom::KeyVal(key);
  return e;
}

PairEntry RoundTrip(const PairEntry& e, size_t* encoded_size) {
  char bytes[Codec::kMaxSize];
  *encoded_size = Codec::Encode(e, bytes);
  PairEntry back;
  EXPECT_EQ(Codec::Decode(bytes, &back), *encoded_size);
  return back;
}

TEST(SpillCodecTest, ObjectPairKeepsKeyIdsAndKinds) {
  const PairEntry e = ObjectPair(123456, 654321, 42.5);
  size_t size = 0;
  const PairEntry back = RoundTrip(e, &size);
  EXPECT_EQ(size, 17u);
  EXPECT_EQ(back.key, e.key);
  EXPECT_EQ(back.r.id, 123456u);
  EXPECT_EQ(back.s.id, 654321u);
  EXPECT_TRUE(back.IsObjectPair());
  EXPECT_EQ(back.r.level, 0);
  EXPECT_EQ(back.s.level, 0);
  EXPECT_FALSE(back.WasExpanded());
  EXPECT_EQ(back.prior_axis, -1);
  EXPECT_EQ(back.prior_dir, 0);
  // The MBRs are the one thing the short form drops.
  EXPECT_EQ(back.r.rect.lo.x, 0.0);
  EXPECT_EQ(back.s.rect.hi.y, 0.0);
  // The comparator cannot tell the decoded pair from the original.
  const PairEntryCompare cmp;
  EXPECT_FALSE(cmp(back, e));
  EXPECT_FALSE(cmp(e, back));
}

TEST(SpillCodecTest, ObjectPairWithPriorStateKeepsFullForm) {
  PairEntry cutoff = ObjectPair(1, 2, 3.0);
  cutoff.prior_cutoff = geom::KeyVal(9.0);
  PairEntry axis = ObjectPair(1, 2, 3.0);
  axis.prior_axis = 1;
  PairEntry dir = ObjectPair(1, 2, 3.0);
  dir.prior_dir = 1;
  for (const PairEntry& e : {cutoff, axis, dir}) {
    size_t size = 0;
    const PairEntry back = RoundTrip(e, &size);
    EXPECT_EQ(size, 1 + sizeof(PairEntry));
    EXPECT_EQ(std::memcmp(&back, &e, sizeof(e)), 0);
  }
}

TEST(SpillCodecTest, NodeAndMixedPairsRoundTripByteIdentical) {
  PairEntry node = MakePair(Ref(RefKind::kNode, 10, 0.0, 2),
                            Ref(RefKind::kNode, 20, 5.0, 1));
  node.prior_cutoff = geom::KeyVal(4.0);
  node.prior_axis = 0;
  node.prior_dir = 1;
  const PairEntry node_object = MakePair(Ref(RefKind::kNode, 11, 0.0, 1),
                                         Ref(RefKind::kObject, 21, 3.0));
  const PairEntry object_node = MakePair(Ref(RefKind::kObject, 12, 0.0),
                                         Ref(RefKind::kNode, 22, 3.0, 3));
  for (const PairEntry& e : {node, node_object, object_node}) {
    size_t size = 0;
    const PairEntry back = RoundTrip(e, &size);
    EXPECT_EQ(size, 1 + sizeof(PairEntry));
    EXPECT_EQ(std::memcmp(&back, &e, sizeof(e)), 0);
  }
}

TEST(SpillCodecTest, DefaultCodecCopiesTheEntryVerbatim) {
  struct Item {
    geom::KeyVal key{0.0};
    uint64_t tag = 0;
  };
  const Item item{geom::KeyVal(2.5), 77};
  char bytes[queue::SpillCodec<Item>::kMaxSize];
  EXPECT_EQ(queue::SpillCodec<Item>::Encode(item, bytes), sizeof(Item));
  EXPECT_EQ(std::memcmp(bytes, &item, sizeof(Item)), 0);
  Item back;
  EXPECT_EQ(queue::SpillCodec<Item>::Decode(bytes, &back), sizeof(Item));
  EXPECT_EQ(back.key, item.key);
  EXPECT_EQ(back.tag, 77u);
}

// 1,000 short records are 17,000 bytes: four full pages and a 616-byte
// tail. Verbatim 104-byte records (39 to a page) filled 25 pages.
TEST(SpillCodecTest, ThousandObjectPairsFillFourPages) {
  storage::InMemoryDiskManager disk;
  JoinStats stats;
  queue::SegmentFile seg(&disk, &stats);
  std::vector<char> bytes;
  char record[Codec::kMaxSize];
  for (uint32_t i = 0; i < 1000; ++i) {
    const size_t n = Codec::Encode(ObjectPair(i, 1000 + i, i * 0.5), record);
    bytes.insert(bytes.end(), record, record + n);
  }
  ASSERT_EQ(bytes.size(), 17000u);
  ASSERT_TRUE(seg.Append(bytes.data(), bytes.size(), 1000).ok());
  EXPECT_EQ(stats.queue_page_writes, 4u);
  EXPECT_EQ(seg.pages().size(), 4u);
  EXPECT_EQ(seg.buffered_bytes(), 17000u - 4 * storage::kPageSize);

  std::vector<char> read;
  ASSERT_TRUE(seg.ReadAll(&read).ok());
  ASSERT_EQ(read, bytes);
  const char* in = read.data();
  for (uint32_t i = 0; i < 1000; ++i) {
    PairEntry e;
    in += Codec::Decode(in, &e);
    ASSERT_EQ(e.r.id, i);
    ASSERT_EQ(e.s.id, 1000 + i);
    ASSERT_EQ(e.key, geom::KeyVal(i * 0.5));
  }
}

// A spilling main queue holding short and full records side by side pops
// every pair in comparator order with its ids, kinds and prior state.
TEST(SpillCodecTest, MixedPilesSwapInInComparatorOrder) {
  storage::InMemoryDiskManager disk;
  MainQueue::Options options;
  options.memory_bytes = 2 * 1024;
  options.disk = &disk;
  JoinStats stats;
  MainQueue q(options, &stats);
  std::vector<PairEntry> pushed;
  for (uint32_t i = 0; i < 3000; ++i) {
    const double key = static_cast<double>((i * 7919) % 1000);
    PairEntry e;
    switch (i % 3) {
      case 0:
        e = ObjectPair(i, i + 1, key);
        break;
      case 1:
        e = MakePair(Ref(RefKind::kNode, i, 0.0, 1),
                     Ref(RefKind::kObject, i + 1, 2.0));
        e.key = geom::KeyVal(key);
        break;
      default:
        e = MakePair(Ref(RefKind::kNode, i, 0.0, 2),
                     Ref(RefKind::kNode, i + 1, 2.0, 2));
        e.key = geom::KeyVal(key);
        e.prior_cutoff = geom::KeyVal(key / 2);
        e.prior_axis = 1;
        break;
    }
    ASSERT_TRUE(q.Push(e).ok());
    pushed.push_back(e);
  }
  EXPECT_GT(stats.queue_page_writes, 0u);
  std::sort(pushed.begin(), pushed.end(), PairEntryCompare());
  for (const PairEntry& want : pushed) {
    PairEntry got;
    ASSERT_TRUE(q.Pop(&got).ok());
    ASSERT_EQ(got.key, want.key);
    ASSERT_EQ(got.r.id, want.r.id);
    ASSERT_EQ(got.s.id, want.s.id);
    ASSERT_EQ(got.r.kind, want.r.kind);
    ASSERT_EQ(got.s.kind, want.s.kind);
    ASSERT_EQ(got.prior_cutoff, want.prior_cutoff);
    ASSERT_EQ(got.prior_axis, want.prior_axis);
    if (!want.IsObjectPair()) {
      ASSERT_EQ(got.r.rect, want.r.rect);
      ASSERT_EQ(got.s.rect, want.s.rect);
      ASSERT_EQ(got.r.level, want.r.level);
      ASSERT_EQ(got.s.level, want.s.level);
    }
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_GT(stats.queue_page_reads, 0u);
}

}  // namespace
}  // namespace amdj::core
