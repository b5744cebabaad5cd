// PageRef + PageStore unit tests: the zero-copy data plane's foundations.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/page_data.h"
#include "src/base/page_ref.h"
#include "src/base/page_store.h"

namespace accent {
namespace {

TEST(PageRefTest, DefaultIsInternedZeroPage) {
  ResetPageCounters();
  PageRef zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_TRUE(IsZeroPage(zero));
  EXPECT_EQ(zero.use_count(), 0);
  EXPECT_EQ(PageByteAt(zero, 0), 0);
  EXPECT_EQ(PageByteAt(zero, kPageSize - 1), 0);

  // Copying zero pages allocates nothing and counts nothing.
  PageRef other = zero;
  const PageCounterSnapshot counters = ReadPageCounters();
  EXPECT_EQ(counters.payload_allocs, 0u);
  EXPECT_EQ(counters.page_bytes_copied, 0u);
  EXPECT_EQ(counters.payload_shares, 0u);
}

TEST(PageRefTest, ZeroWriteToZeroPageStaysInterned) {
  PageRef zero;
  zero.WriteByte(17, 0);
  EXPECT_TRUE(zero.IsZero());  // still no payload
  zero.WriteByte(17, 5);
  EXPECT_FALSE(zero.IsZero());
  EXPECT_EQ(zero.ByteAt(17), 5);
  EXPECT_EQ(zero.ByteAt(16), 0);
}

TEST(PageRefTest, ChecksumParityWithPageData) {
  const PageData pattern = MakePatternPage(7);
  const PageRef ref(pattern);
  EXPECT_EQ(PageIntegrityChecksum(ref), PageIntegrityChecksum(pattern));
  // Zero page hashes identically to an empty PageData (kPageSize zeros).
  EXPECT_EQ(PageIntegrityChecksum(PageRef{}), PageIntegrityChecksum(PageData{}));
}

TEST(PageRefTest, EqualityMatchesPageDataSemantics) {
  const PageRef a(MakePatternPage(3));
  const PageRef b(MakePatternPage(3));
  const PageRef c(MakePatternPage(4));
  EXPECT_EQ(a, b);  // distinct payloads, same bytes
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a, MakePatternPage(3));
  EXPECT_EQ(MakePatternPage(3), a);  // C++20 reversed candidate
  // Old convention: an empty page is not equal to a materialised zero page.
  PageRef materialised(PageData(kPageSize, 0));
  EXPECT_FALSE(PageRef{} == materialised);
}

TEST(PageRefTest, CopySharesPayloadWithoutCopyingBytes) {
  ResetPageCounters();
  PageRef a(MakePatternPage(1));
  EXPECT_EQ(ReadPageCounters().payload_allocs, 1u);
  PageRef b = a;
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.use_count(), 2);
  const PageCounterSnapshot counters = ReadPageCounters();
  EXPECT_EQ(counters.payload_allocs, 1u);  // no second allocation
  EXPECT_EQ(counters.page_bytes_copied, 0u);
  EXPECT_EQ(counters.payload_shares, 1u);
}

TEST(PageRefTest, CowWriteIsolatesSharers) {
  ResetPageCounters();
  PageRef a(MakePatternPage(2));
  PageRef b = a;
  const std::uint8_t original = a.ByteAt(100);
  b.WriteByte(100, static_cast<std::uint8_t>(original + 1));
  EXPECT_EQ(a.ByteAt(100), original) << "writer must not be visible to sharers";
  EXPECT_EQ(b.ByteAt(100), static_cast<std::uint8_t>(original + 1));
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 1);
  const PageCounterSnapshot counters = ReadPageCounters();
  EXPECT_EQ(counters.cow_breaks, 1u);
  EXPECT_EQ(counters.page_bytes_copied, kPageSize);
}

TEST(PageRefTest, ExclusiveWriteDoesNotClone) {
  ResetPageCounters();
  PageRef a(MakePatternPage(5));
  a.WriteByte(0, 42);
  const PageCounterSnapshot counters = ReadPageCounters();
  EXPECT_EQ(counters.cow_breaks, 0u);
  EXPECT_EQ(counters.page_bytes_copied, 0u);
}

TEST(PageStoreTest, StoreFindEraseRoundTrip) {
  PageStore store;
  EXPECT_TRUE(store.empty());
  store.Store(10, PageRef(MakePatternPage(10)));
  store.Store(11, PageRef(MakePatternPage(11)));
  store.Store(12, PageRef(MakePatternPage(12)));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.run_count(), 1u) << "contiguous pages coalesce into one run";
  ASSERT_NE(store.Find(11), nullptr);
  EXPECT_EQ(*store.Find(11), MakePatternPage(11));
  EXPECT_EQ(store.Find(9), nullptr);
  EXPECT_EQ(store.Find(13), nullptr);
  store.Erase(11);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.run_count(), 2u) << "interior erase splits the run";
  EXPECT_EQ(store.Find(11), nullptr);
  EXPECT_NE(store.Find(10), nullptr);
  EXPECT_NE(store.Find(12), nullptr);
}

TEST(PageStoreTest, BridgingStoreMergesRuns) {
  PageStore store;
  store.Store(5, PageRef(MakePatternPage(5)));
  store.Store(7, PageRef(MakePatternPage(7)));
  EXPECT_EQ(store.run_count(), 2u);
  store.Store(6, PageRef(MakePatternPage(6)));
  EXPECT_EQ(store.run_count(), 1u);
  EXPECT_EQ(store.size(), 3u);
  for (PageIndex p = 5; p <= 7; ++p) {
    ASSERT_NE(store.Find(p), nullptr) << p;
    EXPECT_EQ(*store.Find(p), MakePatternPage(p));
  }
}

TEST(PageStoreTest, PrependAndReplace) {
  PageStore store;
  store.Store(20, PageRef(MakePatternPage(20)));
  store.Store(19, PageRef(MakePatternPage(19)));  // prepend to run
  EXPECT_EQ(store.run_count(), 1u);
  store.Store(20, PageRef(MakePatternPage(99)));  // replace in place
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(*store.Find(20), MakePatternPage(99));
  EXPECT_EQ(*store.Find(19), MakePatternPage(19));
}

TEST(PageStoreTest, ZeroRefsArePresentEntries) {
  PageStore store;
  store.Store(3, PageRef{});
  EXPECT_TRUE(store.Contains(3));
  EXPECT_TRUE(store.Find(3)->IsZero());
  EXPECT_EQ(store.size(), 1u);
}

TEST(PageStoreTest, EraseRangeCarvesHoles) {
  PageStore store;
  for (PageIndex p = 0; p < 10; ++p) {
    store.Store(p, PageRef(MakePatternPage(p)));
  }
  store.EraseRange(3, 7);
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(store.run_count(), 2u);
  for (PageIndex p = 0; p < 10; ++p) {
    EXPECT_EQ(store.Contains(p), p < 3 || p >= 7) << p;
  }
  // Range spanning several runs, ends beyond the data.
  store.EraseRange(0, 100);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.run_count(), 0u);
}

TEST(PageStoreTest, EraseRangeTrimsEdges) {
  PageStore store;
  for (PageIndex p = 10; p < 20; ++p) {
    store.Store(p, PageRef(MakePatternPage(p)));
  }
  store.EraseRange(5, 12);  // overlaps the front only
  EXPECT_EQ(store.size(), 8u);
  EXPECT_FALSE(store.Contains(11));
  EXPECT_TRUE(store.Contains(12));
  store.EraseRange(18, 25);  // overlaps the back only
  EXPECT_EQ(store.size(), 6u);
  EXPECT_TRUE(store.Contains(17));
  EXPECT_FALSE(store.Contains(18));
  EXPECT_EQ(store.run_count(), 1u);
}

TEST(PageStoreTest, ForEachVisitsAscending) {
  PageStore store;
  store.Store(50, PageRef(MakePatternPage(50)));
  store.Store(2, PageRef(MakePatternPage(2)));
  store.Store(51, PageRef(MakePatternPage(51)));
  std::vector<PageIndex> seen;
  store.ForEach([&](PageIndex page, const PageRef& ref) {
    seen.push_back(page);
    EXPECT_EQ(ref, MakePatternPage(page));
  });
  EXPECT_EQ(seen, (std::vector<PageIndex>{2, 50, 51}));
}

TEST(PageStoreTest, SharedPayloadAcrossStores) {
  // The same payload stored in two stores (source segment + message +
  // destination space in real life) is one allocation with three holders.
  ResetPageCounters();
  PageRef page(MakePatternPage(1));
  PageStore a;
  PageStore b;
  a.Store(0, page);
  b.Store(9, page);
  EXPECT_EQ(page.use_count(), 3);
  EXPECT_EQ(ReadPageCounters().payload_allocs, 1u);
}

}  // namespace
}  // namespace accent
