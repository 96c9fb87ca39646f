#include <cstdio>
#include <gtest/gtest.h>

#include "odb/buffer_pool.h"
#include "odb/catalog.h"
#include "odb/heap_file.h"
#include "odb/pager.h"
#include "odb/slotted_page.h"

namespace ode::odb {
namespace {

std::string TempPath(const std::string& tag) {
  return testing::TempDir() + "/odeview_" + tag + "_" +
         std::to_string(::testing::UnitTest::GetInstance()
                             ->random_seed()) +
         std::to_string(reinterpret_cast<uintptr_t>(&tag) % 100000) + ".db";
}

// --- Pager ---------------------------------------------------------------

template <typename T>
std::unique_ptr<Pager> MakePager(const std::string& path);

template <>
std::unique_ptr<Pager> MakePager<MemPager>(const std::string&) {
  return std::make_unique<MemPager>();
}

template <>
std::unique_ptr<Pager> MakePager<FilePager>(const std::string& path) {
  return std::move(*FilePager::Open(path, /*create=*/true));
}

template <typename T>
class PagerTest : public ::testing::Test {
 protected:
  PagerTest() : path_(TempPath("pager")), pager_(MakePager<T>(path_)) {}
  ~PagerTest() override { std::remove(path_.c_str()); }

  std::string path_;
  std::unique_ptr<Pager> pager_;
};

using PagerTypes = ::testing::Types<MemPager, FilePager>;
TYPED_TEST_SUITE(PagerTest, PagerTypes);

TYPED_TEST(PagerTest, AllocateGrowsAndZeroes) {
  EXPECT_EQ(this->pager_->page_count(), 0u);
  PageId id = *this->pager_->Allocate();
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(this->pager_->page_count(), 1u);
  Page page;
  ASSERT_TRUE(this->pager_->Read(id, &page).ok());
  for (char c : page.data) EXPECT_EQ(c, 0);
}

TYPED_TEST(PagerTest, WriteReadRoundTrip) {
  PageId id = *this->pager_->Allocate();
  Page page;
  page.Zero();
  page.bytes()[0] = 'x';
  page.bytes()[kPageSize - 1] = 'y';
  ASSERT_TRUE(this->pager_->Write(id, page).ok());
  Page read;
  ASSERT_TRUE(this->pager_->Read(id, &read).ok());
  EXPECT_EQ(read.bytes()[0], 'x');
  EXPECT_EQ(read.bytes()[kPageSize - 1], 'y');
}

TYPED_TEST(PagerTest, OutOfRangeRejected) {
  Page page;
  EXPECT_FALSE(this->pager_->Read(0, &page).ok());
  EXPECT_FALSE(this->pager_->Read(42, &page).ok());
}

TYPED_TEST(PagerTest, ManyPagesKeepIdentity) {
  constexpr int kPages = 50;
  for (int i = 0; i < kPages; ++i) {
    PageId id = *this->pager_->Allocate();
    Page page;
    page.Zero();
    page.bytes()[7] = static_cast<char>(i);
    ASSERT_TRUE(this->pager_->Write(id, page).ok());
  }
  for (int i = 0; i < kPages; ++i) {
    Page page;
    ASSERT_TRUE(this->pager_->Read(static_cast<PageId>(i), &page).ok());
    EXPECT_EQ(page.bytes()[7], static_cast<char>(i));
  }
}

TEST(FilePagerTest, ReopenKeepsPages) {
  std::string path = TempPath("reopen");
  {
    auto pager = std::move(*FilePager::Open(path, /*create=*/true));
    PageId id = *pager->Allocate();
    Page page;
    page.Zero();
    page.bytes()[100] = 'z';
    ASSERT_TRUE(pager->Write(id, page).ok());
    ASSERT_TRUE(pager->Sync().ok());
  }
  auto reopened = FilePager::Open(path, /*create=*/false);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_count(), 1u);
  Page page;
  ASSERT_TRUE((*reopened)->Read(0, &page).ok());
  EXPECT_EQ(page.bytes()[100], 'z');
  std::remove(path.c_str());
}

TEST(FilePagerTest, MissingFileRejected) {
  EXPECT_FALSE(FilePager::Open("/nonexistent/dir/x.db", false).ok());
}

// --- Buffer pool -----------------------------------------------------------

TEST(BufferPoolTest, FetchCachesPages) {
  MemPager pager;
  BufferPool pool(&pager, 4);
  PageId id = *pager.Allocate();
  {
    Result<PageHandle> handle = pool.Fetch(id);
    ASSERT_TRUE(handle.ok());
    handle->page()->bytes()[0] = 'a';
    handle->MarkDirty();
  }
  {
    Result<PageHandle> handle = pool.Fetch(id);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle->page()->bytes()[0], 'a');
  }
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  MemPager pager;
  BufferPool pool(&pager, 2);
  PageId a = *pager.Allocate();
  PageId b = *pager.Allocate();
  PageId c = *pager.Allocate();
  {
    PageHandle handle = *pool.Fetch(a);
    handle.page()->bytes()[1] = 'q';
    handle.MarkDirty();
  }
  (void)*pool.Fetch(b);
  (void)*pool.Fetch(c);  // evicts a
  Page raw;
  ASSERT_TRUE(pager.Read(a, &raw).ok());
  EXPECT_EQ(raw.bytes()[1], 'q');
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_GE(pool.stats().writebacks, 1u);
}

TEST(BufferPoolTest, PinnedPagesNotEvicted) {
  MemPager pager;
  BufferPool pool(&pager, 2);
  PageId a = *pager.Allocate();
  PageId b = *pager.Allocate();
  PageId c = *pager.Allocate();
  PageHandle ha = *pool.Fetch(a);
  PageHandle hb = *pool.Fetch(b);
  // Both frames pinned: a third fetch must fail, not evict.
  Result<PageHandle> hc = pool.Fetch(c);
  EXPECT_FALSE(hc.ok());
  EXPECT_EQ(hc.status().code(), StatusCode::kFailedPrecondition);
  hb.Release();
  Result<PageHandle> hc2 = pool.Fetch(c);
  EXPECT_TRUE(hc2.ok());
}

TEST(BufferPoolTest, LruEvictsColdestFirst) {
  MemPager pager;
  BufferPool pool(&pager, 2);
  PageId a = *pager.Allocate();
  PageId b = *pager.Allocate();
  PageId c = *pager.Allocate();
  (void)*pool.Fetch(a);
  (void)*pool.Fetch(b);
  (void)*pool.Fetch(a);  // a is now hot
  (void)*pool.Fetch(c);  // must evict b
  uint64_t misses = pool.stats().misses;
  (void)*pool.Fetch(a);  // still cached
  EXPECT_EQ(pool.stats().misses, misses);
  (void)*pool.Fetch(b);  // was evicted
  EXPECT_EQ(pool.stats().misses, misses + 1);
}

TEST(BufferPoolTest, NewPageIsZeroedAndDirty) {
  MemPager pager;
  BufferPool pool(&pager, 2);
  {
    PageHandle handle = *pool.NewPage();
    EXPECT_EQ(handle.id(), 0u);
    for (char cbyte : handle.page()->data) EXPECT_EQ(cbyte, 0);
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pager.page_count(), 1u);
}

TEST(BufferPoolTest, MoveTransfersPin) {
  MemPager pager;
  BufferPool pool(&pager, 1);
  PageId a = *pager.Allocate();
  PageHandle h1 = *pool.Fetch(a);
  PageHandle h2 = std::move(h1);
  EXPECT_FALSE(h1.valid());
  EXPECT_TRUE(h2.valid());
  h2.Release();
  // The pin is gone: a different page can now occupy the single frame.
  PageId b = *pager.Allocate();
  EXPECT_TRUE(pool.Fetch(b).ok());
}

// --- Slotted page ------------------------------------------------------------

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : sp_(&page_) { sp_.Init(); }
  Page page_;
  SlottedPage sp_;
};

TEST_F(SlottedPageTest, InitEmpty) {
  EXPECT_EQ(sp_.slot_count(), 0);
  EXPECT_EQ(sp_.live_count(), 0);
  EXPECT_EQ(sp_.next_page(), kNoPage);
  EXPECT_GT(sp_.FreeSpace(), kPageSize - 32);
}

TEST_F(SlottedPageTest, InsertAndGet) {
  uint16_t slot = *sp_.Insert("hello");
  EXPECT_EQ(*sp_.Get(slot), "hello");
  EXPECT_EQ(sp_.live_count(), 1);
}

TEST_F(SlottedPageTest, MultipleRecordsKeepIdentity) {
  std::vector<uint16_t> slots;
  for (int i = 0; i < 20; ++i) {
    slots.push_back(*sp_.Insert("record-" + std::to_string(i)));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*sp_.Get(slots[static_cast<size_t>(i)]),
              "record-" + std::to_string(i));
  }
}

TEST_F(SlottedPageTest, DeleteTombstones) {
  uint16_t a = *sp_.Insert("aaa");
  uint16_t b = *sp_.Insert("bbb");
  ASSERT_TRUE(sp_.Delete(a).ok());
  EXPECT_TRUE(sp_.Get(a).status().IsNotFound());
  EXPECT_EQ(*sp_.Get(b), "bbb");
  EXPECT_EQ(sp_.live_count(), 1);
  EXPECT_TRUE(sp_.Delete(a).IsNotFound());  // double delete
  EXPECT_TRUE(sp_.Delete(99).IsNotFound());
}

TEST_F(SlottedPageTest, TombstoneSlotReused) {
  uint16_t a = *sp_.Insert("aaa");
  (void)*sp_.Insert("bbb");
  ASSERT_TRUE(sp_.Delete(a).ok());
  uint16_t c = *sp_.Insert("ccc");
  EXPECT_EQ(c, a);  // the tombstone slot is recycled
  EXPECT_EQ(sp_.slot_count(), 2);
}

TEST_F(SlottedPageTest, UpdateInPlaceAndShrink) {
  uint16_t slot = *sp_.Insert("0123456789");
  ASSERT_TRUE(sp_.Update(slot, "abc").ok());
  EXPECT_EQ(*sp_.Get(slot), "abc");
}

TEST_F(SlottedPageTest, UpdateGrowWithinPage) {
  uint16_t slot = *sp_.Insert("short");
  ASSERT_TRUE(sp_.Update(slot, std::string(500, 'x')).ok());
  EXPECT_EQ(sp_.Get(slot)->size(), 500u);
}

TEST_F(SlottedPageTest, UpdateGrowBeyondPageFails) {
  // Fill the page almost completely.
  uint16_t slot = *sp_.Insert(std::string(1000, 'a'));
  (void)*sp_.Insert(std::string(2900, 'b'));
  Status grown = sp_.Update(slot, std::string(2000, 'c'));
  EXPECT_TRUE(grown.IsOutOfRange());
  // The original record must still be intact after the failed grow.
  EXPECT_EQ(sp_.Get(slot)->size(), 1000u);
}

TEST_F(SlottedPageTest, FullPageRejectsInsert) {
  int inserted = 0;
  while (sp_.Insert(std::string(100, 'x')).ok()) ++inserted;
  EXPECT_GT(inserted, 30);
  EXPECT_TRUE(sp_.Insert(std::string(100, 'y')).status().IsOutOfRange());
  // A smaller record may still fit.
  EXPECT_TRUE(sp_.Insert("tiny").ok());
}

TEST_F(SlottedPageTest, OversizeRecordRejected) {
  EXPECT_TRUE(sp_.Insert(std::string(kPageSize, 'x'))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SlottedPageTest, CompactionRecoversDeletedSpace) {
  std::vector<uint16_t> slots;
  while (true) {
    Result<uint16_t> slot = sp_.Insert(std::string(200, 'x'));
    if (!slot.ok()) break;
    slots.push_back(*slot);
  }
  // Delete every other record; a 350B insert needs compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(sp_.Delete(slots[i]).ok());
  }
  EXPECT_TRUE(sp_.Insert(std::string(350, 'y')).ok());
  // Survivors are intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(sp_.Get(slots[i])->size(), 200u);
  }
}

TEST_F(SlottedPageTest, NextPageChainField) {
  sp_.set_next_page(42);
  EXPECT_EQ(sp_.next_page(), 42u);
}

TEST_F(SlottedPageTest, EmptyRecordSupported) {
  uint16_t slot = *sp_.Insert("");
  EXPECT_EQ(sp_.Get(slot)->size(), 0u);
  EXPECT_EQ(sp_.live_count(), 1);
}

// --- Heap file ----------------------------------------------------------------

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(&pager_, 16), free_list_(&pool_, kNoPage) {}
  MemPager pager_;
  BufferPool pool_;
  FreeList free_list_;
};

TEST_F(HeapFileTest, InsertGetDelete) {
  HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
  ASSERT_TRUE(heap.Insert(1, "alpha").ok());
  ASSERT_TRUE(heap.Insert(2, "beta").ok());
  EXPECT_EQ(*heap.Get(1), "alpha");
  EXPECT_EQ(*heap.Get(2), "beta");
  EXPECT_EQ(heap.count(), 2u);
  ASSERT_TRUE(heap.Delete(1).ok());
  EXPECT_TRUE(heap.Get(1).status().IsNotFound());
  EXPECT_EQ(heap.count(), 1u);
}

TEST_F(HeapFileTest, DuplicateIdRejected) {
  HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
  ASSERT_TRUE(heap.Insert(7, "x").ok());
  EXPECT_EQ(heap.Insert(7, "y").code(), StatusCode::kAlreadyExists);
}

TEST_F(HeapFileTest, SpillsAcrossPages) {
  HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
  const std::string payload(600, 'p');
  for (uint64_t i = 1; i <= 40; ++i) {
    ASSERT_TRUE(heap.Insert(i, payload + std::to_string(i)).ok());
  }
  EXPECT_GT(*heap.PageCount(), 5u);
  for (uint64_t i = 1; i <= 40; ++i) {
    EXPECT_EQ(*heap.Get(i), payload + std::to_string(i));
  }
}

/// The ids of a batch read, in the order it returned them.
std::vector<uint64_t> SpanIds(const std::vector<HeapFile::RecordSpan>& spans) {
  std::vector<uint64_t> ids;
  for (const HeapFile::RecordSpan& span : spans) ids.push_back(span.local_id);
  return ids;
}

TEST_F(HeapFileTest, SequencingInIdOrder) {
  HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
  for (uint64_t id : {5, 1, 9, 3}) {
    ASSERT_TRUE(heap.Insert(id, "v" + std::to_string(id)).ok());
  }
  std::string arena;
  std::vector<HeapFile::RecordSpan> spans;
  // From either edge, the whole heap in id order, payloads in step.
  ASSERT_TRUE(heap.RecordsInto(0, /*forward=*/true, 10, &arena, &spans).ok());
  EXPECT_EQ(SpanIds(spans), (std::vector<uint64_t>{1, 3, 5, 9}));
  EXPECT_EQ(arena.substr(spans[1].offset, spans[1].length), "v3");
  ASSERT_TRUE(
      heap.RecordsInto(UINT64_MAX, /*forward=*/false, 10, &arena, &spans)
          .ok());
  EXPECT_EQ(SpanIds(spans), (std::vector<uint64_t>{9, 5, 3, 1}));
  EXPECT_EQ(arena.substr(spans[0].offset, spans[0].length), "v9");
  // One record at a time each way, strictly past `from`.
  ASSERT_TRUE(heap.RecordsInto(1, /*forward=*/true, 1, &arena, &spans).ok());
  EXPECT_EQ(SpanIds(spans), (std::vector<uint64_t>{3}));
  ASSERT_TRUE(heap.RecordsInto(3, /*forward=*/true, 1, &arena, &spans).ok());
  EXPECT_EQ(SpanIds(spans), (std::vector<uint64_t>{5}));
  ASSERT_TRUE(heap.RecordsInto(5, /*forward=*/false, 1, &arena, &spans).ok());
  EXPECT_EQ(SpanIds(spans), (std::vector<uint64_t>{3}));
  ASSERT_TRUE(heap.RecordsInto(4, /*forward=*/false, 2, &arena, &spans).ok());
  EXPECT_EQ(SpanIds(spans), (std::vector<uint64_t>{3, 1}));
  // Past either end.
  EXPECT_TRUE(
      heap.RecordsInto(9, /*forward=*/true, 10, &arena, &spans).IsOutOfRange());
  EXPECT_TRUE(heap.RecordsInto(1, /*forward=*/false, 10, &arena, &spans)
                  .IsOutOfRange());
  EXPECT_TRUE(spans.empty());
  EXPECT_EQ(*heap.LastId(), 9u);
  EXPECT_EQ(heap.AllIds(), (std::vector<uint64_t>{1, 3, 5, 9}));
}

TEST_F(HeapFileTest, EmptyHeapSequencing) {
  HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
  std::string arena;
  std::vector<HeapFile::RecordSpan> spans;
  EXPECT_TRUE(
      heap.RecordsInto(0, /*forward=*/true, 10, &arena, &spans).IsOutOfRange());
  EXPECT_TRUE(
      heap.RecordsInto(UINT64_MAX, /*forward=*/false, 10, &arena, &spans)
          .IsOutOfRange());
  EXPECT_TRUE(heap.LastId().status().IsNotFound());
}

TEST_F(HeapFileTest, UpdateInPlaceAndRelocation) {
  HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
  ASSERT_TRUE(heap.Insert(1, "small").ok());
  // Fill the first page so a grown record must relocate.
  for (uint64_t i = 2; i <= 8; ++i) {
    ASSERT_TRUE(heap.Insert(i, std::string(500, 'f')).ok());
  }
  ASSERT_TRUE(heap.Update(1, std::string(3000, 'G')).ok());
  EXPECT_EQ(heap.Get(1)->size(), 3000u);
  EXPECT_EQ(heap.count(), 8u);
  ASSERT_TRUE(heap.Update(1, "tiny-again").ok());
  EXPECT_EQ(*heap.Get(1), "tiny-again");
}

TEST_F(HeapFileTest, OpenRebuildsDirectory) {
  PageId first_page;
  {
    HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
    first_page = heap.first_page();
    for (uint64_t i = 1; i <= 30; ++i) {
      ASSERT_TRUE(heap.Insert(i, "payload" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(heap.Delete(15).ok());
  }
  Result<HeapFile> reopened = HeapFile::Open(&pool_, &free_list_, first_page);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->count(), 29u);
  EXPECT_EQ(*reopened->Get(7), "payload7");
  EXPECT_TRUE(reopened->Get(15).status().IsNotFound());
}

TEST_F(HeapFileTest, OversizeObjectSpillsToOverflow) {
  HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
  std::string big(3 * kPageSize + 500, 'x');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  ASSERT_TRUE(heap.Insert(1, big).ok());
  ASSERT_TRUE(heap.Insert(2, "small").ok());
  EXPECT_EQ(*heap.OverflowCount(), 1u);
  EXPECT_EQ(*heap.Get(1), big);
  EXPECT_EQ(*heap.Get(2), "small");
}

TEST_F(HeapFileTest, OverflowFreedOnDelete) {
  HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
  ASSERT_TRUE(heap.Insert(1, std::string(5 * kPageSize, 'q')).ok());
  uint32_t free_before = *free_list_.Size();
  ASSERT_TRUE(heap.Delete(1).ok());
  // The overflow chain (>= 5 pages) returns to the free list.
  EXPECT_GE(*free_list_.Size(), free_before + 5);
}

TEST_F(HeapFileTest, UpdateTransitionsBetweenInlineAndOverflow) {
  HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
  ASSERT_TRUE(heap.Insert(1, "tiny").ok());
  EXPECT_EQ(*heap.OverflowCount(), 0u);
  std::string big(2 * kPageSize, 'B');
  ASSERT_TRUE(heap.Update(1, big).ok());
  EXPECT_EQ(*heap.OverflowCount(), 1u);
  EXPECT_EQ(*heap.Get(1), big);
  ASSERT_TRUE(heap.Update(1, "tiny again").ok());
  EXPECT_EQ(*heap.OverflowCount(), 0u);
  EXPECT_EQ(*heap.Get(1), "tiny again");
  // The freed chain is reused by the next spill instead of growing
  // the file.
  uint32_t pages_before = pager_.page_count();
  ASSERT_TRUE(heap.Update(1, big).ok());
  EXPECT_LE(pager_.page_count(), pages_before + 1);
}

TEST_F(HeapFileTest, OverflowSurvivesReopen) {
  std::string big(2 * kPageSize + 77, 'z');
  PageId first_page;
  {
    HeapFile heap = *HeapFile::Create(&pool_, &free_list_);
    first_page = heap.first_page();
    ASSERT_TRUE(heap.Insert(1, big).ok());
    ASSERT_TRUE(heap.Insert(2, "inline").ok());
  }
  HeapFile reopened = *HeapFile::Open(&pool_, &free_list_, first_page);
  EXPECT_EQ(reopened.count(), 2u);
  EXPECT_EQ(*reopened.Get(1), big);
  EXPECT_EQ(*reopened.Get(2), "inline");
}

// --- Free list and blobs --------------------------------------------------------

TEST(FreeListTest, AcquireReleaseCycle) {
  MemPager pager;
  BufferPool pool(&pager, 8);
  FreeList free_list(&pool, kNoPage);
  PageId a = *free_list.Acquire();
  PageId b = *free_list.Acquire();
  EXPECT_NE(a, b);
  ASSERT_TRUE(free_list.Release(a).ok());
  EXPECT_EQ(*free_list.Size(), 1u);
  PageId c = *free_list.Acquire();  // reuses a
  EXPECT_EQ(c, a);
  EXPECT_EQ(*free_list.Size(), 0u);
  ASSERT_TRUE(free_list.Release(b).ok());
  ASSERT_TRUE(free_list.Release(c).ok());
  EXPECT_EQ(*free_list.Size(), 2u);
}

TEST(BlobTest, RoundTripSmallAndMultiPage) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  FreeList free_list(&pool, kNoPage);
  for (size_t size : {size_t{0}, size_t{10}, kPageSize - 6, kPageSize,
                      3 * kPageSize + 123}) {
    std::string data;
    for (size_t i = 0; i < size; ++i) {
      data.push_back(static_cast<char>('a' + i % 26));
    }
    Result<PageId> head = WriteBlob(&pool, &free_list, data);
    ASSERT_TRUE(head.ok());
    Result<std::string> read = ReadBlob(&pool, *head);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, data) << "size " << size;
    ASSERT_TRUE(FreeBlob(&pool, &free_list, *head).ok());
  }
  // All freed pages are reusable.
  EXPECT_GT(*free_list.Size(), 0u);
}

// --- Catalog -----------------------------------------------------------------------

TEST(CatalogTest, FormatAndLoad) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  {
    Result<Catalog> catalog = Catalog::Format(&pool, "lab");
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    EXPECT_EQ(catalog->db_name(), "lab");
    ClassDef def;
    def.name = "employee";
    ASSERT_TRUE(catalog->mutable_schema()->AddClass(def).ok());
    ASSERT_TRUE(catalog->AddCluster("employee", 5).ok());
    ASSERT_TRUE(catalog->Persist().ok());
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  Result<Catalog> loaded = Catalog::Load(&pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->db_name(), "lab");
  EXPECT_TRUE(loaded->schema().Contains("employee"));
  Result<const ClusterInfo*> cluster = loaded->FindCluster("employee");
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->first_page, 5u);
}

TEST(CatalogTest, LoadRejectsBadMagic) {
  MemPager pager;
  BufferPool pool(&pager, 4);
  (void)*pool.NewPage();  // a zeroed page 0
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_TRUE(Catalog::Load(&pool).status().IsCorruption());
}

TEST(CatalogTest, LocalIdsMonotonic) {
  MemPager pager;
  BufferPool pool(&pager, 8);
  Catalog catalog = *Catalog::Format(&pool, "t");
  ClusterId id = *catalog.AddCluster("c", 1);
  EXPECT_EQ(*catalog.NextLocalId(id), 1u);
  EXPECT_EQ(*catalog.NextLocalId(id), 2u);
  ASSERT_TRUE(catalog.BumpNextLocalId(id, 100).ok());
  EXPECT_EQ(*catalog.NextLocalId(id), 100u);
  ASSERT_TRUE(catalog.BumpNextLocalId(id, 5).ok());  // never lowers
  EXPECT_EQ(*catalog.NextLocalId(id), 101u);
}

TEST(CatalogTest, DuplicateClusterRejected) {
  MemPager pager;
  BufferPool pool(&pager, 8);
  Catalog catalog = *Catalog::Format(&pool, "t");
  ASSERT_TRUE(catalog.AddCluster("c", 1).ok());
  EXPECT_EQ(catalog.AddCluster("c", 2).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, RepeatedPersistRecyclesPages) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  Catalog catalog = *Catalog::Format(&pool, "t");
  ASSERT_TRUE(catalog.Persist().ok());
  uint32_t pages_before = pager.page_count();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(catalog.Persist().ok());
  }
  // The catalog blob is rewritten every time, but freed pages must be
  // recycled: the file may grow a little, never by 50 pages.
  EXPECT_LE(pager.page_count(), pages_before + 2);
}

}  // namespace
}  // namespace ode::odb
