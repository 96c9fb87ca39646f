#ifndef ODEVIEW_ODB_HEAP_FILE_H_
#define ODEVIEW_ODB_HEAP_FILE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/access_log.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/threading.h"
#include "odb/buffer_pool.h"
#include "odb/catalog.h"
#include "odb/page.h"

namespace ode::odb {

/// A chain of slotted pages storing the records of one cluster.
///
/// Records are keyed by a 64-bit logical id (the `Oid::local` part).
/// Each stored record is `varint(local_id) || flag || body`, so the
/// id→location directory can be rebuilt by scanning the chain at open.
/// Small payloads are stored inline (flag 0); payloads that do not fit
/// a page spill to an overflow blob chain (flag 1, body = head page +
/// size) allocated from the shared free list — a large object (e.g. a
/// department whose `employees` set holds thousands of references) is
/// transparent to callers. Iteration order is ascending logical id,
/// which equals creation order because ids are assigned monotonically —
/// this is the order the paper's `next` / `previous` buttons sequence
/// through a cluster.
///
/// Thread-safety: every public method locks an internal reader/writer
/// lock — lookups and batch reads run shared (concurrent scans proceed
/// in parallel), mutations run exclusive. Page content is additionally
/// protected by the buffer pool's per-frame latches, so several heaps
/// sharing one pool are safe too. A batch read (`RecordsInto`)
/// schedules the page after the batch on the pool's prefetch thread,
/// accelerating `reset`/`next`/`previous` control-panel traffic.
class HeapFile {
 public:
  /// Physical address of a record.
  struct Location {
    PageId page = kNoPage;
    uint16_t slot = 0;
  };

  /// One record's payload inside a caller-supplied arena (see
  /// `RecordsInto`).
  struct RecordSpan {
    uint64_t local_id = 0;
    size_t offset = 0;
    size_t length = 0;
  };

  /// One record's current physical placement plus its stored (on-page)
  /// size — the clustering advisor's packing input.
  struct Placement {
    uint64_t local_id = 0;
    PageId page = kNoPage;
    uint16_t slot = 0;
    uint32_t stored_bytes = 0;  ///< bytes the record occupies on-page
  };

  /// Creates an empty heap (allocates the first page). `free_list`
  /// supplies/reclaims overflow pages and must outlive the heap.
  static Result<HeapFile> Create(BufferPool* pool, FreeList* free_list);

  /// Opens an existing heap rooted at `first_page`, rebuilding the
  /// directory by scanning the chain.
  static Result<HeapFile> Open(BufferPool* pool, FreeList* free_list,
                               PageId first_page);

  HeapFile(HeapFile&&) = default;
  HeapFile& operator=(HeapFile&&) = default;
  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  PageId first_page() const { return first_page_; }
  uint64_t count() const;

  /// Inserts the record for `local_id`; the id must be fresh.
  Status Insert(uint64_t local_id, std::string_view payload);

  /// Copies out the payload for `local_id`.
  Result<std::string> Get(uint64_t local_id) const;

  /// Replaces the payload (relocating the record when it grew).
  Status Update(uint64_t local_id, std::string_view payload);

  /// Removes the record.
  Status Delete(uint64_t local_id);

  bool Contains(uint64_t local_id) const;

  /// The highest id stored; NotFound on an empty heap.
  Result<uint64_t> LastId() const;

  /// The batched read every scan and every cursor step goes through:
  /// up to `limit` records following `from` (ascending when `forward`)
  /// or preceding it (descending), under a single lock round-trip.
  /// Consecutive records on one page share a single pool fetch.
  /// Payloads are appended to `*arena` back to back and described by
  /// `*spans` in scan order; both are cleared first (capacity
  /// retained), so a warm caller that reuses them pays no allocation
  /// per record. Fails with OutOfRange when no record exists past
  /// `from`.
  Status RecordsInto(uint64_t from, bool forward, size_t limit,
                     std::string* arena,
                     std::vector<RecordSpan>* spans) const;

  /// All ids in ascending order (for tests and bulk operations).
  std::vector<uint64_t> AllIds() const;

  /// Current placement (page, slot, stored size) of every record,
  /// ascending id — the snapshot the clustering advisor packs from.
  Result<std::vector<Placement>> RecordPlacements() const;

  /// Moves the record for `local_id` onto `target_page` (which must be
  /// a chain page with room). The record is inserted on the target
  /// first and tombstoned at its old location second, and the OID stays
  /// valid throughout because lookups go via the id→location directory
  /// — the move is invisible to readers. No-op when the record already
  /// lives on `target_page`. Fails OutOfRange when the target page is
  /// full (the reorganizer then asks for a fresh tail page).
  Status RelocateRecord(uint64_t local_id, PageId target_page);

  /// Appends a fresh empty page to the chain (even when the current
  /// tail still has room) and returns its id — the reorganizer's
  /// destination allocator, so each plan group starts on its own page.
  Result<PageId> AllocateTailPage();

  /// Number of pages in the chain.
  Result<uint32_t> PageCount() const;

  /// Count of records currently stored out-of-line (for tests/stats).
  Result<uint64_t> OverflowCount() const;

  /// Wires this heap to the access observatory: subsequent record
  /// operations are charged to (`cluster`, `class_label`) by the
  /// sampled access recorder. `class_label` must have static storage
  /// duration (use `obs::Journal::InternLabel`). The database sets
  /// this before publishing the heap, so no synchronization beyond the
  /// publication's happens-before is needed; an unwired heap (tests,
  /// bootstrap) records nothing.
  void SetAccessAttribution(uint64_t cluster, const char* class_label) {
    access_cluster_ = cluster;
    access_label_ = class_label;
  }

 private:
  HeapFile(BufferPool* pool, FreeList* free_list, PageId first_page)
      : pool_(pool),
        free_list_(free_list),
        first_page_(first_page),
        mu_(std::make_unique<SharedMutex>(LockRank::kHeapFile)) {}

  Status ScanChain() ODE_REQUIRES(*mu_);
  /// Unlocked implementations; callers hold `mu_` as noted.
  Result<std::string> GetLocked(uint64_t local_id) const
      ODE_REQUIRES_SHARED(*mu_);
  /// Appends one record's payload to `*arena` and returns its length,
  /// reusing `*handle` when the record lives on the page already held
  /// (`*held`); releases the handle before chasing an overflow chain so
  /// at most one page is latched at a time.
  Result<size_t> AppendRecordLocked(uint64_t local_id, const Location& loc,
                                    PageHandle* handle, PageId* held,
                                    std::string* arena) const
      ODE_REQUIRES_SHARED(*mu_);
  Status UpdateLocked(uint64_t local_id, std::string_view payload)
      ODE_REQUIRES(*mu_);
  Status DeleteLocked(uint64_t local_id) ODE_REQUIRES(*mu_);
  /// Finds a page with room for `needed` bytes, extending the chain if
  /// necessary; returns the page id.
  Result<PageId> FindPageWithRoom(size_t needed) ODE_REQUIRES(*mu_);
  /// Builds the stored record for `payload` (inline or spilled).
  Result<std::string> MakeStoredRecord(uint64_t local_id,
                                       std::string_view payload);
  /// Frees the overflow chain of a stored record, if it has one.
  Status ReleaseOverflow(std::string_view stored_record);

  /// Charges one sampled access event for `local_id` at `page`.
  void ChargeAccess(obs::AccessOp op, uint64_t local_id, PageId page) const;

  BufferPool* pool_;
  FreeList* free_list_;
  PageId first_page_;
  /// Access-observatory attribution (0/null until wired; see
  /// `SetAccessAttribution`).
  uint64_t access_cluster_ = 0;
  const char* access_label_ = nullptr;
  /// Readers share, writers exclude. Held in a unique_ptr so the heap
  /// stays movable (it lives by value in Database's cluster map).
  /// Rank kHeapFile (30): held across free-list calls (50) and page
  /// fetches (60/70), so it sits near the bottom of the lock order.
  mutable std::unique_ptr<SharedMutex> mu_;
  PageId last_page_ ODE_GUARDED_BY(*mu_) = kNoPage;
  std::map<uint64_t, Location> directory_ ODE_GUARDED_BY(*mu_);
};

}  // namespace ode::odb

#endif  // ODEVIEW_ODB_HEAP_FILE_H_
