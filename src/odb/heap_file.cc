#include "odb/heap_file.h"

#include <set>

#include "common/coding.h"
#include "common/metrics.h"
#include "common/op_profile.h"
#include "common/trace.h"
#include "odb/slotted_page.h"

namespace ode::odb {

namespace {

// Shared heap-layer instruments: scans over the full directory,
// records served by the batch read, and the three mutation kinds.
obs::Counter& HeapScans() {
  static obs::Counter* c = obs::Registry::Global().counter("heap.scans");
  return *c;
}
obs::Counter& HeapBatchRecords() {
  static obs::Counter* c =
      obs::Registry::Global().counter("heap.batch_records");
  return *c;
}
obs::Counter& HeapInserts() {
  static obs::Counter* c = obs::Registry::Global().counter("heap.inserts");
  return *c;
}
obs::Counter& HeapUpdates() {
  static obs::Counter* c = obs::Registry::Global().counter("heap.updates");
  return *c;
}
obs::Counter& HeapDeletes() {
  static obs::Counter* c = obs::Registry::Global().counter("heap.deletes");
  return *c;
}

constexpr uint8_t kInlineFlag = 0;
constexpr uint8_t kOverflowFlag = 1;

/// Headroom for the id varint + flag when deciding whether a payload
/// still fits inline.
constexpr size_t kRecordHeaderBudget = 12;

struct ParsedRecord {
  uint64_t local_id = 0;
  bool overflow = false;
  std::string_view inline_payload;  ///< when !overflow
  PageId overflow_head = kNoPage;   ///< when overflow
  uint64_t overflow_size = 0;
};

Result<ParsedRecord> ParseStoredRecord(std::string_view record) {
  Decoder decoder(record);
  ParsedRecord parsed;
  ODE_RETURN_IF_ERROR(decoder.GetVarint64(&parsed.local_id));
  std::string_view flag;
  ODE_RETURN_IF_ERROR(decoder.GetRaw(1, &flag));
  if (static_cast<uint8_t>(flag[0]) == kOverflowFlag) {
    parsed.overflow = true;
    uint32_t head = 0;
    ODE_RETURN_IF_ERROR(decoder.GetFixed32(&head));
    ODE_RETURN_IF_ERROR(decoder.GetVarint64(&parsed.overflow_size));
    parsed.overflow_head = head;
  } else {
    parsed.inline_payload = decoder.remaining();
  }
  return parsed;
}

}  // namespace

Result<HeapFile> HeapFile::Create(BufferPool* pool, FreeList* free_list) {
  PageId first = kNoPage;
  {
    ODE_ASSIGN_OR_RETURN(PageHandle handle, pool->NewPage());
    SlottedPage sp(handle.page());
    sp.Init();
    handle.MarkDirty();
    first = handle.id();
    // The handle (frame latch, rank 60) is released here, before the
    // heap lock (rank 30) below — heap locks order before latches.
  }
  HeapFile heap(pool, free_list, first);
  {
    WriterMutexLock lock(*heap.mu_);
    heap.last_page_ = first;
  }
  return heap;
}

Result<HeapFile> HeapFile::Open(BufferPool* pool, FreeList* free_list,
                                PageId first_page) {
  HeapFile heap(pool, free_list, first_page);
  {
    WriterMutexLock lock(*heap.mu_);
    ODE_RETURN_IF_ERROR(heap.ScanChain());
  }
  return heap;
}

uint64_t HeapFile::count() const {
  ReaderMutexLock lock(*mu_);
  return directory_.size();
}

bool HeapFile::Contains(uint64_t local_id) const {
  ReaderMutexLock lock(*mu_);
  return directory_.find(local_id) != directory_.end();
}

Status HeapFile::ScanChain() {
  directory_.clear();
  PageId current = first_page_;
  std::set<PageId> visited;  // a corrupt chain must not loop forever
  while (current != kNoPage) {
    if (!visited.insert(current).second) {
      return Status::Corruption("heap chain cycles back to page " +
                                std::to_string(current));
    }
    ODE_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->Fetch(current, PageIntent::kRead));
    SlottedPage sp(handle.page());
    // The chain walk is the first time a page loaded from disk is
    // interpreted, so structural corruption is rejected here once
    // instead of checked on every later access.
    ODE_RETURN_IF_ERROR(sp.Validate());
    for (uint16_t s = 0; s < sp.slot_count(); ++s) {
      Result<std::string_view> record = sp.Get(s);
      if (!record.ok()) continue;  // tombstone
      ODE_ASSIGN_OR_RETURN(ParsedRecord parsed, ParseStoredRecord(*record));
      if (directory_.count(parsed.local_id) != 0) {
        return Status::Corruption("duplicate record id " +
                                  std::to_string(parsed.local_id) +
                                  " in heap chain");
      }
      directory_[parsed.local_id] = Location{current, s};
    }
    last_page_ = current;
    current = sp.next_page();
  }
  return Status::OK();
}

Result<std::string> HeapFile::MakeStoredRecord(uint64_t local_id,
                                               std::string_view payload) {
  std::string record;
  PutVarint64(&record, local_id);
  if (payload.size() + kRecordHeaderBudget <= SlottedPage::kMaxRecordSize) {
    record.push_back(static_cast<char>(kInlineFlag));
    record.append(payload.data(), payload.size());
    return record;
  }
  if (free_list_ == nullptr) {
    return Status::InvalidArgument(
        "object too large for a page and no overflow free list");
  }
  ODE_ASSIGN_OR_RETURN(PageId head, WriteBlob(pool_, free_list_, payload));
  record.push_back(static_cast<char>(kOverflowFlag));
  PutFixed32(&record, head);
  PutVarint64(&record, payload.size());
  return record;
}

Status HeapFile::ReleaseOverflow(std::string_view stored_record) {
  ODE_ASSIGN_OR_RETURN(ParsedRecord parsed,
                       ParseStoredRecord(stored_record));
  if (!parsed.overflow) return Status::OK();
  if (free_list_ == nullptr) {
    return Status::Internal("overflow record without a free list");
  }
  return FreeBlob(pool_, free_list_, parsed.overflow_head);
}

Result<PageId> HeapFile::FindPageWithRoom(size_t needed) {
  // Check the last page first (the common append path), then extend.
  {
    ODE_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->Fetch(last_page_, PageIntent::kRead));
    SlottedPage sp(handle.page());
    if (sp.FreeSpace() >= needed + SlottedPage::kSlotSize) {
      return last_page_;
    }
  }
  ODE_ASSIGN_OR_RETURN(PageHandle fresh, pool_->NewPage());
  SlottedPage fresh_sp(fresh.page());
  fresh_sp.Init();
  fresh.MarkDirty();
  PageId fresh_id = fresh.id();
  fresh.Release();
  // Link the old tail to the new page.
  ODE_ASSIGN_OR_RETURN(PageHandle tail,
                       pool_->Fetch(last_page_, PageIntent::kWrite));
  SlottedPage tail_sp(tail.page());
  tail_sp.set_next_page(fresh_id);
  tail.MarkDirty();
  last_page_ = fresh_id;
  return fresh_id;
}

void HeapFile::ChargeAccess(obs::AccessOp op, uint64_t local_id,
                            PageId page) const {
  if (access_label_ == nullptr) return;  // unwired heap (tests, bootstrap)
  obs::AccessLog::Global().Record(op, access_cluster_, local_id,
                                  access_label_, page);
}

Status HeapFile::Insert(uint64_t local_id, std::string_view payload) {
  WriterMutexLock lock(*mu_);
  if (directory_.find(local_id) != directory_.end()) {
    return Status::AlreadyExists("record id " + std::to_string(local_id));
  }
  ODE_ASSIGN_OR_RETURN(std::string record,
                       MakeStoredRecord(local_id, payload));
  ODE_ASSIGN_OR_RETURN(PageId target, FindPageWithRoom(record.size()));
  ODE_ASSIGN_OR_RETURN(PageHandle handle,
                       pool_->Fetch(target, PageIntent::kWrite));
  SlottedPage sp(handle.page());
  ODE_ASSIGN_OR_RETURN(uint16_t slot, sp.Insert(record));
  handle.MarkDirty();
  directory_[local_id] = Location{target, slot};
  HeapInserts().Increment();
  ChargeAccess(obs::AccessOp::kCreate, local_id, target);
  return Status::OK();
}

Result<std::string> HeapFile::Get(uint64_t local_id) const {
  ReaderMutexLock lock(*mu_);
  return GetLocked(local_id);
}

Result<std::string> HeapFile::GetLocked(uint64_t local_id) const {
  auto it = directory_.find(local_id);
  if (it == directory_.end()) {
    return Status::NotFound("record id " + std::to_string(local_id));
  }
  ChargeAccess(obs::AccessOp::kGet, local_id, it->second.page);
  PageHandle handle;
  PageId held = kNoPage;
  std::string payload;
  ODE_RETURN_IF_ERROR(
      AppendRecordLocked(local_id, it->second, &handle, &held, &payload)
          .status());
  return payload;
}

Result<size_t> HeapFile::AppendRecordLocked(uint64_t local_id,
                                            const Location& loc,
                                            PageHandle* handle, PageId* held,
                                            std::string* arena) const {
  if (*held != loc.page) {
    ODE_ASSIGN_OR_RETURN(*handle, pool_->Fetch(loc.page, PageIntent::kRead));
    *held = loc.page;
  }
  SlottedPage sp(handle->page());
  ODE_ASSIGN_OR_RETURN(std::string_view record, sp.Get(loc.slot));
  ODE_ASSIGN_OR_RETURN(ParsedRecord parsed, ParseStoredRecord(record));
  if (parsed.local_id != local_id) {
    return Status::Corruption("directory/record id mismatch");
  }
  if (!parsed.overflow) {
    arena->append(parsed.inline_payload);
    return parsed.inline_payload.size();
  }
  // The record view dies with the handle; read the blob afterwards
  // (never hold a page latch while chasing the overflow chain).
  PageId head = parsed.overflow_head;
  uint64_t size = parsed.overflow_size;
  handle->Release();
  *held = kNoPage;
  ODE_ASSIGN_OR_RETURN(std::string payload, ReadBlob(pool_, head));
  if (payload.size() != size) {
    return Status::Corruption("overflow chain length mismatch for id " +
                              std::to_string(local_id));
  }
  arena->append(payload);
  return payload.size();
}

Status HeapFile::Update(uint64_t local_id, std::string_view payload) {
  WriterMutexLock lock(*mu_);
  return UpdateLocked(local_id, payload);
}

Status HeapFile::UpdateLocked(uint64_t local_id, std::string_view payload) {
  auto it = directory_.find(local_id);
  if (it == directory_.end()) {
    return Status::NotFound("record id " + std::to_string(local_id));
  }
  // Release a previous overflow chain before writing the new record.
  {
    ODE_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->Fetch(it->second.page, PageIntent::kRead));
    SlottedPage sp(handle.page());
    ODE_ASSIGN_OR_RETURN(std::string_view old_record,
                         sp.Get(it->second.slot));
    std::string old_copy(old_record);
    handle.Release();
    ODE_RETURN_IF_ERROR(ReleaseOverflow(old_copy));
  }
  ODE_ASSIGN_OR_RETURN(std::string record,
                       MakeStoredRecord(local_id, payload));
  {
    ODE_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->Fetch(it->second.page, PageIntent::kWrite));
    SlottedPage sp(handle.page());
    Status in_place = sp.Update(it->second.slot, record);
    if (in_place.ok()) {
      handle.MarkDirty();
      HeapUpdates().Increment();
      ChargeAccess(obs::AccessOp::kUpdate, local_id, it->second.page);
      return Status::OK();
    }
    if (!in_place.IsOutOfRange()) return in_place;
    // Fall through: relocate.
    ODE_RETURN_IF_ERROR(sp.Delete(it->second.slot));
    handle.MarkDirty();
  }
  directory_.erase(it);
  ODE_ASSIGN_OR_RETURN(PageId target, FindPageWithRoom(record.size()));
  ODE_ASSIGN_OR_RETURN(PageHandle handle,
                       pool_->Fetch(target, PageIntent::kWrite));
  SlottedPage sp(handle.page());
  ODE_ASSIGN_OR_RETURN(uint16_t slot, sp.Insert(record));
  handle.MarkDirty();
  directory_[local_id] = Location{target, slot};
  HeapUpdates().Increment();
  ChargeAccess(obs::AccessOp::kUpdate, local_id, target);
  return Status::OK();
}

Status HeapFile::Delete(uint64_t local_id) {
  WriterMutexLock lock(*mu_);
  return DeleteLocked(local_id);
}

Status HeapFile::DeleteLocked(uint64_t local_id) {
  auto it = directory_.find(local_id);
  if (it == directory_.end()) {
    return Status::NotFound("record id " + std::to_string(local_id));
  }
  {
    ODE_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->Fetch(it->second.page, PageIntent::kRead));
    SlottedPage sp(handle.page());
    ODE_ASSIGN_OR_RETURN(std::string_view record, sp.Get(it->second.slot));
    std::string copy(record);
    handle.Release();
    ODE_RETURN_IF_ERROR(ReleaseOverflow(copy));
  }
  ODE_ASSIGN_OR_RETURN(PageHandle handle,
                       pool_->Fetch(it->second.page, PageIntent::kWrite));
  SlottedPage sp(handle.page());
  ODE_RETURN_IF_ERROR(sp.Delete(it->second.slot));
  handle.MarkDirty();
  PageId freed_page = it->second.page;
  directory_.erase(it);
  HeapDeletes().Increment();
  ChargeAccess(obs::AccessOp::kDelete, local_id, freed_page);
  return Status::OK();
}

Result<uint64_t> HeapFile::LastId() const {
  ReaderMutexLock lock(*mu_);
  if (directory_.empty()) return Status::NotFound("cluster is empty");
  return directory_.rbegin()->first;
}

Status HeapFile::RecordsInto(uint64_t from, bool forward, size_t limit,
                             std::string* arena,
                             std::vector<RecordSpan>* spans) const {
  ODE_TRACE_SPAN("heap.batch_read");
  arena->clear();
  spans->clear();
  ReaderMutexLock lock(*mu_);
  // Forward, `it` is the next record to read; backward, the next record
  // is the one before `it`. Either way the scan ends when `it` reaches
  // `stop`, the end of the directory in the scan's direction.
  auto it = forward ? directory_.upper_bound(from)
                    : directory_.lower_bound(from);
  const auto stop = forward ? directory_.end() : directory_.begin();
  if (it == stop) {
    return Status::OutOfRange(
        (forward ? "no object after id " : "no object before id ") +
        std::to_string(from));
  }
  spans->reserve(limit);
  PageHandle handle;
  PageId held = kNoPage;
  while (it != stop && spans->size() < limit) {
    auto record = forward ? it++ : --it;
    ChargeAccess(obs::AccessOp::kScan, record->first, record->second.page);
    size_t offset = arena->size();
    ODE_ASSIGN_OR_RETURN(size_t length,
                         AppendRecordLocked(record->first, record->second,
                                            &handle, &held, arena));
    spans->push_back(RecordSpan{record->first, offset, length});
  }
  // Read-ahead: warm the page the record after the batch lives on. A
  // limit-1 batch is a point lookup, not a scan — the policy keeps
  // those out of the prefetch queue.
  if (it != stop) {
    auto follow = forward ? it : std::prev(it);
    if (follow->second.page != held) {
      pool_->ReadAhead(follow->second.page, /*point_lookup=*/limit == 1);
    }
  }
  HeapBatchRecords().Add(spans->size());
  if (auto* profile = obs::CurrentOpProfile()) {
    profile->heap_records += spans->size();
    profile->arena_bytes += arena->size();
  }
  return Status::OK();
}

Result<std::vector<HeapFile::Placement>> HeapFile::RecordPlacements() const {
  ReaderMutexLock lock(*mu_);
  std::vector<Placement> out;
  out.reserve(directory_.size());
  PageHandle handle;
  PageId held = kNoPage;
  for (const auto& [id, loc] : directory_) {
    if (held != loc.page) {
      ODE_ASSIGN_OR_RETURN(handle, pool_->Fetch(loc.page, PageIntent::kRead));
      held = loc.page;
    }
    SlottedPage sp(handle.page());
    ODE_ASSIGN_OR_RETURN(std::string_view record, sp.Get(loc.slot));
    out.push_back(Placement{id, loc.page, loc.slot,
                            static_cast<uint32_t>(record.size())});
  }
  return out;
}

Status HeapFile::RelocateRecord(uint64_t local_id, PageId target_page) {
  WriterMutexLock lock(*mu_);
  auto it = directory_.find(local_id);
  if (it == directory_.end()) {
    return Status::NotFound("record id " + std::to_string(local_id));
  }
  if (it->second.page == target_page) return Status::OK();
  // Copy the stored record off its current page (one handle at a time).
  std::string record;
  {
    ODE_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->Fetch(it->second.page, PageIntent::kRead));
    SlottedPage sp(handle.page());
    ODE_ASSIGN_OR_RETURN(std::string_view stored, sp.Get(it->second.slot));
    record.assign(stored.data(), stored.size());
  }
  // Insert on the target first: the record is reachable at every
  // moment (under WAL the insert and the delete below commit in one
  // transaction, so a crash never exposes the duplicate to ScanChain).
  uint16_t new_slot = 0;
  {
    ODE_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->Fetch(target_page, PageIntent::kWrite));
    SlottedPage sp(handle.page());
    ODE_RETURN_IF_ERROR(sp.Validate());
    ODE_ASSIGN_OR_RETURN(new_slot, sp.Insert(record));
    handle.MarkDirty();
  }
  {
    ODE_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->Fetch(it->second.page, PageIntent::kWrite));
    SlottedPage sp(handle.page());
    ODE_RETURN_IF_ERROR(sp.Delete(it->second.slot));
    handle.MarkDirty();
  }
  it->second = Location{target_page, new_slot};
  return Status::OK();
}

Result<PageId> HeapFile::AllocateTailPage() {
  WriterMutexLock lock(*mu_);
  ODE_ASSIGN_OR_RETURN(PageHandle fresh, pool_->NewPage());
  SlottedPage fresh_sp(fresh.page());
  fresh_sp.Init();
  fresh.MarkDirty();
  PageId fresh_id = fresh.id();
  fresh.Release();
  ODE_ASSIGN_OR_RETURN(PageHandle tail,
                       pool_->Fetch(last_page_, PageIntent::kWrite));
  SlottedPage tail_sp(tail.page());
  tail_sp.set_next_page(fresh_id);
  tail.MarkDirty();
  last_page_ = fresh_id;
  return fresh_id;
}

std::vector<uint64_t> HeapFile::AllIds() const {
  ODE_TRACE_SPAN("heap.scan");
  HeapScans().Increment();
  ReaderMutexLock lock(*mu_);
  std::vector<uint64_t> ids;
  ids.reserve(directory_.size());
  for (const auto& [id, loc] : directory_) ids.push_back(id);
  return ids;
}

Result<uint32_t> HeapFile::PageCount() const {
  ReaderMutexLock lock(*mu_);
  uint32_t n = 0;
  PageId current = first_page_;
  while (current != kNoPage) {
    ++n;
    ODE_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->Fetch(current, PageIntent::kRead));
    SlottedPage sp(handle.page());
    current = sp.next_page();
  }
  return n;
}

Result<uint64_t> HeapFile::OverflowCount() const {
  ReaderMutexLock lock(*mu_);
  uint64_t n = 0;
  for (const auto& [id, loc] : directory_) {
    ODE_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->Fetch(loc.page, PageIntent::kRead));
    SlottedPage sp(handle.page());
    ODE_ASSIGN_OR_RETURN(std::string_view record, sp.Get(loc.slot));
    ODE_ASSIGN_OR_RETURN(ParsedRecord parsed, ParseStoredRecord(record));
    if (parsed.overflow) ++n;
  }
  return n;
}

}  // namespace ode::odb
