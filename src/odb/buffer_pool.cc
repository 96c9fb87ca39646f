#include "odb/buffer_pool.h"

#include <cassert>
#include <vector>

#include "common/access_log.h"
#include "common/journal.h"
#include "common/op_profile.h"
#include "common/trace.h"
#include "common/watchdog.h"
#include "odb/wal.h"

namespace ode::odb {

namespace {

/// Auto shard-count policy: one shard per 32 frames, capped at 8, so
/// tiny pools behave exactly like the unsharded seed pool.
constexpr size_t kFramesPerAutoShard = 32;
constexpr size_t kMaxAutoShards = 8;

/// Prefetch queue backpressure: beyond this many pending pages new
/// prefetch requests are dropped rather than queued.
constexpr size_t kMaxPendingPrefetches = 64;

/// Affinity read-ahead fan-out per fetch miss. Small on purpose: each
/// neighbor costs a pool frame, and a mispredicted batch must not
/// evict the working set it was meant to serve.
constexpr size_t kAffinityReadAheadFanout = 4;

size_t ResolveShardCount(size_t capacity, size_t requested) {
  if (requested == 0) {
    requested = capacity / kFramesPerAutoShard;
    if (requested > kMaxAutoShards) requested = kMaxAutoShards;
  }
  if (requested < 1) requested = 1;
  if (requested > capacity) requested = capacity;
  return requested;
}

/// Latches `frame` in `intent` mode and leaves it held for the
/// returned PageHandle. Not analyzed: the latch intentionally outlives
/// this function (ownership transfers to the handle); see
/// docs/LOCKING.md §escape-hatches. Try-latch first so the uncontended
/// path (including single-threaded callers holding several handles,
/// where frame latches are taken in arbitrary order) never registers a
/// blocking hold-and-wait.
void LatchFrame(internal::Frame* frame,
                PageIntent intent) ODE_NO_THREAD_SAFETY_ANALYSIS;
void LatchFrame(internal::Frame* frame, PageIntent intent) {
  if (intent == PageIntent::kWrite) {
    if (!frame->latch.TryLock()) frame->latch.Lock();
  } else {
    if (!frame->latch.TryLockShared()) frame->latch.LockShared();
  }
}

}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    id_ = other.id_;
    page_ = other.page_;
    intent_ = other.intent_;
    dirty_ = other.dirty_;
    other.frame_ = nullptr;
    other.page_ = nullptr;
    other.id_ = kNoPage;
    other.dirty_ = false;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::Release() {
  if (frame_ != nullptr) {
    pool_->ReleaseHandle(frame_, dirty_, intent_);
    frame_ = nullptr;
    page_ = nullptr;
    dirty_ = false;
  }
}

void BufferPool::ReleaseHandle(internal::Frame* frame, bool dirty,
                               PageIntent intent) {
  if (intent == PageIntent::kWrite && dirty && wal_ != nullptr) {
    // Capture the after-image while the exclusive latch is still held:
    // the logged bytes are exactly what the writer produced, and the
    // latch + pin exclude concurrent flush/eviction of the frame until
    // its WAL flags are set.
    WalTransactionScope* scope = WalTransactionScope::Current();
    if (scope != nullptr && scope->wal() == wal_) {
      Result<uint64_t> lsn =
          wal_->AppendPageImage(scope->txn_id(), frame->id, &frame->page);
      if (lsn.ok()) {
        frame->page_lsn.store(*lsn, std::memory_order_relaxed);
        frame->wal_uncommitted.store(true, std::memory_order_release);
        scope->RecordCapturedFrame(
            {&frame->page_lsn, &frame->wal_uncommitted});
      } else {
        scope->NoteCaptureFailure(lsn.status());
      }
    }
  }
  if (intent == PageIntent::kWrite) {
    frame->latch.Unlock();
  } else {
    frame->latch.UnlockShared();
  }
  if (dirty) frame->dirty.store(true, std::memory_order_relaxed);
  // Release ordering publishes the page content and dirty flag to the
  // evictor, which observes pin_count == 0 with acquire.
  frame->pin_count.fetch_sub(1, std::memory_order_release);
}

BufferPool::BufferPool(Pager* pager, size_t capacity, size_t shards)
    : pager_(pager) {
  if (capacity == 0) capacity = 1;
  capacity_ = capacity;
  shard_count_ = ResolveShardCount(capacity, shards);
  shards_ = std::make_unique<Shard[]>(shard_count_);
  size_t base = capacity / shard_count_;
  size_t extra = capacity % shard_count_;
  obs::Registry& registry = obs::Registry::Global();
  for (size_t i = 0; i < shard_count_; ++i) {
    size_t n = base + (i < extra ? 1 : 0);
    shards_[i].frames = std::make_unique<internal::Frame[]>(n);
    shards_[i].frame_count = n;
    shards_[i].lookups = registry.NewOwnedCounter("pool.fetch.lookups");
    shards_[i].hits = registry.NewOwnedCounter("pool.fetch.hits");
    shards_[i].misses = registry.NewOwnedCounter("pool.fetch.misses");
    shards_[i].evictions = registry.NewOwnedCounter("pool.evictions");
    shards_[i].writebacks = registry.NewOwnedCounter("pool.writebacks");
  }
  prefetches_ = registry.NewOwnedCounter("pool.prefetches");
  cluster_prefetch_issued_ =
      registry.NewOwnedCounter("cluster.prefetch.issued");
  fetch_latency_ = registry.NewOwnedHistogram("pool.fetch.latency_ns");
}

BufferPool::~BufferPool() { prefetcher_.Stop(); }

Result<PageHandle> BufferPool::Fetch(PageId id, PageIntent intent) {
  return FetchInternal(id, intent, /*allow_read_ahead=*/true);
}

Result<PageHandle> BufferPool::FetchInternal(PageId id, PageIntent intent,
                                             bool allow_read_ahead) {
  ODE_TRACE_SPAN("pool.fetch");
  obs::ScopedLatencyTimer timer(fetch_latency_.get());
  Shard& shard = ShardOf(id);
  internal::Frame* frame = nullptr;
  bool hit = false;
  {
    MutexLock lock(shard.mu);
    shard.lookups->Increment();
    auto it = shard.page_to_frame.find(id);
    if (it != shard.page_to_frame.end()) {
      shard.hits->Increment();
      hit = true;
      frame = &shard.frames[it->second];
      frame->pin_count.fetch_add(1, std::memory_order_relaxed);
      TouchLru(shard, it->second);
    } else {
      shard.misses->Increment();
      ODE_ASSIGN_OR_RETURN(size_t idx, AcquireFrame(shard));
      frame = &shard.frames[idx];
      ODE_RETURN_IF_ERROR(pager_->Read(id, &frame->page));
      frame->id = id;
      frame->pin_count.store(1, std::memory_order_relaxed);
      frame->dirty.store(false, std::memory_order_relaxed);
      frame->page_lsn.store(frame->page.lsn(), std::memory_order_relaxed);
      frame->wal_uncommitted.store(false, std::memory_order_relaxed);
      frame->in_use = true;
      shard.page_to_frame[id] = idx;
      TouchLru(shard, idx);
    }
  }
  if (auto* profile = obs::CurrentOpProfile()) {
    ++profile->pool_lookups;
    ++(hit ? profile->pool_hits : profile->pool_misses);
  }
  obs::AccessLog::Global().RecordPageTouch(id);
  // Affinity read-ahead rides on fetch misses: the page just faulted
  // is the signal that its chase-neighbors come next. No locks are
  // held here (the shard block above closed; the latch comes below),
  // and prefetcher-initiated fetches pass allow_read_ahead = false so
  // speculation never cascades.
  if (!hit && allow_read_ahead &&
      read_ahead_policy() == ReadAheadPolicy::kAffinity) {
    AffinityReadAhead(id);
  }
  // Latch outside the shard lock: a blocked latch acquisition must not
  // stall unrelated fetches in this shard, and the documented rank
  // order (frame latch 60 < shard 70) forbids blocking on a latch
  // while inside the shard — a latch holder may legally enter another
  // page's shard. The pin taken above keeps the frame from being
  // evicted or repurposed meanwhile. Exclusive latch holds are
  // watchdog-visible via the SharedMutex wrapper: a writer wedged on a
  // page surfaces as a stalled `pool.frame_latch` hold.
  LatchFrame(frame, intent);
  return PageHandle(this, frame, id, &frame->page, intent);
}

Result<PageHandle> BufferPool::NewPage() {
  ODE_ASSIGN_OR_RETURN(PageId id, pager_->Allocate());
  Shard& shard = ShardOf(id);
  internal::Frame* frame = nullptr;
  {
    MutexLock lock(shard.mu);
    ODE_ASSIGN_OR_RETURN(size_t idx, AcquireFrame(shard));
    frame = &shard.frames[idx];
    frame->page.Zero();
    frame->id = id;
    frame->pin_count.store(1, std::memory_order_relaxed);
    // Dirty so the zeroed page reaches the backend.
    frame->dirty.store(true, std::memory_order_relaxed);
    frame->page_lsn.store(0, std::memory_order_relaxed);
    frame->wal_uncommitted.store(false, std::memory_order_relaxed);
    frame->in_use = true;
    shard.page_to_frame[id] = idx;
    TouchLru(shard, idx);
  }
  LatchFrame(frame, PageIntent::kWrite);
  return PageHandle(this, frame, id, &frame->page, PageIntent::kWrite);
}

Status BufferPool::FlushAll() {
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    // Pin every dirty frame under the shard lock, then write back
    // outside it under a shared latch (so in-flight writers are
    // excluded without risking a latch-vs-shard-lock deadlock).
    std::vector<internal::Frame*> to_flush;
    {
      MutexLock lock(shard.mu);
      for (size_t i = 0; i < shard.frame_count; ++i) {
        internal::Frame& frame = shard.frames[i];
        if (frame.in_use && frame.dirty.load(std::memory_order_relaxed)) {
          frame.pin_count.fetch_add(1, std::memory_order_relaxed);
          to_flush.push_back(&frame);
        }
      }
    }
    Status failure = Status::OK();
    for (internal::Frame* frame : to_flush) {
      if (failure.ok()) {
        frame->latch.LockShared();
        // No-steal: frames of unsealed transactions stay dirty in
        // memory (the acquire pairs with the capture/publish stores).
        if (frame->wal_uncommitted.load(std::memory_order_acquire)) {
          frame->latch.UnlockShared();
          frame->pin_count.fetch_sub(1, std::memory_order_release);
          continue;
        }
        if (frame->dirty.load(std::memory_order_acquire)) {
          // WAL-before-data: the log must cover this image first.
          Status gated = Status::OK();
          if (wal_ != nullptr) {
            gated = wal_->FlushUntil(
                frame->page_lsn.load(std::memory_order_relaxed));
          }
          if (gated.ok()) {
            Status written = pager_->Write(frame->id, frame->page);
            if (written.ok()) {
              frame->dirty.store(false, std::memory_order_relaxed);
              shard.writebacks->Increment();
            } else {
              failure = written;
            }
          } else {
            failure = gated;
          }
        }
        frame->latch.UnlockShared();
      }
      frame->pin_count.fetch_sub(1, std::memory_order_release);
    }
    ODE_RETURN_IF_ERROR(failure);
  }
  return Status::OK();
}

Status BufferPool::Sync() {
  ODE_RETURN_IF_ERROR(FlushAll());
  return pager_->Sync();
}

void BufferPool::Prefetch(PageId id) {
  if (id == kNoPage || Cached(id)) return;
  if (prefetcher_.pending() >= kMaxPendingPrefetches) return;
  prefetches_->Increment();
  // Adopt the caller's context so the prefetch fetch spans attach to
  // the scan/cascade that requested them, not to a detached worker
  // root. The profile stays behind: the worker is never joined, so the
  // requesting op (and the profile on its stack) may be gone by the
  // time the read runs. Read-ahead I/O shows in the global pool/pager
  // counters and the trace, billed to no op.
  obs::OpContext ctx = obs::CurrentOpContext();
  ctx.profile = nullptr;
  prefetcher_.Submit([this, id, ctx] {
    obs::OpContextScope adopt(ctx);
    // Pin briefly with read intent so the page lands in its shard;
    // errors (e.g. a speculative id past the end) are ignored. The
    // fetch never triggers further read-ahead (no cascades).
    Result<PageHandle> handle =
        FetchInternal(id, PageIntent::kRead, /*allow_read_ahead=*/false);
    (void)handle;
  });
}

void BufferPool::ReadAhead(PageId next_sequential, bool point_lookup) {
  ReadAheadPolicy policy = read_ahead_policy();
  if (policy == ReadAheadPolicy::kOff) return;
  // Point lookups never warm the next chain page: a browse cascade
  // resolving one reference has no sequential future, so the seed's
  // unconditional prefetch only polluted the pool. Their locality is
  // served by the kAffinity fetch-miss trigger instead.
  if (point_lookup) return;
  Prefetch(next_sequential);
}

void BufferPool::SetPrefetchSource(
    std::shared_ptr<const PrefetchSource> source) {
  MutexLock lock(prefetch_source_mu_);
  prefetch_source_ = std::move(source);
}

void BufferPool::AffinityReadAhead(PageId page) {
  std::shared_ptr<const PrefetchSource> source;
  {
    MutexLock lock(prefetch_source_mu_);
    source = prefetch_source_;
  }
  if (source == nullptr) return;
  PageId neighbors[kAffinityReadAheadFanout];
  size_t n = source->TopNeighbors(page, neighbors,
                                  kAffinityReadAheadFanout);
  if (n == 0) return;
  size_t issued = 0;
  for (size_t i = 0; i < n; ++i) {
    if (neighbors[i] == kNoPage || neighbors[i] == page) continue;
    if (Cached(neighbors[i])) continue;
    Prefetch(neighbors[i]);
    ++issued;
  }
  if (issued == 0) return;
  cluster_prefetch_issued_->Add(issued);
  if (auto* profile = obs::CurrentOpProfile()) {
    profile->cluster_prefetches += issued;
  }
  obs::Journal::Global().Append(obs::JournalEvent::kPrefetchIssued,
                                static_cast<int64_t>(issued),
                                static_cast<int64_t>(page));
}

void BufferPool::WaitForPrefetches() { prefetcher_.Drain(); }

bool BufferPool::Cached(PageId id) const {
  const Shard& shard = ShardOf(id);
  MutexLock lock(shard.mu);
  return shard.page_to_frame.find(id) != shard.page_to_frame.end();
}

BufferPool::Stats BufferPool::stats() const {
  Stats total;
  for (size_t i = 0; i < shard_count_; ++i) {
    const Shard& shard = shards_[i];
    total.lookups += shard.lookups->value();
    total.hits += shard.hits->value();
    total.misses += shard.misses->value();
    total.evictions += shard.evictions->value();
    total.writebacks += shard.writebacks->value();
  }
  total.prefetches = prefetches_->value();
  total.cluster_prefetches = cluster_prefetch_issued_->value();
  return total;
}

Result<size_t> BufferPool::AcquireFrame(Shard& shard) {
  // Unused frame first.
  for (size_t i = 0; i < shard.frame_count; ++i) {
    if (!shard.frames[i].in_use) return i;
  }
  // Evict the least recently used unpinned frame.
  for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
    size_t idx = *it;
    internal::Frame& frame = shard.frames[idx];
    // Acquire pairs with the releasing unpin: a zero pin count means
    // the last holder's page writes and dirty flag are visible here.
    if (frame.pin_count.load(std::memory_order_acquire) > 0) continue;
    // No-steal: never evict a frame whose image belongs to an unsealed
    // transaction (its bytes are not yet redo-able from the log).
    if (frame.wal_uncommitted.load(std::memory_order_acquire)) continue;
    if (frame.dirty.load(std::memory_order_relaxed)) {
      if (wal_ != nullptr) {
        // WAL-before-data. FlushUntil (rank kWal, 75) from inside the
        // shard mutex (70) follows the lock order.
        ODE_RETURN_IF_ERROR(wal_->FlushUntil(
            frame.page_lsn.load(std::memory_order_relaxed)));
      }
      ODE_RETURN_IF_ERROR(pager_->Write(frame.id, frame.page));
      shard.writebacks->Increment();
    }
    shard.page_to_frame.erase(frame.id);
    auto pos = shard.lru_pos.find(idx);
    if (pos != shard.lru_pos.end()) {
      shard.lru.erase(pos->second);
      shard.lru_pos.erase(pos);
    }
    frame.in_use = false;
    frame.id = kNoPage;
    frame.dirty.store(false, std::memory_order_relaxed);
    shard.evictions->Increment();
    return idx;
  }
  // Pool pressure is a flight-recorder event: every frame of the shard
  // is pinned, so the fetch that needed a frame fails.
  obs::Journal::Global().Append(obs::JournalEvent::kEvictionPressure,
                                static_cast<int64_t>(shard.frame_count));
  return Status::FailedPrecondition(
      "buffer pool exhausted: all frames of the shard pinned");
}

void BufferPool::TouchLru(Shard& shard, size_t frame_index) {
  auto pos = shard.lru_pos.find(frame_index);
  if (pos != shard.lru_pos.end()) shard.lru.erase(pos->second);
  shard.lru.push_front(frame_index);
  shard.lru_pos[frame_index] = shard.lru.begin();
}

}  // namespace ode::odb
