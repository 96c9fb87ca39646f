#include "common/journal.h"

#include <unistd.h>

#include <bit>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/threading.h"
#include "common/trace.h"

namespace ode::obs {

const char* JournalEventName(JournalEvent type) {
  switch (type) {
    case JournalEvent::kSessionOpen:
      return "session_open";
    case JournalEvent::kSessionClose:
      return "session_close";
    case JournalEvent::kEpochBump:
      return "epoch_bump";
    case JournalEvent::kCascadeStart:
      return "cascade_start";
    case JournalEvent::kCascadeEnd:
      return "cascade_end";
    case JournalEvent::kEvictionPressure:
      return "eviction_pressure";
    case JournalEvent::kDynlinkFault:
      return "dynlink_fault";
    case JournalEvent::kWatchdogStall:
      return "watchdog_stall";
    case JournalEvent::kMark:
      return "mark";
    case JournalEvent::kLockRankViolation:
      return "lockrank_violation";
    case JournalEvent::kExecScan:
      return "exec_scan";
    case JournalEvent::kExecJoin:
      return "exec_join";
    case JournalEvent::kWalRecoveryStart:
      return "wal_recovery_start";
    case JournalEvent::kWalRecoveryEnd:
      return "wal_recovery_end";
    case JournalEvent::kWalCheckpoint:
      return "wal_checkpoint";
    case JournalEvent::kWalTornTail:
      return "wal_torn_tail";
    case JournalEvent::kSlowOp:
      return "slow_op";
    case JournalEvent::kAccessRecorderStart:
      return "access_recorder_start";
    case JournalEvent::kAccessRecorderStop:
      return "access_recorder_stop";
    case JournalEvent::kReclusterStart:
      return "recluster_start";
    case JournalEvent::kReclusterEnd:
      return "recluster_end";
    case JournalEvent::kPrefetchIssued:
      return "prefetch_issued";
  }
  return "unknown";
}

Journal::Journal(size_t capacity) {
  if (capacity < 8) capacity = 8;
  capacity_ = std::bit_ceil(capacity);
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

Journal& Journal::Global() {
  // Leaked singleton: crash handlers read the journal during (or
  // after) static destruction.
  static Journal* journal = new Journal();
  return *journal;
}

void Journal::Append(JournalEvent type, int64_t arg0, int64_t arg1,
                     const char* detail) {
  uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[seq & mask_];
  // Claim the slot by swapping any *older* committed value (or 0) to
  // the busy marker. A producer that finds the slot busy, or already
  // committed by a newer generation, lagged a full ring behind: its
  // record would be overwritten immediately anyway, so it is dropped
  // and counted, keeping the accounting exact.
  uint64_t current = slot.commit.load(std::memory_order_relaxed);
  while (true) {
    if (current == kBusy || current > seq) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (slot.commit.compare_exchange_weak(current, kBusy,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
      break;
    }
  }
  if (current != 0) {
    overwritten_.fetch_add(1, std::memory_order_relaxed);
  }
  TraceContext ctx = CurrentTraceContext();
  slot.ts_ns.store(Tracing::NowNanos(), std::memory_order_relaxed);
  slot.type.store(static_cast<uint32_t>(type), std::memory_order_relaxed);
  slot.thread_id.store(CurrentThreadId(), std::memory_order_relaxed);
  slot.trace_id.store(ctx.trace_id, std::memory_order_relaxed);
  slot.span_id.store(ctx.span_id, std::memory_order_relaxed);
  slot.arg0.store(arg0, std::memory_order_relaxed);
  slot.arg1.store(arg1, std::memory_order_relaxed);
  slot.detail.store(detail, std::memory_order_relaxed);
  // Publish: readers acquire `commit` and then see every field above.
  slot.commit.store(seq, std::memory_order_release);
}

bool Journal::ReadSlot(uint64_t seq, JournalRecord* out) const {
  const Slot& slot = slots_[seq & mask_];
  if (slot.commit.load(std::memory_order_acquire) != seq) return false;
  out->seq = seq;
  out->ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
  out->type =
      static_cast<JournalEvent>(slot.type.load(std::memory_order_relaxed));
  out->thread_id = slot.thread_id.load(std::memory_order_relaxed);
  out->trace_id = slot.trace_id.load(std::memory_order_relaxed);
  out->span_id = slot.span_id.load(std::memory_order_relaxed);
  out->arg0 = slot.arg0.load(std::memory_order_relaxed);
  out->arg1 = slot.arg1.load(std::memory_order_relaxed);
  out->detail = slot.detail.load(std::memory_order_relaxed);
  // Re-check after the payload reads: if a writer reclaimed the slot
  // meanwhile, the fields may mix two records — discard.
  return slot.commit.load(std::memory_order_acquire) == seq;
}

std::vector<JournalRecord> Journal::Snapshot() const {
  uint64_t newest = next_seq_.load(std::memory_order_acquire);
  uint64_t oldest = newest > capacity_ ? newest - capacity_ + 1 : 1;
  std::vector<JournalRecord> out;
  out.reserve(newest >= oldest ? newest - oldest + 1 : 0);
  for (uint64_t seq = oldest; seq <= newest; ++seq) {
    JournalRecord record;
    if (ReadSlot(seq, &record)) out.push_back(record);
  }
  return out;
}

std::string Journal::ExportJsonLines() const {
  std::string out;
  for (const JournalRecord& r : Snapshot()) {
    std::ostringstream line;
    line << "{\"seq\":" << r.seq << ",\"ts_ns\":" << r.ts_ns << ",\"type\":\""
         << JournalEventName(r.type) << "\",\"thread\":" << r.thread_id
         << ",\"trace\":" << r.trace_id << ",\"span\":" << r.span_id
         << ",\"arg0\":" << r.arg0 << ",\"arg1\":" << r.arg1;
    out += line.str();
    if (r.detail != nullptr) {
      out += ",\"detail\":\"";
      AppendJsonEscaped(&out, r.detail);
      out += "\"";
    }
    out += "}\n";
  }
  // Loss-accounting trailer: consumers can tell a quiet system from a
  // saturated ring. Shaped like a record (seq 0 = synthetic) so line
  // parsers need no special case.
  out += "{\"seq\":0,\"ts_ns\":" + std::to_string(Tracing::NowNanos()) +
         ",\"type\":\"journal_stats\",\"appended\":" +
         std::to_string(appended()) +
         ",\"dropped\":" + std::to_string(dropped()) +
         ",\"overwritten\":" + std::to_string(overwritten()) +
         ",\"capacity\":" + std::to_string(capacity_) + "}\n";
  PublishLossMetrics();
  return out;
}

void Journal::PublishLossMetrics() const {
  // Instance journals (tests) have no process-wide counters to feed.
  if (this != &Global()) return;
  // Move each counter forward by the delta since the last publication
  // (CAS keeps the watermark monotone under concurrent exports).
  static std::atomic<uint64_t> published_appended{0};
  static std::atomic<uint64_t> published_dropped{0};
  static std::atomic<uint64_t> published_overwritten{0};
  auto publish = [](Counter* counter, std::atomic<uint64_t>& last,
                    uint64_t now) {
    uint64_t prev = last.load(std::memory_order_relaxed);
    while (prev < now &&
           !last.compare_exchange_weak(prev, now,
                                       std::memory_order_relaxed)) {
    }
    if (prev < now) counter->Add(now - prev);
  };
  Registry& registry = Registry::Global();
  publish(registry.counter("obs.journal.appended"), published_appended,
          appended());
  publish(registry.counter("obs.journal.dropped"), published_dropped,
          dropped());
  publish(registry.counter("obs.journal.overwritten"),
          published_overwritten, overwritten());
}

std::string Journal::RenderText(size_t max_records) const {
  std::vector<JournalRecord> records = Snapshot();
  size_t start =
      records.size() > max_records ? records.size() - max_records : 0;
  std::ostringstream os;
  os << "-- journal tail (" << records.size() - start << " of "
     << appended() << " records, " << dropped() << " dropped) --\n";
  for (size_t i = start; i < records.size(); ++i) {
    const JournalRecord& r = records[i];
    os << "  #" << r.seq << " +" << r.ts_ns / 1000000 << "ms "
       << JournalEventName(r.type) << " thread=" << r.thread_id
       << " arg0=" << r.arg0 << " arg1=" << r.arg1;
    if (r.trace_id != 0) os << " trace=" << r.trace_id;
    if (r.detail != nullptr) os << " detail=" << r.detail;
    os << "\n";
  }
  return os.str();
}

void Journal::DumpTail(int fd, size_t max_records) const {
  uint64_t newest = next_seq_.load(std::memory_order_acquire);
  uint64_t window = max_records < capacity_ ? max_records : capacity_;
  uint64_t oldest = newest > window ? newest - window + 1 : 1;
  char line[256];
  for (uint64_t seq = oldest; seq <= newest; ++seq) {
    JournalRecord r;
    if (!ReadSlot(seq, &r)) continue;
    int n = std::snprintf(
        line, sizeof(line),
        "  journal #%llu +%llums %s thread=%u arg0=%lld arg1=%lld%s%s\n",
        static_cast<unsigned long long>(r.seq),
        static_cast<unsigned long long>(r.ts_ns / 1000000),
        JournalEventName(r.type), r.thread_id,
        static_cast<long long>(r.arg0), static_cast<long long>(r.arg1),
        r.detail != nullptr ? " detail=" : "",
        r.detail != nullptr ? r.detail : "");
    if (n > 0) {
      ssize_t ignored = ::write(fd, line, static_cast<size_t>(n));
      (void)ignored;
    }
  }
}

const char* Journal::InternLabel(std::string_view label) {
  // Leaked intern table: returned pointers must stay valid for the
  // life of the process (journal slots hold them indefinitely).
  static Mutex* mu = new Mutex(LockRank::kJournalIntern);
  static std::unordered_set<std::string>* table =
      new std::unordered_set<std::string>();
  MutexLock lock(*mu);
  return table->emplace(label).first->c_str();
}

}  // namespace ode::obs
