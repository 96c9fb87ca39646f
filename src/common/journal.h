#ifndef ODEVIEW_COMMON_JOURNAL_H_
#define ODEVIEW_COMMON_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ode::obs {

/// What happened. Typed (not stringly) so post-mortem tooling can
/// filter without parsing; `JournalEventName` gives the wire name.
enum class JournalEvent : uint32_t {
  kSessionOpen = 0,      ///< arg0 = session id
  kSessionClose = 1,     ///< arg0 = session id
  kEpochBump = 2,        ///< arg0 = new mutation epoch
  kCascadeStart = 3,     ///< arg0 = fan-out (subtree size), arg1 = depth
  kCascadeEnd = 4,       ///< arg0 = fan-out, arg1 = 0 ok / 1 failed
  kEvictionPressure = 5, ///< arg0 = shard frame count (pool exhausted)
  kDynlinkFault = 6,     ///< detail = class name
  kWatchdogStall = 7,    ///< arg0 = age ns; arg1 = 0 span / 1 latch hold
  kMark = 8,             ///< free-form annotation (detail = label)
  kLockRankViolation = 9,  ///< arg0 = acquired rank, arg1 = held rank,
                           ///< detail = acquired lock name
  kExecScan = 10,          ///< arg0 = rows scanned, arg1 = rows matched
  kExecJoin = 11,          ///< arg0 = build rows, arg1 = result pairs
  kWalRecoveryStart = 12,  ///< arg0 = log bytes scanned
  kWalRecoveryEnd = 13,    ///< arg0 = pages redone, arg1 = committed txns
  kWalCheckpoint = 14,     ///< arg0 = log bytes released
  kWalTornTail = 15,       ///< arg0 = bytes truncated from the log tail
  kSlowOp = 16,            ///< arg0 = duration ns, arg1 = session id,
                           ///< detail = op name
  kAccessRecorderStart = 17,  ///< arg0 = sample period
  kAccessRecorderStop = 18,   ///< arg0 = events recorded so far
  kReclusterStart = 20,       ///< arg0 = planned moves, detail = class
  kReclusterEnd = 21,         ///< arg0 = moves applied, arg1 = 0 ok /
                              ///< 1 failed, detail = class
  kPrefetchIssued = 22,       ///< arg0 = pages scheduled, arg1 = source
                              ///< page (affinity read-ahead batch)
};

/// Wire name of a journal event type ("session_open", ...).
const char* JournalEventName(JournalEvent type);

/// One journal record. `detail` is a pointer to a string with static
/// storage duration (a literal or an interned label) — records are
/// fixed-size PODs so the ring stays lock-free.
struct JournalRecord {
  uint64_t seq = 0;    ///< 1-based global sequence number
  uint64_t ts_ns = 0;  ///< Tracing::NowNanos() time base
  JournalEvent type = JournalEvent::kMark;
  uint32_t thread_id = 0;
  uint64_t trace_id = 0;  ///< causal context at append time (0 = none)
  uint64_t span_id = 0;
  int64_t arg0 = 0;
  int64_t arg1 = 0;
  const char* detail = nullptr;  ///< optional static/interned label
};

/// A bounded lock-free MPSC flight-recorder ring of typed records.
///
/// Producers (any thread) append with a handful of atomic operations
/// and never block; when the ring is full the oldest records are
/// overwritten, so the journal always retains the most recent tail —
/// the part a post-mortem wants. The consumer (exports, the telemetry
/// endpoint, crash dumps) reads a consistent snapshot: each slot is
/// claimed by compare-and-swap and published with a release store of
/// its sequence number, so a half-written slot is never observed. A
/// producer that loses the claim race for a slot (it lagged a full
/// ring generation behind) drops its record and counts it.
class Journal {
 public:
  /// `capacity` is rounded up to a power of two; minimum 8.
  explicit Journal(size_t capacity = kDefaultCapacity);
  ~Journal() = default;

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// The process-wide journal (leaked; always on).
  static Journal& Global();

  /// Appends one record, stamping time, thread, and the calling
  /// thread's current trace context. `detail`, if given, must have
  /// static storage duration (use `InternLabel` for dynamic strings).
  void Append(JournalEvent type, int64_t arg0 = 0, int64_t arg1 = 0,
              const char* detail = nullptr);

  /// Records ever appended (including overwritten and dropped ones).
  uint64_t appended() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  /// Records dropped because the producer lost a slot-claim race.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Records overwritten by a newer ring generation (the ring wrapped).
  uint64_t overwritten() const {
    return overwritten_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

  /// Mirrors the loss accounting into `obs.journal.appended/dropped/
  /// overwritten` registry counters. Deliberately *not* done inside
  /// `Append` — the journal is the lock-rank violation reporter's sink
  /// and must never acquire the metrics registry lock itself. Export
  /// paths (the `/journal` endpoint, `--journal-out`) call this from
  /// lock-free contexts. No-op for non-global instances.
  void PublishLossMetrics() const;

  /// The retained tail, oldest first. Safe against concurrent writers
  /// (slots being overwritten mid-read are skipped).
  std::vector<JournalRecord> Snapshot() const;

  /// JSON-lines export: one JSON object per record, newline-separated.
  std::string ExportJsonLines() const;

  /// Human-readable tail (newest `max_records`), for the shell.
  std::string RenderText(size_t max_records = 32) const;

  /// Best-effort tail dump to `fd` for crash handlers: fixed buffers,
  /// no allocation, atomic reads only.
  void DumpTail(int fd, size_t max_records = 64) const;

  /// Returns a stable pointer for `label`, suitable for `detail`.
  /// Interning takes a mutex — keep off hot paths (fault paths only).
  static const char* InternLabel(std::string_view label);

 private:
  static constexpr size_t kDefaultCapacity = 4096;
  /// Claim marker: a slot being written. Distinct from any sequence
  /// number a reader would accept.
  static constexpr uint64_t kBusy = ~uint64_t{0};

  /// One ring slot. `commit` holds the sequence number of the fully
  /// written record (0 = never used, kBusy = being written); payload
  /// fields are atomics so concurrent overwrite/read stays defined.
  struct Slot {
    std::atomic<uint64_t> commit{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint32_t> type{0};
    std::atomic<uint32_t> thread_id{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<int64_t> arg0{0};
    std::atomic<int64_t> arg1{0};
    std::atomic<const char*> detail{nullptr};
  };

  /// Reads `slots_[seq & mask_]` into `out` iff it holds exactly
  /// `seq`'s fully committed record.
  bool ReadSlot(uint64_t seq, JournalRecord* out) const;

  size_t capacity_ = 0;
  uint64_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> overwritten_{0};
};

}  // namespace ode::obs

#endif  // ODEVIEW_COMMON_JOURNAL_H_
