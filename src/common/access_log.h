#ifndef ODEVIEW_COMMON_ACCESS_LOG_H_
#define ODEVIEW_COMMON_ACCESS_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/threading.h"

namespace ode::obs {

/// What kind of object access an event records. The numeric values are
/// part of the capture file format (see `AccessTraceWriter`) — append
/// only, never renumber.
enum class AccessOp : uint8_t {
  kGet = 0,     ///< point read (Get)
  kScan = 1,    ///< batched read (RecordsInto: cursor and executor scans)
  kCreate = 2,  ///< record inserted
  kUpdate = 3,  ///< record rewritten
  kDelete = 4,  ///< record removed
};

/// Number of distinct `AccessOp` values (per-op heat breakdown arrays).
inline constexpr size_t kAccessOpCount = 5;

/// Wire name of an access op ("get", "scan", ...).
const char* AccessOpName(AccessOp op);

/// One sampled object access: which object, of which class, on which
/// heap page, what happened, and who did it. `class_label` has static
/// storage duration (interned — the same contract as journal details).
struct AccessEvent {
  uint64_t ts_ns = 0;  ///< Tracing::NowNanos() time base
  AccessOp op = AccessOp::kGet;
  uint64_t cluster = 0;  ///< Oid cluster part (class extent)
  uint64_t local = 0;    ///< Oid local part
  uint64_t page = 0;     ///< heap page holding the record's primary slot
  const char* class_label = nullptr;
  uint64_t session_id = 0;  ///< 0 = not session-bound
  uint64_t trace_id = 0;    ///< causal context at record time (0 = none)
};

/// Per-page heat: object-attributed accesses (heap layer) and raw pool
/// page touches (buffer-pool fetches) tallied separately, so a page
/// that is hot only through index/overflow traffic is distinguishable
/// from one hot with record reads.
struct PageHeat {
  uint64_t page = 0;
  uint64_t object_accesses = 0;
  uint64_t pool_touches = 0;
};

/// Per-class heat with a per-op breakdown.
struct ClassHeat {
  const char* class_label = nullptr;
  uint64_t total = 0;
  uint64_t by_op[kAccessOpCount] = {0, 0, 0, 0, 0};
};

/// One reference-affinity edge: the display cascade (or join row flow)
/// that touched `src` went on to touch `dst`. The clustering advisor
/// (ROADMAP item 4) mines these for co-location candidates.
struct AffinityEdge {
  uint64_t src_cluster = 0;
  uint64_t src_local = 0;
  uint64_t dst_cluster = 0;
  uint64_t dst_local = 0;
  const char* src_class = nullptr;
  const char* dst_class = nullptr;
  uint64_t count = 0;
};

/// Aggregated view of everything the recorder has seen since the last
/// reset: what the `/heatmap` endpoint renders and what the
/// capture→replay round-trip test compares.
struct AccessProfile {
  /// class label -> object accesses (all ops folded together; replay
  /// re-executes mutations as reads, so per-op splits would not
  /// round-trip but totals do).
  std::map<std::string, uint64_t> class_counts;
  std::vector<PageHeat> pages;      ///< hottest first
  std::vector<ClassHeat> classes;   ///< hottest first
  std::vector<AffinityEdge> edges;  ///< heaviest first
};

/// Streaming writer for the access capture file: `[magic "ODEACC02"]`
/// followed by CRC-32C'd length-prefixed records (the WAL's framing idiom
/// from coding.{h,cc}): `fixed32 payload_len | payload | fixed32 crc`.
/// Payload starts with a one-byte record type:
///   1 class-def   varint id, length-prefixed class name
///   2 access      varint op, cluster, local, page, class id,
///                 session, trace, ts_ns
///   3 affinity    varint src cluster/local/class-id,
///                 dst cluster/local/class-id
/// Class names are interned per file, so repeated events cost a couple
/// of varints. A torn tail (truncated or CRC-mismatched final record)
/// is detected and reading stops at the last intact record.
class AccessTraceWriter {
 public:
  AccessTraceWriter() = default;
  ~AccessTraceWriter();
  AccessTraceWriter(const AccessTraceWriter&) = delete;
  AccessTraceWriter& operator=(const AccessTraceWriter&) = delete;

  Status Open(const std::string& path);
  bool is_open() const { return file_ != nullptr; }
  uint64_t records_written() const { return records_written_; }

  void WriteEvent(const AccessEvent& event);
  void WriteAffinity(uint64_t src_cluster, uint64_t src_local,
                     const char* src_class, uint64_t dst_cluster,
                     uint64_t dst_local, const char* dst_class);

  /// Flushes buffered records and closes; returns records written.
  Result<uint64_t> Close();

 private:
  uint32_t InternClass(const char* label);
  void WriteFramed(const std::string& payload);
  void FlushBuffer();

  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::map<const void*, uint32_t> class_ids_;
  uint32_t next_class_id_ = 1;
  uint64_t records_written_ = 0;
};

/// One record read back from a capture file.
struct AccessTraceRecord {
  enum class Kind { kEvent, kAffinity };
  Kind kind = Kind::kEvent;
  AccessEvent event;  ///< kEvent (class_label interned on read)
  /// kAffinity:
  uint64_t src_cluster = 0, src_local = 0;
  uint64_t dst_cluster = 0, dst_local = 0;
  const char* src_class = nullptr;
  const char* dst_class = nullptr;
};

/// Reads a capture file fully into memory. `torn_tail_bytes` reports
/// trailing bytes dropped because the final record was torn (0 = file
/// ended on a record boundary). A capture of another format version
/// fails with `Unimplemented`, anything else unreadable with
/// `Corruption`.
struct AccessTrace {
  std::vector<AccessTraceRecord> records;
  uint64_t torn_tail_bytes = 0;
};
Result<AccessTrace> ReadAccessTrace(const std::string& path);

/// Parses capture bytes already in memory (the file reader above
/// delegates here). This is the untrusted-byte boundary: arbitrary
/// input must parse, fail cleanly, or stop at a torn tail — never
/// crash (fuzzed by `fuzz/fuzz_access_trace.cc`).
Result<AccessTrace> ParseAccessTrace(std::string_view bytes);

/// The process-wide sampled access recorder.
///
/// Producers (heap reads, pool fetches, cascade resolution, join row
/// flow) record with a handful of atomics and never block: heat is
/// aggregated inline into fixed-size open-addressing tables whose
/// slots are claimed by compare-and-swap. Individual events are kept
/// only by capture: when it is active, recording also serializes each
/// event into a buffered trace file under `capture_mu_` (rank
/// `kAccessCapture` — recording *on* is a tracing mode and may pay a
/// short mutex; recording *off* costs one relaxed load per charge
/// site).
///
/// Loss accounting: `dropped()` counts heat table overflow (a table ran
/// out of slots — the heat map is then a floor, not a census). It
/// surfaces as the `obs.access.dropped` counter and in the `/heatmap`
/// JSON.
class AccessLog {
 public:
  static constexpr size_t kPageTableCapacity = 4096;
  static constexpr size_t kClassTableCapacity = 256;
  static constexpr size_t kAffinityTableCapacity = 4096;

  AccessLog();
  ~AccessLog();
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// The process-wide recorder (leaked; disabled until `Start`).
  static AccessLog& Global();

  /// Enables recording, sampling one in `sample_period` events
  /// (1 = record everything). Journals `access_recorder_start`.
  void Start(uint32_t sample_period = 1);
  /// Disables recording (capture, if active, stays open until
  /// `StopCapture`). Journals `access_recorder_stop`.
  void Stop();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint32_t sample_period() const {
    return sample_period_.load(std::memory_order_relaxed);
  }

  /// Opens `path` for capture and enables the recorder if it is off.
  Status StartCapture(const std::string& path);
  /// Flushes + closes the capture file; returns records written.
  /// The recorder itself stays in its current enabled/disabled state.
  Result<uint64_t> StopCapture();
  bool capturing() const {
    return capturing_.load(std::memory_order_acquire);
  }

  // --- Charge sites ----------------------------------------------------
  /// Records one object access. `class_label` must have static storage
  /// duration (interned). Costs one relaxed load when disabled.
  void Record(AccessOp op, uint64_t cluster, uint64_t local,
              const char* class_label, uint64_t page);
  /// Records a raw buffer-pool page touch (page heat only; not an
  /// event, not captured — replay regenerates its own pool traffic).
  void RecordPageTouch(uint64_t page);
  /// Records a reference-affinity edge (cascade / join row flow).
  /// Not sampled: edges are rare and each one is signal.
  void RecordAffinity(uint64_t src_cluster, uint64_t src_local,
                      const char* src_class, uint64_t dst_cluster,
                      uint64_t dst_local, const char* dst_class);

  // --- Accounting ------------------------------------------------------
  /// Object-access events recorded (sampled in).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  /// Heat/affinity table overflow.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // --- Reads -----------------------------------------------------------
  /// Aggregated heat + affinity. `top_pages` / `top_edges` bound the
  /// vectors (0 = everything), hottest first.
  AccessProfile SnapshotProfile(size_t top_pages = 0,
                                size_t top_edges = 0) const;

  /// The `/heatmap` document: page heat, class heat, top-N affinity
  /// edges, event/loss accounting, recorder state.
  std::string RenderHeatmapJson(size_t top_n = 32) const;
  /// Human-readable heat map for the shell.
  std::string RenderHeatmapText(size_t top_n = 16) const;

  /// Clears everything (tables, counters) and disables the
  /// recorder. Callers must be quiesced — test-only.
  void ResetForTest();

 private:
  /// Open-addressing heat slot keyed by page+1 (0 = empty).
  struct PageSlot {
    std::atomic<uint64_t> key{0};
    std::atomic<uint64_t> object_accesses{0};
    std::atomic<uint64_t> pool_touches{0};
  };
  /// Heat slot keyed by interned class label (nullptr = empty).
  struct ClassSlot {
    std::atomic<const char*> key{nullptr};
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> by_op[kAccessOpCount];
  };
  /// Affinity slot. `state` 0 = empty, 1 = key being written, 2 =
  /// ready; the count is only bumped on ready slots.
  struct AffinitySlot {
    std::atomic<uint32_t> state{0};
    uint64_t src_cluster = 0, src_local = 0;
    uint64_t dst_cluster = 0, dst_local = 0;
    const char* src_class = nullptr;
    const char* dst_class = nullptr;
    std::atomic<uint64_t> count{0};
  };

  bool SampledOut();
  void BumpPageHeat(uint64_t page, bool object_access);
  void BumpClassHeat(const char* label, AccessOp op);
  void CountDrop(uint64_t n = 1);

  std::unique_ptr<PageSlot[]> pages_;
  std::unique_ptr<ClassSlot[]> classes_;
  std::unique_ptr<AffinitySlot[]> affinity_;

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> sample_period_{1};
  std::atomic<uint64_t> sample_tick_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};

  /// `capturing_` is the producers' cheap gate; the writer itself is
  /// guarded by `capture_mu_` (rank kAccessCapture, 185 — above every
  /// engine lock a charge site may hold, below the obs render locks).
  std::atomic<bool> capturing_{false};
  mutable Mutex capture_mu_{LockRank::kAccessCapture};
  AccessTraceWriter capture_ ODE_GUARDED_BY(capture_mu_);
};

}  // namespace ode::obs

#endif  // ODEVIEW_COMMON_ACCESS_LOG_H_
