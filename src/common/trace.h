#ifndef ODEVIEW_COMMON_TRACE_H_
#define ODEVIEW_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ode::obs {

/// One completed span, recorded when its `TraceSpan` leaves scope.
struct TraceEvent {
  const char* name = nullptr;  ///< static string (the span label)
  uint64_t start_ns = 0;       ///< steady-clock, relative to process start
  uint64_t duration_ns = 0;
  uint32_t thread_id = 0;  ///< small dense id (see CurrentThreadId)
  uint32_t depth = 0;      ///< nesting depth within this thread (0 = root)
  uint64_t trace_id = 0;   ///< causal tree this span belongs to (0 = none)
  uint64_t span_id = 0;    ///< unique id of this span
  uint64_t parent_id = 0;  ///< span id of the causal parent (0 = root)
};

class OpProfile;

/// The causal position of the executing code: which trace tree it is
/// part of and which span new children should parent to.
struct TraceContext {
  uint64_t trace_id = 0;  ///< 0 = detached (spans start a fresh trace)
  uint64_t span_id = 0;   ///< parent for spans opened under this context

  bool valid() const { return trace_id != 0; }
};

/// Everything the operation running on a thread carries through the
/// layers: its causal position, the session it serves and the profile
/// its resource charges land in. Each thread has one current context;
/// `TraceSpan` moves its span id, `ProfiledOp` attaches a profile and
/// session. Crossing a thread boundary copies the value, all but its
/// profile:
///
///   OpContext ctx = CurrentOpContext();           // capture (producer)
///   ctx.profile = nullptr;
///   worker.Submit([ctx] {
///     OpContextScope adopt(ctx);                  // adopt (consumer)
///     ODE_TRACE_SPAN("pool.fetch");               // child of ctx.span_id
///   });
///
/// A profile has one writer, the thread running its op. A worker that
/// outlives the op (read-ahead) charges no profile: the op, and the
/// profile on its stack, may be gone by the time it runs.
struct OpContext {
  uint64_t trace_id = 0;    ///< 0 = detached (spans start a fresh trace)
  uint64_t span_id = 0;     ///< parent for spans opened under this context
  uint64_t session_id = 0;  ///< 0 = not session-bound
  OpProfile* profile = nullptr;  ///< nullptr = profiling off
};

/// The calling thread's current context, whole or by part.
OpContext CurrentOpContext();
TraceContext CurrentTraceContext();
/// nullptr = profiling off: the near-zero-cost common case every
/// charge site tests first.
OpProfile* CurrentOpProfile();
/// 0 = not session-bound. The access recorder stamps it into its
/// events, the way journal records stamp the trace context.
uint64_t CurrentSessionId();

/// Installs `ctx` as the calling thread's current context and restores
/// the previous one on scope exit. Adopting a default-constructed
/// context detaches the scope: spans inside start fresh traces and no
/// profile or session is charged.
class OpContextScope {
 public:
  explicit OpContextScope(const OpContext& ctx);
  ~OpContextScope();

  OpContextScope(const OpContextScope&) = delete;
  OpContextScope& operator=(const OpContextScope&) = delete;

 private:
  OpContext saved_;
};

/// A span that is currently open (its `TraceSpan` has not left scope),
/// as seen by the watchdog and crash dumps.
struct OpenSpanInfo {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint32_t thread_id = 0;
  /// Last time the owning thread opened or closed any span — a thread
  /// making progress inside a long parent span keeps this fresh, which
  /// is how the watchdog avoids flagging long-but-progressing work.
  uint64_t thread_last_activity_ns = 0;
};

/// Process-wide tracing control. Spans are collected into per-thread
/// ring buffers (each guarded by its own — effectively uncontended —
/// mutex, so collection is TSan-clean even while another thread
/// exports). Tracing is disabled by default: a span on a disabled
/// process costs one relaxed atomic load.
class Tracing {
 public:
  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Events currently retained across all thread buffers.
  static size_t CapturedCount();
  /// Events overwritten because a ring buffer wrapped.
  static uint64_t DroppedCount();
  /// Drops every retained event (buffers stay registered).
  static void Clear();

  /// Chrome `trace_event` JSON (the "traceEvents" array format):
  /// complete events (ph "X") with microsecond timestamps, loadable
  /// directly in chrome://tracing and Perfetto. Each event's `args`
  /// carries `trace`, `span`, and `parent` ids so the causal tree can
  /// be rebuilt from the export.
  static std::string ExportChromeJson();

  /// All retained events (export order). Test hook: assertions on
  /// parent links are easier on structs than on JSON.
  static std::vector<TraceEvent> SnapshotEvents();

  /// Spans currently open across all threads (watchdog data source).
  static std::vector<OpenSpanInfo> OpenSpans();

  /// Appends one completed span with explicit causal ids to the
  /// calling thread's buffer. Normally called by ~TraceSpan; public
  /// for tests and for anchor events (e.g. the zero-length
  /// `db.session` span that roots a session's causal tree).
  static void Record(const char* name, uint64_t start_ns,
                     uint64_t duration_ns, uint32_t depth, uint64_t trace_id,
                     uint64_t span_id, uint64_t parent_id);

  /// A fresh context rooted in a brand-new trace (unique trace and
  /// span ids). Use for long-lived causal anchors such as sessions.
  static TraceContext NewRootContext();

  /// Best-effort dump of open spans to `fd` (async-signal context:
  /// buffers are try-locked, never blocked on; allocation-free).
  static void DumpOpenSpans(int fd);

  /// Nanoseconds since process start on the steady clock (the spans'
  /// time base).
  static uint64_t NowNanos();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII scope measuring one span. Use via ODE_TRACE_SPAN:
///
///   Result<PageHandle> BufferPool::Fetch(...) {
///     ODE_TRACE_SPAN("pool.fetch");
///     ...
///   }
///
/// While the span is open it is the thread's current causal position,
/// so nested spans (and journal records) parent to it; the previous
/// trace ids are restored on scope exit. The name must be a string with
/// static storage duration (a literal).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  ///< null when tracing was off at entry
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  TraceContext parent_;  ///< context to restore (and parent link)
};

}  // namespace ode::obs

#define ODE_OBS_CONCAT_INNER(a, b) a##b
#define ODE_OBS_CONCAT(a, b) ODE_OBS_CONCAT_INNER(a, b)
#define ODE_TRACE_SPAN(name) \
  ::ode::obs::TraceSpan ODE_OBS_CONCAT(ode_trace_span_, __LINE__)(name)

#endif  // ODEVIEW_COMMON_TRACE_H_
