#include "common/trace.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "common/strings.h"
#include "common/thread_annotations.h"
#include "common/threading.h"

namespace ode::obs {

std::atomic<bool> Tracing::enabled_{false};

namespace {

/// Events retained per thread before the ring wraps (oldest dropped).
constexpr size_t kRingCapacity = 8192;

/// Open spans tracked per thread; deeper nesting is still timed but
/// invisible to the watchdog (bounded so crash dumps stay allocation-
/// free).
constexpr size_t kMaxOpenSpans = 64;

/// One thread's span storage. The owning thread appends; an exporting
/// thread reads — both under `mu`, which the owner almost always takes
/// uncontended.
struct ThreadBuffer {
  Mutex mu{LockRank::kTraceBuffer};
  std::vector<TraceEvent> ring ODE_GUARDED_BY(mu);
  size_t next ODE_GUARDED_BY(mu) = 0;  ///< ring slot for the next event
  bool wrapped ODE_GUARDED_BY(mu) = false;  ///< holds kRingCapacity events
  uint64_t dropped ODE_GUARDED_BY(mu) = 0;
  /// Stack of spans whose TraceSpan is still in scope.
  OpenSpanInfo open[kMaxOpenSpans] ODE_GUARDED_BY(mu);
  size_t open_count ODE_GUARDED_BY(mu) = 0;
  /// Updated every time the owning thread opens or closes a span; the
  /// watchdog's progress signal.
  uint64_t last_activity_ns ODE_GUARDED_BY(mu) = 0;
  /// Immutable after the registration in LocalBuffer().
  uint32_t thread_id = 0;
};

struct BufferDirectory {
  Mutex mu{LockRank::kTraceDirectory};
  std::vector<std::shared_ptr<ThreadBuffer>> buffers ODE_GUARDED_BY(mu);
};

BufferDirectory& Directory() {
  // Leaked: exiting threads' buffers stay exportable at shutdown.
  static BufferDirectory* directory = new BufferDirectory();
  return *directory;
}

ThreadBuffer& LocalBuffer() {
  // The shared_ptr keeps the buffer alive in the directory after the
  // thread exits, so late exports still see its spans.
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    b->thread_id = CurrentThreadId();
    BufferDirectory& directory = Directory();
    MutexLock lock(directory.mu);
    directory.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

/// This thread's nesting of open spans (a depth, not a causal parent:
/// never handed to another thread).
thread_local uint32_t tls_span_depth = 0;
thread_local OpContext tls_context;

/// Span/trace id allocator. Ids are process-unique and never zero
/// (zero means "no id"), shared between trace and span ids.
std::atomic<uint64_t> next_causal_id{1};

uint64_t NextCausalId() {
  return next_causal_id.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::shared_ptr<ThreadBuffer>> AllBuffers() {
  BufferDirectory& directory = Directory();
  MutexLock lock(directory.mu);
  return directory.buffers;
}

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

uint64_t Tracing::NowNanos() {
  auto elapsed = std::chrono::steady_clock::now() - ProcessEpoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

OpContext CurrentOpContext() { return tls_context; }

TraceContext CurrentTraceContext() {
  return TraceContext{tls_context.trace_id, tls_context.span_id};
}

OpProfile* CurrentOpProfile() { return tls_context.profile; }

uint64_t CurrentSessionId() { return tls_context.session_id; }

OpContextScope::OpContextScope(const OpContext& ctx) : saved_(tls_context) {
  tls_context = ctx;
}

OpContextScope::~OpContextScope() { tls_context = saved_; }

TraceContext Tracing::NewRootContext() {
  TraceContext ctx;
  ctx.trace_id = NextCausalId();
  ctx.span_id = NextCausalId();
  return ctx;
}

void Tracing::Record(const char* name, uint64_t start_ns,
                     uint64_t duration_ns, uint32_t depth, uint64_t trace_id,
                     uint64_t span_id, uint64_t parent_id) {
  TraceEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.duration_ns = duration_ns;
  event.thread_id = CurrentThreadId();
  event.depth = depth;
  event.trace_id = trace_id;
  event.span_id = span_id;
  event.parent_id = parent_id;
  ThreadBuffer& buffer = LocalBuffer();
  MutexLock lock(buffer.mu);
  buffer.last_activity_ns = NowNanos();
  if (buffer.ring.size() < kRingCapacity) {
    buffer.ring.push_back(event);
    buffer.next = buffer.ring.size() % kRingCapacity;
  } else {
    buffer.ring[buffer.next] = event;
    buffer.next = (buffer.next + 1) % kRingCapacity;
    buffer.wrapped = true;
    ++buffer.dropped;
  }
}

size_t Tracing::CapturedCount() {
  size_t total = 0;
  for (const auto& buffer : AllBuffers()) {
    MutexLock lock(buffer->mu);
    total += buffer->ring.size();
  }
  return total;
}

uint64_t Tracing::DroppedCount() {
  uint64_t total = 0;
  for (const auto& buffer : AllBuffers()) {
    MutexLock lock(buffer->mu);
    total += buffer->dropped;
  }
  return total;
}

void Tracing::Clear() {
  for (const auto& buffer : AllBuffers()) {
    MutexLock lock(buffer->mu);
    buffer->ring.clear();
    buffer->next = 0;
    buffer->wrapped = false;
    buffer->dropped = 0;
  }
}

std::vector<OpenSpanInfo> Tracing::OpenSpans() {
  std::vector<OpenSpanInfo> out;
  for (const auto& buffer : AllBuffers()) {
    MutexLock lock(buffer->mu);
    for (size_t i = 0; i < buffer->open_count; ++i) {
      OpenSpanInfo info = buffer->open[i];
      info.thread_last_activity_ns = buffer->last_activity_ns;
      out.push_back(info);
    }
  }
  return out;
}

void Tracing::DumpOpenSpans(int fd) {
  // Async-signal context: no allocation, try-lock only (a buffer whose
  // owner crashed mid-append is skipped rather than deadlocked on).
  BufferDirectory& directory = Directory();
  if (!directory.mu.TryLock()) return;
  char line[256];
  uint64_t now = NowNanos();
  for (const auto& buffer : directory.buffers) {
    if (!buffer->mu.TryLock()) continue;
    for (size_t i = 0; i < buffer->open_count; ++i) {
      const OpenSpanInfo& span = buffer->open[i];
      int n = std::snprintf(
          line, sizeof(line),
          "  open span %-24s thread=%u age_ns=%llu trace=%llu span=%llu "
          "parent=%llu\n",
          span.name, buffer->thread_id,
          static_cast<unsigned long long>(now - span.start_ns),
          static_cast<unsigned long long>(span.trace_id),
          static_cast<unsigned long long>(span.span_id),
          static_cast<unsigned long long>(span.parent_id));
      if (n > 0) {
        ssize_t ignored = ::write(fd, line, static_cast<size_t>(n));
        (void)ignored;
      }
    }
    buffer->mu.Unlock();
  }
  directory.mu.Unlock();
}

std::vector<TraceEvent> Tracing::SnapshotEvents() {
  std::vector<TraceEvent> out;
  for (const auto& buffer : AllBuffers()) {
    MutexLock lock(buffer->mu);
    out.insert(out.end(), buffer->ring.begin(), buffer->ring.end());
  }
  return out;
}

std::string Tracing::ExportChromeJson() {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& buffer : AllBuffers()) {
    MutexLock lock(buffer->mu);
    for (const TraceEvent& event : buffer->ring) {
      if (!first) os << ",";
      first = false;
      // Timestamps are microseconds (the trace_event unit); keep
      // nanosecond precision with three decimals.
      char ts[32], dur[32];
      std::snprintf(ts, sizeof(ts), "%llu.%03llu",
                    static_cast<unsigned long long>(event.start_ns / 1000),
                    static_cast<unsigned long long>(event.start_ns % 1000));
      std::snprintf(dur, sizeof(dur), "%llu.%03llu",
                    static_cast<unsigned long long>(event.duration_ns / 1000),
                    static_cast<unsigned long long>(event.duration_ns % 1000));
      // Span names are literals by convention, but the export must stay
      // valid JSON even when one carries a quote or control byte.
      std::string name;
      AppendJsonEscaped(&name, event.name);
      os << "{\"name\":\"" << name << "\",\"cat\":\"ode\""
         << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << event.thread_id
         << ",\"ts\":" << ts << ",\"dur\":" << dur
         << ",\"args\":{\"depth\":" << event.depth
         << ",\"trace\":" << event.trace_id << ",\"span\":" << event.span_id
         << ",\"parent\":" << event.parent_id << "}}";
    }
  }
  os << "]}";
  return os.str();
}

TraceSpan::TraceSpan(const char* name) {
  if (!Tracing::enabled()) return;
  name_ = name;
  start_ns_ = Tracing::NowNanos();
  depth_ = tls_span_depth++;
  parent_ = CurrentTraceContext();
  trace_id_ = parent_.valid() ? parent_.trace_id : NextCausalId();
  span_id_ = NextCausalId();
  tls_context.trace_id = trace_id_;
  tls_context.span_id = span_id_;
  ThreadBuffer& buffer = LocalBuffer();
  MutexLock lock(buffer.mu);
  buffer.last_activity_ns = start_ns_;
  if (buffer.open_count < kMaxOpenSpans) {
    OpenSpanInfo& info = buffer.open[buffer.open_count++];
    info.name = name_;
    info.start_ns = start_ns_;
    info.trace_id = trace_id_;
    info.span_id = span_id_;
    info.parent_id = parent_.span_id;
    info.thread_id = buffer.thread_id;
  }
}

TraceSpan::~TraceSpan() {
  if (name_ == nullptr) return;
  --tls_span_depth;
  tls_context.trace_id = parent_.trace_id;
  tls_context.span_id = parent_.span_id;
  {
    ThreadBuffer& buffer = LocalBuffer();
    MutexLock lock(buffer.mu);
    // Pop this span if it is on the open stack (spans close LIFO, but
    // the stack is bounded, so deep spans may never have been pushed).
    if (buffer.open_count > 0 &&
        buffer.open[buffer.open_count - 1].span_id == span_id_) {
      --buffer.open_count;
    }
  }
  Tracing::Record(name_, start_ns_, Tracing::NowNanos() - start_ns_, depth_,
                  trace_id_, span_id_, parent_.span_id);
}

}  // namespace ode::obs
