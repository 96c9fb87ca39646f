#include "common/timeseries.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/strings.h"
#include "common/trace.h"

namespace ode::obs {

TimeSeriesStore::TimeSeriesStore(uint64_t resolution_ns, size_t slots)
    : resolution_ns_(resolution_ns == 0 ? kDefaultResolutionNs : resolution_ns),
      slots_(slots == 0 ? kDefaultSlots : slots) {}

TimeSeriesStore::~TimeSeriesStore() { Stop(); }

TimeSeriesStore& TimeSeriesStore::Global() {
  // Leaked: telemetry scrapes may race static destruction.
  static TimeSeriesStore* store = new TimeSeriesStore();
  return *store;
}

Status TimeSeriesStore::Configure(uint64_t resolution_ns, size_t slots) {
  MutexLock lock(mu_);
  if (running_) {
    return Status::FailedPrecondition(
        "timeseries store is running; stop it before reconfiguring");
  }
  if (resolution_ns == 0 || slots == 0) {
    return Status::InvalidArgument("resolution and slot count must be nonzero");
  }
  resolution_ns_ = resolution_ns;
  slots_ = slots;
  series_.clear();
  ticks_ = 0;
  return Status::OK();
}

void TimeSeriesStore::Start() {
  MutexLock lock(mu_);
  if (running_) return;
  if (thread_.joinable()) thread_.join();  // reap a finished generation
  stopping_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void TimeSeriesStore::Stop() {
  std::thread to_join;
  {
    MutexLock lock(mu_);
    if (!running_ && !thread_.joinable()) return;
    stopping_ = true;
    wake_cv_.NotifyAll();
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) to_join.join();
  MutexLock lock(mu_);
  running_ = false;
  stopping_ = false;
}

bool TimeSeriesStore::running() const {
  MutexLock lock(mu_);
  return running_;
}

uint64_t TimeSeriesStore::resolution_ns() const {
  MutexLock lock(mu_);
  return resolution_ns_;
}

size_t TimeSeriesStore::slots() const {
  MutexLock lock(mu_);
  return slots_;
}

uint64_t TimeSeriesStore::tick_count() const {
  MutexLock lock(mu_);
  return ticks_;
}

void TimeSeriesStore::TickOnce() {
  // The registry snapshot is taken lock-free with respect to `mu_`
  // (and would be legal under it too: kTimeSeries 182 < kMetricsRegistry
  // 200) so a slow snapshot never blocks readers of the history.
  std::vector<MetricSample> samples = Registry::Global().Snapshot();
  uint64_t now_ns = Tracing::NowNanos();
  MutexLock lock(mu_);
  Fold(samples, now_ns);
}

void TimeSeriesStore::Fold(const std::vector<MetricSample>& samples,
                           uint64_t now_ns) {
  for (const MetricSample& s : samples) {
    Ring& ring = series_[s.name];
    ring.kind = s.kind;
    if (ring.points.size() != slots_) {
      ring.points.assign(slots_, TimeSeriesPoint{});
      ring.next = 0;
      ring.size = 0;
    }
    TimeSeriesPoint& p = ring.points[ring.next];
    p.ts_ns = now_ns;
    p.value = s.value;
    p.count = s.count;
    if (s.kind == MetricSample::Kind::kHistogram) {
      // Prefer the rotating window (a burst stays visible under a long
      // uptime); fall back to cumulative while the first window fills.
      if (s.window_count > 0) {
        p.p50 = s.window_p50;
        p.p95 = s.window_p95;
        p.p99 = s.window_p99;
      } else {
        p.p50 = s.p50;
        p.p95 = s.p95;
        p.p99 = s.p99;
      }
    }
    ring.next = (ring.next + 1) % slots_;
    if (ring.size < slots_) ++ring.size;
  }
  ++ticks_;
}

std::vector<TimeSeriesPoint> TimeSeriesStore::Unroll(const Ring& ring) {
  std::vector<TimeSeriesPoint> out;
  out.reserve(ring.size);
  size_t capacity = ring.points.size();
  size_t start = ring.size < capacity ? 0 : ring.next;
  for (size_t i = 0; i < ring.size; ++i) {
    out.push_back(ring.points[(start + i) % capacity]);
  }
  return out;
}

void TimeSeriesStore::Loop() {
  while (true) {
    std::vector<MetricSample> samples = Registry::Global().Snapshot();
    uint64_t now_ns = Tracing::NowNanos();
    MutexLock lock(mu_);
    if (stopping_) return;
    Fold(samples, now_ns);
    uint64_t sleep_ns = resolution_ns_;
    wake_cv_.WaitFor(lock, std::chrono::nanoseconds(sleep_ns));
    if (stopping_) return;
  }
}

TimeSeries TimeSeriesStore::Series(const std::string& name) const {
  TimeSeries out;
  out.name = name;
  MutexLock lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) return out;
  out.kind = it->second.kind;
  out.points = Unroll(it->second);
  return out;
}

namespace {

const char* KindName(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter:
      return "counter";
    case MetricSample::Kind::kGauge:
      return "gauge";
    case MetricSample::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string TimeSeriesStore::RenderJson() const {
  MutexLock lock(mu_);
  std::string out = "{\"resolution_ns\":" + std::to_string(resolution_ns_) +
                    ",\"slots\":" + std::to_string(slots_) +
                    ",\"ticks\":" + std::to_string(ticks_) + ",\"series\":[";
  bool first_series = true;
  for (const auto& [name, ring] : series_) {
    if (!first_series) out += ",";
    first_series = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, name);
    out += "\",\"kind\":\"";
    out += KindName(ring.kind);
    out += "\",\"points\":[";
    std::vector<TimeSeriesPoint> points = Unroll(ring);
    for (size_t i = 0; i < points.size(); ++i) {
      const TimeSeriesPoint& p = points[i];
      if (i != 0) out += ",";
      out += "{\"ts_ns\":" + std::to_string(p.ts_ns);
      switch (ring.kind) {
        case MetricSample::Kind::kCounter: {
          out += ",\"value\":" + std::to_string(p.value);
          if (i != 0 && p.ts_ns > points[i - 1].ts_ns) {
            double rate =
                static_cast<double>(p.value - points[i - 1].value) * 1e9 /
                static_cast<double>(p.ts_ns - points[i - 1].ts_ns);
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.3f", rate);
            out += ",\"rate_per_s\":";
            out += buf;
          }
          break;
        }
        case MetricSample::Kind::kGauge:
          out += ",\"value\":" + std::to_string(p.value);
          break;
        case MetricSample::Kind::kHistogram:
          out += ",\"count\":" + std::to_string(p.count) +
                 ",\"p50\":" + std::to_string(p.p50) +
                 ",\"p95\":" + std::to_string(p.p95) +
                 ",\"p99\":" + std::to_string(p.p99);
          break;
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void TimeSeriesStore::ResetForTest() {
  Stop();
  MutexLock lock(mu_);
  resolution_ns_ = kDefaultResolutionNs;
  slots_ = kDefaultSlots;
  series_.clear();
  ticks_ = 0;
}

}  // namespace ode::obs
