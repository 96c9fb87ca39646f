#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"

namespace ode::obs {

namespace {

/// Where rejected registrations land (see Registry::ResolveName).
constexpr std::string_view kQuarantineName = "obs.invalid_metric";
constexpr std::string_view kRejectionCounter = "obs.invalid_metric_names";

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map
/// dots (and anything else) to underscores.
std::string SanitizeForPrometheus(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

/// Prometheus HELP text escaping: backslash and newline only (the
/// text exposition format's rules for help lines).
std::string EscapePrometheusHelp(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapePrometheusLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

int BucketIndex(uint64_t value) {
  int width = std::bit_width(value);  // 0 for value == 0
  return std::min(width, Histogram::kBuckets - 1);
}

uint64_t NowSteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Quantile from a plain bucket-count array (same bucket geometry as
/// `Histogram`); `max` stands in for the unbounded top bucket.
uint64_t QuantileFromBuckets(const uint64_t* buckets, uint64_t count,
                             uint64_t max, double q) {
  if (count == 0) return 0;
  auto rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  uint64_t seen = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank) {
      if (i >= Histogram::kBuckets - 1) return max;
      return Histogram::BucketUpperBound(i);
    }
  }
  return max;
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  char first = name.front();
  bool first_ok = (first >= 'a' && first <= 'z') ||
                  (first >= 'A' && first <= 'Z') || first == '_';
  if (!first_ok) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':' || c == '.';
    if (!ok) return false;
  }
  return true;
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::BucketUpperBound(int i) {
  if (i <= 0) return 0;
  if (i >= kBuckets - 1) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

void Histogram::MergeFrom(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    uint64_t n = other.bucket(i);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  uint64_t value = other.max();
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::ApproxQuantile(double q) const {
  uint64_t total = count();
  if (total == 0) return 0;
  auto rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen > rank) {
      // The top bucket is unbounded; report the observed max instead.
      if (i >= kBuckets - 1) return max();
      return BucketUpperBound(i);
    }
  }
  return max();
}

Registry& Registry::Global() {
  // Leaked singleton: instrument pointers stay valid through static
  // destruction (background threads may log metrics late in shutdown).
  static Registry* registry = new Registry();
  return *registry;
}

std::string_view Registry::ResolveName(std::string_view name) {
  if (IsValidMetricName(name)) return name;
  ODE_LOG(Warning) << "rejected metric name '" << std::string(name)
                   << "' (allowed: [a-zA-Z0-9_:.], leading letter or '_')";
  CounterLocked(kRejectionCounter)->Increment();
  return kQuarantineName;
}

Counter* Registry::CounterLocked(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Counter* Registry::counter(std::string_view name) {
  MutexLock lock(mu_);
  return CounterLocked(ResolveName(name));
}

Gauge* Registry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  name = ResolveName(name);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::histogram(std::string_view name) {
  MutexLock lock(mu_);
  name = ResolveName(name);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

std::shared_ptr<Counter> Registry::NewOwnedCounter(std::string_view name) {
  // The deleter retires the final value so exports keep the history of
  // owners that have since been destroyed (e.g. benchmark-scoped pools).
  MutexLock lock(mu_);
  name = ResolveName(name);
  std::shared_ptr<Counter> instrument(
      new Counter(), [this, key = std::string(name)](Counter* c) {
        RetireCounter(key, c->value());
        delete c;
      });
  owned_counters_.emplace_back(std::string(name), instrument);
  return instrument;
}

std::shared_ptr<Histogram> Registry::NewOwnedHistogram(
    std::string_view name) {
  MutexLock lock(mu_);
  name = ResolveName(name);
  std::shared_ptr<Histogram> instrument(
      new Histogram(), [this, key = std::string(name)](Histogram* h) {
        RetireHistogram(key, *h);
        delete h;
      });
  owned_histograms_.emplace_back(std::string(name), instrument);
  return instrument;
}

void Registry::SetHelp(std::string_view name, std::string_view help) {
  MutexLock lock(mu_);
  help_[std::string(ResolveName(name))] = std::string(help);
}

void Registry::RetireCounter(const std::string& name, uint64_t value) {
  MutexLock lock(mu_);
  retired_counters_[name] += value;
  // Prune expired registrations while we are here so churning owners
  // (one pool per benchmark iteration) cannot grow the list unboundedly.
  std::erase_if(owned_counters_,
                [](const auto& entry) { return entry.second.expired(); });
}

void Registry::RetireHistogram(const std::string& name,
                               const Histogram& histogram) {
  MutexLock lock(mu_);
  auto it = retired_histograms_.find(name);
  if (it == retired_histograms_.end()) {
    it = retired_histograms_
             .emplace(name, std::make_unique<Histogram>())
             .first;
  }
  it->second->MergeFrom(histogram);
  std::erase_if(owned_histograms_,
                [](const auto& entry) { return entry.second.expired(); });
}

std::vector<MetricSample> Registry::Snapshot() const {
  // Aggregation maps keyed by name; owned instances fold into the
  // shared instrument's entry.
  std::map<std::string, uint64_t> counter_totals;
  std::map<std::string, int64_t> gauge_values;
  struct HistAgg {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t buckets[Histogram::kBuckets] = {};
  };
  std::map<std::string, HistAgg> hist_totals;

  auto fold = [&hist_totals](const std::string& name, const Histogram& h) {
    HistAgg& agg = hist_totals[name];
    agg.count += h.count();
    agg.sum += h.sum();
    agg.max = std::max(agg.max, h.max());
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      agg.buckets[i] += h.bucket(i);
    }
  };

  // Owned instruments pinned outside the lock scope: if an owner drops
  // its reference concurrently, the deleter (which retires into this
  // registry under mu_) must not run while we hold mu_.
  std::vector<std::pair<std::string, std::shared_ptr<Counter>>> live_counters;
  std::vector<std::pair<std::string, std::shared_ptr<Histogram>>>
      live_histograms;
  {
    MutexLock lock(mu_);
    for (const auto& [name, c] : counters_) counter_totals[name] += c->value();
    for (const auto& [name, value] : retired_counters_) {
      counter_totals[name] += value;
    }
    for (const auto& [name, weak] : owned_counters_) {
      if (auto c = weak.lock()) live_counters.emplace_back(name, std::move(c));
    }
    for (const auto& [name, g] : gauges_) gauge_values[name] = g->value();
    for (const auto& [name, h] : histograms_) fold(name, *h);
    for (const auto& [name, h] : retired_histograms_) fold(name, *h);
    for (const auto& [name, weak] : owned_histograms_) {
      if (auto h = weak.lock()) {
        live_histograms.emplace_back(name, std::move(h));
      }
    }
  }
  for (const auto& [name, c] : live_counters) counter_totals[name] += c->value();
  for (const auto& [name, h] : live_histograms) fold(name, *h);

  // Window rotation, lazily on snapshot: the aggregate above is the
  // lifetime total, so a window is just the delta of bucket counts
  // since the window opened. mu_ is re-acquired (briefly) because the
  // window baselines are registry state.
  struct WindowView {
    uint64_t count = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
  };
  std::map<std::string, WindowView> window_views;
  {
    const uint64_t duration = window_duration_ns();
    const uint64_t now = NowSteadyNs();
    MutexLock lock(mu_);
    for (const auto& [name, agg] : hist_totals) {
      HistWindow& w = windows_[name];
      if (agg.count < w.baseline_count) {
        // Totals shrank (a test reset retired history): restart clean.
        w = HistWindow{};
      }
      uint64_t delta[Histogram::kBuckets];
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        delta[i] = agg.buckets[i] - w.baseline[i];
      }
      uint64_t delta_count = agg.count - w.baseline_count;
      const bool rotate = w.opened_at_ns == 0 || duration == 0 ||
                          now - w.opened_at_ns >= duration;
      if (rotate) {
        std::copy(delta, delta + Histogram::kBuckets, w.completed);
        w.completed_count = delta_count;
        std::copy(agg.buckets, agg.buckets + Histogram::kBuckets,
                  w.baseline);
        w.baseline_count = agg.count;
        w.opened_at_ns = now;
      }
      // Prefer the last completed window; while it is empty (fresh
      // start or a quiet minute) fall back to the in-progress delta so
      // the export never goes dark mid-burst.
      const uint64_t* src = w.completed;
      uint64_t src_count = w.completed_count;
      if (src_count == 0) {
        src = delta;
        src_count = delta_count;
      }
      WindowView view;
      view.count = src_count;
      view.p50 = QuantileFromBuckets(src, src_count, agg.max, 0.50);
      view.p95 = QuantileFromBuckets(src, src_count, agg.max, 0.95);
      view.p99 = QuantileFromBuckets(src, src_count, agg.max, 0.99);
      window_views[name] = view;
    }
  }

  auto quantile_of = [](const HistAgg& agg, double q) -> uint64_t {
    return QuantileFromBuckets(agg.buckets, agg.count, agg.max, q);
  };

  std::vector<MetricSample> out;
  out.reserve(counter_totals.size() + gauge_values.size() +
              hist_totals.size());
  for (const auto& [name, value] : counter_totals) {
    MetricSample s;
    s.kind = MetricSample::Kind::kCounter;
    s.name = name;
    s.value = static_cast<int64_t>(value);
    out.push_back(std::move(s));
  }
  for (const auto& [name, value] : gauge_values) {
    MetricSample s;
    s.kind = MetricSample::Kind::kGauge;
    s.name = name;
    s.value = value;
    out.push_back(std::move(s));
  }
  for (const auto& [name, agg] : hist_totals) {
    MetricSample s;
    s.kind = MetricSample::Kind::kHistogram;
    s.name = name;
    s.count = agg.count;
    s.sum = agg.sum;
    s.max = agg.max;
    s.p50 = quantile_of(agg, 0.50);
    s.p95 = quantile_of(agg, 0.95);
    s.p99 = quantile_of(agg, 0.99);
    s.buckets.assign(agg.buckets, agg.buckets + Histogram::kBuckets);
    if (auto it = window_views.find(name); it != window_views.end()) {
      s.window_count = it->second.count;
      s.window_p50 = it->second.p50;
      s.window_p95 = it->second.p95;
      s.window_p99 = it->second.p99;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::string Registry::RenderPrometheus() const {
  std::map<std::string, std::string, std::less<>> help;
  {
    MutexLock lock(mu_);
    help = help_;
  }
  std::ostringstream os;
  for (const MetricSample& s : Snapshot()) {
    std::string name = SanitizeForPrometheus(s.name);
    if (auto it = help.find(s.name); it != help.end()) {
      os << "# HELP " << name << " " << EscapePrometheusHelp(it->second)
         << "\n";
    }
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        os << "# TYPE " << name << " counter\n"
           << name << " " << s.value << "\n";
        break;
      case MetricSample::Kind::kGauge:
        os << "# TYPE " << name << " gauge\n"
           << name << " " << s.value << "\n";
        break;
      case MetricSample::Kind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        uint64_t cumulative = 0;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          if (s.buckets[i] == 0 && i != Histogram::kBuckets - 1) continue;
          cumulative += s.buckets[i];
          if (i == Histogram::kBuckets - 1) {
            os << name << "_bucket{le=\"+Inf\"} " << s.count << "\n";
          } else {
            os << name << "_bucket{le=\""
               << EscapePrometheusLabel(
                      std::to_string(Histogram::BucketUpperBound(i)))
               << "\"} " << cumulative << "\n";
          }
        }
        os << name << "_sum " << s.sum << "\n"
           << name << "_count " << s.count << "\n";
        // Rotating-window quantiles export as gauges (a quantile is
        // not a cumulative series).
        os << "# TYPE " << name << "_window_p50 gauge\n"
           << name << "_window_p50 " << s.window_p50 << "\n"
           << "# TYPE " << name << "_window_p95 gauge\n"
           << name << "_window_p95 " << s.window_p95 << "\n"
           << "# TYPE " << name << "_window_p99 gauge\n"
           << name << "_window_p99 " << s.window_p99 << "\n";
        break;
      }
    }
  }
  return os.str();
}

std::string Registry::RenderJson() const {
  std::ostringstream counters, gauges, histograms;
  bool first_c = true, first_g = true, first_h = true;
  for (const MetricSample& s : Snapshot()) {
    std::string name;
    AppendJsonEscaped(&name, s.name);
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        if (!first_c) counters << ",";
        first_c = false;
        counters << "\"" << name << "\":" << s.value;
        break;
      case MetricSample::Kind::kGauge:
        if (!first_g) gauges << ",";
        first_g = false;
        gauges << "\"" << name << "\":" << s.value;
        break;
      case MetricSample::Kind::kHistogram: {
        if (!first_h) histograms << ",";
        first_h = false;
        histograms << "\"" << name << "\":{"
                   << "\"count\":" << s.count << ",\"sum\":" << s.sum
                   << ",\"max\":" << s.max << ",\"p50\":" << s.p50
                   << ",\"p95\":" << s.p95 << ",\"p99\":" << s.p99
                   << ",\"window\":{\"count\":" << s.window_count
                   << ",\"p50\":" << s.window_p50
                   << ",\"p95\":" << s.window_p95
                   << ",\"p99\":" << s.window_p99 << "}";
        // Bucket boundaries ride along so consumers can re-derive any
        // quantile; zero buckets are omitted, the top one is "inf".
        histograms << ",\"buckets\":[";
        bool first_b = true;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          if (s.buckets[i] == 0) continue;
          if (!first_b) histograms << ",";
          first_b = false;
          if (i == Histogram::kBuckets - 1) {
            histograms << "{\"le\":\"inf\",\"count\":" << s.buckets[i]
                       << "}";
          } else {
            histograms << "{\"le\":" << Histogram::BucketUpperBound(i)
                       << ",\"count\":" << s.buckets[i] << "}";
          }
        }
        histograms << "]}";
        break;
      }
    }
  }
  std::ostringstream os;
  os << "{\"counters\":{" << counters.str() << "},\"gauges\":{"
     << gauges.str() << "},\"histograms\":{" << histograms.str() << "}}";
  return os.str();
}

std::string Registry::RenderText() const {
  std::vector<MetricSample> samples = Snapshot();
  std::ostringstream os;
  // One section per kind (samples are name-sorted within each).
  auto section = [&](MetricSample::Kind kind, const char* header) {
    bool first = true;
    for (const MetricSample& s : samples) {
      if (s.kind != kind) continue;
      if (first) {
        os << header;
        first = false;
      }
      if (kind == MetricSample::Kind::kHistogram) {
        os << "  " << s.name << ": n=" << s.count << " p50=" << s.p50
           << " p95=" << s.p95 << " p99=" << s.p99 << " max=" << s.max;
        if (s.count > 0) os << " mean=" << s.sum / s.count;
        os << "\n";
      } else {
        os << "  " << s.name << " = " << s.value << "\n";
      }
    }
  };
  section(MetricSample::Kind::kCounter, "-- counters --\n");
  section(MetricSample::Kind::kGauge, "-- gauges --\n");
  section(MetricSample::Kind::kHistogram, "-- histograms (ns) --\n");
  return os.str();
}

void Registry::ResetForTest() {
  MutexLock lock(mu_);
  // Recreate rather than zero: instrument pointers cached at call sites
  // must stay valid, so zero in place.
  for (auto& [name, c] : counters_) {
    (void)name;
    c->Add(0 - c->value());
  }
  for (auto& [name, g] : gauges_) {
    (void)name;
    g->Set(0);
  }
  // Histograms cannot be zeroed in place race-free; replacing them
  // would invalidate cached pointers. Tests that need a clean slate use
  // fresh metric names or delta assertions instead; shared histograms
  // keep their samples.
  owned_counters_.clear();
  owned_histograms_.clear();
  retired_counters_.clear();
  retired_histograms_.clear();
  windows_.clear();
}

}  // namespace ode::obs
