// Latency statistics over a host whose CPUs flip between two speed
// states: percentiles are taken over the ops that ran in the host's
// fast windows only (see README.md, "Fast-window rule").

#ifndef ODEVIEW_PERFBENCH_FAST_WINDOW_H_
#define ODEVIEW_PERFBENCH_FAST_WINDOW_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace ode::perfbench {

/// Window length, slack and anchor of the fast-window rule. One set for
/// every workload and every series, so no run can be judged by a looser
/// rule than another.
constexpr uint32_t kWindowUs = 20'000;
constexpr double kSlack = 1.15;
constexpr double kAnchor = 0.02;

/// One timed operation, 12 bytes: the timed phase keeps one per op in an
/// array allocated before set-up (see README.md, `peak_rss_mb`).
struct OpSample {
  /// A failed op counts as slower than every percentile.
  static constexpr uint32_t kFailedNs = std::numeric_limits<uint32_t>::max();

  uint32_t start_us = 0;  ///< from the phase start
  uint32_t duration_ns = 0;
  /// Units of work the op did, for workloads whose ops differ in size
  /// (query: records the cursor moved over); 1 elsewhere.
  uint32_t work = 1;

  bool failed() const { return duration_ns == kFailedNs; }
  uint64_t cost() const {
    return failed() ? std::numeric_limits<uint64_t>::max() : duration_ns;
  }
  uint64_t unit_cost() const {
    return failed() ? std::numeric_limits<uint64_t>::max()
                    : duration_ns / work;
  }
};

/// Nearest-rank percentile of an unsorted copy; `q` in (0, 1].
inline uint64_t Percentile(std::vector<uint64_t> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

struct FastWindowStats {
  double p50_us = 0;    ///< over ops in fast windows
  double p99_us = 0;
  size_t fast_ops = 0;  ///< sample count behind p50 and p99
  size_t ops = 0;
  size_t windows = 0;
  size_t fast_windows = 0;
  double plain_p50_us = 0;  ///< unfiltered, for host diagnostics
  double plain_p99_us = 0;
  /// Per-op flag: did the op run in a fast window?
  std::vector<bool> fast;

  double fast_share() const {
    return windows == 0 ? 0 : static_cast<double>(fast_windows) / windows;
  }
};

/// The fast-window rule:
///  1. cut the phase into consecutive kWindowUs windows (by op start);
///  2. take each window's median op cost per unit of work (so a window
///     of cheap ops is not mistaken for a fast host);
///  3. a window is fast when its median is <= kSlack x the kAnchor
///     percentile of all window medians. The anchor sits low (2nd
///     percentile) because the fast state can cover well under a tenth
///     of a run; anchored at the 10th, such a run reports its slow
///     state;
///  4. p50 and p99 are taken over the ops of fast windows.
inline FastWindowStats ComputeFastWindowStats(std::span<const OpSample> ops) {
  FastWindowStats out;
  out.ops = ops.size();
  out.fast.assign(ops.size(), false);
  if (ops.empty()) return out;

  std::vector<uint64_t> all;
  all.reserve(ops.size());
  uint32_t last_start_us = 0;
  for (const OpSample& op : ops) {
    all.push_back(op.cost());
    last_start_us = std::max(last_start_us, op.start_us);
  }
  out.plain_p50_us = Percentile(all, 0.50) / 1e3;
  out.plain_p99_us = Percentile(std::move(all), 0.99) / 1e3;

  size_t window_count = last_start_us / kWindowUs + 1;
  std::vector<std::vector<uint64_t>> windows(window_count);
  for (const OpSample& op : ops) {
    windows[op.start_us / kWindowUs].push_back(op.unit_cost());
  }
  std::vector<uint64_t> medians(window_count, 0);
  std::vector<uint64_t> present;
  for (size_t w = 0; w < window_count; ++w) {
    if (windows[w].empty()) continue;
    medians[w] = Percentile(windows[w], 0.50);
    present.push_back(medians[w]);
  }
  out.windows = present.size();
  double threshold = kSlack * static_cast<double>(Percentile(present, kAnchor));
  std::vector<bool> window_fast(window_count, false);
  for (size_t w = 0; w < window_count; ++w) {
    window_fast[w] =
        !windows[w].empty() && static_cast<double>(medians[w]) <= threshold;
    if (window_fast[w]) ++out.fast_windows;
  }

  std::vector<uint64_t> fast_costs;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!window_fast[ops[i].start_us / kWindowUs]) continue;
    out.fast[i] = true;
    fast_costs.push_back(ops[i].cost());
  }
  out.fast_ops = fast_costs.size();
  out.p50_us = Percentile(fast_costs, 0.50) / 1e3;
  out.p99_us = Percentile(std::move(fast_costs), 0.99) / 1e3;
  return out;
}

}  // namespace ode::perfbench

#endif  // ODEVIEW_PERFBENCH_FAST_WINDOW_H_
