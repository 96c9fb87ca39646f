#ifndef ODEVIEW_ODB_CLUSTER_PLAN_H_
#define ODEVIEW_ODB_CLUSTER_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "odb/oid.h"

namespace ode::odb::cluster {

/// One target heap page of a clustering plan: the records (logical
/// ids within one cluster) that should live together. `bytes` is the
/// packed on-page cost (stored record + slot per member), always
/// within the slotted page's budget.
struct PageGroup {
  std::vector<uint64_t> members;
  uint64_t bytes = 0;
};

/// The plan for one cluster (one class extent).
struct ClusterPlanEntry {
  ClusterId cluster = 0;
  std::string class_name;
  /// Co-location groups, strongest affinity first. Only groups with at
  /// least two members are kept — a singleton gains nothing by moving.
  std::vector<PageGroup> groups;
  /// Affinity weight crossing a page boundary under the current
  /// placement / under the plan (the advisor's cost model: every
  /// cross-page edge is a likely extra page fetch).
  uint64_t cross_page_before = 0;
  uint64_t cross_page_after = 0;
};

/// A page-placement plan computed by the advisor from access-recorder
/// heat + affinity (or from a captured ODEACC02 trace). Apply it with
/// `Database::Recluster`.
struct ClusterPlan {
  std::vector<ClusterPlanEntry> clusters;
  /// Affinity edges the advisor considered (after endpoint resolution).
  uint64_t edges_considered = 0;
  /// Plan-wide cross-page affinity totals (sums over `clusters`).
  uint64_t cross_page_before = 0;
  uint64_t cross_page_after = 0;
  /// Records the reorganizer will move when applying the plan.
  uint64_t planned_moves = 0;

  bool empty() const { return planned_moves == 0; }

  /// Predicted fraction of cross-page reference traversals eliminated:
  /// (before - after) / before, in [0, 1]; 0 when there is nothing to
  /// improve.
  double PredictedSavingRatio() const {
    if (cross_page_before == 0) return 0.0;
    return static_cast<double>(cross_page_before - cross_page_after) /
           static_cast<double>(cross_page_before);
  }

  /// Human-readable summary for the shell's `cluster-plan` command.
  std::string Summary() const;
};

}  // namespace ode::odb::cluster

#endif  // ODEVIEW_ODB_CLUSTER_PLAN_H_
