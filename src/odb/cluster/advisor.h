#ifndef ODEVIEW_ODB_CLUSTER_ADVISOR_H_
#define ODEVIEW_ODB_CLUSTER_ADVISOR_H_

#include <cstddef>
#include <string>

#include "common/access_log.h"
#include "common/result.h"
#include "odb/cluster/plan.h"
#include "odb/database.h"

namespace ode::odb::cluster {

/// Advisor knobs.
struct AdvisorOptions {
  /// Ignore affinity edges weaker than this (noise floor).
  uint64_t min_edge_weight = 1;
};

/// Computes a page-placement plan from an access-recorder snapshot.
///
/// The advisor mines the profile's reference-affinity edges (display
/// cascades and join row flow — see `AccessLog::RecordAffinity`):
///  * a direct edge between two records of the same cluster is a
///    co-location vote with the edge's weight;
///  * records of one cluster referenced from the same *other* object
///    (e.g. all employees of one department) are chained as siblings,
///    adjacent pairs weighted by the weaker endpoint — linear in the
///    sibling count, so a popular hub never induces a quadratic clique.
/// Edges are then greedily merged into byte-budgeted page groups
/// (strongest first; a group never outgrows one slotted page's usable
/// space, costed from each record's current stored size + slot).
/// Records deleted since the profile was taken drop out naturally —
/// their placements no longer exist.
///
/// The returned plan carries the cost model's verdict: total affinity
/// weight crossing a page boundary now vs. under the plan (see
/// `ClusterPlan::PredictedSavingRatio`).
Result<ClusterPlan> BuildClusterPlan(Database* db,
                                     const obs::AccessProfile& profile,
                                     const AdvisorOptions& options = {});

/// Trace-driven variant: folds the affinity records of a captured
/// ODEACC02 file (see `obs::ReadAccessTrace` / replay.h) into an edge
/// list and plans from that — advise from yesterday's captured
/// workload without keeping the recorder on.
Result<ClusterPlan> BuildClusterPlanFromTrace(
    Database* db, const std::string& trace_path,
    const AdvisorOptions& options = {});

}  // namespace ode::odb::cluster

#endif  // ODEVIEW_ODB_CLUSTER_ADVISOR_H_
