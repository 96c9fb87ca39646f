#ifndef ODEVIEW_ODEVIEW_DISPLAY_STATE_H_
#define ODEVIEW_ODEVIEW_DISPLAY_STATE_H_

#include <map>
#include <string>
#include <vector>

namespace ode::view {

/// The display state of one cluster: which display formats are open
/// and the current projection.
///
/// Paper §3.2: "OdeView remembers the display state of a cluster and
/// will display other objects in the cluster in the same display state
/// (until the user changes the display state, e.g., by clicking the
/// text button to close the text display)."
struct ClusterDisplayState {
  /// Open display formats, in the order they were opened.
  std::vector<std::string> open_formats;
  /// Projection bit vector over the class's displaylist; empty = no
  /// projection (designer default).
  std::vector<bool> projection_mask;

  bool IsOpen(std::string_view format) const;
  /// Returns the new open/closed state of `format`.
  bool Toggle(const std::string& format);
};

/// Registry of display states, keyed by (database, class). Entries are
/// never erased, so a state pointer stays valid for the registry's life.
class DisplayStateRegistry {
 public:
  /// Mutable state for a cluster (created on first access).
  ClusterDisplayState* StateFor(const std::string& db_name,
                                const std::string& class_name);
  const ClusterDisplayState* FindState(const std::string& db_name,
                                       const std::string& class_name) const;

  size_t size() const { return states_.size(); }

 private:
  std::map<std::pair<std::string, std::string>, ClusterDisplayState>
      states_;
};

/// Builds a projection mask over `displaylist` selecting exactly
/// `chosen` (unknown names are ignored). An empty `chosen` yields the
/// all-false mask; use the ALL button semantics (empty mask) to lift
/// projection instead.
std::vector<bool> BuildProjectionMask(
    const std::vector<std::string>& displaylist,
    const std::vector<std::string>& chosen);

}  // namespace ode::view

#endif  // ODEVIEW_ODEVIEW_DISPLAY_STATE_H_
