#ifndef ODEVIEW_ODEVIEW_BROWSE_NODE_H_
#define ODEVIEW_ODEVIEW_BROWSE_NODE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dynlink/linker.h"
#include "dynlink/repository.h"
#include "odb/database.h"
#include "odb/predicate.h"
#include "odeview/display_state.h"
#include "owl/server.h"

namespace ode::view {

/// Services a browse tree needs; owned by the DbInteractor.
struct BrowseContext {
  odb::Database* db = nullptr;
  /// Session this browse tree runs its object operations through, so
  /// every fetch is a profiled session op. Lets several interactors
  /// browse one database from worker threads concurrently.
  odb::Session* session = nullptr;
  owl::Server* server = nullptr;
  dynlink::ModuleRepository* repository = nullptr;
  dynlink::DynamicLinker* linker = nullptr;
  DisplayStateRegistry* display_states = nullptr;
  std::string db_name;
  /// Debug mode: synthesized displays show private members too.
  bool privileged = false;
  /// Invoked by a panel's `project` button; the DbInteractor wires
  /// this to its projection dialog.
  std::function<void(const std::string& class_name)> on_project_request;
};

/// The context a browse gesture runs under: the session's causal anchor
/// and id, keeping the caller's profile.
obs::OpContext GestureContext(const odb::Session& session);

/// What a browse node ranges over.
enum class BrowseNodeKind : uint8_t {
  kClusterSet,    ///< the paper's "object set" window over a cluster
  kReference,     ///< an "object" window bound to a single reference
  kReferenceSet,  ///< an object-set window over a set-valued member
};

/// One node of the synchronized-browsing window tree (paper §4.4).
///
/// A node owns: its panel window (control panel + object panel), any
/// open display windows (one per open format), and its children (the
/// nodes opened by following embedded references from this object).
/// A sequencing operation at any node refreshes the whole subtree —
/// including windows that are currently closed.
///
/// A node also models the paper's per-class "object-interactor
/// process": a fault in class-designer display code marks this node
/// faulted (the simulated process death) without affecting the rest
/// of OdeView.
class BrowseNode {
 public:
  /// Creates a root node browsing the cluster of `class_name`,
  /// optionally filtered by a selection predicate (§5.2).
  static Result<std::unique_ptr<BrowseNode>> CreateClusterSet(
      BrowseContext* context, const std::string& class_name);

  ~BrowseNode();
  BrowseNode(const BrowseNode&) = delete;
  BrowseNode& operator=(const BrowseNode&) = delete;

  BrowseNodeKind kind() const { return kind_; }
  const std::string& class_name() const { return class_name_; }
  /// Member of the parent object this node follows (reference kinds).
  const std::string& member_name() const { return member_name_; }

  /// The node's panel window id.
  owl::WindowId panel_window() const { return panel_window_; }

  bool has_current() const { return current_.has_value(); }
  /// The object currently shown (a copy of the cached buffer).
  Result<odb::ObjectBuffer> Current() const;

  // --- Sequencing (the control panel: reset / next / previous) -------

  bool CanSequence() const { return kind_ != BrowseNodeKind::kReference; }
  /// Advances and synchronously refreshes the subtree.
  Status Next();
  Status Prev();
  /// Forgets the position (the next Next() shows the first object).
  Status Reset();

  // --- Display formats (the object panel's format buttons) -----------

  /// Formats offered: the class designer's registered modules, plus
  /// the synthesized "text" fallback when none exist.
  std::vector<std::string> AvailableFormats() const;
  /// Opens/closes the display of `format` (per-cluster display state).
  Status ToggleFormat(const std::string& format);
  bool IsFormatOpen(const std::string& format) const;
  /// Window id of an open display format (kNoWindow when absent).
  owl::WindowId DisplayWindow(const std::string& format) const;

  // --- Complex objects (reference / set buttons) ----------------------

  /// Reference members of this class (candidates for object windows).
  Result<std::vector<std::string>> ReferenceMembers() const;
  /// Set-of-reference members (candidates for object-set windows).
  Result<std::vector<std::string>> ReferenceSetMembers() const;

  /// Opens (or returns the existing) child node following `member`.
  Result<BrowseNode*> FollowReference(const std::string& member);
  Result<BrowseNode*> FollowReferenceSet(const std::string& member);

  BrowseNode* FindChild(std::string_view member);
  const std::vector<std::unique_ptr<BrowseNode>>& children() const {
    return children_;
  }
  BrowseNode* parent() const { return parent_; }

  /// Total nodes in this subtree (this node included).
  int SubtreeSize() const;
  /// Longest node chain from this node down to a leaf (>= 1).
  int SubtreeDepth() const;

  // --- Versions (O++ versioned classes) ---------------------------------

  /// For objects of a `versioned` class: opens (or refreshes) a window
  /// listing the retained versions of the current object with each
  /// version's attribute summary. NotFound for unversioned classes.
  Status OpenVersionsWindow();
  owl::WindowId versions_window() const { return versions_window_; }

  // --- Projection (§5.1) ----------------------------------------------

  /// The class's displaylist (declared or synthesized).
  Result<std::vector<std::string>> DisplayList() const;
  /// Projects onto `attrs` (subset of the displaylist) and refreshes.
  Status SetProjection(const std::vector<std::string>& attrs);
  /// Lifts projection (the ALL button).
  Status ClearProjection();
  const std::vector<bool>& projection_mask() const;

  // --- Selection (§5.2, cluster sets only) -----------------------------

  /// The class's selectlist (declared or synthesized).
  Result<std::vector<std::string>> SelectList() const;
  /// Installs a selection predicate; attribute paths must start with
  /// selectlist attributes. Resets the cursor.
  Status SetSelection(odb::Predicate predicate, std::string display_text);
  Status ClearSelection();
  bool has_selection() const { return has_selection_; }
  const std::string& selection_text() const { return selection_text_; }

  // --- Fault isolation (§4.6) ------------------------------------------

  bool faulted() const { return faulted_; }
  const std::string& fault_message() const { return fault_message_; }
  /// Restarts the simulated object-interactor after a fault.
  Status Restart();

  /// Re-resolves this node's object from its parent (reference kinds)
  /// and refreshes displays, then recurses into children. Called
  /// automatically by sequencing; public for tests and schema-change
  /// handling.
  Status RefreshSubtree();

 private:
  BrowseNode(BrowseContext* context, BrowseNodeKind kind,
             std::string class_name);

  /// Builds the panel window (buttons wired to this node).
  Status BuildPanel();
  /// Updates panel labels + open display windows for current_.
  Status RefreshSelf();
  /// Re-resolves current_ for reference kinds from the parent.
  Status ResolveFromParent();
  /// Refreshes this node and every child subtree under one
  /// `view.sync_cascade` span adopted from the session's context,
  /// bracketed by cascade journal records. Shared tail of
  /// Next/Prev/Reset.
  Status PropagateCascade();
  /// Renders one format into its window (creating it if needed).
  Status RenderFormat(const std::string& format);
  Status MarkFaulted(const std::string& format, const std::string& message);
  /// The class's resolved inheritance, looked up per call so a node
  /// refreshed after a schema change sees the new layout.
  Result<const odb::ClassLayout*> Layout() const;
  /// Advances the cluster cursor / set index.
  Status Step(bool forward);
  /// Charges a reference-affinity edge (parent's current object →
  /// `dst`) to the access observatory when the recorder is on. The
  /// cascade that re-resolved this node touched both objects in one
  /// display refresh — exactly the co-location signal the clustering
  /// advisor wants.
  void RecordCascadeAffinity(odb::Oid dst) const;

  BrowseContext* context_;
  BrowseNodeKind kind_;
  std::string class_name_;
  std::string member_name_;  // reference kinds
  BrowseNode* parent_ = nullptr;
  /// The display state of this node's cluster (registry entries are
  /// never erased, so the pointer is stable).
  ClusterDisplayState* state_;

  // Cluster-set state.
  std::optional<odb::ObjectCursor> cursor_;
  bool has_selection_ = false;
  std::string selection_text_;

  // Reference-set state.
  std::vector<odb::Oid> set_targets_;
  int set_index_ = -1;  // -1 = before first

  std::optional<odb::ObjectBuffer> current_;

  owl::WindowId panel_window_ = owl::kNoWindow;
  owl::WindowId versions_window_ = owl::kNoWindow;
  std::map<std::string, owl::WindowId> display_windows_;  // format -> id

  bool faulted_ = false;
  std::string fault_message_;

  std::vector<std::unique_ptr<BrowseNode>> children_;
};

}  // namespace ode::view

#endif  // ODEVIEW_ODEVIEW_BROWSE_NODE_H_
