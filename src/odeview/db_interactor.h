#ifndef ODEVIEW_ODEVIEW_DB_INTERACTOR_H_
#define ODEVIEW_ODEVIEW_DB_INTERACTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dynlink/linker.h"
#include "dynlink/repository.h"
#include "odb/database.h"
#include "odeview/browse_node.h"
#include "odeview/dag_view.h"
#include "odeview/display_state.h"
#include "odeview/join_view.h"
#include "owl/server.h"

namespace ode::view {

/// The per-database "db-interactor process" (paper §4.6): created when
/// the user selects a database icon; handles all schema-level
/// operations (the class-relationship window, class-information
/// windows, class-definition windows) and spawns object-interactors
/// (browse trees) for object-level browsing.
class DbInteractor {
 public:
  DbInteractor(owl::Server* server, dynlink::ModuleRepository* repository,
               DisplayStateRegistry* display_states, odb::Database* db);
  ~DbInteractor();

  DbInteractor(const DbInteractor&) = delete;
  DbInteractor& operator=(const DbInteractor&) = delete;

  const std::string& db_name() const { return db_->name(); }
  odb::Database* database() { return db_; }
  /// This interactor's database session: every window tree it spawns
  /// runs object operations through it, so two interactors over one
  /// database can browse from different threads concurrently.
  odb::Session* session() { return &session_; }
  dynlink::DynamicLinker* linker() { return &linker_; }
  BrowseContext* context() { return &context_; }

  // --- Schema window (Fig. 2) -----------------------------------------

  /// Opens (or raises) the class-relationship window showing the
  /// inheritance DAG laid out to minimize crossovers.
  Status OpenSchemaWindow();
  owl::WindowId schema_window() const { return schema_window_; }
  DagView* dag_view() { return dag_view_; }
  Status ZoomIn();
  Status ZoomOut();

  // --- Class information windows (Figs. 3 & 5) -------------------------

  /// Opens the class-information window: superclasses, subclasses, and
  /// metadata (object count), plus `definition` and `objects` buttons.
  Status OpenClassInfo(const std::string& class_name);
  owl::WindowId class_info_window(const std::string& class_name) const;

  // --- Class definition window (Fig. 4) --------------------------------

  Status OpenClassDefinition(const std::string& class_name);
  owl::WindowId class_def_window(const std::string& class_name) const;

  // --- Object browsing (object-interactors) ----------------------------

  /// Opens (or returns) the object-set browse tree for a class.
  Result<BrowseNode*> OpenObjectSet(const std::string& class_name);
  BrowseNode* FindObjectSet(const std::string& class_name);
  const std::vector<std::unique_ptr<BrowseNode>>& object_sets() const {
    return object_sets_;
  }
  /// Destroys the browse tree of a class (closing its windows).
  Status CloseObjectSet(const std::string& class_name);

  // --- Selection dialog (§5.2) ------------------------------------------

  /// Opens the predicate-construction window for a class: an attribute
  /// menu (the selectlist), an operator menu, a value field, AND/OR
  /// connectors, plus a QBE-style condition box. Applying installs the
  /// predicate on the class's object set.
  Status OpenSelectionDialog(const std::string& class_name);
  owl::WindowId selection_dialog(const std::string& class_name) const;
  /// Programmatic equivalents of the dialog's apply buttons.
  Status ApplyConditionBox(const std::string& class_name,
                           const std::string& condition);
  Status ClearSelection(const std::string& class_name);

  // --- Projection dialog (§5.1) ------------------------------------------

  /// Opens the attribute chooser: one toggle button per displaylist
  /// attribute plus ALL and apply.
  Status OpenProjectionDialog(const std::string& class_name);
  owl::WindowId projection_dialog(const std::string& class_name) const;

  // --- Join views (§5.3) ----------------------------------------------------

  /// Opens a view over the join of two classes. `condition` uses the
  /// predicate language with `left.<attr>` / `right.<attr>` paths.
  /// All objects involved in the join display simultaneously, each via
  /// its own class's display function.
  Result<JoinView*> OpenJoinView(const std::string& left_class,
                                 const std::string& right_class,
                                 const std::string& condition);
  const std::vector<std::unique_ptr<JoinView>>& join_views() const {
    return join_views_;
  }

  /// Closes (destroys) a join view previously returned by
  /// `OpenJoinView`, tearing down its windows. NotFound if `view` is
  /// not an open join view of this interactor.
  Status CloseJoinView(JoinView* view);

  // --- Privileged (debug) mode -----------------------------------------------

  /// When enabled, synthesized displays "selectively violate"
  /// encapsulation and show private members too (§4.1 item 3). Open
  /// browse trees and join views re-render at once.
  void set_privileged(bool privileged);
  bool privileged() const;

  // --- Schema change handling --------------------------------------------

  /// Called when a class definition changed out-of-band: invalidates
  /// dynamically-loaded display functions and refreshes the open
  /// browse trees and join views — no recompilation of OdeView (§4.5).
  Status OnClassChanged(const std::string& class_name);

 private:
  /// Appends a menu listing classes that opens class-info windows.
  void AddClassListMenu(owl::Widget* root, const std::string& widget_name,
                        const std::vector<std::string>& classes,
                        const owl::Rect& rect);

  owl::Server* server_;
  odb::Database* db_;
  dynlink::DynamicLinker linker_;
  odb::Session session_;
  BrowseContext context_;

  owl::WindowId schema_window_ = owl::kNoWindow;
  DagView* dag_view_ = nullptr;  // owned by the schema window's tree
  std::map<std::string, owl::WindowId> class_info_windows_;
  std::map<std::string, owl::WindowId> class_def_windows_;
  std::map<std::string, owl::WindowId> selection_dialogs_;
  std::map<std::string, owl::WindowId> projection_dialogs_;
  /// Per-class selection-builder state (conjuncts added so far).
  std::map<std::string, std::string> selection_drafts_;
  std::vector<std::unique_ptr<BrowseNode>> object_sets_;
  std::vector<std::unique_ptr<JoinView>> join_views_;
};

}  // namespace ode::view

#endif  // ODEVIEW_ODEVIEW_DB_INTERACTOR_H_
