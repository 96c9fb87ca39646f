#include <gtest/gtest.h>

#include "dynlink/lab_modules.h"
#include "odb/labdb.h"
#include "odb/typecheck.h"
#include "odeview/app.h"
#include "owl/widgets.h"

namespace ode::view {
namespace {

/// Shared fixture: a lab database opened in OdeView, as the paper's
/// sample session (Section 3) begins.
class OdeViewSession : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::move(*odb::Database::CreateInMemory("lab"));
    ASSERT_TRUE(odb::BuildLabDatabase(db_.get()).ok());
    app_ = std::make_unique<OdeViewApp>(200, 80);
    ASSERT_TRUE(dynlink::RegisterLabDisplayModules(app_->repository(),
                                                   "lab", db_->schema())
                    .ok());
    ASSERT_TRUE(app_->AddDatabaseBorrowed(db_.get()).ok());
    ASSERT_TRUE(app_->OpenInitialWindow().ok());
  }

  DbInteractor* OpenLab() {
    Result<DbInteractor*> interactor = app_->OpenDatabase("lab");
    EXPECT_TRUE(interactor.ok());
    return *interactor;
  }

  owl::Window* Win(owl::WindowId id) { return app_->server()->FindWindow(id); }

  std::string ScrollTextContent(owl::WindowId id,
                                const std::string& widget = "content") {
    owl::Window* window = Win(id);
    if (window == nullptr) return "<no window>";
    auto* text =
        dynamic_cast<owl::ScrollText*>(window->FindWidget(widget));
    if (text == nullptr) return "<no widget>";
    std::string out;
    for (const std::string& line : text->lines()) {
      out += line;
      out += "\n";
    }
    return out;
  }

  std::unique_ptr<odb::Database> db_;
  std::unique_ptr<OdeViewApp> app_;
};

// --- Fig. 1: the initial database window -------------------------------------

TEST_F(OdeViewSession, InitialWindowListsDatabases) {
  owl::Window* window = Win(app_->initial_window());
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->title(), "Ode databases");
  EXPECT_NE(window->FindWidget("db:lab"), nullptr);
}

TEST_F(OdeViewSession, ClickingIconOpensDbInteractor) {
  ASSERT_TRUE(
      app_->server()->ClickWidget(app_->initial_window(), "db:lab").ok());
  DbInteractor* interactor = app_->FindInteractor("lab");
  ASSERT_NE(interactor, nullptr);
  EXPECT_NE(interactor->schema_window(), owl::kNoWindow);
  EXPECT_NE(Win(interactor->schema_window()), nullptr);
}

TEST_F(OdeViewSession, MultipleDatabasesSimultaneously) {
  auto db2 = std::move(*odb::Database::CreateInMemory("lab2"));
  odb::LabDbConfig small;
  small.employees = 3;
  small.managers = 1;
  ASSERT_TRUE(odb::BuildLabDatabase(db2.get(), small).ok());
  ASSERT_TRUE(app_->AddDatabase(std::move(db2)).ok());
  ASSERT_TRUE(app_->OpenDatabase("lab").ok());
  ASSERT_TRUE(app_->OpenDatabase("lab2").ok());
  EXPECT_NE(app_->FindInteractor("lab"), nullptr);
  EXPECT_NE(app_->FindInteractor("lab2"), nullptr);
  // Both schemas browsable at once.
  EXPECT_TRUE(app_->FindInteractor("lab2")->OpenClassInfo("employee").ok());
  EXPECT_TRUE(app_->FindInteractor("lab")->OpenClassInfo("manager").ok());
}

// --- Fig. 2: the schema window ------------------------------------------------

TEST_F(OdeViewSession, SchemaWindowShowsDagWithoutCrossings) {
  DbInteractor* interactor = OpenLab();
  DagView* view = interactor->dag_view();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->layout().crossings, 0u);
  EXPECT_EQ(view->graph().node_count(), 5);
  // Rendering mentions every class.
  std::string rendered;
  for (const std::string& line : view->RenderLines()) rendered += line + "\n";
  for (const char* cls :
       {"employee", "department", "manager", "project", "document"}) {
    EXPECT_NE(rendered.find(cls), std::string::npos) << cls;
  }
}

TEST_F(OdeViewSession, ZoomChangesDetailLevel) {
  DbInteractor* interactor = OpenLab();
  DagView* view = interactor->dag_view();
  int full_width = view->layout().width;
  ASSERT_TRUE(interactor->ZoomOut().ok());
  EXPECT_EQ(view->zoom(), 1);
  EXPECT_LT(view->layout().width, full_width);
  ASSERT_TRUE(interactor->ZoomOut().ok());
  EXPECT_EQ(view->zoom(), 2);
  ASSERT_TRUE(interactor->ZoomIn().ok());
  ASSERT_TRUE(interactor->ZoomIn().ok());
  EXPECT_EQ(view->zoom(), 0);
  ASSERT_TRUE(interactor->ZoomIn().ok());  // clamped at full detail
  EXPECT_EQ(view->zoom(), 0);
  EXPECT_EQ(view->layout().width, full_width);
}

TEST_F(OdeViewSession, ClickingDagNodeOpensClassInfo) {
  DbInteractor* interactor = OpenLab();
  DagView* view = interactor->dag_view();
  // Find employee's box in diagram coordinates and click it.
  dag::NodeId node = *view->graph().FindNode("employee");
  const dag::PlacedNode& placed = view->layout().nodes[node];
  EXPECT_TRUE(view->DispatchClick(owl::Point{placed.x + 1, placed.y}));
  EXPECT_NE(interactor->class_info_window("employee"), owl::kNoWindow);
}

// --- Figs. 3 & 5: class information windows -------------------------------------

TEST_F(OdeViewSession, EmployeeClassInfoMatchesPaper) {
  DbInteractor* interactor = OpenLab();
  ASSERT_TRUE(interactor->OpenClassInfo("employee").ok());
  owl::Window* window = Win(interactor->class_info_window("employee"));
  ASSERT_NE(window, nullptr);
  auto* supers =
      dynamic_cast<owl::Menu*>(window->FindWidget("supers-menu"));
  auto* subs = dynamic_cast<owl::Menu*>(window->FindWidget("subs-menu"));
  ASSERT_NE(supers, nullptr);
  ASSERT_NE(subs, nullptr);
  EXPECT_EQ(supers->items(), (std::vector<std::string>{"<none>"}));
  EXPECT_EQ(subs->items(), (std::vector<std::string>{"manager"}));
  // "there are 55 objects in the employee cluster" (Fig. 3).
  EXPECT_NE(
      ScrollTextContent(window->id(), "meta").find(
          "objects in cluster: 55"),
      std::string::npos);
}

TEST_F(OdeViewSession, ManagerClassInfoMatchesPaper) {
  DbInteractor* interactor = OpenLab();
  ASSERT_TRUE(interactor->OpenClassInfo("manager").ok());
  owl::Window* window = Win(interactor->class_info_window("manager"));
  auto* supers =
      dynamic_cast<owl::Menu*>(window->FindWidget("supers-menu"));
  EXPECT_EQ(supers->items(),
            (std::vector<std::string>{"employee", "department"}));
  EXPECT_NE(
      ScrollTextContent(window->id(), "meta").find("objects in cluster: 7"),
      std::string::npos);
}

TEST_F(OdeViewSession, BrowsingMixesInfoWindowsFreely) {
  // Paper: clicking "manager" in employee's subclass list opens the
  // manager info window.
  DbInteractor* interactor = OpenLab();
  ASSERT_TRUE(interactor->OpenClassInfo("employee").ok());
  owl::Window* window = Win(interactor->class_info_window("employee"));
  auto* subs = dynamic_cast<owl::Menu*>(window->FindWidget("subs-menu"));
  ASSERT_TRUE(subs->SelectItem("manager").ok());
  EXPECT_NE(interactor->class_info_window("manager"), owl::kNoWindow);
}

TEST_F(OdeViewSession, UnknownClassRejected) {
  DbInteractor* interactor = OpenLab();
  EXPECT_TRUE(interactor->OpenClassInfo("ghost").IsNotFound());
}

// --- Fig. 4: the class definition window -----------------------------------------

TEST_F(OdeViewSession, DefinitionButtonShowsSource) {
  DbInteractor* interactor = OpenLab();
  ASSERT_TRUE(interactor->OpenClassInfo("employee").ok());
  ASSERT_TRUE(app_->server()
                  ->ClickWidget(interactor->class_info_window("employee"),
                                "definition")
                  .ok());
  owl::WindowId def_window = interactor->class_def_window("employee");
  ASSERT_NE(def_window, owl::kNoWindow);
  std::string source = ScrollTextContent(def_window, "source");
  EXPECT_NE(source.find("persistent class employee"), std::string::npos);
  EXPECT_NE(source.find("department* dept;"), std::string::npos);
  EXPECT_NE(source.find("constraint age >= 18;"), std::string::npos);
}

// --- Fig. 6: object browsing with display state -------------------------------------

TEST_F(OdeViewSession, ObjectsButtonOpensObjectSetWindow) {
  DbInteractor* interactor = OpenLab();
  ASSERT_TRUE(interactor->OpenClassInfo("employee").ok());
  ASSERT_TRUE(app_->server()
                  ->ClickWidget(interactor->class_info_window("employee"),
                                "objects")
                  .ok());
  BrowseNode* node = interactor->FindObjectSet("employee");
  ASSERT_NE(node, nullptr);
  owl::Window* panel = Win(node->panel_window());
  ASSERT_NE(panel, nullptr);
  EXPECT_NE(panel->FindWidget("reset"), nullptr);
  EXPECT_NE(panel->FindWidget("next"), nullptr);
  EXPECT_NE(panel->FindWidget("previous"), nullptr);
  EXPECT_NE(panel->FindWidget("fmt:text"), nullptr);
  EXPECT_NE(panel->FindWidget("fmt:picture"), nullptr);
  EXPECT_NE(panel->FindWidget("ref:dept"), nullptr);
  EXPECT_NE(panel->FindWidget("ref:boss"), nullptr);
}

TEST_F(OdeViewSession, TextAndPictureDisplays) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  ASSERT_TRUE(node->ToggleFormat("picture").ok());
  owl::WindowId text_window = node->DisplayWindow("text");
  owl::WindowId picture_window = node->DisplayWindow("picture");
  ASSERT_NE(text_window, owl::kNoWindow);
  ASSERT_NE(picture_window, owl::kNoWindow);
  EXPECT_NE(ScrollTextContent(text_window).find("rakesh"),
            std::string::npos);
  auto* raster = dynamic_cast<owl::RasterView*>(
      Win(picture_window)->FindWidget("image"));
  ASSERT_NE(raster, nullptr);
  EXPECT_FALSE(raster->bitmap().empty());
}

TEST_F(OdeViewSession, SequencingUpdatesOpenDisplays) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  std::string first = ScrollTextContent(node->DisplayWindow("text"));
  ASSERT_TRUE(node->Next().ok());
  std::string second = ScrollTextContent(node->DisplayWindow("text"));
  EXPECT_NE(first, second);
  EXPECT_NE(second.find("narain"), std::string::npos);
  ASSERT_TRUE(node->Prev().ok());
  EXPECT_EQ(ScrollTextContent(node->DisplayWindow("text")), first);
}

TEST_F(OdeViewSession, DisplayStateRememberedPerCluster) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  ASSERT_TRUE(node->ToggleFormat("picture").ok());
  // Closing the text display changes the cluster's display state...
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  EXPECT_FALSE(node->IsFormatOpen("text"));
  EXPECT_TRUE(node->IsFormatOpen("picture"));
  // ...and the state is shared with any other window on this cluster.
  const ClusterDisplayState* state =
      app_->display_states()->FindState("lab", "employee");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->open_formats, (std::vector<std::string>{"picture"}));
}

TEST_F(OdeViewSession, SequencingPastEndsReportsOutOfRange) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("manager");
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(node->Next().ok()) << i;
  }
  EXPECT_TRUE(node->Next().IsOutOfRange());
  // Position unchanged after hitting the end.
  EXPECT_TRUE(node->has_current());
  ASSERT_TRUE(node->Reset().ok());
  EXPECT_FALSE(node->has_current());
  EXPECT_TRUE(node->Prev().ok());  // wraps to the last object
}

TEST_F(OdeViewSession, UnknownFormatRejected) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  EXPECT_TRUE(node->ToggleFormat("postscript").IsNotFound());
}

// --- Figs. 7 & 8: complex objects ----------------------------------------------------

TEST_F(OdeViewSession, FollowSingleReference) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  Result<BrowseNode*> dept = node->FollowReference("dept");
  ASSERT_TRUE(dept.ok()) << dept.status().ToString();
  EXPECT_EQ((*dept)->kind(), BrowseNodeKind::kReference);
  EXPECT_EQ((*dept)->class_name(), "department");
  ASSERT_TRUE((*dept)->has_current());
  EXPECT_EQ((*dept)->Current()->value.FindField("name")->AsString(),
            "research");
  // Object windows have no sequencing controls.
  EXPECT_FALSE((*dept)->CanSequence());
  EXPECT_EQ((*dept)->Next().code(), StatusCode::kFailedPrecondition);
}

TEST_F(OdeViewSession, FollowReferenceSet) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());  // rakesh
  BrowseNode* dept = *node->FollowReference("dept");
  Result<BrowseNode*> colleagues = dept->FollowReferenceSet("employees");
  ASSERT_TRUE(colleagues.ok()) << colleagues.status().ToString();
  EXPECT_EQ((*colleagues)->kind(), BrowseNodeKind::kReferenceSet);
  EXPECT_EQ((*colleagues)->class_name(), "employee");
  // The set window resolves to the first colleague immediately and can
  // sequence through the rest (Fig. 8).
  ASSERT_TRUE((*colleagues)->has_current());
  ASSERT_TRUE((*colleagues)->Next().ok());
  EXPECT_TRUE((*colleagues)->Prev().ok());
}

TEST_F(OdeViewSession, FollowReferenceRequiresCurrentObject) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  EXPECT_EQ(node->FollowReference("dept").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(OdeViewSession, NonReferenceMemberRejected) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  EXPECT_TRUE(node->FollowReference("name").status().IsInvalidArgument());
  EXPECT_TRUE(
      node->FollowReferenceSet("dept").status().IsInvalidArgument());
}

TEST_F(OdeViewSession, LazyLoading) {
  // Opening an object set fetches nothing until sequencing; following
  // a reference creates exactly one child node.
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  EXPECT_FALSE(node->has_current());
  EXPECT_TRUE(node->children().empty());
  ASSERT_TRUE(node->Next().ok());
  BrowseNode* dept1 = *node->FollowReference("dept");
  BrowseNode* dept2 = *node->FollowReference("dept");
  EXPECT_EQ(dept1, dept2);  // idempotent
  EXPECT_EQ(node->SubtreeSize(), 2);
}

// --- Figs. 9 & 10: synchronized browsing ------------------------------------------------

TEST_F(OdeViewSession, SynchronizedChainRefreshes) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  // Chain: employee -> dept -> head (the employee's manager via the
  // department, as in Fig. 9).
  BrowseNode* dept = *node->FollowReference("dept");
  BrowseNode* head = *dept->FollowReference("head");
  ASSERT_TRUE(head->has_current());
  odb::Oid dept_before = dept->Current()->oid;
  odb::Oid head_before = head->Current()->oid;
  // Advance the employee until one lands in a different department.
  bool changed = false;
  for (int i = 0; i < 54 && !changed; ++i) {
    ASSERT_TRUE(node->Next().ok());
    changed = dept->Current()->oid != dept_before;
  }
  ASSERT_TRUE(changed) << "no employee in another department?";
  // The manager window followed the department automatically (Fig. 10).
  EXPECT_NE(head->Current()->oid, head_before);
  EXPECT_EQ(head->Current()->oid,
            dept->Current()->value.FindField("head")->AsRef());
}

TEST_F(OdeViewSession, ClosedWindowsRefreshToo) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  BrowseNode* dept = *node->FollowReference("dept");
  ASSERT_TRUE(dept->ToggleFormat("text").ok());
  owl::WindowId text_window = dept->DisplayWindow("text");
  std::string before = ScrollTextContent(text_window);
  // The user closes the department display window...
  Win(text_window)->set_open(false);
  // ...sequences the employee to one in another department...
  std::string after = before;
  for (int i = 0; i < 54 && after == before; ++i) {
    ASSERT_TRUE(node->Next().ok());
    after = ScrollTextContent(text_window);
  }
  // ...and the *closed* window's content was refreshed anyway (§4.4).
  EXPECT_NE(after, before);
}

TEST_F(OdeViewSession, SequencingSetWindowDoesNotDisturbParent) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  odb::Oid employee_before = node->Current()->oid;
  BrowseNode* dept = *node->FollowReference("dept");
  BrowseNode* colleagues = *dept->FollowReferenceSet("employees");
  ASSERT_TRUE(colleagues->Next().ok());
  ASSERT_TRUE(colleagues->Next().ok());
  // Sequencing a child only propagates downward, never upward.
  EXPECT_EQ(node->Current()->oid, employee_before);
}

TEST_F(OdeViewSession, ResetPropagatesEmptinessDownChain) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  BrowseNode* dept = *node->FollowReference("dept");
  ASSERT_TRUE(dept->has_current());
  ASSERT_TRUE(node->Reset().ok());
  EXPECT_FALSE(node->has_current());
  EXPECT_FALSE(dept->has_current());
}

// --- §5.1: projection ---------------------------------------------------------------------

TEST_F(OdeViewSession, ProjectionLimitsDisplayedAttributes) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  std::string full = ScrollTextContent(node->DisplayWindow("text"));
  EXPECT_NE(full.find("age:"), std::string::npos);
  ASSERT_TRUE(node->SetProjection({"name"}).ok());
  std::string projected = ScrollTextContent(node->DisplayWindow("text"));
  EXPECT_NE(projected.find("name:"), std::string::npos);
  EXPECT_EQ(projected.find("age:"), std::string::npos);
  ASSERT_TRUE(node->ClearProjection().ok());
  EXPECT_NE(ScrollTextContent(node->DisplayWindow("text")).find("age:"),
            std::string::npos);
}

TEST_F(OdeViewSession, ProjectionValidatesAgainstDisplayList) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  EXPECT_TRUE(node->SetProjection({"no_such_attr"}).IsInvalidArgument());
}

TEST_F(OdeViewSession, ProjectionDialogAppliesChoices) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  ASSERT_TRUE(interactor->OpenProjectionDialog("employee").ok());
  owl::WindowId dialog = interactor->projection_dialog("employee");
  ASSERT_NE(dialog, owl::kNoWindow);
  ASSERT_TRUE(app_->server()->ClickWidget(dialog, "attr:name").ok());
  ASSERT_TRUE(app_->server()->ClickWidget(dialog, "apply").ok());
  std::string projected = ScrollTextContent(node->DisplayWindow("text"));
  EXPECT_EQ(projected.find("age:"), std::string::npos);
  // The ALL button lifts the projection.
  ASSERT_TRUE(app_->server()->ClickWidget(dialog, "ALL").ok());
  EXPECT_NE(ScrollTextContent(node->DisplayWindow("text")).find("age:"),
            std::string::npos);
}

TEST_F(OdeViewSession, DisplayListComesFromClassDefinition) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  // employee declares: displaylist name, age, title, salary.
  EXPECT_EQ(*node->DisplayList(),
            (std::vector<std::string>{"name", "age", "title", "salary"}));
}

// --- §5.2: selection ------------------------------------------------------------------------

TEST_F(OdeViewSession, ConditionBoxFiltersSequencing) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(
      interactor->ApplyConditionBox("employee", "age >= 50").ok());
  EXPECT_TRUE(node->has_selection());
  int count = 0;
  while (node->Next().ok()) {
    EXPECT_GE(node->Current()->value.FindField("age")->AsInt(), 50);
    ++count;
  }
  // Matches the database contents exactly.
  odb::Predicate p = *odb::ParsePredicate("age >= 50");
  EXPECT_EQ(static_cast<size_t>(count),
            db_->Select("employee", p)->size());
  ASSERT_TRUE(interactor->ClearSelection("employee").ok());
  EXPECT_FALSE(node->has_selection());
}

TEST_F(OdeViewSession, SelectionValidatesAgainstSelectList) {
  DbInteractor* interactor = OpenLab();
  (void)*interactor->OpenObjectSet("employee");
  // "picture" is not in employee's selectlist (name, age, salary).
  EXPECT_TRUE(interactor->ApplyConditionBox("employee", "title == \"MTS\"")
                  .IsInvalidArgument());
}

TEST_F(OdeViewSession, SelectionDialogMenuFlow) {
  DbInteractor* interactor = OpenLab();
  ASSERT_TRUE(interactor->OpenSelectionDialog("employee").ok());
  owl::WindowId dialog = interactor->selection_dialog("employee");
  ASSERT_NE(dialog, owl::kNoWindow);
  owl::Window* window = Win(dialog);
  auto* attr_menu =
      dynamic_cast<owl::Menu*>(window->FindWidget("attr-menu"));
  auto* op_menu = dynamic_cast<owl::Menu*>(window->FindWidget("op-menu"));
  auto* value =
      dynamic_cast<owl::TextInput*>(window->FindWidget("value"));
  ASSERT_NE(attr_menu, nullptr);
  // The attribute menu lists exactly the selectlist.
  EXPECT_EQ(attr_menu->items(),
            (std::vector<std::string>{"name", "age", "salary"}));
  ASSERT_TRUE(attr_menu->SelectItem("age").ok());
  ASSERT_TRUE(op_menu->SelectItem(">=").ok());
  value->set_text("60");
  ASSERT_TRUE(app_->server()->ClickWidget(dialog, "add-and").ok());
  ASSERT_TRUE(app_->server()->ClickWidget(dialog, "apply").ok());
  BrowseNode* node = interactor->FindObjectSet("employee");
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->has_selection());
  while (node->Next().ok()) {
    EXPECT_GE(node->Current()->value.FindField("age")->AsInt(), 60);
  }
}

TEST_F(OdeViewSession, ConditionBoxSyntaxErrorsSurfaceInDialog) {
  DbInteractor* interactor = OpenLab();
  ASSERT_TRUE(interactor->OpenSelectionDialog("employee").ok());
  EXPECT_FALSE(
      interactor->ApplyConditionBox("employee", "age >>> 3").ok());
  owl::Window* window = Win(interactor->selection_dialog("employee"));
  auto* status = dynamic_cast<owl::Label*>(window->FindWidget("status"));
  ASSERT_NE(status, nullptr);
  EXPECT_NE(status->text().find("invalid argument"), std::string::npos);
}

// --- §4.6: fault isolation ---------------------------------------------------------------------

TEST_F(OdeViewSession, DisplayFaultKillsOnlyThatInteractor) {
  ASSERT_TRUE(dynlink::RegisterFaultyDisplayModule(app_->repository(),
                                                   "lab", "project")
                  .ok());
  DbInteractor* interactor = OpenLab();
  BrowseNode* broken = *interactor->OpenObjectSet("project");
  ASSERT_TRUE(broken->Next().ok());
  ASSERT_TRUE(broken->ToggleFormat("crash").ok());
  EXPECT_TRUE(broken->faulted());
  EXPECT_NE(broken->fault_message().find("simulated crash"),
            std::string::npos);
  // Further operations on the dead interactor fail gracefully...
  EXPECT_EQ(broken->Next().code(), StatusCode::kFailedPrecondition);
  // ...while the rest of OdeView keeps working.
  BrowseNode* employees = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(employees->Next().ok());
  ASSERT_TRUE(employees->ToggleFormat("text").ok());
  EXPECT_FALSE(employees->faulted());
  // The dead interactor can be restarted.
  ASSERT_TRUE(broken->Restart().ok());
  EXPECT_FALSE(broken->faulted());
  ASSERT_TRUE(broken->Next().ok());
}

TEST_F(OdeViewSession, HostilePictureFaultsOnlyThatInteractor) {
  // A stored picture whose PBM header claims 65536 x 65536 pixels in 16
  // bytes: the parser refuses it before allocating, and only the
  // interactor showing it faults.
  Result<std::vector<odb::Oid>> employees = db_->ScanCluster("employee");
  ASSERT_TRUE(employees.ok());
  Result<odb::ObjectBuffer> first = db_->GetObject(employees->front());
  ASSERT_TRUE(first.ok());
  odb::Value value = first->value;
  *value.FindMutableField("picture") = odb::Value::Blob("P1 65536 65536 1");
  ASSERT_TRUE(db_->UpdateObject(first->oid, value).ok());
  DbInteractor* interactor = OpenLab();
  BrowseNode* hostile = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(hostile->Next().ok());
  ASSERT_TRUE(hostile->ToggleFormat("picture").ok());
  EXPECT_TRUE(hostile->faulted());
  EXPECT_NE(hostile->fault_message().find("too few pixels"),
            std::string::npos);
  BrowseNode* managers = *interactor->OpenObjectSet("manager");
  ASSERT_TRUE(managers->Next().ok());
  ASSERT_TRUE(managers->ToggleFormat("picture").ok());
  EXPECT_FALSE(managers->faulted());
}

TEST_F(OdeViewSession, FaultInChildDoesNotKillParent) {
  ASSERT_TRUE(dynlink::RegisterFaultyDisplayModule(app_->repository(),
                                                   "lab", "department")
                  .ok());
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  BrowseNode* dept = *node->FollowReference("dept");
  ASSERT_TRUE(dept->ToggleFormat("crash").ok());
  EXPECT_TRUE(dept->faulted());
  // The parent still sequences; the faulted child is skipped silently.
  EXPECT_TRUE(node->Next().ok());
  EXPECT_FALSE(node->faulted());
}

// --- §4.5: schema change without recompilation ---------------------------------------------------

TEST_F(OdeViewSession, SchemaChangeInvalidatesLoadedDisplayFunctions) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  EXPECT_TRUE(interactor->linker()->IsLoaded("lab", "employee", "text"));
  // A class designer ships a new display function...
  dynlink::DisplayFunction patched =
      [](const odb::ObjectBuffer& object, const std::vector<std::string>&,
         const std::vector<bool>&)
      -> Result<dynlink::DisplayResources> {
    dynlink::DisplayResources resources;
    dynlink::WindowSpec window;
    window.kind = dynlink::WindowKind::kScrollText;
    window.format = "text";
    window.title = "patched";
    window.text = "PATCHED DISPLAY for " + object.oid.ToString();
    resources.windows.push_back(window);
    return resources;
  };
  ASSERT_TRUE(app_->repository()
                  ->Register(dynlink::DisplayModule{
                      "lab", "employee", "text", patched, 1024})
                  .ok());
  // ...OdeView is told the class changed; no recompilation, just
  // dynamic re-linking (the refresh reloads the new module at once).
  uint64_t loads_before = interactor->linker()->stats().loads;
  ASSERT_TRUE(interactor->OnClassChanged("employee").ok());
  EXPECT_EQ(interactor->linker()->stats().invalidations, 1u);
  EXPECT_GT(interactor->linker()->stats().loads, loads_before);
  ASSERT_TRUE(node->Next().ok());
  EXPECT_NE(ScrollTextContent(node->DisplayWindow("text"))
                .find("PATCHED DISPLAY"),
            std::string::npos);
}

// --- Synthesized display for classes without modules ----------------------------------------------

TEST_F(OdeViewSession, ClassWithoutModulesGetsSynthesizedText) {
  // Define a fresh class with no registered display modules.
  ASSERT_TRUE(db_->DefineSchema(R"(
class gadget {
public:
  string label;
  int weight;
};
)")
                  .ok());
  Result<odb::Oid> oid = db_->CreateObject(
      "gadget", odb::Value::Struct({{"label", odb::Value::String("g1")},
                                    {"weight", odb::Value::Int(3)}}));
  ASSERT_TRUE(oid.ok());
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("gadget");
  EXPECT_EQ(node->AvailableFormats(), (std::vector<std::string>{"text"}));
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  std::string text = ScrollTextContent(node->DisplayWindow("text"));
  EXPECT_NE(text.find("label: \"g1\""), std::string::npos);
  EXPECT_NE(text.find("weight: 3"), std::string::npos);
}

TEST_F(OdeViewSession, SubclassInheritsDisplayModules) {
  // A new employee subclass with no modules of its own: its object-set
  // window still offers employee's text + picture displays, rendered
  // by the inherited member functions.
  ASSERT_TRUE(db_->DefineSchema(R"(
persistent class intern : public employee {
public:
  string mentor_name;
};
)")
                  .ok());
  odb::Value intern = *odb::DefaultInstance(db_->schema(), "intern");
  *intern.FindMutableField("name") = odb::Value::String("zelda");
  *intern.FindMutableField("age") = odb::Value::Int(22);
  *intern.FindMutableField("picture") =
      odb::Value::Blob("P1 2 2\n1 0\n0 1\n");
  ASSERT_TRUE(db_->CreateObject("intern", intern).ok());
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("intern");
  EXPECT_EQ(node->AvailableFormats(),
            (std::vector<std::string>{"text", "picture"}));
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  EXPECT_NE(ScrollTextContent(node->DisplayWindow("text")).find("zelda"),
            std::string::npos);
  ASSERT_TRUE(node->ToggleFormat("picture").ok());
  EXPECT_NE(node->DisplayWindow("picture"), owl::kNoWindow);
}

// --- Window hygiene ---------------------------------------------------------------------------------

TEST_F(OdeViewSession, ClosingObjectSetDestroysItsWindows) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  (void)*node->FollowReference("dept");
  size_t windows_before = app_->server()->window_count();
  ASSERT_TRUE(interactor->CloseObjectSet("employee").ok());
  EXPECT_LT(app_->server()->window_count(), windows_before);
  EXPECT_EQ(interactor->FindObjectSet("employee"), nullptr);
  EXPECT_TRUE(interactor->CloseObjectSet("employee").IsNotFound());
}

TEST_F(OdeViewSession, CloseDatabaseTearsDownEverything) {
  DbInteractor* interactor = OpenLab();
  (void)*interactor->OpenObjectSet("employee");
  ASSERT_TRUE(interactor->OpenClassInfo("employee").ok());
  ASSERT_TRUE(app_->CloseDatabase("lab").ok());
  EXPECT_EQ(app_->FindInteractor("lab"), nullptr);
  // Only the initial database window remains.
  EXPECT_EQ(app_->server()->window_count(), 1u);
  EXPECT_TRUE(app_->CloseDatabase("lab").IsNotFound());
}

TEST_F(OdeViewSession, ScreenshotRendersSession) {
  DbInteractor* interactor = OpenLab();
  BrowseNode* node = *interactor->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  std::string screen = app_->Screenshot();
  EXPECT_NE(screen.find("Ode databases"), std::string::npos);
  EXPECT_NE(screen.find("lab schema"), std::string::npos);
  EXPECT_NE(screen.find("employee object set"), std::string::npos);
}

}  // namespace
}  // namespace ode::view
