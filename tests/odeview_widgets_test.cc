// Unit tests for the OdeView-specific widgets and smaller components:
// DagView, DisplayStateRegistry, the versions window, and the panel's
// project button wiring.

#include <gtest/gtest.h>

#include "dynlink/lab_modules.h"
#include "odb/labdb.h"
#include "odeview/app.h"
#include "odeview/dag_view.h"
#include "odeview/display_state.h"
#include "owl/widgets.h"

namespace ode::view {
namespace {

// --- DisplayState ------------------------------------------------------

TEST(DisplayStateTest, ToggleTracksOpenFormats) {
  ClusterDisplayState state;
  EXPECT_FALSE(state.IsOpen("text"));
  EXPECT_TRUE(state.Toggle("text"));
  EXPECT_TRUE(state.IsOpen("text"));
  EXPECT_TRUE(state.Toggle("picture"));
  EXPECT_EQ(state.open_formats,
            (std::vector<std::string>{"text", "picture"}));
  EXPECT_FALSE(state.Toggle("text"));
  EXPECT_EQ(state.open_formats, (std::vector<std::string>{"picture"}));
}

TEST(DisplayStateTest, RegistryKeysByDbAndClass) {
  DisplayStateRegistry registry;
  ClusterDisplayState* a = registry.StateFor("db1", "employee");
  ClusterDisplayState* b = registry.StateFor("db2", "employee");
  ClusterDisplayState* c = registry.StateFor("db1", "manager");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.StateFor("db1", "employee"), a);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.FindState("db3", "x"), nullptr);
  // Browse nodes hold these pointers: later inserts must not move them.
  for (int i = 0; i < 100; ++i) registry.StateFor("db1", std::to_string(i));
  EXPECT_EQ(registry.StateFor("db1", "employee"), a);
}

TEST(DisplayStateTest, ProjectionMaskBuilding) {
  std::vector<std::string> list = {"a", "b", "c"};
  EXPECT_EQ(BuildProjectionMask(list, {"b"}),
            (std::vector<bool>{false, true, false}));
  EXPECT_EQ(BuildProjectionMask(list, {"c", "a"}),
            (std::vector<bool>{true, false, true}));
  EXPECT_EQ(BuildProjectionMask(list, {"ghost"}),
            (std::vector<bool>{false, false, false}));
  EXPECT_TRUE(BuildProjectionMask({}, {"a"}).empty());
}

// --- DagView --------------------------------------------------------------

dag::Digraph SmallGraph() {
  return dag::Digraph::FromEdges(
      {{"base", "left"}, {"base", "right"}, {"left", "leaf"},
       {"right", "leaf"}});
}

TEST(DagViewTest, ClassAtFindsNodes) {
  DagView view("dag", SmallGraph());
  view.set_rect(owl::Rect{0, 0, 60, 20});
  for (const char* cls : {"base", "left", "right", "leaf"}) {
    dag::NodeId node = *view.graph().FindNode(cls);
    const dag::PlacedNode& placed = view.layout().nodes[node];
    EXPECT_EQ(view.ClassAt(owl::Point{placed.x, placed.y}), cls);
    EXPECT_EQ(view.ClassAt(
                  owl::Point{placed.x + placed.width - 1, placed.y}),
              cls);
  }
  EXPECT_EQ(view.ClassAt(owl::Point{59, 19}), "");
}

TEST(DagViewTest, ClickInvokesCallback) {
  std::vector<std::string> clicked;
  DagView view("dag", SmallGraph(),
               [&](const std::string& cls) { clicked.push_back(cls); });
  view.set_rect(owl::Rect{0, 0, 60, 20});
  dag::NodeId node = *view.graph().FindNode("leaf");
  const dag::PlacedNode& placed = view.layout().nodes[node];
  EXPECT_TRUE(view.DispatchClick(owl::Point{placed.x + 1, placed.y}));
  ASSERT_EQ(clicked.size(), 1u);
  EXPECT_EQ(clicked[0], "leaf");
  // A click on empty canvas is not consumed.
  EXPECT_FALSE(view.DispatchClick(owl::Point{59, 19}));
}

TEST(DagViewTest, ScrollOffsetsClassAt) {
  DagView view("dag", SmallGraph());
  view.set_rect(owl::Rect{0, 0, 5, 3});  // tiny viewport forces scroll
  dag::NodeId node = *view.graph().FindNode("leaf");
  const dag::PlacedNode& placed = view.layout().nodes[node];
  view.ScrollBy(placed.x, placed.y);
  EXPECT_EQ(view.ClassAt(owl::Point{0, 0}), "leaf");
}

TEST(DagViewTest, RenderShowsEdgesAndArrowheads) {
  DagView view("dag", SmallGraph());
  std::string out;
  for (const std::string& line : view.RenderLines()) out += line + "\n";
  EXPECT_NE(out.find("[base]"), std::string::npos);
  EXPECT_NE(out.find('v'), std::string::npos);  // arrowheads
  EXPECT_NE(out.find('|'), std::string::npos);  // vertical segments
}

TEST(DagViewTest, ZoomLevelsShrinkRendering) {
  DagView view("dag", SmallGraph());
  int w0 = view.layout().width;
  ASSERT_TRUE(view.ZoomOut().ok());
  int w1 = view.layout().width;
  ASSERT_TRUE(view.ZoomOut().ok());
  int w2 = view.layout().width;
  EXPECT_LT(w2, w1);
  EXPECT_LT(w1, w0);
  // Clicking still resolves nodes at the coarsest zoom.
  dag::NodeId node = *view.graph().FindNode("base");
  const dag::PlacedNode& placed = view.layout().nodes[node];
  EXPECT_EQ(view.ClassAt(owl::Point{placed.x, placed.y}), "base");
}

// --- Versions window + project button ------------------------------------------

class WidgetSession : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::move(*odb::Database::CreateInMemory("lab"));
    odb::LabDbConfig config;
    config.employees = 5;
    config.managers = 1;
    config.departments = 1;
    ASSERT_TRUE(odb::BuildLabDatabase(db_.get(), config).ok());
    app_ = std::make_unique<OdeViewApp>(200, 80);
    ASSERT_TRUE(dynlink::RegisterLabDisplayModules(app_->repository(),
                                                   "lab", db_->schema())
                    .ok());
    ASSERT_TRUE(app_->AddDatabaseBorrowed(db_.get()).ok());
    interactor_ = *app_->OpenDatabase("lab");
  }
  std::unique_ptr<odb::Database> db_;
  std::unique_ptr<OdeViewApp> app_;
  DbInteractor* interactor_ = nullptr;
};

TEST_F(WidgetSession, VersionsWindowListsHistory) {
  // document is a versioned class; give the first one some history.
  odb::Oid doc = db_->ScanCluster("document")->front();
  for (int i = 0; i < 3; ++i) {
    odb::ObjectBuffer buffer = *db_->GetObject(doc);
    *buffer.value.FindMutableField("title") =
        odb::Value::String("rev " + std::to_string(i));
    ASSERT_TRUE(db_->UpdateObject(doc, buffer.value).ok());
  }
  BrowseNode* node = *interactor_->OpenObjectSet("document");
  ASSERT_TRUE(node->Next().ok());
  // The panel offers a versions button for versioned classes.
  owl::Window* panel = app_->server()->FindWindow(node->panel_window());
  ASSERT_NE(panel->FindWidget("versions"), nullptr);
  ASSERT_TRUE(app_->server()
                  ->ClickWidget(node->panel_window(), "versions")
                  .ok());
  ASSERT_NE(node->versions_window(), owl::kNoWindow);
  owl::Window* window =
      app_->server()->FindWindow(node->versions_window());
  auto* text =
      dynamic_cast<owl::ScrollText*>(window->FindWidget("content"));
  ASSERT_NE(text, nullptr);
  std::string joined;
  for (const std::string& line : text->lines()) joined += line + "\n";
  EXPECT_NE(joined.find("v1"), std::string::npos);
  EXPECT_NE(joined.find("*v4"), std::string::npos);  // current marked
  EXPECT_NE(joined.find("rev 2"), std::string::npos);
}

TEST_F(WidgetSession, UnversionedClassHasNoVersionsButton) {
  BrowseNode* node = *interactor_->OpenObjectSet("employee");
  owl::Window* panel = app_->server()->FindWindow(node->panel_window());
  EXPECT_EQ(panel->FindWidget("versions"), nullptr);
  ASSERT_TRUE(node->Next().ok());
  EXPECT_TRUE(node->OpenVersionsWindow().IsNotFound());
}

TEST_F(WidgetSession, ProjectButtonOpensDialog) {
  BrowseNode* node = *interactor_->OpenObjectSet("employee");
  ASSERT_TRUE(node->Next().ok());
  EXPECT_EQ(interactor_->projection_dialog("employee"), owl::kNoWindow);
  ASSERT_TRUE(app_->server()
                  ->ClickWidget(node->panel_window(), "project")
                  .ok());
  EXPECT_NE(interactor_->projection_dialog("employee"), owl::kNoWindow);
}

}  // namespace
}  // namespace ode::view
