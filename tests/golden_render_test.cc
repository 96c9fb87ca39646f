// Golden-rendering tests: exact ASCII output of key windows. These pin
// the visual contract of the headless toolkit — if a change shifts a
// frame, truncates a title, or breaks scrollbar glyphs, these fail
// with a readable diff.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "dynlink/lab_modules.h"
#include "odb/labdb.h"
#include "odeview/app.h"
#include "odeview/browse_node.h"
#include "odeview/db_interactor.h"
#include "owl/widgets.h"

namespace ode::owl {
namespace {

std::string Render(const Window& window, int w, int h) {
  Framebuffer fb(w, h);
  window.Render(&fb);
  return fb.ToString();
}

TEST(GoldenRenderTest, EmptyTitledWindow) {
  Window window(1, "lab", Point{0, 0}, Size{10, 2});
  EXPECT_EQ(Render(window, 14, 5),
            "+[ lab ]---+  \n"
            "|          |  \n"
            "|          |  \n"
            "+----------+  \n"
            "              \n");
}

TEST(GoldenRenderTest, ButtonsAndLabels) {
  Window window(1, "panel", Point{0, 0}, Size{18, 3});
  auto* button = static_cast<Button*>(window.root()->AddChild(
      std::make_unique<Button>("b", "next")));
  button->set_rect(Rect{0, 0, 7, 1});
  auto* toggled = static_cast<Button*>(window.root()->AddChild(
      std::make_unique<Button>("t", "text")));
  toggled->set_toggle_mode(true);
  toggled->Press();
  toggled->set_rect(Rect{8, 0, 8, 1});
  auto* label = static_cast<Label*>(window.root()->AddChild(
      std::make_unique<Label>("l", "object: c1:o1")));
  label->set_rect(Rect{0, 1, 18, 1});
  auto* disabled = static_cast<Button*>(window.root()->AddChild(
      std::make_unique<Button>("d", "prev")));
  disabled->set_enabled(false);
  disabled->set_rect(Rect{0, 2, 7, 1});
  EXPECT_EQ(Render(window, 22, 5),
            "+[ panel ]---------+  \n"
            "|[next]  [*text]   |  \n"
            "|object: c1:o1     |  \n"
            "|(prev)            |  \n"
            "+------------------+  \n");
}

TEST(GoldenRenderTest, ScrollTextWithScrollbars) {
  Window window(1, "t", Point{0, 0}, Size{8, 4});
  auto text = std::make_unique<ScrollText>(
      "s", std::vector<std::string>{"alpha", "beta", "gamma", "delta",
                                    "epsilon", "zeta"});
  text->set_rect(Rect{0, 0, 8, 4});
  auto* widget =
      static_cast<ScrollText*>(window.root()->AddChild(std::move(text)));
  widget->ScrollBy(1);
  EXPECT_EQ(Render(window, 12, 7),
            "+[ t ]---+  \n"
            "|beta   ^|  \n"
            "|gamma  #|  \n"
            "|delta  v|  \n"
            "|<.....> |  \n"
            "+--------+  \n"
            "            \n");
}

TEST(GoldenRenderTest, MenuSelection) {
  Window window(1, "m", Point{0, 0}, Size{12, 3});
  auto menu = std::make_unique<Menu>(
      "menu", std::vector<std::string>{"employee", "manager", "dept"});
  menu->set_rect(Rect{0, 0, 12, 3});
  auto* widget = static_cast<Menu*>(window.root()->AddChild(std::move(menu)));
  ASSERT_TRUE(widget->SelectItem("manager").ok());
  EXPECT_EQ(Render(window, 16, 6),
            "+[ m ]-------+  \n"
            "|  employee  |  \n"
            "|> manager   |  \n"
            "|  dept      |  \n"
            "+------------+  \n"
            "                \n");
}

TEST(GoldenRenderTest, RasterBitmap) {
  Window window(1, "img", Point{0, 0}, Size{4, 4});
  Bitmap bitmap = *Bitmap::FromPbm("P1 4 4 1 0 0 1 0 1 1 0 0 1 1 0 1 0 0 1");
  auto raster = std::make_unique<RasterView>("r", bitmap);
  raster->set_rect(Rect{0, 0, 4, 4});
  raster->set_scale_to_fit(false);
  window.root()->AddChild(std::move(raster));
  EXPECT_EQ(Render(window, 8, 7),
            "+[ im+  \n"
            "|#  #|  \n"
            "| ## |  \n"
            "| ## |  \n"
            "|#  #|  \n"
            "+----+  \n"
            "        \n");
}

}  // namespace
}  // namespace ode::owl

namespace ode::view {
namespace {

TEST(GoldenRenderTest, InitialDatabaseWindow) {
  OdeViewApp app(60, 20);
  auto db = std::move(*odb::Database::CreateInMemory("lab"));
  ASSERT_TRUE(app.AddDatabaseBorrowed(db.get()).ok());
  ASSERT_TRUE(app.OpenInitialWindow().ok());
  owl::Window* window =
      app.server()->FindWindow(app.initial_window());
  owl::Framebuffer fb(40, 6);
  window->Render(&fb);
  EXPECT_EQ(fb.ToString(),
            "+[ Ode databases ]-------------------+  \n"
            "|click a database icon:              |  \n"
            "| [() lab]                           |  \n"
            "|                                    |  \n"
            "+------------------------------------+  \n"
            "                                        \n");
}

/// FNV-1a over `bytes`, continuing from `hash`.
uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// The whole screen after a `next` on the browse network perfbench drives
// (root text and picture, dept and boss text, dept.head,
// dept.employees and dept.projects), on a screen small enough that
// windows overlap and clip at its right and bottom edges; then a digest
// of the screens of the next 50 presses. A drawing or object-text
// change that moves one cell anywhere on the screen fails here.
TEST(GoldenRenderTest, BrowseNetworkFullScreen) {
  auto db = std::move(*odb::Database::CreateInMemory("lab"));
  odb::LabDbConfig config;
  config.employees = 30;
  config.seed = 11;
  ASSERT_TRUE(odb::BuildLabDatabase(db.get(), config).ok());
  OdeViewApp app(64, 24);
  ASSERT_TRUE(dynlink::RegisterLabDisplayModules(app.repository(), "lab",
                                                 db->schema())
                  .ok());
  ASSERT_TRUE(app.AddDatabaseBorrowed(db.get()).ok());
  ASSERT_TRUE(app.OpenInitialWindow().ok());
  Result<DbInteractor*> interactor = app.OpenDatabase("lab");
  ASSERT_TRUE(interactor.ok());
  Result<BrowseNode*> root = (*interactor)->OpenObjectSet("employee");
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE((*root)->Next().ok());
  ASSERT_TRUE((*root)->ToggleFormat("text").ok());
  ASSERT_TRUE((*root)->ToggleFormat("picture").ok());
  Result<BrowseNode*> dept = (*root)->FollowReference("dept");
  ASSERT_TRUE(dept.ok());
  ASSERT_TRUE((*dept)->ToggleFormat("text").ok());
  Result<BrowseNode*> boss = (*root)->FollowReference("boss");
  ASSERT_TRUE(boss.ok());
  ASSERT_TRUE((*boss)->ToggleFormat("text").ok());
  ASSERT_TRUE((*dept)->FollowReference("head").ok());
  ASSERT_TRUE((*dept)->FollowReferenceSet("employees").ok());
  ASSERT_TRUE((*dept)->FollowReferenceSet("projects").ok());
  ASSERT_TRUE((*root)->Reset().ok());

  ASSERT_TRUE((*root)->Next().ok());
  EXPECT_EQ(app.server()->Composite().ToString(),
            "+[ lab schema ]-+[ manager: mgr_kara ]---------------+----------\n"
            "|[zoom in]   [zo|manager c3:o1 (v2)                 ^|          \n"
            "|[+[ employee ob|n+[ department.employees object set ]----------\n"
            "| |[reset]  [nex|a|[reset]  [next]  [previous]                  \n"
            "| |o+[ employee:|t|o+[ employee: rakesh ]----------------+      \n"
            "| |[|employee c1|d|[|employee c1:o1 (v2)                ^|      \n"
            "| |[|n+[ employe|b|[|n+[ employee c1:o1 [+              :|      \n"
            "| | |a|object: d|p| |a|##################|              :|      \n"
            "+[ department.projects object set ]------------+        :|      \n"
            "|[reset]  [next]  [previous]                   |        :|      \n"
            "|object: project c4:o1 (1/2)                   |        :|      \n"
            "|[text]                                        |        :|------\n"
            "|[lead]                                        |        :|   #| \n"
            "|[members]                                     |        :|## #| \n"
            "|[project]                                     |        :|---+| \n"
            "|                                              |        v|   |+ \n"
            "|                                              |.......> |   |  \n"
            "+----------------------------------------------+---------+   |  \n"
            "|       | | |b|[employees]  [projects]                       |  \n"
            "|       | +-|p|[project]                                     |  \n"
            "|       |<..|l|                                              |  \n"
            "|       +---|h|                                              |  \n"
            "|           |e|                                              |  \n"
            "+-----------|p+----------------------------------------------+--\n");

  // The next 50 presses pass the end of the 30-object cluster once; as
  // in perfbench, the press that runs off the end resets the set.
  uint64_t digest = 1469598103934665603ULL;
  int resets = 0;
  for (int press = 0; press < 50; ++press) {
    Status status = (*root)->Next();
    if (status.IsOutOfRange()) {
      ++resets;
      status = (*root)->Reset();
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    digest = Fnv1a(digest, app.server()->Composite().ToString());
  }
  EXPECT_EQ(resets, 1);
  EXPECT_EQ(digest, 0xf7d0bedfca6e794fULL);
}

}  // namespace
}  // namespace ode::view
