#include <gtest/gtest.h>

#include "dynlink/lab_modules.h"
#include "dynlink/linker.h"
#include "dynlink/repository.h"
#include "dynlink/synthesized.h"
#include "odb/database.h"
#include "odb/labdb.h"

namespace ode::dynlink {
namespace {

DisplayFunction TrivialDisplay(std::string text) {
  return [text](const odb::ObjectBuffer&, const std::vector<std::string>&,
                const std::vector<bool>&) -> Result<DisplayResources> {
    DisplayResources resources;
    WindowSpec window;
    window.format = "text";
    window.text = text;
    resources.windows.push_back(window);
    return resources;
  };
}

DisplayModule Module(std::string cls, std::string format,
                     std::string text = "x", size_t code = 1024) {
  return DisplayModule{"lab", std::move(cls), std::move(format),
                       TrivialDisplay(std::move(text)), code};
}

// --- Repository ----------------------------------------------------------

TEST(RepositoryTest, RegisterAndFind) {
  ModuleRepository repo;
  ASSERT_TRUE(repo.Register(Module("employee", "text")).ok());
  ASSERT_TRUE(repo.Register(Module("employee", "picture")).ok());
  EXPECT_EQ(repo.size(), 2u);
  EXPECT_TRUE(repo.Find("lab", "employee", "text").ok());
  EXPECT_TRUE(repo.Find("lab", "employee", "ps").status().IsNotFound());
  EXPECT_TRUE(repo.Find("other", "employee", "text").status().IsNotFound());
}

TEST(RepositoryTest, FormatsInRegistrationOrder) {
  ModuleRepository repo;
  ASSERT_TRUE(repo.Register(Module("doc", "text")).ok());
  ASSERT_TRUE(repo.Register(Module("doc", "postscript")).ok());
  ASSERT_TRUE(repo.Register(Module("doc", "bitmap")).ok());
  EXPECT_EQ(repo.FormatsFor("lab", "doc"),
            (std::vector<std::string>{"text", "postscript", "bitmap"}));
  EXPECT_TRUE(repo.FormatsFor("lab", "nothing").empty());
}

TEST(RepositoryTest, ReplaceKeepsSingleEntry) {
  ModuleRepository repo;
  ASSERT_TRUE(repo.Register(Module("c", "text", "v1")).ok());
  ASSERT_TRUE(repo.Register(Module("c", "text", "v2")).ok());
  EXPECT_EQ(repo.size(), 1u);
  EXPECT_EQ(repo.FormatsFor("lab", "c").size(), 1u);
}

TEST(RepositoryTest, UnregisterRemovesClassModules) {
  ModuleRepository repo;
  ASSERT_TRUE(repo.Register(Module("a", "text")).ok());
  ASSERT_TRUE(repo.Register(Module("a", "picture")).ok());
  ASSERT_TRUE(repo.Register(Module("b", "text")).ok());
  EXPECT_EQ(repo.Unregister("lab", "a"), 2);
  EXPECT_EQ(repo.size(), 1u);
  EXPECT_EQ(repo.Unregister("lab", "a"), 0);
}

TEST(RepositoryTest, InvalidModulesRejected) {
  ModuleRepository repo;
  EXPECT_FALSE(repo.Register(DisplayModule{}).ok());
  DisplayModule no_fn = Module("x", "text");
  no_fn.function = nullptr;
  EXPECT_FALSE(repo.Register(no_fn).ok());
}

// --- Linker ------------------------------------------------------------------

TEST(LinkerTest, ColdLoadThenCacheHit) {
  ModuleRepository repo;
  ASSERT_TRUE(repo.Register(Module("employee", "text")).ok());
  DynamicLinker linker(&repo);
  EXPECT_FALSE(linker.IsLoaded("lab", "employee", "text"));
  ASSERT_TRUE(linker.Load("lab", "employee", "text").ok());
  EXPECT_TRUE(linker.IsLoaded("lab", "employee", "text"));
  EXPECT_EQ(linker.stats().loads, 1u);
  ASSERT_TRUE(linker.Load("lab", "employee", "text").ok());
  EXPECT_EQ(linker.stats().loads, 1u);
  EXPECT_EQ(linker.stats().cache_hits, 1u);
}

TEST(LinkerTest, MissingModuleReported) {
  ModuleRepository repo;
  DynamicLinker linker(&repo);
  EXPECT_TRUE(linker.Load("lab", "ghost", "text").status().IsNotFound());
}

TEST(LinkerTest, InvalidatePicksUpNewVersion) {
  ModuleRepository repo;
  ASSERT_TRUE(repo.Register(Module("c", "text", "old")).ok());
  DynamicLinker linker(&repo);
  const DisplayFunction* fn = *linker.Load("lab", "c", "text");
  odb::ObjectBuffer buffer;
  EXPECT_EQ((*fn)(buffer, {}, {})->windows[0].text, "old");
  // Class designer recompiles the display function...
  ASSERT_TRUE(repo.Register(Module("c", "text", "new")).ok());
  // ...the stale copy stays loaded until invalidation.
  fn = *linker.Load("lab", "c", "text");
  EXPECT_EQ((*fn)(buffer, {}, {})->windows[0].text, "old");
  EXPECT_EQ(linker.Invalidate("lab", "c"), 1);
  fn = *linker.Load("lab", "c", "text");
  EXPECT_EQ((*fn)(buffer, {}, {})->windows[0].text, "new");
  EXPECT_EQ(linker.stats().invalidations, 1u);
}

TEST(LinkerTest, BytesLoadedTracksCodeSize) {
  ModuleRepository repo;
  ASSERT_TRUE(repo.Register(Module("a", "text", "x", 5000)).ok());
  ASSERT_TRUE(repo.Register(Module("b", "text", "x", 7000)).ok());
  DynamicLinker linker(&repo);
  (void)*linker.Load("lab", "a", "text");
  (void)*linker.Load("lab", "b", "text");
  EXPECT_EQ(linker.stats().bytes_loaded, 12000u);
  linker.UnloadAll();
  EXPECT_EQ(linker.loaded_count(), 0u);
}

// --- AttributeSelected ----------------------------------------------------------

TEST(ProtocolTest, AttributeSelection) {
  std::vector<std::string> attrs = {"name", "age", "salary"};
  EXPECT_TRUE(AttributeSelected(attrs, {}, "name"));      // empty mask
  EXPECT_TRUE(AttributeSelected(attrs, {}, "anything"));  // no projection
  std::vector<bool> mask = {true, false, true};
  EXPECT_TRUE(AttributeSelected(attrs, mask, "name"));
  EXPECT_FALSE(AttributeSelected(attrs, mask, "age"));
  EXPECT_TRUE(AttributeSelected(attrs, mask, "salary"));
  EXPECT_FALSE(AttributeSelected(attrs, mask, "unlisted"));
}

// --- Synthesized fallbacks ---------------------------------------------------------

class SynthesizedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::move(*odb::Database::CreateInMemory("lab"));
    ASSERT_TRUE(odb::BuildLabDatabase(db_.get(), SmallConfig()).ok());
  }
  static odb::LabDbConfig SmallConfig() {
    odb::LabDbConfig config;
    config.employees = 5;
    config.managers = 2;
    config.departments = 2;
    config.projects = 1;
    config.documents = 1;
    return config;
  }
  /// The lab's first employee, the object most tests display.
  odb::ObjectBuffer FirstEmployee() {
    return *db_->GetObject(db_->ScanCluster("employee")->front());
  }
  std::unique_ptr<odb::Database> db_;
};

TEST_F(SynthesizedTest, DisplayShowsPublicMembersOnly) {
  odb::ObjectBuffer emp = FirstEmployee();
  DisplayFunction fn =
      SynthesizeDisplayFunction(db_->schema(), "employee");
  Result<DisplayResources> resources = fn(emp, {}, {});
  ASSERT_TRUE(resources.ok()) << resources.status().ToString();
  ASSERT_EQ(resources->windows.size(), 1u);
  const std::string& text = resources->windows[0].text;
  EXPECT_NE(text.find("name: \"rakesh\""), std::string::npos) << text;
  EXPECT_NE(text.find("age:"), std::string::npos);
  // salary is private: encapsulation hides it.
  EXPECT_EQ(text.find("salary"), std::string::npos);
}

TEST_F(SynthesizedTest, PrivilegedModeViolatesEncapsulation) {
  odb::ObjectBuffer emp = FirstEmployee();
  DisplayFunction fn = SynthesizeDisplayFunction(db_->schema(), "employee",
                                                 /*privileged=*/true);
  Result<DisplayResources> resources = fn(emp, {}, {});
  ASSERT_TRUE(resources.ok());
  EXPECT_NE(resources->windows[0].text.find("salary"), std::string::npos);
}

TEST_F(SynthesizedTest, ProjectionMaskFiltersAttributes) {
  odb::ObjectBuffer emp = FirstEmployee();
  std::vector<std::string> attrs = {"name", "age", "title", "salary"};
  std::vector<bool> mask = {true, false, false, false};
  DisplayFunction fn =
      SynthesizeDisplayFunction(db_->schema(), "employee");
  Result<DisplayResources> resources = fn(emp, attrs, mask);
  ASSERT_TRUE(resources.ok());
  const std::string& text = resources->windows[0].text;
  EXPECT_NE(text.find("name:"), std::string::npos);
  EXPECT_EQ(text.find("age:"), std::string::npos);
  EXPECT_EQ(text.find("title:"), std::string::npos);
}

TEST_F(SynthesizedTest, WrongClassIsDisplayFault) {
  odb::ObjectBuffer emp = FirstEmployee();
  DisplayFunction fn =
      SynthesizeDisplayFunction(db_->schema(), "department");
  EXPECT_TRUE(fn(emp, {}, {}).status().IsDisplayFault());
}

TEST_F(SynthesizedTest, DisplayListIsPublicMembers) {
  std::vector<std::string> list =
      *SynthesizeDisplayList(db_->schema(), "employee");
  EXPECT_NE(std::find(list.begin(), list.end(), "name"), list.end());
  EXPECT_NE(std::find(list.begin(), list.end(), "dept"), list.end());
  EXPECT_EQ(std::find(list.begin(), list.end(), "salary"), list.end());
}

TEST_F(SynthesizedTest, SelectListIsPublicScalars) {
  std::vector<std::string> list =
      *SynthesizeSelectList(db_->schema(), "employee");
  EXPECT_NE(std::find(list.begin(), list.end(), "age"), list.end());
  // References, sets, and blobs are not selectable.
  EXPECT_EQ(std::find(list.begin(), list.end(), "dept"), list.end());
  EXPECT_EQ(std::find(list.begin(), list.end(), "picture"), list.end());
}

TEST_F(SynthesizedTest, InheritedMembersIncluded) {
  std::vector<std::string> list =
      *SynthesizeDisplayList(db_->schema(), "manager");
  // manager inherits employee.name and department.location.
  EXPECT_NE(std::find(list.begin(), list.end(), "name"), list.end());
  EXPECT_NE(std::find(list.begin(), list.end(), "location"), list.end());
  EXPECT_NE(std::find(list.begin(), list.end(), "reports"), list.end());
}

// --- Lab modules -----------------------------------------------------------------

TEST_F(SynthesizedTest, InheritedModuleResolution) {
  ModuleRepository repo;
  ASSERT_TRUE(repo.Register(Module("employee", "text", "emp-text")).ok());
  ASSERT_TRUE(repo.Register(Module("department", "map", "dept-map")).ok());
  // manager derives from employee AND department: it inherits both
  // classes' display member functions.
  EXPECT_EQ(repo.InheritedFormatsFor(db_->schema(), "lab", "manager"),
            (std::vector<std::string>{"text", "map"}));
  Result<const DisplayModule*> text =
      repo.FindInherited(db_->schema(), "lab", "manager", "text");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ((*text)->class_name, "employee");  // defining class
  // An own module overrides the inherited one.
  ASSERT_TRUE(repo.Register(Module("manager", "text", "mgr-text")).ok());
  text = repo.FindInherited(db_->schema(), "lab", "manager", "text");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ((*text)->class_name, "manager");
  EXPECT_TRUE(repo.FindInherited(db_->schema(), "lab", "manager", "3d")
                  .status()
                  .IsNotFound());
}

TEST_F(SynthesizedTest, LabModulesRegisterAllFormats) {
  ModuleRepository repo;
  ASSERT_TRUE(RegisterLabDisplayModules(&repo, "lab", db_->schema()).ok());
  EXPECT_EQ(repo.FormatsFor("lab", "employee"),
            (std::vector<std::string>{"text", "picture"}));
  EXPECT_EQ(repo.FormatsFor("lab", "document"),
            (std::vector<std::string>{"text", "postscript", "bitmap"}));
}

TEST_F(SynthesizedTest, EmployeeTextDisplayHasTitleWithName) {
  ModuleRepository repo;
  ASSERT_TRUE(RegisterLabDisplayModules(&repo, "lab", db_->schema()).ok());
  DynamicLinker linker(&repo);
  const DisplayFunction* fn = *linker.Load("lab", "employee", "text");
  odb::ObjectBuffer emp = FirstEmployee();
  Result<DisplayResources> resources = (*fn)(emp, {}, {});
  ASSERT_TRUE(resources.ok());
  EXPECT_EQ(resources->windows[0].title, "employee: rakesh");
  EXPECT_EQ(resources->windows[0].kind, WindowKind::kScrollText);
}

TEST_F(SynthesizedTest, EmployeePictureDisplayIsValidPbm) {
  ModuleRepository repo;
  ASSERT_TRUE(RegisterLabDisplayModules(&repo, "lab", db_->schema()).ok());
  DynamicLinker linker(&repo);
  const DisplayFunction* fn = *linker.Load("lab", "employee", "picture");
  odb::ObjectBuffer emp = FirstEmployee();
  Result<DisplayResources> resources = (*fn)(emp, {}, {});
  ASSERT_TRUE(resources.ok());
  EXPECT_EQ(resources->windows[0].kind, WindowKind::kRasterImage);
  EXPECT_EQ(resources->windows[0].image_pbm.substr(0, 2), "P1");
}

TEST_F(SynthesizedTest, FaultyModuleReturnsDisplayFault) {
  ModuleRepository repo;
  ASSERT_TRUE(RegisterFaultyDisplayModule(&repo, "lab", "employee").ok());
  DynamicLinker linker(&repo);
  const DisplayFunction* fn = *linker.Load("lab", "employee", "crash");
  odb::ObjectBuffer emp = FirstEmployee();
  EXPECT_TRUE((*fn)(emp, {}, {}).status().IsDisplayFault());
}

}  // namespace
}  // namespace ode::dynlink
