// Tests for the later-section features: §5.3 join views, the
// privileged (debug) display mode, and the referential-integrity
// checker on the substrate.

#include <gtest/gtest.h>

#include "common/op_profile.h"
#include "dynlink/lab_modules.h"
#include "odb/ddl_parser.h"
#include "odb/integrity.h"
#include "odb/labdb.h"
#include "odeview/app.h"
#include "owl/widgets.h"

namespace ode::view {
namespace {

class ExtensionsSession : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::move(*odb::Database::CreateInMemory("lab"));
    odb::LabDbConfig config;
    config.employees = 20;
    config.managers = 4;
    config.departments = 4;
    ASSERT_TRUE(odb::BuildLabDatabase(db_.get(), config).ok());
    app_ = std::make_unique<OdeViewApp>(200, 80);
    ASSERT_TRUE(dynlink::RegisterLabDisplayModules(app_->repository(),
                                                   "lab", db_->schema())
                    .ok());
    ASSERT_TRUE(app_->AddDatabaseBorrowed(db_.get()).ok());
    interactor_ = *app_->OpenDatabase("lab");
  }

  std::string ScrollTextContent(owl::WindowId id) {
    owl::Window* window = app_->server()->FindWindow(id);
    if (window == nullptr) return "<no window>";
    auto* text =
        dynamic_cast<owl::ScrollText*>(window->FindWidget("content"));
    if (text == nullptr) return "<no widget>";
    std::string out;
    for (const std::string& line : text->lines()) out += line + "\n";
    return out;
  }

  /// Defines `vault`, a class with a private member and no display
  /// modules (so it gets the synthesized display), and stores one
  /// vault labelled "v1".
  void CreateVault() {
    ASSERT_TRUE(db_->DefineSchema(R"(
class vault {
public:
  string label;
private:
  string combination;
};
)")
                    .ok());
    ASSERT_TRUE(db_->CreateObject(
                       "vault",
                       odb::Value::Struct(
                           {{"label", odb::Value::String("v1")},
                            {"combination", odb::Value::String("1234")}}))
                    .ok());
  }

  std::unique_ptr<odb::Database> db_;
  std::unique_ptr<OdeViewApp> app_;
  DbInteractor* interactor_ = nullptr;
};

// --- §5.3 join views --------------------------------------------------------

TEST_F(ExtensionsSession, JoinFindsMatchingPairs) {
  // Employees joined to their own department by name equality of the
  // employee's dept name (via location match is fragile; use ages).
  Result<JoinView*> join = interactor_->OpenJoinView(
      "employee", "manager", "left.age == right.age");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  // Cross-check against a hand-rolled nested loop.
  size_t expected = 0;
  std::vector<odb::Oid> emps = *db_->ScanCluster("employee");
  std::vector<odb::Oid> mgrs = *db_->ScanCluster("manager");
  for (odb::Oid e : emps) {
    int64_t age_e =
        db_->GetObject(e)->value.FindField("age")->AsInt();
    for (odb::Oid m : mgrs) {
      if (db_->GetObject(m)->value.FindField("age")->AsInt() == age_e) {
        ++expected;
      }
    }
  }
  EXPECT_EQ((*join)->pair_count(), expected);
}

TEST_F(ExtensionsSession, JoinSequencingShowsBothSides) {
  Result<JoinView*> join = interactor_->OpenJoinView(
      "employee", "department", "left.title == \"MTS\"");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_GT((*join)->pair_count(), 0u);
  ASSERT_TRUE((*join)->Next().ok());
  auto pair = *(*join)->Current();
  EXPECT_EQ(pair.first.class_name, "employee");
  EXPECT_EQ(pair.second.class_name, "department");
  // Both side windows exist and show each side's own display.
  ASSERT_NE((*join)->left_window(), owl::kNoWindow);
  ASSERT_NE((*join)->right_window(), owl::kNoWindow);
  EXPECT_NE(ScrollTextContent((*join)->left_window()).find("name:"),
            std::string::npos);
  EXPECT_NE(ScrollTextContent((*join)->right_window()).find("location:"),
            std::string::npos);
  // Sequencing moves both.
  std::string left_before = ScrollTextContent((*join)->left_window());
  while ((*join)->Next().ok()) {
  }
  EXPECT_TRUE((*join)->Next().IsOutOfRange());
  ASSERT_TRUE((*join)->Prev().ok() || (*join)->pair_count() == 1);
}

TEST_F(ExtensionsSession, JoinValidatesPredicatePaths) {
  EXPECT_TRUE(interactor_->OpenJoinView("employee", "manager",
                                        "age == right.age")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(interactor_->OpenJoinView("employee", "ghost",
                                        "left.age == right.age")
                  .status()
                  .IsNotFound());
}

TEST_F(ExtensionsSession, CloseJoinViewDestroysWindowsAndReleasesView) {
  Result<JoinView*> join = interactor_->OpenJoinView(
      "employee", "manager", "left.age == right.age");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_TRUE((*join)->Next().ok());  // materialize the side windows
  owl::WindowId panel = (*join)->panel_window();
  owl::WindowId left = (*join)->left_window();
  ASSERT_NE(app_->server()->FindWindow(panel), nullptr);
  ASSERT_NE(app_->server()->FindWindow(left), nullptr);
  size_t open_before = interactor_->join_views().size();

  ASSERT_TRUE(interactor_->CloseJoinView(*join).ok());
  EXPECT_EQ(interactor_->join_views().size(), open_before - 1);
  EXPECT_EQ(app_->server()->FindWindow(panel), nullptr);
  EXPECT_EQ(app_->server()->FindWindow(left), nullptr);
  // The view is gone; a second close must not find it.
  EXPECT_TRUE(interactor_->CloseJoinView(*join).IsNotFound());
  EXPECT_TRUE(interactor_->CloseJoinView(nullptr).IsNotFound());
}

TEST_F(ExtensionsSession, EmptyJoinIsUsable) {
  Result<JoinView*> join = interactor_->OpenJoinView(
      "employee", "manager", "left.age == -1");
  ASSERT_TRUE(join.ok());
  EXPECT_EQ((*join)->pair_count(), 0u);
  EXPECT_TRUE((*join)->Next().IsOutOfRange());
  EXPECT_FALSE((*join)->has_current());
}

// A §5.3 view's join and its fetches are ops of the interactor's
// session, so they reach the `/sessions` totals and the slow-op ring.
TEST_F(ExtensionsSession, JoinViewRunsAsSessionOps) {
  obs::SessionEntry* entry = interactor_->session()->entry();
  const uint64_t ops = entry->ops_completed();
  const uint64_t pairs = entry->totals().Snapshot().join_pairs;
  Result<JoinView*> join = interactor_->OpenJoinView(
      "employee", "department", "left.title == \"MTS\"");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_GT((*join)->pair_count(), 2u);
  EXPECT_EQ(entry->ops_completed(), ops + 1);
  EXPECT_EQ(entry->totals().Snapshot().join_pairs - pairs,
            (*join)->pair_count());
  for (uint64_t step = 1; step <= 2; ++step) {
    ASSERT_TRUE((*join)->Next().ok());
    EXPECT_EQ(entry->ops_completed(), ops + 1 + 2 * step);  // both sides
  }
}

TEST_F(ExtensionsSession, JoinPanelButtonsWork) {
  Result<JoinView*> join = interactor_->OpenJoinView(
      "employee", "department", "left.title == \"MTS\"");
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(
      app_->server()->ClickWidget((*join)->panel_window(), "next").ok());
  EXPECT_TRUE((*join)->has_current());
  ASSERT_TRUE(
      app_->server()->ClickWidget((*join)->panel_window(), "reset").ok());
  EXPECT_FALSE((*join)->has_current());
}

// --- Privileged (debug) mode ---------------------------------------------------

TEST_F(ExtensionsSession, PrivilegedModeShowsPrivateMembers) {
  ASSERT_NO_FATAL_FAILURE(CreateVault());
  BrowseNode* node = *interactor_->OpenObjectSet("vault");
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  std::string text = ScrollTextContent(node->DisplayWindow("text"));
  EXPECT_EQ(text.find("combination"), std::string::npos)
      << "encapsulation must hide private members by default";
  interactor_->set_privileged(true);
  EXPECT_TRUE(interactor_->privileged());
  text = ScrollTextContent(node->DisplayWindow("text"));
  EXPECT_NE(text.find("combination"), std::string::npos)
      << "privileged mode selectively violates encapsulation";
  interactor_->set_privileged(false);
  text = ScrollTextContent(node->DisplayWindow("text"));
  EXPECT_EQ(text.find("combination"), std::string::npos);
}

// A §5.3 join view draws each side with the same synthesized display
// as a browse window, so debug mode shows private members there too.
TEST_F(ExtensionsSession, JoinViewHonoursPrivilegedMode) {
  ASSERT_NO_FATAL_FAILURE(CreateVault());
  Result<JoinView*> join = interactor_->OpenJoinView(
      "vault", "department", "left.label == \"v1\"");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_GT((*join)->pair_count(), 0u);
  for (bool privileged : {false, true, false}) {
    interactor_->set_privileged(privileged);
    ASSERT_TRUE((*join)->Reset().ok());
    ASSERT_TRUE((*join)->Next().ok());
    std::string text = ScrollTextContent((*join)->left_window());
    EXPECT_NE(text.find("label"), std::string::npos) << text;
    EXPECT_EQ(text.find("combination") != std::string::npos, privileged)
        << "privileged=" << privileged << "\n" << text;
  }
}

// Switching debug mode re-renders an open join view's current pair at
// once, as it does the browse trees: no further gesture is needed.
TEST_F(ExtensionsSession, JoinViewFollowsPrivilegedModeWithoutAGesture) {
  ASSERT_NO_FATAL_FAILURE(CreateVault());
  Result<JoinView*> join = interactor_->OpenJoinView(
      "vault", "department", "left.label == \"v1\"");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_TRUE((*join)->Next().ok());
  auto shows_combination = [&] {
    return ScrollTextContent((*join)->left_window()).find("combination") !=
           std::string::npos;
  };
  EXPECT_FALSE(shows_combination());
  interactor_->set_privileged(true);
  EXPECT_TRUE(shows_combination());
  interactor_->set_privileged(false);
  EXPECT_FALSE(shows_combination());
}

// A class change re-renders an open join view's current pair, so a
// member `AlterClass` added shows without a further gesture.
TEST_F(ExtensionsSession, JoinViewFollowsClassChanges) {
  ASSERT_NO_FATAL_FAILURE(CreateVault());
  Result<JoinView*> join = interactor_->OpenJoinView(
      "vault", "department", "left.label == \"v1\"");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_TRUE((*join)->Next().ok());
  EXPECT_EQ(ScrollTextContent((*join)->left_window()).find("location"),
            std::string::npos);
  Result<odb::ClassDef> altered = odb::ParseClassDef(R"(
class vault {
public:
  string label;
  string location;
private:
  string combination;
};
)");
  ASSERT_TRUE(altered.ok()) << altered.status().ToString();
  ASSERT_TRUE(db_->AlterClass(*altered).ok());
  ASSERT_TRUE(interactor_->OnClassChanged("vault").ok());
  EXPECT_NE(ScrollTextContent((*join)->left_window()).find("location"),
            std::string::npos)
      << ScrollTextContent((*join)->left_window());
}

}  // namespace
}  // namespace ode::view

namespace ode::odb {
namespace {

// --- Integrity checker ------------------------------------------------------------

class IntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::move(*Database::CreateInMemory("t"));
    ASSERT_TRUE(db_->DefineSchema(R"(
class dept { public: string name; };
class emp {
public:
  string name;
  dept* d;
  set<emp*> peers;
};
)")
                    .ok());
    dept_ = *db_->CreateObject(
        "dept", Value::Struct({{"name", Value::String("research")}}));
    emp_ = *db_->CreateObject(
        "emp", Value::Struct({{"name", Value::String("amy")},
                              {"d", Value::Ref(dept_, "dept")},
                              {"peers", Value::Set({})}}));
  }

  std::unique_ptr<Database> db_;
  Oid dept_;
  Oid emp_;
};

TEST_F(IntegrityTest, CleanDatabaseHasNoIssues) {
  EXPECT_TRUE(CheckIntegrity(db_.get())->empty());
}

TEST_F(IntegrityTest, DanglingReferenceDetected) {
  ASSERT_TRUE(db_->DeleteObject(dept_).ok());
  std::vector<IntegrityIssue> issues = *CheckIntegrity(db_.get());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, IntegrityIssue::Kind::kDanglingReference);
  EXPECT_EQ(issues[0].holder, emp_);
  EXPECT_EQ(issues[0].member, "d");
  EXPECT_EQ(issues[0].target, dept_);
  EXPECT_NE(issues[0].ToString().find("dangling"), std::string::npos);
}

TEST_F(IntegrityTest, DanglingRefInsideSetDetected) {
  Oid other = *db_->CreateObject(
      "emp", Value::Struct({{"name", Value::String("bob")},
                            {"d", Value::Ref(dept_, "dept")},
                            {"peers", Value::Set({})}}));
  ObjectBuffer amy = *db_->GetObject(emp_);
  amy.value.FindMutableField("peers")->mutable_elements().push_back(
      Value::Ref(other, "emp"));
  ASSERT_TRUE(db_->UpdateObject(emp_, amy.value).ok());
  ASSERT_TRUE(db_->DeleteObject(other).ok());
  std::vector<IntegrityIssue> issues = *CheckIntegrity(db_.get());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].member, "peers[0]");
}

TEST_F(IntegrityTest, NullReferencesAreFine) {
  ObjectBuffer amy = *db_->GetObject(emp_);
  *amy.value.FindMutableField("d") = Value::Ref(Oid::Null(), "dept");
  ASSERT_TRUE(db_->UpdateObject(emp_, amy.value).ok());
  EXPECT_TRUE(CheckIntegrity(db_.get())->empty());
}

TEST_F(IntegrityTest, LabDatabaseIsClean) {
  auto lab = std::move(*Database::CreateInMemory("lab"));
  ASSERT_TRUE(BuildLabDatabase(lab.get()).ok());
  EXPECT_TRUE(CheckIntegrity(lab.get())->empty());
}

}  // namespace
}  // namespace ode::odb
