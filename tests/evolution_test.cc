// Tests for schema evolution (AlterClass with object migration) and
// deep extents — the facilities behind §4.5's claim that schema
// changes (addition, deletion, and modification of class definitions)
// never require recompiling OdeView.

#include <gtest/gtest.h>

#include "dynlink/lab_modules.h"
#include "odb/database.h"
#include "odb/ddl_parser.h"
#include "odb/labdb.h"
#include "odeview/app.h"

namespace ode::odb {
namespace {

std::unique_ptr<Database> FreshDb() {
  auto db = std::move(*Database::CreateInMemory("evo"));
  EXPECT_TRUE(db->DefineSchema(R"(
class person {
public:
  string name;
  int age;
};
class student : public person {
public:
  string school;
};
)")
                  .ok());
  return db;
}

Value P(std::string name, int64_t age) {
  return Value::Struct(
      {{"name", Value::String(std::move(name))}, {"age", Value::Int(age)}});
}

// --- Deep extents -----------------------------------------------------------

TEST(DeepExtentTest, IncludesDescendantClusters) {
  auto db = FreshDb();
  Oid p = *db->CreateObject("person", P("ann", 30));
  Value s = P("bob", 20);
  s.mutable_fields().push_back({"school", Value::String("mit")});
  Oid st = *db->CreateObject("student", s);
  EXPECT_EQ(db->ScanCluster("person")->size(), 1u);
  std::vector<Oid> deep = *db->ScanClusterDeep("person");
  ASSERT_EQ(deep.size(), 2u);
  EXPECT_EQ(deep[0], p);   // base cluster first
  EXPECT_EQ(deep[1], st);
  // A leaf class's deep extent is its own cluster.
  EXPECT_EQ(db->ScanClusterDeep("student")->size(), 1u);
}

TEST(DeepExtentTest, LabEmployeesIncludeManagers) {
  auto db = std::move(*Database::CreateInMemory("lab"));
  ASSERT_TRUE(BuildLabDatabase(db.get()).ok());
  EXPECT_EQ(db->ScanCluster("employee")->size(), 55u);
  EXPECT_EQ(db->ScanClusterDeep("employee")->size(), 62u);  // + 7 managers
}

// --- AlterClass migration --------------------------------------------------

TEST(AlterClassTest, AddedMembersGetDefaults) {
  auto db = FreshDb();
  Oid p = *db->CreateObject("person", P("ann", 30));
  ClassDef updated = *ParseClassDef(R"(
class person {
public:
  string name;
  int age;
  string email;
  set<person*> contacts;
};
)");
  ASSERT_TRUE(db->AlterClass(updated).ok());
  ObjectBuffer buffer = *db->GetObject(p);
  EXPECT_EQ(buffer.value.FindField("name")->AsString(), "ann");
  EXPECT_EQ(buffer.value.FindField("age")->AsInt(), 30);
  ASSERT_NE(buffer.value.FindField("email"), nullptr);
  EXPECT_EQ(buffer.value.FindField("email")->AsString(), "");
  EXPECT_EQ(buffer.value.FindField("contacts")->kind(), ValueKind::kSet);
  // The migrated object still type-checks, so updates keep working.
  *buffer.value.FindMutableField("email") = Value::String("ann@lab");
  EXPECT_TRUE(db->UpdateObject(p, buffer.value).ok());
}

TEST(AlterClassTest, RemovedMembersAreDropped) {
  auto db = FreshDb();
  Oid p = *db->CreateObject("person", P("ann", 30));
  ClassDef updated =
      *ParseClassDef("class person { public: string name; };");
  ASSERT_TRUE(db->AlterClass(updated).ok());
  ObjectBuffer buffer = *db->GetObject(p);
  EXPECT_EQ(buffer.value.size(), 1u);
  EXPECT_EQ(buffer.value.FindField("age"), nullptr);
}

TEST(AlterClassTest, RetypedMembersReset) {
  auto db = FreshDb();
  Oid p = *db->CreateObject("person", P("ann", 30));
  ClassDef updated = *ParseClassDef(
      "class person { public: string name; string age; };");
  ASSERT_TRUE(db->AlterClass(updated).ok());
  ObjectBuffer buffer = *db->GetObject(p);
  EXPECT_EQ(buffer.value.FindField("age")->kind(), ValueKind::kString);
  EXPECT_EQ(buffer.value.FindField("age")->AsString(), "");
}

TEST(AlterClassTest, DescendantObjectsMigrateToo) {
  auto db = FreshDb();
  Value s = P("bob", 20);
  s.mutable_fields().push_back({"school", Value::String("mit")});
  Oid st = *db->CreateObject("student", s);
  ClassDef updated = *ParseClassDef(R"(
class person {
public:
  string name;
  int age;
  bool active;
};
)");
  ASSERT_TRUE(db->AlterClass(updated).ok());
  ObjectBuffer buffer = *db->GetObject(st);
  // The student kept its own member and gained the inherited one.
  EXPECT_EQ(buffer.value.FindField("school")->AsString(), "mit");
  ASSERT_NE(buffer.value.FindField("active"), nullptr);
  EXPECT_FALSE(buffer.value.FindField("active")->AsBool());
}

TEST(AlterClassTest, MigrationBumpsVersions) {
  auto db = FreshDb();
  Oid p = *db->CreateObject("person", P("ann", 30));
  EXPECT_EQ(db->GetObject(p)->version, 1u);
  ClassDef updated = *ParseClassDef(
      "class person { public: string name; int age; int badge; };");
  ASSERT_TRUE(db->AlterClass(updated).ok());
  EXPECT_EQ(db->GetObject(p)->version, 2u);
}

TEST(AlterClassTest, BaseChangeRejected) {
  auto db = FreshDb();
  ClassDef updated =
      *ParseClassDef("class student { public: string school; };");
  EXPECT_TRUE(db->AlterClass(updated).IsInvalidArgument());  // lost base
}

TEST(AlterClassTest, InvalidNewDefinitionRolledBack) {
  auto db = FreshDb();
  Oid p = *db->CreateObject("person", P("ann", 30));
  ClassDef updated = *ParseClassDef(
      "class person { public: string name; ghost* g; };");
  EXPECT_TRUE(db->AlterClass(updated).IsInvalidArgument());
  // The old definition and the object are untouched.
  EXPECT_EQ((*db->GetClass("person"))->members.size(), 2u);
  EXPECT_EQ(db->GetObject(p)->value.FindField("age")->AsInt(), 30);
}

TEST(AlterClassTest, EvolutionSurvivesReopenFromDisk) {
  std::string path = testing::TempDir() + "/odeview_evolution.db";
  std::remove(path.c_str());
  Oid p;
  {
    auto db = std::move(*Database::CreateOnDisk(path, "evo"));
    ASSERT_TRUE(
        db->DefineSchema("class person { public: string name; };").ok());
    p = *db->CreateObject(
        "person", Value::Struct({{"name", Value::String("ann")}}));
    ClassDef updated = *ParseClassDef(
        "class person { public: string name; int age; };");
    ASSERT_TRUE(db->AlterClass(updated).ok());
    ASSERT_TRUE(db->Sync().ok());
  }
  auto reopened = Database::OpenOnDisk(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((**reopened).GetClass("person").value()->members.size(), 2u);
  ObjectBuffer buffer = *(*reopened)->GetObject(p);
  EXPECT_EQ(buffer.value.FindField("name")->AsString(), "ann");
  ASSERT_NE(buffer.value.FindField("age"), nullptr);
  EXPECT_EQ(buffer.value.FindField("age")->AsInt(), 0);
  std::remove(path.c_str());
}

TEST(AlterClassTest, LayoutAfterAlterShowsNewMembers) {
  auto db = FreshDb();
  auto member_names = [&](const std::string& cls) {
    std::vector<std::string> names;
    for (const MemberDef& m : (*db->schema().Layout(cls))->members) {
      names.push_back(m.name);
    }
    return names;
  };
  ClassDef updated = *ParseClassDef(R"(
class person {
public:
  string name;
  int age;
  string email;
  displaylist name, email;
};
)");
  ASSERT_TRUE(db->AlterClass(updated).ok());
  EXPECT_EQ(member_names("person"),
            (std::vector<std::string>{"name", "age", "email"}));
  EXPECT_EQ(member_names("student"),
            (std::vector<std::string>{"name", "age", "email", "school"}));
  EXPECT_EQ((*db->schema().Layout("student"))->displaylist,
            (std::vector<std::string>{"name", "email"}));
  // A rejected alteration leaves the layouts as they were.
  ClassDef invalid = *ParseClassDef(
      "class person { public: string name; ghost* g; };");
  EXPECT_TRUE(db->AlterClass(invalid).IsInvalidArgument());
  EXPECT_EQ(member_names("student"),
            (std::vector<std::string>{"name", "age", "email", "school"}));
}

TEST(AlterClassTest, UnknownClassRejected) {
  auto db = FreshDb();
  ClassDef updated = *ParseClassDef("class ghost { public: int x; };");
  EXPECT_TRUE(db->AlterClass(updated).IsNotFound());
}

}  // namespace
}  // namespace ode::odb

namespace ode::view {
namespace {

TEST(EvolutionInOdeView, AlterThenOnClassChangedRefreshesBrowsers) {
  auto db = std::move(*odb::Database::CreateInMemory("lab"));
  odb::LabDbConfig config;
  config.employees = 5;
  config.managers = 1;
  ASSERT_TRUE(odb::BuildLabDatabase(db.get(), config).ok());
  OdeViewApp app(200, 80);
  ASSERT_TRUE(dynlink::RegisterLabDisplayModules(app.repository(), "lab",
                                                 db->schema())
                  .ok());
  ASSERT_TRUE(app.AddDatabaseBorrowed(db.get()).ok());
  DbInteractor* lab = *app.OpenDatabase("lab");
  BrowseNode* node = *lab->OpenObjectSet("project");
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->ToggleFormat("text").ok());
  // The DBA adds a member to project while OdeView is running.
  odb::ClassDef updated = *odb::ParseClassDef(R"(
persistent class project {
public:
  string title;
  real budget;
  employee* lead;
  set<employee*> members;
  string status;
  display text;
  selectlist title, budget;
  constraint budget >= 0;
};
)");
  ASSERT_TRUE(db->AlterClass(updated).ok());
  ASSERT_TRUE(lab->OnClassChanged("project").ok());
  // Browsing continues; the new member shows with its default value.
  ASSERT_TRUE(node->Next().ok() || node->Prev().ok() ||
              node->Reset().ok());
  ASSERT_TRUE(node->Next().ok());
  ASSERT_TRUE(node->has_current());
  EXPECT_NE(node->Current()->value.FindField("status"), nullptr);
}

TEST(EvolutionInOdeView, RefreshedNodeSeesAlteredMembers) {
  auto db = std::move(*odb::Database::CreateInMemory("lab"));
  odb::LabDbConfig config;
  config.employees = 5;
  config.managers = 1;
  ASSERT_TRUE(odb::BuildLabDatabase(db.get(), config).ok());
  OdeViewApp app(200, 80);
  ASSERT_TRUE(app.AddDatabaseBorrowed(db.get()).ok());
  DbInteractor* lab = *app.OpenDatabase("lab");
  BrowseNode* node = *lab->OpenObjectSet("project");
  ASSERT_TRUE(node->Next().ok());
  EXPECT_EQ(*node->ReferenceMembers(), (std::vector<std::string>{"lead"}));
  odb::ClassDef updated = *odb::ParseClassDef(R"(
persistent class project {
public:
  string title;
  real budget;
  employee* lead;
  employee* reviewer;
  set<employee*> members;
  display text;
  selectlist title, budget, reviewer;
  constraint budget >= 0;
};
)");
  ASSERT_TRUE(db->AlterClass(updated).ok());
  ASSERT_TRUE(lab->OnClassChanged("project").ok());
  // The node holds no layout, so it answers from the altered class.
  EXPECT_EQ(*node->ReferenceMembers(),
            (std::vector<std::string>{"lead", "reviewer"}));
  EXPECT_EQ(*node->SelectList(),
            (std::vector<std::string>{"title", "budget", "reviewer"}));
  EXPECT_TRUE(node->FollowReference("reviewer").ok());
}

}  // namespace
}  // namespace ode::view
