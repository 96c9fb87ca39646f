// Tests for schema evolution (AlterClass with object migration) and
// deep extents — the facilities behind §4.5's claim that schema
// changes (addition, deletion, and modification of class definitions)
// never require recompiling OdeView.

#include <gtest/gtest.h>

#include "dynlink/lab_modules.h"
#include "odb/database.h"
#include "odb/ddl_parser.h"
#include "odb/labdb.h"
#include "odb/typecheck.h"
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

TEST(AlterClassTest, AddedArrayGetsTypedElementDefaults) {
  auto db = FreshDb();
  Oid p = *db->CreateObject("person", P("ann", 30));
  ClassDef updated = *ParseClassDef(
      "class person { public: string name; int age; int xs[3]; };");
  ASSERT_TRUE(db->AlterClass(updated).ok());
  ObjectBuffer migrated = *db->GetObject(p);
  const Value* xs = migrated.value.FindField("xs");
  ASSERT_NE(xs, nullptr);
  // The same default a fresh instance gets: three typed zeros.
  Value fresh = *DefaultInstance(db->schema(), "person");
  EXPECT_EQ(xs->ToString(), fresh.FindField("xs")->ToString());
  ASSERT_EQ(xs->kind(), ValueKind::kArray);
  ASSERT_EQ(xs->elements().size(), 3u);
  for (const Value& x : xs->elements()) {
    ASSERT_EQ(x.kind(), ValueKind::kInt);
    EXPECT_EQ(x.AsInt(), 0);
  }
}

// --- Classes that contain themselves by value -----------------------------

// Each shape parses, but a class in it holds itself inline, so it has
// no finite instance: DefaultInstance would recurse until the stack
// overflowed.
struct ByValueCycle {
  const char* shape;
  const char* ddl;
};
const ByValueCycle kByValueCycles[] = {
    {"self", "class a { public: a inner; };"},
    {"mutual", "class a { public: b x; };\nclass b { public: a y; };"},
    {"array", "class a { public: a arr[2]; };"},
    {"subclass",
     "class a { public: b inner; };\nclass b : public a { public: int n; };"},
};

TEST(ByValueCycleTest, DefineSchemaRejectsEveryShape) {
  for (const ByValueCycle& cycle : kByValueCycles) {
    auto db = FreshDb();
    Status status = db->DefineSchema(cycle.ddl);
    EXPECT_TRUE(status.IsInvalidArgument())
        << cycle.shape << ": " << status.ToString();
    EXPECT_EQ(db->schema().size(), 2u) << cycle.shape;
    EXPECT_FALSE(db->schema().Contains("a")) << cycle.shape;
    EXPECT_TRUE(db->CreateObject("person", P("ann", 30)).ok());
  }
}

TEST(ByValueCycleTest, AddClassRejectsSelfAndArrayShapes) {
  for (const char* def : {"class a { public: a inner; };",
                          "class a { public: int n; a arr[2]; };"}) {
    auto db = FreshDb();
    EXPECT_TRUE(db->AddClass(*ParseClassDef(def)).IsInvalidArgument()) << def;
    EXPECT_EQ(db->schema().size(), 2u) << def;
    EXPECT_FALSE(db->ScanCluster("a").ok()) << def;
  }
}

// The shapes that crashed: a schema that validates, then an AlterClass
// that closes the cycle. Rejected, the catalog and the stored objects
// stay as they were.
TEST(ByValueCycleTest, AlterClassRejectsEveryShape) {
  struct Step {
    const char* shape;
    const char* ddl;    // validates on its own
    const char* alter;  // closes the cycle
  };
  const Step steps[] = {
      {"self", "class a { public: int n; };",
       "class a { public: int n; a inner; };"},
      {"mutual",
       "class a { public: int n; b x; };\nclass b { public: int m; };",
       "class b { public: int m; a y; };"},
      {"array", "class a { public: int n; };",
       "class a { public: int n; a arr[2]; };"},
      {"subclass",
       "class a { public: int n; };\nclass b : public a { public: int m; };",
       "class a { public: int n; b inner; };"},
  };
  for (const Step& step : steps) {
    auto db = FreshDb();
    ASSERT_TRUE(db->DefineSchema(step.ddl).ok()) << step.shape;
    ClassDef altered = *ParseClassDef(step.alter);
    const std::string name = altered.name;
    Value before = *DefaultInstance(db->schema(), name);
    Oid oid = *db->CreateObject(name, before);
    Status status = db->AlterClass(altered);
    EXPECT_TRUE(status.IsInvalidArgument())
        << step.shape << ": " << status.ToString();
    EXPECT_TRUE(db->schema().Validate().ok()) << step.shape;
    EXPECT_EQ(DefaultInstance(db->schema(), name)->ToString(),
              before.ToString())
        << step.shape;
    ObjectBuffer stored = *db->GetObject(oid);
    EXPECT_EQ(stored.version, 1u) << step.shape;
    EXPECT_EQ(stored.value.ToString(), before.ToString()) << step.shape;
  }
}

// A reference, a set or an unsized array holds no instance inline, so
// each breaks the chain.
TEST(ByValueCycleTest, IndirectSelfContainmentIsAccepted) {
  auto db = FreshDb();
  ASSERT_TRUE(db->DefineSchema(R"(
class node {
public:
  int n;
  node* next;
  set<node> kids;
  node many[];
};
)")
                  .ok());
  Result<Value> instance = DefaultInstance(db->schema(), "node");
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_TRUE(db->CreateObject("node", *instance).ok());
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
