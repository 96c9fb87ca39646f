#include <cstdio>
#include <functional>
#include <map>
#include <gtest/gtest.h>

#include "odb/database.h"
#include "odb/labdb.h"
#include "odb/predicate.h"
#include "odb/typecheck.h"

namespace ode::odb {
namespace {

constexpr char kTinySchema[] = R"(
persistent class dept {
public:
  string name;
};
persistent class person {
public:
  string name;
  int age;
  dept* dept_ref;
  set<person*> friends;
  constraint age >= 0;
  trigger retire: on_update when age >= 65 do pension;
};
persistent versioned class note {
public:
  string text;
};
transient class scratch {
public:
  int x;
};
)";

std::unique_ptr<Database> TinyDb() {
  auto db = std::move(*Database::CreateInMemory("tiny"));
  EXPECT_TRUE(db->DefineSchema(kTinySchema).ok());
  return db;
}

Value Person(std::string name, int64_t age, Oid dept = Oid::Null()) {
  return Value::Struct({
      {"name", Value::String(std::move(name))},
      {"age", Value::Int(age)},
      {"dept_ref", Value::Ref(dept, "dept")},
      {"friends", Value::Set({})},
  });
}

// --- Schema operations -----------------------------------------------------

TEST(DatabaseTest, DefineSchemaCreatesClusters) {
  auto db = TinyDb();
  EXPECT_EQ(db->schema().size(), 4u);
  EXPECT_TRUE(db->ClusterOf("person").ok());
  EXPECT_TRUE(db->ClusterOf("dept").ok());
  // Transient classes get no cluster.
  EXPECT_TRUE(db->ClusterOf("scratch").status().IsNotFound());
  EXPECT_EQ(*db->ClusterCount("person"), 0u);
}

TEST(DatabaseTest, DefineSchemaRejectsInvalid) {
  auto db = std::move(*Database::CreateInMemory("bad"));
  EXPECT_FALSE(db->DefineSchema("class a : public ghost {};").ok());
}

// --- Rejected definitions leave the catalog untouched ---------------------

constexpr char kCyclicDdl[] =
    "class a : public b { public: int x; }; class b : public a {};";
// Defines a new class, then redefines an existing one.
constexpr char kRedefiningDdl[] =
    "class fresh { public: int y; }; class dept { public: string name; };";
constexpr char kFollowUpDdl[] = "class later { public: int z; };";

ClassDef OrphanClass() {  // derives from a class that does not exist
  ClassDef def;
  def.name = "orphan";
  def.bases = {"ghost"};
  return def;
}

std::map<std::string, ClusterId> ClusterIds(const Database& db) {
  std::map<std::string, ClusterId> out;
  for (const ClassDef& def : db.schema().classes()) {
    Result<ClusterId> id = db.ClusterOf(def.name);
    if (id.ok()) out[def.name] = *id;
  }
  return out;
}

/// `reject` must fail with `code` and leave the schema and clusters as
/// they were: a following valid definition gets exactly the clusters it
/// gets on a database that never saw the rejected one.
void ExpectRejectedLeavesCatalog(
    const std::function<Status(Database*)>& reject, StatusCode code) {
  auto clean = TinyDb();
  ASSERT_TRUE(clean->DefineSchema(kFollowUpDdl).ok());
  auto db = TinyDb();
  std::map<std::string, ClusterId> before = ClusterIds(*db);
  Status rejected = reject(db.get());
  EXPECT_EQ(rejected.code(), code) << rejected.ToString();
  EXPECT_EQ(db->schema().size(), 4u);
  EXPECT_EQ(ClusterIds(*db), before);
  ASSERT_TRUE(db->DefineSchema(kFollowUpDdl).ok());
  EXPECT_EQ(db->schema().size(), 5u);
  EXPECT_EQ(ClusterIds(*db), ClusterIds(*clean));
}

TEST(DatabaseTest, RejectedCyclicDdlLeavesCatalog) {
  ExpectRejectedLeavesCatalog(
      [](Database* db) { return db->DefineSchema(kCyclicDdl); },
      StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, RejectedRedefinitionLeavesCatalog) {
  ExpectRejectedLeavesCatalog(
      [](Database* db) { return db->DefineSchema(kRedefiningDdl); },
      StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, RejectedUnknownBaseLeavesCatalog) {
  ExpectRejectedLeavesCatalog(
      [](Database* db) { return db->AddClass(OrphanClass()); },
      StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, RejectedDefinitionsLeaveNothingOnDisk) {
  std::string path = testing::TempDir() + "/odeview_dbtest_rejected.db";
  std::remove(path.c_str());
  std::map<std::string, ClusterId> before;
  {
    auto db = std::move(*Database::CreateOnDisk(path, "disk"));
    ASSERT_TRUE(db->DefineSchema(kTinySchema).ok());
    before = ClusterIds(*db);
    EXPECT_FALSE(db->DefineSchema(kCyclicDdl).ok());
    EXPECT_FALSE(db->DefineSchema(kRedefiningDdl).ok());
    EXPECT_FALSE(db->AddClass(OrphanClass()).ok());
    ASSERT_TRUE(db->Sync().ok());
  }
  {
    auto reopened = Database::OpenOnDisk(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto& db = *reopened;
    EXPECT_EQ(db->schema().size(), 4u);
    for (const char* name : {"a", "b", "fresh", "orphan"}) {
      EXPECT_FALSE(db->schema().Contains(name)) << name;
    }
    EXPECT_EQ(ClusterIds(*db), before);
    ASSERT_TRUE(db->DefineSchema(kFollowUpDdl).ok());
    EXPECT_TRUE(db->ClusterOf("later").ok());
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(DatabaseTest, DropClassRequiresEmptyCluster) {
  auto db = TinyDb();
  Oid oid = *db->CreateObject("dept",
                              Value::Struct({{"name", Value::String("x")}}));
  EXPECT_EQ(db->DropClass("dept").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db->DeleteObject(oid).ok());
  // Still referenced by person.dept_ref.
  EXPECT_EQ(db->DropClass("dept").code(), StatusCode::kFailedPrecondition);
}

// --- Object lifecycle ---------------------------------------------------------

TEST(DatabaseTest, CreateGetRoundTrip) {
  auto db = TinyDb();
  Oid oid = *db->CreateObject("person", Person("amy", 30));
  ObjectBuffer buffer = *db->GetObject(oid);
  EXPECT_EQ(buffer.class_name, "person");
  EXPECT_EQ(buffer.version, 1u);
  EXPECT_EQ(buffer.value.FindField("name")->AsString(), "amy");
  EXPECT_EQ(buffer.oid, oid);
}

TEST(DatabaseTest, CreateRejectsUnknownClass) {
  auto db = TinyDb();
  EXPECT_TRUE(db->CreateObject("ghost", Value::Struct({}))
                  .status()
                  .IsNotFound());
}

TEST(DatabaseTest, CreateRejectsTransientClass) {
  auto db = TinyDb();
  EXPECT_TRUE(db->CreateObject("scratch",
                               Value::Struct({{"x", Value::Int(1)}}))
                  .status()
                  .IsInvalidArgument());
}

TEST(DatabaseTest, TypeCheckRejectsBadValues) {
  auto db = TinyDb();
  // Missing member.
  EXPECT_FALSE(db->CreateObject("person",
                                Value::Struct({{"name", Value::String("x")}}))
                   .ok());
  // Wrong type.
  Value bad = Person("x", 1);
  *bad.FindMutableField("age") = Value::String("forty");
  EXPECT_FALSE(db->CreateObject("person", bad).ok());
  // Undeclared member.
  Value extra = Person("x", 1);
  extra.mutable_fields().push_back({"ghost", Value::Int(1)});
  EXPECT_FALSE(db->CreateObject("person", extra).ok());
}

TEST(DatabaseTest, RefTypeCompatibilityChecked) {
  auto db = TinyDb();
  Oid dept = *db->CreateObject(
      "dept", Value::Struct({{"name", Value::String("research")}}));
  EXPECT_TRUE(db->CreateObject("person", Person("ok", 1, dept)).ok());
  // A ref claiming the wrong class is rejected.
  Value bad = Person("bad", 1);
  *bad.FindMutableField("dept_ref") = Value::Ref(dept, "person");
  EXPECT_FALSE(db->CreateObject("person", bad).ok());
}

TEST(DatabaseTest, UpdateBumpsVersion) {
  auto db = TinyDb();
  Oid oid = *db->CreateObject("person", Person("amy", 30));
  ASSERT_TRUE(db->UpdateObject(oid, Person("amy", 31)).ok());
  ObjectBuffer buffer = *db->GetObject(oid);
  EXPECT_EQ(buffer.version, 2u);
  EXPECT_EQ(buffer.value.FindField("age")->AsInt(), 31);
}

TEST(DatabaseTest, DeleteRemovesObject) {
  auto db = TinyDb();
  Oid oid = *db->CreateObject("person", Person("amy", 30));
  ASSERT_TRUE(db->DeleteObject(oid).ok());
  EXPECT_TRUE(db->GetObject(oid).status().IsNotFound());
  EXPECT_TRUE(db->DeleteObject(oid).IsNotFound());
  EXPECT_EQ(*db->ClusterCount("person"), 0u);
}

TEST(DatabaseTest, OidsNeverReused) {
  auto db = TinyDb();
  Oid first = *db->CreateObject("person", Person("a", 1));
  ASSERT_TRUE(db->DeleteObject(first).ok());
  Oid second = *db->CreateObject("person", Person("b", 2));
  EXPECT_NE(first, second);
  EXPECT_GT(second.local, first.local);
}

// --- Constraints ---------------------------------------------------------------

TEST(DatabaseTest, ConstraintRejectsBadCreate) {
  auto db = TinyDb();
  Result<Oid> result = db->CreateObject("person", Person("baby", -1));
  EXPECT_TRUE(result.status().IsConstraintViolation());
  EXPECT_EQ(*db->ClusterCount("person"), 0u);
}

TEST(DatabaseTest, ConstraintRejectsBadUpdate) {
  auto db = TinyDb();
  Oid oid = *db->CreateObject("person", Person("amy", 30));
  EXPECT_TRUE(db->UpdateObject(oid, Person("amy", -5))
                  .IsConstraintViolation());
  // Object unchanged.
  EXPECT_EQ(db->GetObject(oid)->value.FindField("age")->AsInt(), 30);
}

TEST(DatabaseTest, InheritedConstraintsApply) {
  auto db = std::move(*Database::CreateInMemory("t"));
  ASSERT_TRUE(db->DefineSchema(R"(
class base { public: int n; constraint n >= 10; };
class derived : public base { public: int m; };
)")
                  .ok());
  Value bad = Value::Struct({{"n", Value::Int(5)}, {"m", Value::Int(1)}});
  EXPECT_TRUE(db->CreateObject("derived", bad)
                  .status()
                  .IsConstraintViolation());
  Value good = Value::Struct({{"n", Value::Int(11)}, {"m", Value::Int(1)}});
  EXPECT_TRUE(db->CreateObject("derived", good).ok());
}

// --- Triggers ---------------------------------------------------------------------

TEST(DatabaseTest, TriggerFiresOnCondition) {
  auto db = TinyDb();
  Oid oid = *db->CreateObject("person", Person("old", 64));
  EXPECT_TRUE(db->trigger_log().empty());
  ASSERT_TRUE(db->UpdateObject(oid, Person("old", 65)).ok());
  ASSERT_EQ(db->trigger_log().size(), 1u);
  const TriggerFiring& firing = db->trigger_log()[0];
  EXPECT_EQ(firing.trigger_name, "retire");
  EXPECT_EQ(firing.action, "pension");
  EXPECT_EQ(firing.event, TriggerEvent::kUpdate);
  EXPECT_EQ(firing.oid, oid);
  db->ClearTriggerLog();
  EXPECT_TRUE(db->trigger_log().empty());
}

TEST(DatabaseTest, TriggerConditionFalseDoesNotFire) {
  auto db = TinyDb();
  Oid oid = *db->CreateObject("person", Person("young", 20));
  ASSERT_TRUE(db->UpdateObject(oid, Person("young", 21)).ok());
  EXPECT_TRUE(db->trigger_log().empty());
}

TEST(DatabaseTest, CreateAndDeleteTriggers) {
  auto db = std::move(*Database::CreateInMemory("t"));
  ASSERT_TRUE(db->DefineSchema(R"(
class audited {
public:
  int n;
  trigger born: on_create do log_create;
  trigger gone: on_delete do log_delete;
};
)")
                  .ok());
  Oid oid = *db->CreateObject("audited",
                              Value::Struct({{"n", Value::Int(1)}}));
  ASSERT_EQ(db->trigger_log().size(), 1u);
  EXPECT_EQ(db->trigger_log()[0].action, "log_create");
  ASSERT_TRUE(db->DeleteObject(oid).ok());
  ASSERT_EQ(db->trigger_log().size(), 2u);
  EXPECT_EQ(db->trigger_log()[1].action, "log_delete");
}

// --- Versions -----------------------------------------------------------------------

TEST(DatabaseTest, VersionedClassRetainsHistory) {
  auto db = TinyDb();
  Oid oid = *db->CreateObject(
      "note", Value::Struct({{"text", Value::String("v1")}}));
  ASSERT_TRUE(db->UpdateObject(
                    oid, Value::Struct({{"text", Value::String("v2")}}))
                  .ok());
  ASSERT_TRUE(db->UpdateObject(
                    oid, Value::Struct({{"text", Value::String("v3")}}))
                  .ok());
  EXPECT_EQ(*db->ListVersions(oid), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(db->GetObjectVersion(oid, 1)
                ->value.FindField("text")
                ->AsString(),
            "v1");
  EXPECT_EQ(db->GetObjectVersion(oid, 3)
                ->value.FindField("text")
                ->AsString(),
            "v3");
  EXPECT_TRUE(db->GetObjectVersion(oid, 9).status().IsNotFound());
}

TEST(DatabaseTest, UnversionedClassKeepsOnlyCurrent) {
  auto db = TinyDb();
  Oid oid = *db->CreateObject("person", Person("amy", 30));
  ASSERT_TRUE(db->UpdateObject(oid, Person("amy", 31)).ok());
  EXPECT_EQ(*db->ListVersions(oid), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(db->GetObjectVersion(oid, 1).status().IsNotFound());
}

TEST(DatabaseTest, VersionHistoryLimitEnforced) {
  DatabaseOptions options;
  options.version_history_limit = 3;
  auto db = std::move(*Database::CreateInMemory("t", options));
  ASSERT_TRUE(db->DefineSchema("versioned class v { public: int n; };")
                  .ok());
  Oid oid = *db->CreateObject("v", Value::Struct({{"n", Value::Int(0)}}));
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(
        db->UpdateObject(oid, Value::Struct({{"n", Value::Int(i)}})).ok());
  }
  std::vector<uint32_t> versions = *db->ListVersions(oid);
  EXPECT_EQ(versions.size(), 4u);  // 3 retained + current
  EXPECT_EQ(versions.back(), 11u);
  EXPECT_EQ(versions.front(), 8u);  // oldest dropped
}

// --- Sequencing and selection ----------------------------------------------------------

TEST(DatabaseTest, SequencingWalksCreationOrder) {
  auto db = TinyDb();
  std::vector<Oid> oids;
  for (int i = 0; i < 5; ++i) {
    oids.push_back(
        *db->CreateObject("person", Person("p" + std::to_string(i), 20 + i)));
  }
  ObjectCursor cursor(db.get(), "person");
  // From reset, `next` shows the first object and `previous` the last.
  EXPECT_EQ(cursor.Next()->oid, oids.front());
  EXPECT_EQ(cursor.Next()->oid, oids[1]);
  EXPECT_EQ(cursor.Next()->oid, oids[2]);
  EXPECT_EQ(cursor.Prev()->oid, oids[1]);
  EXPECT_EQ(cursor.Prev()->oid, oids[0]);
  cursor.Reset();
  EXPECT_EQ(cursor.Prev()->oid, oids.back());
  // Past the last object: OutOfRange, and the cursor stays there.
  EXPECT_TRUE(cursor.Next().status().IsOutOfRange());
  EXPECT_EQ(*cursor.Current(), oids.back());
  EXPECT_EQ(db->ScanCluster("person")->size(), 5u);
}

TEST(DatabaseTest, CursorSequencesAndResets) {
  auto db = TinyDb();
  for (int i = 0; i < 3; ++i) {
    (void)*db->CreateObject("person", Person("p" + std::to_string(i), i + 20));
  }
  ObjectCursor cursor(db.get(), "person");
  EXPECT_FALSE(cursor.has_current());
  EXPECT_EQ(cursor.Next()->value.FindField("name")->AsString(), "p0");
  EXPECT_EQ(cursor.Next()->value.FindField("name")->AsString(), "p1");
  EXPECT_EQ(cursor.Prev()->value.FindField("name")->AsString(), "p0");
  EXPECT_TRUE(cursor.Prev().status().IsOutOfRange());
  cursor.Reset();
  EXPECT_EQ(cursor.Next()->value.FindField("name")->AsString(), "p0");
}

TEST(DatabaseTest, FilteredCursorSkipsNonMatching) {
  auto db = TinyDb();
  for (int i = 0; i < 10; ++i) {
    (void)*db->CreateObject("person", Person("p" + std::to_string(i), i));
  }
  Predicate even = *ParsePredicate("age >= 6");
  ObjectCursor cursor(db.get(), "person", even);
  EXPECT_EQ(cursor.Next()->value.FindField("age")->AsInt(), 6);
  EXPECT_EQ(cursor.Next()->value.FindField("age")->AsInt(), 7);
  EXPECT_EQ(cursor.Prev()->value.FindField("age")->AsInt(), 6);
  EXPECT_TRUE(cursor.Prev().status().IsOutOfRange());
}

TEST(DatabaseTest, SelectFiltersCluster) {
  auto db = TinyDb();
  for (int i = 0; i < 10; ++i) {
    (void)*db->CreateObject("person", Person("p" + std::to_string(i), i));
  }
  Predicate p = *ParsePredicate("age >= 5 && age < 8");
  std::vector<Oid> selected = *db->Select("person", p);
  EXPECT_EQ(selected.size(), 3u);
  for (Oid oid : selected) {
    int64_t age = db->GetObject(oid)->value.FindField("age")->AsInt();
    EXPECT_GE(age, 5);
    EXPECT_LT(age, 8);
  }
}

// --- Persistence -----------------------------------------------------------------------

TEST(DatabaseTest, DiskDatabaseSurvivesReopen) {
  std::string path = testing::TempDir() + "/odeview_dbtest_reopen.db";
  std::remove(path.c_str());
  Oid amy;
  {
    auto db = std::move(*Database::CreateOnDisk(path, "disk"));
    ASSERT_TRUE(db->DefineSchema(kTinySchema).ok());
    amy = *db->CreateObject("person", Person("amy", 30));
    (void)*db->CreateObject("person", Person("bob", 40));
    ASSERT_TRUE(db->Sync().ok());
  }
  {
    auto reopened = Database::OpenOnDisk(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto& db = *reopened;
    EXPECT_EQ(db->name(), "disk");
    EXPECT_EQ(db->schema().size(), 4u);
    EXPECT_EQ(*db->ClusterCount("person"), 2u);
    ObjectBuffer buffer = *db->GetObject(amy);
    EXPECT_EQ(buffer.value.FindField("name")->AsString(), "amy");
    // Ids continue monotonically after reopen.
    Oid carol = *db->CreateObject("person", Person("carol", 50));
    EXPECT_GT(carol.local, amy.local);
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, LargeObjectsSpanPages) {
  // A person with thousands of friends encodes far beyond one 4 KiB
  // page; the heap spills it to an overflow chain transparently.
  auto db = TinyDb();
  std::vector<Oid> friends;
  for (int i = 0; i < 50; ++i) {
    friends.push_back(
        *db->CreateObject("person", Person("f" + std::to_string(i), 20)));
  }
  Value popular = Person("hub", 30);
  std::vector<Value>& set = popular.FindMutableField("friends")
                                ->mutable_elements();
  for (int round = 0; round < 40; ++round) {
    for (Oid f : friends) set.push_back(Value::Ref(f, "person"));
  }
  Oid hub = *db->CreateObject("person", popular);
  ObjectBuffer buffer = *db->GetObject(hub);
  EXPECT_EQ(buffer.value.FindField("friends")->elements().size(), 2000u);
  // Updates and deletes of the big object work too.
  buffer.value.FindMutableField("friends")->mutable_elements().clear();
  ASSERT_TRUE(db->UpdateObject(hub, buffer.value).ok());
  EXPECT_EQ(db->GetObject(hub)
                ->value.FindField("friends")
                ->elements()
                .size(),
            0u);
  ASSERT_TRUE(db->DeleteObject(hub).ok());
}

TEST(DatabaseTest, SmallBufferPoolStillCorrect) {
  DatabaseOptions options;
  options.buffer_pool_pages = 4;  // heavy eviction traffic
  auto db = std::move(*Database::CreateInMemory("small", options));
  ASSERT_TRUE(db->DefineSchema(kTinySchema).ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 200; ++i) {
    oids.push_back(
        *db->CreateObject("person", Person("p" + std::to_string(i), i % 90)));
  }
  EXPECT_EQ(*db->ClusterCount("person"), 200u);
  for (int i = 0; i < 200; i += 17) {
    EXPECT_EQ(db->GetObject(oids[static_cast<size_t>(i)])
                  ->value.FindField("name")
                  ->AsString(),
              "p" + std::to_string(i));
  }
  EXPECT_GT(db->buffer_pool()->stats().evictions, 0u);
}

// --- Typecheck helpers -------------------------------------------------------------------

TEST(TypeCheckTest, DefaultInstanceValidates) {
  auto db = TinyDb();
  Result<Value> instance = DefaultInstance(db->schema(), "person");
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(TypeCheckObject(db->schema(), "person", *instance).ok());
  EXPECT_EQ(instance->FindField("age")->AsInt(), 0);
  EXPECT_TRUE(instance->FindField("dept_ref")->AsRef().IsNull());
}

TEST(TypeCheckTest, NullAcceptedForAnyMember) {
  auto db = TinyDb();
  Value v = Person("x", 1);
  *v.FindMutableField("friends") = Value::Null();
  EXPECT_TRUE(TypeCheckObject(db->schema(), "person", v).ok());
}

TEST(TypeCheckTest, SubclassRefAccepted) {
  auto db = std::move(*Database::CreateInMemory("t"));
  ASSERT_TRUE(db->DefineSchema(R"(
class animal { public: string name; };
class dog : public animal { public: bool good; };
class kennel { public: animal* resident; };
)")
                  .ok());
  Oid dog = *db->CreateObject(
      "dog", Value::Struct({{"name", Value::String("rex")},
                            {"good", Value::Bool(true)}}));
  Value kennel = Value::Struct({{"resident", Value::Ref(dog, "dog")}});
  EXPECT_TRUE(db->CreateObject("kennel", kennel).ok());
  // The reverse direction is rejected.
  auto db2 = std::move(*Database::CreateInMemory("t2"));
  ASSERT_TRUE(db2->DefineSchema(R"(
class animal { public: string name; };
class dog : public animal { public: bool good; };
class doghouse { public: dog* resident; };
)")
                  .ok());
  Oid animal = *db2->CreateObject(
      "animal", Value::Struct({{"name", Value::String("generic")}}));
  Value house = Value::Struct({{"resident", Value::Ref(animal, "animal")}});
  EXPECT_FALSE(db2->CreateObject("doghouse", house).ok());
}

TEST(TypeCheckTest, ArraySizeEnforced) {
  auto db = std::move(*Database::CreateInMemory("t"));
  ASSERT_TRUE(db->DefineSchema("class c { public: int xs[3]; };").ok());
  EXPECT_TRUE(db->CreateObject(
                    "c", Value::Struct({{"xs",
                                         Value::Array({Value::Int(1),
                                                       Value::Int(2),
                                                       Value::Int(3)})}}))
                  .ok());
  EXPECT_FALSE(db->CreateObject(
                     "c", Value::Struct({{"xs", Value::Array({Value::Int(
                                                    1)})}}))
                   .ok());
}

// --- Lab database -----------------------------------------------------------------------------

TEST(LabDbTest, ReproducesPaperCardinalities) {
  auto db = std::move(*Database::CreateInMemory("lab"));
  ASSERT_TRUE(BuildLabDatabase(db.get()).ok());
  // Fig. 3: employee has no superclass, one subclass, 55 objects.
  EXPECT_TRUE(db->schema().DirectSuperclasses("employee")->empty());
  EXPECT_EQ(*db->schema().DirectSubclasses("employee"),
            (std::vector<std::string>{"manager"}));
  EXPECT_EQ(*db->ClusterCount("employee"), 55u);
  // Fig. 5: manager derives from employee AND department, 7 objects.
  EXPECT_EQ(*db->schema().DirectSuperclasses("manager"),
            (std::vector<std::string>{"employee", "department"}));
  EXPECT_TRUE(db->schema().DirectSubclasses("manager")->empty());
  EXPECT_EQ(*db->ClusterCount("manager"), 7u);
}

TEST(LabDbTest, FirstEmployeeIsRakeshInResearch) {
  auto db = std::move(*Database::CreateInMemory("lab"));
  ASSERT_TRUE(BuildLabDatabase(db.get()).ok());
  ObjectBuffer rakesh = *db->GetObject(db->ScanCluster("employee")->front());
  EXPECT_EQ(rakesh.value.FindField("name")->AsString(), "rakesh");
  Oid dept = rakesh.value.FindField("dept")->AsRef();
  EXPECT_EQ(db->GetObject(dept)->value.FindField("name")->AsString(),
            "research");
}

TEST(LabDbTest, ReferencesAreConsistent) {
  auto db = std::move(*Database::CreateInMemory("lab"));
  ASSERT_TRUE(BuildLabDatabase(db.get()).ok());
  // Every employee's dept contains that employee in its roster.
  std::vector<Oid> all_employees = *db->ScanCluster("employee");
  for (Oid oid : all_employees) {
    ObjectBuffer emp = *db->GetObject(oid);
    Oid dept_oid = emp.value.FindField("dept")->AsRef();
    ObjectBuffer dept = *db->GetObject(dept_oid);
    bool found = false;
    for (const Value& member :
         dept.value.FindField("employees")->elements()) {
      found = found || member.AsRef() == oid;
    }
    EXPECT_TRUE(found) << "employee " << oid.ToString()
                       << " missing from its department roster";
  }
}

TEST(LabDbTest, DeterministicAcrossRuns) {
  auto db1 = std::move(*Database::CreateInMemory("lab"));
  auto db2 = std::move(*Database::CreateInMemory("lab"));
  ASSERT_TRUE(BuildLabDatabase(db1.get()).ok());
  ASSERT_TRUE(BuildLabDatabase(db2.get()).ok());
  std::vector<Oid> employees1 = *db1->ScanCluster("employee");
  for (Oid oid : employees1) {
    EXPECT_EQ(db1->GetObject(oid)->value, db2->GetObject(oid)->value);
  }
}

TEST(LabDbTest, ScalesToConfiguredSizes) {
  LabDbConfig config;
  config.employees = 200;
  config.managers = 10;
  config.departments = 6;
  auto db = std::move(*Database::CreateInMemory("lab"));
  ASSERT_TRUE(BuildLabDatabase(db.get(), config).ok());
  EXPECT_EQ(*db->ClusterCount("employee"), 200u);
  EXPECT_EQ(*db->ClusterCount("manager"), 10u);
  EXPECT_EQ(*db->ClusterCount("department"), 6u);
}

}  // namespace
}  // namespace ode::odb
