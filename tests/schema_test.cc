#include <gtest/gtest.h>

#include <deque>
#include <unordered_set>

#include "odb/ddl_parser.h"
#include "odb/labdb.h"
#include "odb/schema.h"

namespace ode::odb {
namespace {

ClassDef SimpleClass(std::string name, std::vector<std::string> bases = {}) {
  ClassDef def;
  def.name = std::move(name);
  def.bases = std::move(bases);
  return def;
}

Schema DiamondSchema() {
  // person <- employee, person <- consultant, both <- hybrid.
  Schema schema;
  ClassDef person = SimpleClass("person");
  person.members.push_back({"name", TypeRef::String(), Access::kPublic});
  EXPECT_TRUE(schema.AddClass(person).ok());
  ClassDef employee = SimpleClass("employee", {"person"});
  employee.members.push_back({"salary", TypeRef::Real(), Access::kPrivate});
  EXPECT_TRUE(schema.AddClass(employee).ok());
  ClassDef consultant = SimpleClass("consultant", {"person"});
  consultant.members.push_back({"rate", TypeRef::Real(), Access::kPublic});
  EXPECT_TRUE(schema.AddClass(consultant).ok());
  ClassDef hybrid = SimpleClass("hybrid", {"employee", "consultant"});
  hybrid.members.push_back({"split", TypeRef::Int(), Access::kPublic});
  EXPECT_TRUE(schema.AddClass(hybrid).ok());
  return schema;
}

// --- Registration ------------------------------------------------------

TEST(SchemaTest, AddAndGet) {
  Schema schema;
  ASSERT_TRUE(schema.AddClass(SimpleClass("a")).ok());
  EXPECT_TRUE(schema.Contains("a"));
  EXPECT_FALSE(schema.Contains("b"));
  EXPECT_TRUE(schema.GetClass("a").ok());
  EXPECT_TRUE(schema.GetClass("b").status().IsNotFound());
  EXPECT_EQ(schema.size(), 1u);
}

TEST(SchemaTest, DuplicateRejected) {
  Schema schema;
  ASSERT_TRUE(schema.AddClass(SimpleClass("a")).ok());
  EXPECT_EQ(schema.AddClass(SimpleClass("a")).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, EmptyNameRejected) {
  Schema schema;
  EXPECT_TRUE(schema.AddClass(SimpleClass("")).IsInvalidArgument());
}

TEST(SchemaTest, DropRefusedWhileDerived) {
  Schema schema = DiamondSchema();
  EXPECT_EQ(schema.DropClass("person").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(schema.DropClass("hybrid").ok());
  EXPECT_FALSE(schema.Contains("hybrid"));
}

TEST(SchemaTest, DropRefusedWhileReferenced) {
  Schema schema;
  ASSERT_TRUE(schema.AddClass(SimpleClass("dept")).ok());
  ClassDef emp = SimpleClass("emp");
  emp.members.push_back({"dept", TypeRef::Ref("dept"), Access::kPublic});
  ASSERT_TRUE(schema.AddClass(emp).ok());
  EXPECT_EQ(schema.DropClass("dept").code(),
            StatusCode::kFailedPrecondition);
  // References nested inside containers also count.
  Schema schema2;
  ASSERT_TRUE(schema2.AddClass(SimpleClass("dept")).ok());
  ClassDef team = SimpleClass("team");
  team.members.push_back(
      {"depts", TypeRef::Set(TypeRef::Ref("dept")), Access::kPublic});
  ASSERT_TRUE(schema2.AddClass(team).ok());
  EXPECT_EQ(schema2.DropClass("dept").code(),
            StatusCode::kFailedPrecondition);
}

TEST(SchemaTest, ReplaceClassKeepsPosition) {
  Schema schema = DiamondSchema();
  ClassDef updated = SimpleClass("employee", {"person"});
  updated.members.push_back({"badge", TypeRef::Int(), Access::kPublic});
  ASSERT_TRUE(schema.ReplaceClass(updated).ok());
  EXPECT_EQ((*schema.GetClass("employee"))->members[0].name, "badge");
  EXPECT_TRUE(schema.ReplaceClass(SimpleClass("ghost")).IsNotFound());
}

// --- Inheritance queries -------------------------------------------------

TEST(SchemaTest, DirectSuperAndSubclasses) {
  Schema schema = DiamondSchema();
  EXPECT_EQ(*schema.DirectSuperclasses("hybrid"),
            (std::vector<std::string>{"employee", "consultant"}));
  EXPECT_EQ(*schema.DirectSubclasses("person"),
            (std::vector<std::string>{"employee", "consultant"}));
  EXPECT_TRUE(schema.DirectSuperclasses("person")->empty());
  EXPECT_TRUE(schema.DirectSubclasses("hybrid")->empty());
  EXPECT_TRUE(schema.DirectSubclasses("nope").status().IsNotFound());
}

TEST(SchemaTest, TransitiveClosures) {
  Schema schema = DiamondSchema();
  std::vector<std::string> ancestors = (*schema.Layout("hybrid"))->ancestors;
  // person appears once despite the diamond.
  EXPECT_EQ(ancestors.size(), 3u);
  EXPECT_EQ(std::count(ancestors.begin(), ancestors.end(), "person"), 1);
  std::vector<std::string> descendants = *schema.Descendants("person");
  EXPECT_EQ(descendants.size(), 3u);
}

TEST(SchemaTest, AllMembersBaseFirstWithShadowing) {
  Schema schema = DiamondSchema();
  std::vector<MemberDef> members = (*schema.Layout("hybrid"))->members;
  // person.name, employee.salary, consultant.rate, hybrid.split — with
  // name deduplicated across the diamond.
  ASSERT_EQ(members.size(), 4u);
  EXPECT_EQ(members.back().name, "split");
  int name_count = 0;
  for (const MemberDef& m : members) name_count += m.name == "name";
  EXPECT_EQ(name_count, 1);
}

TEST(SchemaTest, DerivedMemberShadowsBase) {
  Schema schema;
  ClassDef base = SimpleClass("base");
  base.members.push_back({"tag", TypeRef::Int(), Access::kPublic});
  ASSERT_TRUE(schema.AddClass(base).ok());
  ClassDef derived = SimpleClass("derived", {"base"});
  derived.members.push_back({"tag", TypeRef::String(), Access::kPublic});
  ASSERT_TRUE(schema.AddClass(derived).ok());
  std::vector<MemberDef> members = (*schema.Layout("derived"))->members;
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0].type.kind, TypeRef::Kind::kString);
}

TEST(SchemaTest, EffectiveListsInherit) {
  Schema schema;
  ClassDef base = SimpleClass("base");
  base.displaylist = {"a", "b"};
  base.display_formats = {"text"};
  ASSERT_TRUE(schema.AddClass(base).ok());
  ClassDef mid = SimpleClass("mid", {"base"});
  ASSERT_TRUE(schema.AddClass(mid).ok());
  ClassDef leaf = SimpleClass("leaf", {"mid"});
  leaf.displaylist = {"c"};
  ASSERT_TRUE(schema.AddClass(leaf).ok());
  EXPECT_EQ((*schema.Layout("mid"))->displaylist,
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*schema.Layout("leaf"))->displaylist,
            (std::vector<std::string>{"c"}));
  EXPECT_TRUE((*schema.Layout("leaf"))->selectlist.empty());
}

TEST(SchemaTest, AddClassesIsAllOrNothing) {
  Schema schema = DiamondSchema();
  std::vector<ClassDef> batch{SimpleClass("fresh"), SimpleClass("person")};
  EXPECT_EQ(schema.AddClasses(batch).code(), StatusCode::kAlreadyExists);
  batch = {SimpleClass("twin"), SimpleClass("twin")};
  EXPECT_EQ(schema.AddClasses(batch).code(), StatusCode::kAlreadyExists);
  batch = {SimpleClass("fresh"), SimpleClass("")};
  EXPECT_TRUE(schema.AddClasses(batch).IsInvalidArgument());
  EXPECT_EQ(schema.size(), 4u);
  EXPECT_FALSE(schema.Contains("fresh"));
  EXPECT_FALSE(schema.Contains("twin"));
  EXPECT_TRUE(schema.Layout("fresh").status().IsNotFound());
}

TEST(SchemaTest, InheritanceEdges) {
  Schema schema = DiamondSchema();
  auto edges = schema.InheritanceEdges();
  EXPECT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[0], (std::pair<std::string, std::string>{"person",
                                                           "employee"}));
}

// --- Validation -----------------------------------------------------------

TEST(SchemaTest, ValidateAcceptsDiamond) {
  EXPECT_TRUE(DiamondSchema().Validate().ok());
}

TEST(SchemaTest, ValidateRejectsUnknownBase) {
  Schema schema;
  ASSERT_TRUE(schema.AddClass(SimpleClass("x", {"ghost"})).ok());
  EXPECT_TRUE(schema.Validate().IsInvalidArgument());
}

TEST(SchemaTest, ValidateRejectsSelfInheritance) {
  Schema schema;
  ASSERT_TRUE(schema.AddClass(SimpleClass("x", {"x"})).ok());
  EXPECT_TRUE(schema.Validate().IsInvalidArgument());
}

TEST(SchemaTest, ValidateRejectsCycle) {
  Schema schema;
  ASSERT_TRUE(schema.AddClass(SimpleClass("a", {"b"})).ok());
  ASSERT_TRUE(schema.AddClass(SimpleClass("b", {"a"})).ok());
  EXPECT_TRUE(schema.Validate().IsInvalidArgument());
}

TEST(SchemaTest, ValidateRejectsDuplicateMember) {
  Schema schema;
  ClassDef def = SimpleClass("x");
  def.members.push_back({"m", TypeRef::Int(), Access::kPublic});
  def.members.push_back({"m", TypeRef::Real(), Access::kPublic});
  ASSERT_TRUE(schema.AddClass(def).ok());
  EXPECT_TRUE(schema.Validate().IsInvalidArgument());
}

TEST(SchemaTest, ValidateRejectsDanglingReference) {
  Schema schema;
  ClassDef def = SimpleClass("x");
  def.members.push_back({"r", TypeRef::Ref("ghost"), Access::kPublic});
  ASSERT_TRUE(schema.AddClass(def).ok());
  EXPECT_TRUE(schema.Validate().IsInvalidArgument());
}

TEST(SchemaTest, ValidateChecksNestedContainerTypes) {
  Schema schema;
  ClassDef def = SimpleClass("x");
  def.members.push_back(
      {"rs", TypeRef::Set(TypeRef::Ref("ghost")), Access::kPublic});
  ASSERT_TRUE(schema.AddClass(def).ok());
  EXPECT_TRUE(schema.Validate().IsInvalidArgument());
}

// --- Layouts against the walkers they replaced ----------------------------
//
// Before layouts, Schema walked inheritance on every call. These are
// those walkers, kept as the reference: the recursive member merge, the
// ancestor BFS and the effective-list BFS.

Result<std::vector<MemberDef>> ReferenceAllMembers(const Schema& schema,
                                                   std::string_view name) {
  ODE_ASSIGN_OR_RETURN(const ClassDef* def, schema.GetClass(name));
  std::vector<MemberDef> out;
  std::unordered_set<std::string> seen;  // derived shadows base
  for (const MemberDef& m : def->members) seen.insert(m.name);
  for (const std::string& base : def->bases) {
    Result<std::vector<MemberDef>> inherited =
        ReferenceAllMembers(schema, base);
    if (!inherited.ok()) continue;  // dangling base: tolerated here
    for (MemberDef& m : *inherited) {
      if (seen.insert(m.name).second) out.push_back(std::move(m));
    }
  }
  for (const MemberDef& m : def->members) out.push_back(m);
  return out;
}

Result<std::vector<std::string>> ReferenceAncestors(const Schema& schema,
                                                    std::string_view start) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  std::deque<std::string> queue;
  queue.emplace_back(start);
  seen.insert(std::string(start));
  while (!queue.empty()) {
    std::string cur = std::move(queue.front());
    queue.pop_front();
    Result<std::vector<std::string>> next = schema.DirectSuperclasses(cur);
    if (!next.ok()) {
      // A dangling base name: report only if it is the start class.
      if (cur == start) return next.status();
      continue;
    }
    for (const std::string& n : *next) {
      if (seen.insert(n).second) {
        out.push_back(n);
        queue.push_back(n);
      }
    }
  }
  return out;
}

Result<std::vector<std::string>> ReferenceEffectiveList(
    const Schema& schema, std::string_view name,
    const std::vector<std::string> ClassDef::*list) {
  ODE_ASSIGN_OR_RETURN(const ClassDef* def, schema.GetClass(name));
  if (!(def->*list).empty()) return def->*list;
  std::deque<std::string> queue(def->bases.begin(), def->bases.end());
  std::unordered_set<std::string> seen(def->bases.begin(), def->bases.end());
  while (!queue.empty()) {
    std::string cur = std::move(queue.front());
    queue.pop_front();
    Result<const ClassDef*> base = schema.GetClass(cur);
    if (!base.ok()) continue;
    if (!((*base)->*list).empty()) return (*base)->*list;
    for (const std::string& b : (*base)->bases) {
      if (seen.insert(b).second) queue.push_back(b);
    }
  }
  return std::vector<std::string>{};
}

void ExpectLayoutsMatchReference(const Schema& schema) {
  for (const ClassDef& def : schema.classes()) {
    SCOPED_TRACE(def.name);
    Result<const ClassLayout*> layout = schema.Layout(def.name);
    ASSERT_TRUE(layout.ok()) << layout.status().ToString();
    std::vector<MemberDef> members = *ReferenceAllMembers(schema, def.name);
    ASSERT_EQ((*layout)->members.size(), members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ((*layout)->members[i].name, members[i].name);
      EXPECT_EQ((*layout)->members[i].type, members[i].type);
      EXPECT_EQ((*layout)->members[i].access, members[i].access);
    }
    EXPECT_EQ((*layout)->ancestors, *ReferenceAncestors(schema, def.name));
    EXPECT_EQ((*layout)->displaylist,
              *ReferenceEffectiveList(schema, def.name,
                                      &ClassDef::displaylist));
    EXPECT_EQ((*layout)->selectlist,
              *ReferenceEffectiveList(schema, def.name,
                                      &ClassDef::selectlist));
  }
}

TEST(SchemaLayoutTest, MatchesReferenceOnLabSchema) {
  Result<Schema> schema = ParseSchema(LabSchemaDdl());
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  ExpectLayoutsMatchReference(*schema);
}

TEST(SchemaLayoutTest, MatchesReferenceOnSyntheticSchemas) {
  for (uint64_t seed : {7u, 11u, 1990u}) {
    SCOPED_TRACE(seed);
    Result<Schema> parsed = ParseSchema(SyntheticSchemaDdl(300, 2, seed));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectLayoutsMatchReference(*parsed);
    // The generated classes all declare the same two members and no
    // lists. Vary them so shadowing and list inheritance are exercised
    // on the same DAG.
    std::vector<ClassDef> defs = parsed->classes();
    for (size_t i = 0; i < defs.size(); ++i) {
      if (i % 3 == 0) {
        defs[i].members.push_back(
            {"m" + std::to_string(i), TypeRef::Int(), Access::kPrivate});
      }
      if (i % 5 == 0) defs[i].members[0].type = TypeRef::Int();  // shadow
      if (i % 7 == 0) defs[i].displaylist = {"label", std::to_string(i)};
      if (i % 11 == 0) defs[i].selectlist = {"weight", std::to_string(i)};
    }
    Schema varied;
    ASSERT_TRUE(varied.AddClasses(std::move(defs)).ok());
    ExpectLayoutsMatchReference(varied);
  }
}

TEST(SchemaLayoutTest, MatchesReferenceOnDiamondShadowingAndDanglingBases) {
  ExpectLayoutsMatchReference(DiamondSchema());

  Schema shadowing;
  ClassDef base = SimpleClass("base");
  base.members = {{"tag", TypeRef::Int(), Access::kPublic},
                  {"keep", TypeRef::Real(), Access::kProtected}};
  base.selectlist = {"tag"};
  ASSERT_TRUE(shadowing.AddClass(base).ok());
  ClassDef derived = SimpleClass("derived", {"base"});
  derived.members = {{"tag", TypeRef::String(), Access::kPrivate}};
  ASSERT_TRUE(shadowing.AddClass(derived).ok());
  ExpectLayoutsMatchReference(shadowing);
  EXPECT_EQ((*shadowing.Layout("derived"))->members[1].type,
            TypeRef::String());

  // Dangling bases are listed among the ancestors but not walked; the
  // ghost is reached twice and listed once.
  Schema dangling;
  ClassDef x = SimpleClass("x", {"ghost", "y"});
  x.members = {{"a", TypeRef::Int(), Access::kPublic}};
  ASSERT_TRUE(dangling.AddClass(x).ok());
  ClassDef y = SimpleClass("y", {"ghost", "other_ghost"});
  y.members = {{"b", TypeRef::Int(), Access::kPublic}};
  y.displaylist = {"b"};
  ASSERT_TRUE(dangling.AddClass(y).ok());
  ExpectLayoutsMatchReference(dangling);
  EXPECT_EQ((*dangling.Layout("x"))->ancestors,
            (std::vector<std::string>{"ghost", "y", "other_ghost"}));
  EXPECT_EQ((*dangling.Layout("x"))->displaylist,
            (std::vector<std::string>{"b"}));
}

TEST(SchemaLayoutTest, CyclicAndSelfDerivedClassesTerminate) {
  // Schemas are built before they are validated (the parser, catalog
  // decode and DefineSchema all do this), so layouts must survive
  // cycles that Validate later rejects.
  Schema schema;
  std::vector<ClassDef> defs{SimpleClass("a", {"b"}), SimpleClass("b", {"a"}),
                             SimpleClass("self", {"self"}),
                             SimpleClass("downstream", {"a", "self"})};
  for (ClassDef& def : defs) {
    def.members = {{def.name + "_own", TypeRef::Int(), Access::kPublic},
                   {"shared", TypeRef::Int(), Access::kPublic}};
  }
  ASSERT_TRUE(schema.AddClasses(defs).ok());
  for (const ClassDef& def : defs) {
    SCOPED_TRACE(def.name);
    const ClassLayout* layout = *schema.Layout(def.name);
    ASSERT_GE(layout->members.size(), def.members.size());
    size_t own_start = layout->members.size() - def.members.size();
    for (size_t i = 0; i < def.members.size(); ++i) {
      EXPECT_EQ(layout->members[own_start + i].name, def.members[i].name);
    }
    EXPECT_EQ(std::count(layout->ancestors.begin(), layout->ancestors.end(),
                         def.name),
              0);
  }
  EXPECT_TRUE(schema.Validate().IsInvalidArgument());
}

// --- TypeRef ---------------------------------------------------------------

TEST(TypeRefTest, ToStringSpellings) {
  EXPECT_EQ(TypeRef::Int().ToString(), "int");
  EXPECT_EQ(TypeRef::Ref("dept").ToString(), "dept*");
  EXPECT_EQ(TypeRef::Set(TypeRef::Ref("emp")).ToString(), "set<emp*>");
  EXPECT_EQ(TypeRef::Array(TypeRef::Int(), 4).ToString(), "int[4]");
  EXPECT_EQ(TypeRef::Class("dept").ToString(), "dept");
}

TEST(TypeRefTest, Equality) {
  EXPECT_EQ(TypeRef::Set(TypeRef::Ref("e")), TypeRef::Set(TypeRef::Ref("e")));
  EXPECT_NE(TypeRef::Set(TypeRef::Ref("e")), TypeRef::Set(TypeRef::Int()));
  EXPECT_NE(TypeRef::Array(TypeRef::Int(), 3), TypeRef::Array(TypeRef::Int(), 4));
}

// --- Serialization -----------------------------------------------------------

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Result<Schema> parsed = ParseSchema(R"(
persistent versioned class doc {
public:
  string title;
  int pages[3];
  set<doc*> related;
  void render(int dpi);
  display text, postscript;
  displaylist title;
  selectlist title;
  constraint pages >= 0;
  trigger big: on_update when pages > 100 do warn;
private:
  real internal_score;
};
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string bytes;
  parsed->Encode(&bytes);
  Result<Schema> decoded = Schema::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ClassDef* def = *decoded->GetClass("doc");
  EXPECT_TRUE(def->versioned);
  EXPECT_TRUE(def->persistent);
  ASSERT_EQ(def->members.size(), 4u);
  EXPECT_EQ(def->members[1].type.ToString(), "int[3]");
  EXPECT_EQ(def->members[3].access, Access::kPrivate);
  ASSERT_EQ(def->methods.size(), 1u);
  EXPECT_EQ(def->methods[0].params, "int dpi");
  EXPECT_EQ(def->display_formats,
            (std::vector<std::string>{"text", "postscript"}));
  ASSERT_EQ(def->constraints.size(), 1u);
  EXPECT_EQ(def->constraints[0].predicate_text, "pages >= 0");
  ASSERT_EQ(def->triggers.size(), 1u);
  EXPECT_EQ(def->triggers[0].condition_text, "pages > 100");
  EXPECT_EQ(def->triggers[0].action, "warn");
  EXPECT_EQ(def->source, (*parsed->GetClass("doc"))->source);
}

TEST(SchemaTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(Schema::Decode("garbage bytes").ok());
}

}  // namespace
}  // namespace ode::odb
