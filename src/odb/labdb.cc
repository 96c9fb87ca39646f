#include "odb/labdb.h"

#include <array>
#include <sstream>
#include <vector>

namespace ode::odb {

namespace {

/// Deterministic 64-bit generator (splitmix64), independent of the
/// standard library's unspecified distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return bound ? Next() % bound : 0; }

 private:
  uint64_t state_;
};

constexpr std::array<const char*, 60> kFirstNames = {
    "rakesh", "narain", "jerry",  "amy",    "brian",  "carol",  "dan",
    "erin",   "frank",  "gina",   "hank",   "iris",   "jack",   "kara",
    "liam",   "mona",   "ned",    "olga",   "paul",   "quinn",  "rosa",
    "sam",    "tina",   "umar",   "vera",   "walt",   "xena",   "yuri",
    "zoe",    "alan",   "beth",   "carl",   "dina",   "earl",   "faye",
    "glen",   "hope",   "ivan",   "june",   "kent",   "lena",   "mark",
    "nina",   "otis",   "pam",    "raul",   "sara",   "theo",   "uma",
    "vic",    "wendy",  "xander", "yara",   "zack",   "abby",   "boris",
    "cleo",   "drew",   "elsa",   "fred"};

constexpr std::array<const char*, 8> kDepartmentNames = {
    "research",  "databases", "languages", "systems",
    "networks",  "graphics",  "theory",    "hardware"};

constexpr std::array<const char*, 8> kLocations = {
    "murray hill 2C", "murray hill 3D", "holmdel 1A",  "murray hill 5B",
    "holmdel 4C",     "murray hill 6A", "holmdel 2F",  "murray hill 1E"};

constexpr std::array<const char*, 10> kProjectTitles = {
    "ode",        "odeview",  "o++ compiler", "dag layout",
    "sig",        "kiview",   "query engine", "version store",
    "trigger lab", "x widgets"};

/// A tiny deterministic PBM (portable bitmap) "portrait" for an
/// employee — the payload the picture display function renders.
std::string MakePortraitPbm(uint64_t key) {
  constexpr int kW = 16;
  constexpr int kH = 16;
  std::ostringstream out;
  out << "P1 " << kW << " " << kH << "\n";
  Rng rng(key * 7919 + 17);
  for (int y = 0; y < kH; ++y) {
    for (int x = 0; x < kW; ++x) {
      // A symmetric face-like pattern: mirror the left half.
      int xx = x < kW / 2 ? x : kW - 1 - x;
      uint64_t bit = (rng.Next() >> ((xx + y) % 13)) & 1;
      bool border = x == 0 || y == 0 || x == kW - 1 || y == kH - 1;
      out << ((border || bit) ? '1' : '0');
      if (x + 1 < kW) out << ' ';
    }
    out << "\n";
  }
  return out.str();
}

Value MakeRefSet(const std::vector<Oid>& oids, const std::string& cls) {
  std::vector<Value> elements;
  elements.reserve(oids.size());
  for (Oid oid : oids) elements.push_back(Value::Ref(oid, cls));
  return Value::Set(std::move(elements));
}

}  // namespace

std::string LabSchemaDdl() {
  return R"(
// The AT&T research-center "lab" database (paper Section 3).
persistent class employee {
public:
  string name;
  int age;
  string title;
  department* dept;
  manager* boss;
  blob picture;
  void raise_salary(int pct);
  display text, picture;
  displaylist name, age, title, salary;
  selectlist name, age, salary;
  constraint age >= 18;
private:
  real salary;
};

persistent class department {
public:
  string name;
  string location;
  manager* head;
  set<employee*> employees;
  set<project*> projects;
  display text;
  displaylist name, location;
  selectlist name, location;
};

// As the paper's Fig. 5 shows, manager derives from BOTH employee and
// department.
persistent class manager : public employee, public department {
public:
  int reports;
  display text, picture;
  selectlist name, age, reports;
  trigger many_reports: on_update when reports > 30 do notify_hr;
};

persistent class project {
public:
  string title;
  real budget;
  employee* lead;
  set<employee*> members;
  display text;
  selectlist title, budget;
  constraint budget >= 0;
};

// Documents illustrate multiple display media (text / postscript /
// bitmap), as in Section 4.1 item 4 of the paper.
persistent versioned class document {
public:
  string title;
  string body;
  blob postscript;
  blob bitmap;
  set<employee*> authors;
  display text, postscript, bitmap;
  displaylist title, body;
  selectlist title;
};
)";
}

Status BuildLabDatabase(Database* db, const LabDbConfig& config) {
  ODE_RETURN_IF_ERROR(db->DefineSchema(LabSchemaDdl()));
  Rng rng(config.seed);

  if (config.managers > config.employees) {
    return Status::InvalidArgument("more managers than employees");
  }
  if (config.departments < 1 || config.employees < 1) {
    return Status::InvalidArgument("need at least one department/employee");
  }

  // 1. Departments (heads wired up after managers exist).
  std::vector<Oid> departments;
  for (int d = 0; d < config.departments; ++d) {
    std::vector<Value::Field> fields;
    fields.push_back(
        {"name", Value::String(kDepartmentNames[d % kDepartmentNames.size()])});
    fields.push_back(
        {"location", Value::String(kLocations[d % kLocations.size()])});
    fields.push_back({"head", Value::Ref(Oid::Null(), "manager")});
    fields.push_back({"employees", Value::Set({})});
    fields.push_back({"projects", Value::Set({})});
    ODE_ASSIGN_OR_RETURN(
        Oid oid, db->CreateObject("department", Value::Struct(fields)));
    departments.push_back(oid);
  }

  // 2. Employees. The first is rakesh in department 0 ("research").
  std::vector<Oid> employees;
  std::vector<int> employee_dept;
  for (int e = 0; e < config.employees; ++e) {
    int dept = e == 0 ? 0 : static_cast<int>(rng.Below(departments.size()));
    std::vector<Value::Field> fields;
    std::string name = kFirstNames[e % kFirstNames.size()];
    if (e >= static_cast<int>(kFirstNames.size())) {
      name += '_';
      name += std::to_string(e / kFirstNames.size());
    }
    fields.push_back({"name", Value::String(name)});
    fields.push_back(
        {"age", Value::Int(25 + static_cast<int64_t>(rng.Below(40)))});
    fields.push_back({"title", Value::String(
        e % 5 == 0 ? "MTS" : (e % 5 == 1 ? "DMTS" : "researcher"))});
    fields.push_back({"dept", Value::Ref(departments[dept], "department")});
    fields.push_back({"boss", Value::Ref(Oid::Null(), "manager")});
    fields.push_back({"picture", Value::Blob(MakePortraitPbm(
        config.seed * 1000 + static_cast<uint64_t>(e)))});
    fields.push_back(
        {"salary",
         Value::Real(50000 + static_cast<double>(rng.Below(90000)))});
    ODE_ASSIGN_OR_RETURN(Oid oid,
                         db->CreateObject("employee", Value::Struct(fields)));
    employees.push_back(oid);
    employee_dept.push_back(dept);
  }

  // 3. Managers (their own cluster; inherit employee + department
  //    members). Manager m heads department m % departments.
  std::vector<Oid> managers;
  for (int m = 0; m < config.managers; ++m) {
    int dept = m % config.departments;
    std::vector<Value::Field> fields;
    std::string name =
        std::string("mgr_") + kFirstNames[(m + 13) % kFirstNames.size()];
    // employee base members
    fields.push_back({"name", Value::String(name)});
    fields.push_back(
        {"age", Value::Int(40 + static_cast<int64_t>(rng.Below(25)))});
    fields.push_back({"title", Value::String("manager")});
    fields.push_back({"dept", Value::Ref(departments[dept], "department")});
    fields.push_back({"boss", Value::Ref(Oid::Null(), "manager")});
    fields.push_back({"picture", Value::Blob(MakePortraitPbm(
        config.seed * 2000 + static_cast<uint64_t>(m)))});
    fields.push_back(
        {"salary",
         Value::Real(90000 + static_cast<double>(rng.Below(90000)))});
    // department base members (name shadowed by employee's)
    fields.push_back(
        {"location", Value::String(kLocations[dept % kLocations.size()])});
    fields.push_back({"head", Value::Ref(Oid::Null(), "manager")});
    fields.push_back({"employees", Value::Set({})});
    fields.push_back({"projects", Value::Set({})});
    // own members
    fields.push_back({"reports", Value::Int(0)});
    ODE_ASSIGN_OR_RETURN(Oid oid,
                         db->CreateObject("manager", Value::Struct(fields)));
    managers.push_back(oid);
  }

  // 4. Wire employees' bosses and department rosters.
  std::vector<std::vector<Oid>> dept_rosters(departments.size());
  for (size_t e = 0; e < employees.size(); ++e) {
    int dept = employee_dept[e];
    dept_rosters[static_cast<size_t>(dept)].push_back(employees[e]);
    if (!managers.empty()) {
      Oid boss = managers[static_cast<size_t>(dept) % managers.size()];
      ODE_ASSIGN_OR_RETURN(ObjectBuffer buffer, db->GetObject(employees[e]));
      *buffer.value.FindMutableField("boss") = Value::Ref(boss, "manager");
      ODE_RETURN_IF_ERROR(db->UpdateObject(employees[e], buffer.value));
    }
  }
  for (size_t d = 0; d < departments.size(); ++d) {
    ODE_ASSIGN_OR_RETURN(ObjectBuffer buffer, db->GetObject(departments[d]));
    *buffer.value.FindMutableField("employees") =
        MakeRefSet(dept_rosters[d], "employee");
    if (!managers.empty()) {
      *buffer.value.FindMutableField("head") =
          Value::Ref(managers[d % managers.size()], "manager");
    }
    ODE_RETURN_IF_ERROR(db->UpdateObject(departments[d], buffer.value));
  }
  // Managers' report counts.
  for (size_t m = 0; m < managers.size(); ++m) {
    int64_t reports = 0;
    for (int dept : employee_dept) {
      if (static_cast<size_t>(dept) % managers.size() == m) ++reports;
    }
    ODE_ASSIGN_OR_RETURN(ObjectBuffer buffer, db->GetObject(managers[m]));
    *buffer.value.FindMutableField("reports") = Value::Int(reports);
    ODE_RETURN_IF_ERROR(db->UpdateObject(managers[m], buffer.value));
  }

  // 5. Projects.
  std::vector<Oid> projects;
  for (int p = 0; p < config.projects; ++p) {
    std::vector<Oid> members;
    int member_count = 2 + static_cast<int>(rng.Below(5));
    for (int i = 0; i < member_count; ++i) {
      members.push_back(employees[rng.Below(employees.size())]);
    }
    std::vector<Value::Field> fields;
    fields.push_back({"title", Value::String(
        kProjectTitles[p % kProjectTitles.size()])});
    fields.push_back({"budget", Value::Real(
        10000 + static_cast<double>(rng.Below(500000)))});
    fields.push_back({"lead", Value::Ref(members.front(), "employee")});
    fields.push_back({"members", MakeRefSet(members, "employee")});
    ODE_ASSIGN_OR_RETURN(Oid oid,
                         db->CreateObject("project", Value::Struct(fields)));
    projects.push_back(oid);
  }
  // Attach projects to departments.
  for (size_t p = 0; p < projects.size(); ++p) {
    size_t d = p % departments.size();
    ODE_ASSIGN_OR_RETURN(ObjectBuffer buffer, db->GetObject(departments[d]));
    Value* proj_set = buffer.value.FindMutableField("projects");
    proj_set->mutable_elements().push_back(
        Value::Ref(projects[p], "project"));
    ODE_RETURN_IF_ERROR(db->UpdateObject(departments[d], buffer.value));
  }

  // 6. Documents (multiple display media, versioned).
  for (int doc = 0; doc < config.documents; ++doc) {
    std::vector<Oid> authors;
    authors.push_back(employees[rng.Below(employees.size())]);
    authors.push_back(employees[rng.Below(employees.size())]);
    std::vector<Value::Field> fields;
    fields.push_back({"title", Value::String(
        "tech memo " + std::to_string(1990 + doc))});
    fields.push_back({"body", Value::String(
        "Object-oriented database browsing notes, part " +
        std::to_string(doc + 1) + ".")});
    fields.push_back({"postscript", Value::Blob(
        "%!PS-Adobe-1.0\n% synthetic document " + std::to_string(doc) +
        "\nshowpage\n")});
    fields.push_back({"bitmap", Value::Blob(MakePortraitPbm(
        config.seed * 3000 + static_cast<uint64_t>(doc)))});
    fields.push_back({"authors", MakeRefSet(authors, "employee")});
    ODE_RETURN_IF_ERROR(
        db->CreateObject("document", Value::Struct(fields)).status());
  }

  db->ClearTriggerLog();  // construction-time firings are not interesting
  return db->Sync();
}

std::string SyntheticSchemaDdl(int num_classes, int avg_bases,
                               uint64_t seed) {
  Rng rng(seed);
  std::ostringstream out;
  for (int c = 0; c < num_classes; ++c) {
    out << "persistent class cls_" << c;
    if (c > 0 && avg_bases > 0) {
      int bases = 1 + static_cast<int>(rng.Below(
                          static_cast<uint64_t>(avg_bases)));
      out << " : ";
      // Bases must precede this class to keep the graph acyclic.
      std::vector<int> chosen;
      for (int b = 0; b < bases && static_cast<int>(chosen.size()) < c;
           ++b) {
        int candidate = static_cast<int>(rng.Below(
            static_cast<uint64_t>(c)));
        bool dup = false;
        for (int prev : chosen) dup = dup || prev == candidate;
        if (!dup) chosen.push_back(candidate);
      }
      if (chosen.empty()) chosen.push_back(c - 1);
      for (size_t i = 0; i < chosen.size(); ++i) {
        if (i) out << ", ";
        out << "public cls_" << chosen[i];
      }
    }
    out << " {\npublic:\n  string label;\n  int weight;\n";
    out << "  display text;\n";
    out << "};\n\n";
  }
  return out.str();
}

}  // namespace ode::odb
