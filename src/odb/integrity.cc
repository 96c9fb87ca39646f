#include "odb/integrity.h"

#include "odb/typecheck.h"

namespace ode::odb {

namespace {

std::string_view KindName(IntegrityIssue::Kind kind) {
  switch (kind) {
    case IntegrityIssue::Kind::kDanglingReference:
      return "dangling reference";
    case IntegrityIssue::Kind::kWrongClassReference:
      return "wrong-class reference";
    case IntegrityIssue::Kind::kTypeMismatch:
      return "type mismatch";
  }
  return "?";
}

/// Recursively walks `value` collecting reference issues.
Status WalkValue(Database* db, Oid holder, const std::string& path,
                 const Value& value, std::vector<IntegrityIssue>* issues) {
  switch (value.kind()) {
    case ValueKind::kRef: {
      if (value.AsRef().IsNull()) return Status::OK();
      Result<ObjectBuffer> target = db->GetObject(value.AsRef());
      if (!target.ok()) {
        issues->push_back(IntegrityIssue{
            IntegrityIssue::Kind::kDanglingReference, holder, path,
            value.AsRef(), target.status().message()});
        return Status::OK();
      }
      // The stored ref class should equal the target's actual class or
      // one of its ancestors (the ref may be held through a base type).
      if (target->class_name != value.RefClass()) {
        Result<const ClassLayout*> layout =
            db->schema().Layout(target->class_name);
        bool compatible = false;
        if (layout.ok()) {
          for (const std::string& a : (*layout)->ancestors) {
            compatible = compatible || a == value.RefClass();
          }
        }
        if (!compatible) {
          issues->push_back(IntegrityIssue{
              IntegrityIssue::Kind::kWrongClassReference, holder, path,
              value.AsRef(),
              "stored as " + value.RefClass() + " but target is " +
                  target->class_name});
        }
      }
      return Status::OK();
    }
    case ValueKind::kStruct:
      for (const Value::Field& field : value.fields()) {
        ODE_RETURN_IF_ERROR(WalkValue(
            db, holder, path.empty() ? field.name : path + "." + field.name,
            field.value, issues));
      }
      return Status::OK();
    case ValueKind::kArray:
    case ValueKind::kSet: {
      int i = 0;
      for (const Value& element : value.elements()) {
        ODE_RETURN_IF_ERROR(WalkValue(db, holder,
                                      path + "[" + std::to_string(i++) +
                                          "]",
                                      element, issues));
      }
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

}  // namespace

std::string IntegrityIssue::ToString() const {
  std::string out(KindName(kind));
  out += " in " + holder.ToString() + " at " + member;
  if (!target.IsNull()) out += " -> " + target.ToString();
  if (!detail.empty()) out += " (" + detail + ")";
  return out;
}

Result<std::vector<IntegrityIssue>> CheckIntegrity(Database* db) {
  std::vector<IntegrityIssue> issues;
  for (const ClassDef& def : db->schema().classes()) {
    if (!def.persistent) continue;
    Result<std::vector<Oid>> oids = db->ScanCluster(def.name);
    if (!oids.ok()) continue;  // class with no cluster yet
    for (Oid oid : *oids) {
      ODE_ASSIGN_OR_RETURN(ObjectBuffer buffer, db->GetObject(oid));
      Status typed = TypeCheckObject(db->schema(), def.name, buffer.value);
      if (!typed.ok()) {
        issues.push_back(IntegrityIssue{IntegrityIssue::Kind::kTypeMismatch,
                                        oid, "", Oid::Null(),
                                        typed.message()});
      }
      ODE_RETURN_IF_ERROR(WalkValue(db, oid, "", buffer.value, &issues));
    }
  }
  return issues;
}

}  // namespace ode::odb
