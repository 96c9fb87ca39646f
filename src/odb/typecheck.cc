#include "odb/typecheck.h"

#include <algorithm>
#include <unordered_set>

namespace ode::odb {

namespace {

Status Mismatch(std::string_view context, const TypeRef& type,
                const Value& value) {
  return Status::InvalidArgument(
      std::string(context) + ": expected " + type.ToString() + ", got " +
      std::string(ValueKindName(value.kind())));
}

/// True iff `candidate` is `base` or a descendant of `base`.
bool IsSubclassOf(const Schema& schema, std::string_view candidate,
                  std::string_view base) {
  if (candidate == base) return true;
  Result<const ClassLayout*> layout = schema.Layout(candidate);
  if (!layout.ok()) return false;
  const std::vector<std::string>& ancestors = (*layout)->ancestors;
  return std::find(ancestors.begin(), ancestors.end(), base) !=
         ancestors.end();
}

}  // namespace

Status TypeCheckValue(const Schema& schema, const TypeRef& type,
                      const Value& value, std::string_view context) {
  if (value.is_null()) return Status::OK();  // uninitialized attribute
  switch (type.kind) {
    case TypeRef::Kind::kVoid:
      return Status::InvalidArgument(std::string(context) +
                                     ": member of type void");
    case TypeRef::Kind::kBool:
      if (value.kind() == ValueKind::kBool) return Status::OK();
      return Mismatch(context, type, value);
    case TypeRef::Kind::kInt:
      if (value.kind() == ValueKind::kInt ||
          value.kind() == ValueKind::kBool) {
        return Status::OK();
      }
      return Mismatch(context, type, value);
    case TypeRef::Kind::kReal:
      if (value.kind() == ValueKind::kReal ||
          value.kind() == ValueKind::kInt) {
        return Status::OK();
      }
      return Mismatch(context, type, value);
    case TypeRef::Kind::kString:
      if (value.kind() == ValueKind::kString) return Status::OK();
      return Mismatch(context, type, value);
    case TypeRef::Kind::kBlob:
      if (value.kind() == ValueKind::kBlob ||
          value.kind() == ValueKind::kString) {
        return Status::OK();
      }
      return Mismatch(context, type, value);
    case TypeRef::Kind::kRef: {
      if (value.kind() != ValueKind::kRef) {
        return Mismatch(context, type, value);
      }
      if (value.AsRef().IsNull()) return Status::OK();
      if (!IsSubclassOf(schema, value.RefClass(), type.class_name)) {
        return Status::InvalidArgument(
            std::string(context) + ": reference to '" + value.RefClass() +
            "' is not compatible with '" + type.class_name + "*'");
      }
      return Status::OK();
    }
    case TypeRef::Kind::kClass: {
      if (value.kind() != ValueKind::kStruct) {
        return Mismatch(context, type, value);
      }
      return TypeCheckObject(schema, type.class_name, value);
    }
    case TypeRef::Kind::kSet:
    case TypeRef::Kind::kArray: {
      bool ok_kind = type.kind == TypeRef::Kind::kSet
                         ? value.kind() == ValueKind::kSet
                         : value.kind() == ValueKind::kArray;
      if (!ok_kind) return Mismatch(context, type, value);
      if (type.kind == TypeRef::Kind::kArray && type.array_size != 0 &&
          value.elements().size() != type.array_size) {
        return Status::InvalidArgument(
            std::string(context) + ": array expects " +
            std::to_string(type.array_size) + " elements, got " +
            std::to_string(value.elements().size()));
      }
      if (type.element == nullptr) {
        return Status::Internal(std::string(context) +
                                ": container type missing element type");
      }
      for (size_t i = 0; i < value.elements().size(); ++i) {
        ODE_RETURN_IF_ERROR(
            TypeCheckValue(schema, *type.element, value.elements()[i],
                           std::string(context) + "[" + std::to_string(i) +
                               "]"));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled type kind");
}

Status TypeCheckObject(const Schema& schema, std::string_view class_name,
                       const Value& value) {
  if (value.kind() != ValueKind::kStruct) {
    return Status::InvalidArgument("object of class '" +
                                   std::string(class_name) +
                                   "' must be a struct value");
  }
  ODE_ASSIGN_OR_RETURN(const ClassLayout* layout, schema.Layout(class_name));
  std::unordered_set<std::string> declared;
  for (const MemberDef& m : layout->members) {
    declared.insert(m.name);
    const Value* field = value.FindField(m.name);
    if (field == nullptr) {
      return Status::InvalidArgument("object of class '" +
                                     std::string(class_name) +
                                     "' is missing member '" + m.name + "'");
    }
    ODE_RETURN_IF_ERROR(
        TypeCheckValue(schema, m.type, *field,
                       std::string(class_name) + "." + m.name));
  }
  for (const Value::Field& f : value.fields()) {
    if (declared.find(f.name) == declared.end()) {
      return Status::InvalidArgument("object of class '" +
                                     std::string(class_name) +
                                     "' has undeclared member '" + f.name +
                                     "'");
    }
  }
  return Status::OK();
}

Result<Value> DefaultInstance(const Schema& schema,
                              std::string_view class_name) {
  ODE_ASSIGN_OR_RETURN(const ClassLayout* layout, schema.Layout(class_name));
  std::vector<Value::Field> fields;
  fields.reserve(layout->members.size());
  for (const MemberDef& m : layout->members) {
    ODE_ASSIGN_OR_RETURN(Value v, DefaultForType(schema, m.type));
    fields.push_back({m.name, std::move(v)});
  }
  return Value::Struct(std::move(fields));
}

Result<Value> DefaultForType(const Schema& schema, const TypeRef& type) {
  switch (type.kind) {
    case TypeRef::Kind::kVoid:
      return Status::InvalidArgument("member of type void");
    case TypeRef::Kind::kBool:
      return Value::Bool(false);
    case TypeRef::Kind::kInt:
      return Value::Int(0);
    case TypeRef::Kind::kReal:
      return Value::Real(0.0);
    case TypeRef::Kind::kString:
      return Value::String("");
    case TypeRef::Kind::kBlob:
      return Value::Blob("");
    case TypeRef::Kind::kRef:
      return Value::Ref(Oid::Null(), type.class_name);
    case TypeRef::Kind::kClass:
      return DefaultInstance(schema, type.class_name);
    case TypeRef::Kind::kSet:
      return Value::Set({});
    case TypeRef::Kind::kArray: {
      std::vector<Value> elements;
      if (type.element != nullptr) {
        for (uint32_t i = 0; i < type.array_size; ++i) {
          ODE_ASSIGN_OR_RETURN(Value v, DefaultForType(schema, *type.element));
          elements.push_back(std::move(v));
        }
      }
      return Value::Array(std::move(elements));
    }
  }
  return Status::Internal("unhandled type kind");
}

}  // namespace ode::odb
