#include "odb/value.h"

#include <cassert>
#include <charconv>
#include <ostream>

#include "common/strings.h"

namespace ode::odb {

namespace {
const std::vector<Value::Field>& EmptyFields() {
  static const auto* empty = new std::vector<Value::Field>();
  return *empty;
}
const std::vector<Value>& EmptyElements() {
  static const auto* empty = new std::vector<Value>();
  return *empty;
}

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

template <typename Int>
void AppendInteger(std::string* out, Int value) {
  char buf[24];  // INT64_MIN takes 20
  char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, end);
}

/// `%g` at precision 6, as `std::ostream` prints a double by default.
void AppendReal(std::string* out, double value) {
  char buf[32];  // "-1.23457e+308" takes 13
  char* end = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 6)
                  .ptr;
  out->append(buf, end);
}

void AppendOid(std::string* out, const Oid& oid) {
  if (oid.IsNull()) {
    out->append("null");
    return;
  }
  out->push_back('c');
  AppendInteger(out, oid.cluster);
  out->append(":o");
  AppendInteger(out, oid.local);
}
}  // namespace

std::string_view ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kReal:
      return "real";
    case ValueKind::kString:
      return "string";
    case ValueKind::kBlob:
      return "blob";
    case ValueKind::kStruct:
      return "struct";
    case ValueKind::kArray:
      return "array";
    case ValueKind::kSet:
      return "set";
    case ValueKind::kRef:
      return "ref";
  }
  return "?";
}

Value Value::Bool(bool v) {
  Value out;
  out.kind_ = ValueKind::kBool;
  out.bool_ = v;
  return out;
}

Value Value::Int(int64_t v) {
  Value out;
  out.kind_ = ValueKind::kInt;
  out.int_ = v;
  return out;
}

Value Value::Real(double v) {
  Value out;
  out.kind_ = ValueKind::kReal;
  out.real_ = v;
  return out;
}

Value Value::String(std::string v) {
  Value out;
  out.kind_ = ValueKind::kString;
  out.str_ = std::move(v);
  return out;
}

Value Value::Blob(std::string bytes) {
  Value out;
  out.kind_ = ValueKind::kBlob;
  out.str_ = std::move(bytes);
  return out;
}

Value Value::Struct(std::vector<Field> fields) {
  Value out;
  out.kind_ = ValueKind::kStruct;
  out.fields_ = std::move(fields);
  return out;
}

Value Value::Array(std::vector<Value> elements) {
  Value out;
  out.kind_ = ValueKind::kArray;
  out.elements_ = std::move(elements);
  return out;
}

Value Value::Set(std::vector<Value> elements) {
  Value out;
  out.kind_ = ValueKind::kSet;
  out.elements_ = std::move(elements);
  return out;
}

Value Value::Ref(Oid oid, std::string class_name) {
  Value out;
  out.kind_ = ValueKind::kRef;
  out.ref_ = oid;
  out.str_ = std::move(class_name);
  return out;
}

bool Value::AsBool() const {
  assert(kind_ == ValueKind::kBool);
  return bool_;
}

int64_t Value::AsInt() const {
  assert(kind_ == ValueKind::kInt);
  return int_;
}

double Value::AsReal() const {
  assert(kind_ == ValueKind::kReal);
  return real_;
}

const std::string& Value::AsString() const {
  assert(kind_ == ValueKind::kString || kind_ == ValueKind::kBlob);
  return str_;
}

Oid Value::AsRef() const {
  assert(kind_ == ValueKind::kRef);
  return ref_;
}

const std::string& Value::RefClass() const {
  assert(kind_ == ValueKind::kRef);
  return str_;
}

const std::vector<Value::Field>& Value::fields() const {
  return kind_ == ValueKind::kStruct ? fields_ : EmptyFields();
}

std::vector<Value::Field>& Value::mutable_fields() {
  assert(kind_ == ValueKind::kStruct);
  return fields_;
}

const Value* Value::FindField(std::string_view name) const {
  if (kind_ != ValueKind::kStruct) return nullptr;
  for (const Field& f : fields_) {
    if (f.name == name) return &f.value;
  }
  return nullptr;
}

Value* Value::FindMutableField(std::string_view name) {
  if (kind_ != ValueKind::kStruct) return nullptr;
  for (Field& f : fields_) {
    if (f.name == name) return &f.value;
  }
  return nullptr;
}

const Value* Value::FindPath(std::string_view dotted_path) const {
  const Value* cur = this;
  size_t start = 0;
  while (start <= dotted_path.size()) {
    size_t dot = dotted_path.find('.', start);
    std::string_view part = dotted_path.substr(
        start, dot == std::string_view::npos ? std::string_view::npos
                                             : dot - start);
    cur = cur->FindField(part);
    if (cur == nullptr) return nullptr;
    if (dot == std::string_view::npos) return cur;
    start = dot + 1;
  }
  return nullptr;
}

const std::vector<Value>& Value::elements() const {
  return (kind_ == ValueKind::kArray || kind_ == ValueKind::kSet)
             ? elements_
             : EmptyElements();
}

std::vector<Value>& Value::mutable_elements() {
  assert(kind_ == ValueKind::kArray || kind_ == ValueKind::kSet);
  return elements_;
}

size_t Value::size() const {
  if (kind_ == ValueKind::kStruct) return fields_.size();
  if (kind_ == ValueKind::kArray || kind_ == ValueKind::kSet) {
    return elements_.size();
  }
  return 0;
}

Result<double> Value::ToNumber() const {
  switch (kind_) {
    case ValueKind::kInt:
      return static_cast<double>(int_);
    case ValueKind::kReal:
      return real_;
    case ValueKind::kBool:
      return bool_ ? 1.0 : 0.0;
    default:
      return Status::InvalidArgument(
          std::string("value of kind ") + std::string(ValueKindName(kind_)) +
          " is not numeric");
  }
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case ValueKind::kNull:
      return true;
    case ValueKind::kBool:
      return a.bool_ == b.bool_;
    case ValueKind::kInt:
      return a.int_ == b.int_;
    case ValueKind::kReal:
      return a.real_ == b.real_;
    case ValueKind::kString:
    case ValueKind::kBlob:
      return a.str_ == b.str_;
    case ValueKind::kRef:
      return a.ref_ == b.ref_ && a.str_ == b.str_;
    case ValueKind::kStruct:
      if (a.fields_.size() != b.fields_.size()) return false;
      for (size_t i = 0; i < a.fields_.size(); ++i) {
        if (a.fields_[i].name != b.fields_[i].name ||
            a.fields_[i].value != b.fields_[i].value) {
          return false;
        }
      }
      return true;
    case ValueKind::kArray:
    case ValueKind::kSet:
      return a.elements_ == b.elements_;
  }
  return false;
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

std::string Value::ToIndentedString(int indent) const {
  std::string out;
  AppendIndentedTo(&out, indent);
  return out;
}

void Value::AppendTo(std::string* out) const {
  switch (kind_) {
    case ValueKind::kNull:
      out->append("null");
      break;
    case ValueKind::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case ValueKind::kInt:
      AppendInteger(out, int_);
      break;
    case ValueKind::kReal:
      AppendReal(out, real_);
      break;
    case ValueKind::kString:
      AppendQuoted(out, str_);
      break;
    case ValueKind::kBlob:
      out->append("<blob ");
      AppendInteger(out, str_.size());
      out->append("B>");
      break;
    case ValueKind::kRef:
      out->push_back('@');
      out->append(str_);
      out->push_back('(');
      AppendOid(out, ref_);
      out->push_back(')');
      break;
    case ValueKind::kStruct: {
      out->push_back('{');
      bool first = true;
      for (const Field& f : fields_) {
        if (!first) out->append(", ");
        first = false;
        out->append(f.name);
        out->append(": ");
        f.value.AppendTo(out);
      }
      out->push_back('}');
      break;
    }
    case ValueKind::kArray:
    case ValueKind::kSet: {
      out->push_back(kind_ == ValueKind::kArray ? '[' : '(');
      bool first = true;
      for (const Value& e : elements_) {
        if (!first) out->append(", ");
        first = false;
        e.AppendTo(out);
      }
      out->push_back(kind_ == ValueKind::kArray ? ']' : ')');
      break;
    }
  }
}

void Value::AppendIndentedTo(std::string* out, int indent) const {
  const size_t pad = static_cast<size_t>(indent) * 2;
  switch (kind_) {
    case ValueKind::kStruct:
      for (const Field& f : fields_) {
        out->append(pad, ' ');
        out->append(f.name);
        if (f.value.kind() == ValueKind::kStruct ||
            f.value.kind() == ValueKind::kSet ||
            f.value.kind() == ValueKind::kArray) {
          out->append(":\n");
          f.value.AppendIndentedTo(out, indent + 1);
        } else {
          out->append(": ");
          f.value.AppendTo(out);
          out->push_back('\n');
        }
      }
      break;
    case ValueKind::kArray:
    case ValueKind::kSet:
      for (const Value& e : elements_) {
        out->append(pad, ' ');
        if (e.kind() == ValueKind::kStruct) {
          out->append("-\n");
          e.AppendIndentedTo(out, indent + 1);
        } else {
          out->append("- ");
          e.AppendTo(out);
          out->push_back('\n');
        }
      }
      break;
    default:
      out->append(pad, ' ');
      AppendTo(out);
      out->push_back('\n');
  }
}

std::string Oid::ToString() const {
  std::string out;
  AppendOid(&out, *this);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Oid& oid) {
  return os << oid.ToString();
}

}  // namespace ode::odb
