#ifndef ODEVIEW_ODB_VALUE_H_
#define ODEVIEW_ODB_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "odb/oid.h"

namespace ode::odb {

/// Discriminator for `Value`.
enum class ValueKind : uint8_t {
  kNull = 0,
  kBool,
  kInt,     ///< 64-bit signed integer
  kReal,    ///< IEEE double
  kString,
  kBlob,    ///< uninterpreted bytes (e.g. a bitmap payload)
  kStruct,  ///< ordered named fields
  kArray,   ///< positional elements
  kSet,     ///< unordered elements (stored in insertion order)
  kRef,     ///< reference to another persistent object
};

/// Returns a lowercase name for `kind` ("int", "struct", ...).
std::string_view ValueKindName(ValueKind kind);

struct ValueField;  // defined after Value (mutual recursion)

/// Self-describing runtime representation of an Ode object (or component).
///
/// O++ objects are C++ objects; since our stand-in object manager cannot
/// host native C++ layouts, objects are materialized as `Value` trees —
/// the same role the paper's "object buffer" plays. A `Value` is a
/// tagged union over the kinds above. Struct fields are ordered (they
/// mirror declaration order in the class definition), and references
/// carry both the target OID and the target class name so browsers can
/// resolve the display function without consulting the object.
class Value {
 public:
  /// A named field inside a struct value.
  using Field = ValueField;

  /// Constructs the null value.
  Value() : kind_(ValueKind::kNull) {}

  Value(const Value&) = default;
  Value(Value&&) noexcept = default;
  Value& operator=(const Value&) = default;
  Value& operator=(Value&&) noexcept = default;

  /// Factories (the only way to build non-null values).
  static Value Null() { return Value(); }
  static Value Bool(bool v);
  static Value Int(int64_t v);
  static Value Real(double v);
  static Value String(std::string v);
  static Value Blob(std::string bytes);
  static Value Struct(std::vector<Field> fields);
  static Value Array(std::vector<Value> elements);
  static Value Set(std::vector<Value> elements);
  /// A reference to object `oid` of class `class_name`; a null `oid`
  /// models a dangling/unset reference.
  static Value Ref(Oid oid, std::string class_name);

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }

  /// Scalar accessors; calling the wrong accessor is a programming error
  /// checked by assert; use `kind()` first.
  bool AsBool() const;
  int64_t AsInt() const;
  double AsReal() const;
  const std::string& AsString() const;  ///< also valid for kBlob
  Oid AsRef() const;
  /// Class name carried by a kRef value.
  const std::string& RefClass() const;

  /// Struct access. `FindField` returns nullptr when absent.
  const std::vector<Field>& fields() const;
  std::vector<Field>& mutable_fields();
  const Value* FindField(std::string_view name) const;
  Value* FindMutableField(std::string_view name);
  /// Resolves a dotted path ("dept.name") through nested structs.
  const Value* FindPath(std::string_view dotted_path) const;

  /// Array/set access.
  const std::vector<Value>& elements() const;
  std::vector<Value>& mutable_elements();
  size_t size() const;  ///< fields or elements count; 0 for scalars

  /// Numeric convenience: kInt/kReal/kBool as double; fails otherwise.
  Result<double> ToNumber() const;

  /// Deep structural equality.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Renders the value as a single line ("{name: \"amy\", age: 31}").
  std::string ToString() const;
  /// Renders the value as indented lines — the paper's "fixed display
  /// scheme": nested structures indented, sets as element lists.
  std::string ToIndentedString(int indent = 0) const;

 private:
  /// Append `ToString()` / `ToIndentedString(indent)` to `*out`, so a
  /// nested value is written into its parent's buffer.
  void AppendTo(std::string* out) const;
  void AppendIndentedTo(std::string* out, int indent) const;

  ValueKind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double real_ = 0;
  std::string str_;         // kString / kBlob payload; kRef class name
  Oid ref_;
  std::vector<ValueField> fields_;
  std::vector<Value> elements_;
};

/// A named field inside a struct value.
struct ValueField {
  std::string name;
  Value value;
};

}  // namespace ode::odb

#endif  // ODEVIEW_ODB_VALUE_H_
