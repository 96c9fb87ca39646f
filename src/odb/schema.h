#ifndef ODEVIEW_ODB_SCHEMA_H_
#define ODEVIEW_ODB_SCHEMA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "common/status.h"

namespace ode::odb {

/// Member access levels, as in C++ / O++. Ode classes support data
/// encapsulation; OdeView respects it when building default displays
/// but can "selectively violate" it in privileged (debug) mode.
enum class Access : uint8_t { kPublic = 0, kProtected, kPrivate };

std::string_view AccessName(Access access);

/// Reference to a type in a member declaration.
struct TypeRef {
  enum class Kind : uint8_t {
    kVoid = 0,
    kBool,
    kInt,
    kReal,
    kString,
    kBlob,
    kClass,  ///< embedded object of a named class (by value)
    kRef,    ///< pointer to a persistent object of a named class
    kSet,    ///< set<element>
    kArray,  ///< element[size] (size 0 = unsized)
  };

  Kind kind = Kind::kVoid;
  std::string class_name;            ///< for kClass / kRef
  std::shared_ptr<TypeRef> element;  ///< for kSet / kArray
  uint32_t array_size = 0;           ///< for kArray

  static TypeRef Void() { return TypeRef{Kind::kVoid, {}, nullptr, 0}; }
  static TypeRef Bool() { return TypeRef{Kind::kBool, {}, nullptr, 0}; }
  static TypeRef Int() { return TypeRef{Kind::kInt, {}, nullptr, 0}; }
  static TypeRef Real() { return TypeRef{Kind::kReal, {}, nullptr, 0}; }
  static TypeRef String() { return TypeRef{Kind::kString, {}, nullptr, 0}; }
  static TypeRef Blob() { return TypeRef{Kind::kBlob, {}, nullptr, 0}; }
  static TypeRef Class(std::string name) {
    return TypeRef{Kind::kClass, std::move(name), nullptr, 0};
  }
  static TypeRef Ref(std::string name) {
    return TypeRef{Kind::kRef, std::move(name), nullptr, 0};
  }
  static TypeRef Set(TypeRef element) {
    return TypeRef{Kind::kSet, {},
                   std::make_shared<TypeRef>(std::move(element)), 0};
  }
  static TypeRef Array(TypeRef element, uint32_t size) {
    return TypeRef{Kind::kArray, {},
                   std::make_shared<TypeRef>(std::move(element)), size};
  }

  /// O++ source spelling ("set<employee*>", "int[4]", "department*").
  std::string ToString() const;

  friend bool operator==(const TypeRef& a, const TypeRef& b);
  friend bool operator!=(const TypeRef& a, const TypeRef& b) {
    return !(a == b);
  }
};

/// A data member of a class.
struct MemberDef {
  std::string name;
  TypeRef type;
  Access access = Access::kPublic;
};

/// A member function, retained as metadata only: OdeView never calls
/// arbitrary methods (the paper notes doing so "will be unacceptable,
/// if not potentially disastrous, because of any potential side
/// effects"); only the distinguished display functions are invoked.
struct MethodDef {
  std::string name;
  std::string return_type;  ///< source spelling
  std::string params;       ///< source spelling between parentheses
  Access access = Access::kPublic;
};

/// An integrity constraint: a predicate over the object's attributes
/// checked on create and update (O++ `constraint:` clause).
struct ConstraintDef {
  std::string predicate_text;
};

/// Events a trigger can fire on.
enum class TriggerEvent : uint8_t { kCreate = 0, kUpdate, kDelete };

std::string_view TriggerEventName(TriggerEvent event);

/// A trigger: when `event` happens to an object and `condition_text`
/// (empty = always) evaluates true, the named action is enqueued.
struct TriggerDef {
  std::string name;
  TriggerEvent event = TriggerEvent::kUpdate;
  std::string condition_text;
  std::string action;
};

/// A parsed O++ class definition.
struct ClassDef {
  std::string name;
  bool persistent = true;
  /// O++ versioned class: updates retain prior versions of the object.
  bool versioned = false;
  std::vector<std::string> bases;  ///< direct superclasses, decl order
  std::vector<MemberDef> members;
  std::vector<MethodDef> methods;
  /// Display formats the class designer provides ("text", "picture"...).
  /// Empty means only the synthesized rudimentary display is available.
  std::vector<std::string> display_formats;
  /// Attributes on which projection may be performed (§5.1). May name
  /// computed attributes that are not data members.
  std::vector<std::string> displaylist;
  /// Attributes usable in selection predicates (§5.2).
  std::vector<std::string> selectlist;
  std::vector<ConstraintDef> constraints;
  std::vector<TriggerDef> triggers;
  /// Verbatim O++ source, shown by the class-definition window (Fig. 4).
  std::string source;
};

/// A class's inheritance, resolved once per schema change so readers
/// never walk the base graph. Holds values, not pointers into the
/// schema, so a Schema stays copyable.
struct ClassLayout {
  /// Own members plus inherited ones, base-first in declaration order.
  /// A derived member shadows a base member with the same name, and a
  /// diamond's shared members appear once.
  std::vector<MemberDef> members;
  /// Transitive superclasses in BFS order, without duplicates and
  /// without the class itself. A dangling base name is listed but not
  /// walked.
  std::vector<std::string> ancestors;
  /// Effective displaylist / selectlist: the class's own list if
  /// non-empty, else the first non-empty one along `ancestors`.
  std::vector<std::string> displaylist;
  std::vector<std::string> selectlist;

  /// Finds a member, own or inherited; nullptr when absent.
  const MemberDef* FindMember(std::string_view member_name) const;
};

/// The database schema: the collection of class definitions plus the
/// inheritance relationship between them (a set of DAGs).
class Schema {
 public:
  Schema() = default;

  /// Registers a class; fails with AlreadyExists on duplicates.
  Status AddClass(ClassDef def);
  /// Registers classes in order with one layout rebuild. Every name is
  /// checked first, so on failure the schema is unchanged.
  Status AddClasses(std::vector<ClassDef> defs);

  /// Removes a class; fails if other classes derive from or reference it.
  Status DropClass(std::string_view name);

  /// Replaces an existing class definition (schema modification).
  Status ReplaceClass(ClassDef def);

  bool Contains(std::string_view name) const;
  Result<const ClassDef*> GetClass(std::string_view name) const;

  /// All classes in registration order.
  const std::vector<ClassDef>& classes() const { return classes_; }
  size_t size() const { return classes_.size(); }

  /// Direct superclasses / subclasses (the class-information window).
  Result<std::vector<std::string>> DirectSuperclasses(
      std::string_view name) const;
  Result<std::vector<std::string>> DirectSubclasses(
      std::string_view name) const;

  /// The class's resolved inheritance. Valid until the next mutation
  /// of this schema.
  Result<const ClassLayout*> Layout(std::string_view name) const;

  /// Transitive subclasses (BFS order, no duplicates, excludes `name`),
  /// walked on demand: only schema evolution and deep extents ask.
  Result<std::vector<std::string>> Descendants(std::string_view name) const;

  /// Inheritance edges (base -> derived), for DAG layout.
  std::vector<std::pair<std::string, std::string>> InheritanceEdges() const;

  /// Checks global consistency: all bases exist, inheritance is acyclic,
  /// ref/embedded member types resolve, member names unique per class,
  /// and no class contains itself by value (own or inherited members,
  /// or fixed-size arrays of them; a ref, a set or an unsized array
  /// breaks the chain).
  Status Validate() const;

  /// Serialization for the persistent catalog. The Decoder overload
  /// consumes exactly the schema's bytes, leaving the rest untouched.
  void Encode(std::string* dst) const;
  static Result<Schema> Decode(std::string_view bytes);
  static Result<Schema> Decode(Decoder* decoder);

 private:
  int IndexOf(std::string_view name) const;  // -1 when absent
  /// Rebuilds `index_`, `layouts_` and `cyclic_`; every mutation ends
  /// here.
  void Rebuild();

  std::vector<ClassDef> classes_;
  /// Parallel to classes_.
  std::vector<ClassLayout> layouts_;
  /// name -> position in classes_.
  std::map<std::string, int, std::less<>> index_;
  /// Whether the base graph has a cycle (self-derivation included).
  bool cyclic_ = false;
};

}  // namespace ode::odb

#endif  // ODEVIEW_ODB_SCHEMA_H_
