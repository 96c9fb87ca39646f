#ifndef ODEVIEW_ODB_TYPECHECK_H_
#define ODEVIEW_ODB_TYPECHECK_H_

#include "common/status.h"
#include "odb/schema.h"
#include "odb/value.h"

namespace ode::odb {

/// Verifies that `value` is a valid instance of class `class_name`:
/// a struct whose fields exactly match the class's effective members
/// (own + inherited, base-first order) with type-compatible values.
///
/// Compatibility rules:
///  * null is accepted for any member (uninitialized attribute);
///  * int accepts kInt and kBool; real accepts kReal and kInt;
///  * a reference member of class C accepts a kRef whose class is C or
///    any descendant of C (substitutability), or a null ref;
///  * an embedded member of class C recursively checks the struct;
///  * fixed arrays must match their declared size; unsized arrays any;
///  * sets/arrays check every element against the element type.
Status TypeCheckObject(const Schema& schema, std::string_view class_name,
                       const Value& value);

/// Checks one value against one declared type (exposed for tests).
Status TypeCheckValue(const Schema& schema, const TypeRef& type,
                      const Value& value, std::string_view context);

/// Builds a default-initialized instance of `class_name`: zeros for
/// numerics, empty strings, null refs, empty sets, sized arrays filled
/// with element defaults. Terminates for any schema that passed
/// `Schema::Validate`, which rejects a class containing itself by value.
Result<Value> DefaultInstance(const Schema& schema,
                              std::string_view class_name);

/// The default value of one declared type, by the same rules: what
/// schema evolution stores in a member it adds or retypes.
Result<Value> DefaultForType(const Schema& schema, const TypeRef& type);

}  // namespace ode::odb

#endif  // ODEVIEW_ODB_TYPECHECK_H_
