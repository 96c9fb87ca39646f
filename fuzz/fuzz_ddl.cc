/// Fuzzes the O++ DDL front end (lexer + schema parser), the class
/// layouts resolved from what it parses, and the default instance of
/// every class of a schema that validates. Schema text arrives from
/// users and from stored catalogs, so arbitrarily nested
/// `set<array<...>>` types, unterminated tokens and garbage bytes must
/// all come back as InvalidArgument, cyclic, self-derived, dangling or
/// very deep base graphs must still resolve, and a class that contains
/// itself by value must fail validation, never as a crash or a stack
/// overflow.

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string_view>

#include "odb/ddl_parser.h"
#include "odb/typecheck.h"

namespace {

/// Traps unless `layout` is a sound resolution of `def`: the class is
/// not its own ancestor, no ancestor repeats, its own members come
/// last, and no inherited member repeats a name.
void CheckLayout(const ode::odb::ClassDef& def,
                 const ode::odb::ClassLayout& layout) {
  std::set<std::string_view> ancestors;
  for (const std::string& ancestor : layout.ancestors) {
    if (ancestor == def.name || !ancestors.insert(ancestor).second) {
      std::abort();
    }
  }
  if (layout.members.size() < def.members.size()) std::abort();
  const size_t inherited = layout.members.size() - def.members.size();
  std::set<std::string_view> names;
  for (size_t i = 0; i < def.members.size(); ++i) {
    if (layout.members[inherited + i].name != def.members[i].name) {
      std::abort();
    }
    names.insert(def.members[i].name);
  }
  for (size_t i = 0; i < inherited; ++i) {
    if (!names.insert(layout.members[i].name).second) std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view source(reinterpret_cast<const char*>(data), size);
  ode::Result<ode::odb::Schema> schema = ode::odb::ParseSchema(source);
  (void)ode::odb::ParseClassDef(source);
  if (!schema.ok()) return 0;
  const bool valid = schema->Validate().ok();
  for (const ode::odb::ClassDef& def : schema->classes()) {
    ode::Result<const ode::odb::ClassLayout*> layout =
        schema->Layout(def.name);
    if (!layout.ok()) std::abort();
    CheckLayout(def, **layout);
    if (valid) (void)ode::odb::DefaultInstance(*schema, def.name);
  }
  return 0;
}
