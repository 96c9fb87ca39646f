#include "dynlink/synthesized.h"

#include <string>

namespace ode::dynlink {

namespace {

bool IsScalar(const odb::TypeRef& type) {
  using Kind = odb::TypeRef::Kind;
  return type.kind == Kind::kInt || type.kind == Kind::kReal ||
         type.kind == Kind::kBool || type.kind == Kind::kString;
}

/// One line (or indented block) for an attribute value.
void AppendAttribute(std::string* out, const std::string& name,
                     const odb::Value& value) {
  using odb::ValueKind;
  out->append(name);
  switch (value.kind()) {
    case ValueKind::kStruct:
    case ValueKind::kSet:
    case ValueKind::kArray:
      out->append(":\n");
      out->append(value.ToIndentedString(1));
      return;
    case ValueKind::kRef:
      if (value.AsRef().IsNull()) {
        out->append(": <no ");
        out->append(value.RefClass());
        out->append(">\n");
      } else {
        out->append(": -> ");
        out->append(value.RefClass());
        out->push_back(' ');
        out->append(value.AsRef().ToString());
        out->push_back('\n');
      }
      return;
    default:
      // Blobs print as "<blob NB>", like every other scalar's text form.
      out->append(": ");
      out->append(value.ToString());
      out->push_back('\n');
  }
}

}  // namespace

Result<std::string> FormatObjectText(const odb::Schema& schema,
                                     const odb::ObjectBuffer& object,
                                     const std::vector<std::string>& attrs,
                                     const std::vector<bool>& mask,
                                     bool privileged) {
  ODE_ASSIGN_OR_RETURN(const odb::ClassLayout* layout,
                       schema.Layout(object.class_name));
  std::string out = object.class_name;
  out.push_back(' ');
  out.append(object.oid.ToString());
  out.append(" (v");
  out.append(std::to_string(object.version));
  out.append(")\n");
  for (const odb::MemberDef& member : layout->members) {
    if (!privileged && member.access != odb::Access::kPublic) continue;
    if (!AttributeSelected(attrs, mask, member.name)) continue;
    const odb::Value* value = object.value.FindField(member.name);
    if (value == nullptr) continue;
    AppendAttribute(&out, member.name, *value);
  }
  return out;
}

DisplayFunction SynthesizeDisplayFunction(const odb::Schema& schema,
                                          const std::string& class_name,
                                          bool privileged) {
  // Capture by value: the display function must outlive this call.
  const odb::Schema* schema_ptr = &schema;
  return [schema_ptr, class_name, privileged](
             const odb::ObjectBuffer& object,
             const std::vector<std::string>& attributes,
             const std::vector<bool>& mask) -> Result<DisplayResources> {
    if (object.class_name != class_name) {
      return Status::DisplayFault(
          "synthesized display for '" + class_name +
          "' invoked on an object of class '" + object.class_name + "'");
    }
    ODE_ASSIGN_OR_RETURN(
        std::string text,
        FormatObjectText(*schema_ptr, object, attributes, mask, privileged));
    DisplayResources resources;
    WindowSpec window;
    window.kind = WindowKind::kScrollText;
    window.format = "text";
    window.title = object.class_name + " " + object.oid.ToString();
    window.text = std::move(text);
    resources.windows.push_back(std::move(window));
    return resources;
  };
}

Result<std::vector<std::string>> SynthesizeDisplayList(
    const odb::Schema& schema, const std::string& class_name) {
  ODE_ASSIGN_OR_RETURN(const odb::ClassLayout* layout,
                       schema.Layout(class_name));
  std::vector<std::string> out;
  for (const odb::MemberDef& member : layout->members) {
    if (member.access == odb::Access::kPublic) out.push_back(member.name);
  }
  return out;
}

Result<std::vector<std::string>> SynthesizeSelectList(
    const odb::Schema& schema, const std::string& class_name) {
  ODE_ASSIGN_OR_RETURN(const odb::ClassLayout* layout,
                       schema.Layout(class_name));
  std::vector<std::string> out;
  for (const odb::MemberDef& member : layout->members) {
    if (member.access == odb::Access::kPublic && IsScalar(member.type)) {
      out.push_back(member.name);
    }
  }
  return out;
}

}  // namespace ode::dynlink
