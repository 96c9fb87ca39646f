#include "dynlink/repository.h"

#include <algorithm>

namespace ode::dynlink {

std::string_view WindowKindName(WindowKind kind) {
  switch (kind) {
    case WindowKind::kStaticText:
      return "static-text";
    case WindowKind::kScrollText:
      return "scroll-text";
    case WindowKind::kRasterImage:
      return "raster-image";
  }
  return "?";
}

bool AttributeSelected(const std::vector<std::string>& attributes,
                       const std::vector<bool>& mask,
                       std::string_view attr) {
  if (mask.empty()) return true;
  for (size_t i = 0; i < attributes.size() && i < mask.size(); ++i) {
    if (attributes[i] == attr) return mask[i];
  }
  // Attribute not in the displaylist: visible only with no projection.
  return false;
}

Status ModuleRepository::Register(DisplayModule module) {
  if (module.db_name.empty() || module.class_name.empty() ||
      module.format.empty()) {
    return Status::InvalidArgument(
        "module key (db, class, format) must be non-empty");
  }
  if (!module.function) {
    return Status::InvalidArgument("module has no display function");
  }
  Key key{module.db_name, module.class_name, module.format};
  if (modules_.find(key) == modules_.end()) {
    order_.push_back(key);
  }
  modules_[key] = std::move(module);
  return Status::OK();
}

int ModuleRepository::Unregister(const std::string& db_name,
                                 const std::string& class_name) {
  int removed = 0;
  for (auto it = modules_.begin(); it != modules_.end();) {
    if (it->first.db == db_name && it->first.cls == class_name) {
      it = modules_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  order_.erase(std::remove_if(order_.begin(), order_.end(),
                              [&](const Key& k) {
                                return k.db == db_name &&
                                       k.cls == class_name;
                              }),
               order_.end());
  return removed;
}

Result<const DisplayModule*> ModuleRepository::Find(
    const std::string& db_name, const std::string& class_name,
    const std::string& format) const {
  auto it = modules_.find(Key{db_name, class_name, format});
  if (it == modules_.end()) {
    return Status::NotFound("no display module for " + db_name + "/" +
                            class_name + "/" + format);
  }
  return &it->second;
}

std::vector<std::string> ModuleRepository::FormatsFor(
    const std::string& db_name, const std::string& class_name) const {
  std::vector<std::string> out;
  for (const Key& key : order_) {
    if (key.db == db_name && key.cls == class_name) {
      out.push_back(key.format);
    }
  }
  return out;
}

Result<const DisplayModule*> ModuleRepository::FindInherited(
    const odb::Schema& schema, const std::string& db_name,
    const std::string& class_name, const std::string& format) const {
  Result<const DisplayModule*> own = Find(db_name, class_name, format);
  if (own.ok() || !own.status().IsNotFound()) return own;
  Result<const odb::ClassLayout*> layout = schema.Layout(class_name);
  if (layout.ok()) {
    for (const std::string& ancestor : (*layout)->ancestors) {
      Result<const DisplayModule*> inherited =
          Find(db_name, ancestor, format);
      if (inherited.ok() || !inherited.status().IsNotFound()) {
        return inherited;
      }
    }
  }
  return Status::NotFound("no display module for " + db_name + "/" +
                          class_name + "/" + format +
                          " (own or inherited)");
}

std::vector<std::string> ModuleRepository::InheritedFormatsFor(
    const odb::Schema& schema, const std::string& db_name,
    const std::string& class_name) const {
  std::vector<std::string> out = FormatsFor(db_name, class_name);
  Result<const odb::ClassLayout*> layout = schema.Layout(class_name);
  if (layout.ok()) {
    for (const std::string& ancestor : (*layout)->ancestors) {
      for (const std::string& format : FormatsFor(db_name, ancestor)) {
        if (std::find(out.begin(), out.end(), format) == out.end()) {
          out.push_back(format);
        }
      }
    }
  }
  return out;
}

}  // namespace ode::dynlink
