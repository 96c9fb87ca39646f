#include "odb/schema.h"

#include <unordered_set>

#include "common/coding.h"

namespace ode::odb {

std::string_view AccessName(Access access) {
  switch (access) {
    case Access::kPublic:
      return "public";
    case Access::kProtected:
      return "protected";
    case Access::kPrivate:
      return "private";
  }
  return "?";
}

std::string_view TriggerEventName(TriggerEvent event) {
  switch (event) {
    case TriggerEvent::kCreate:
      return "on_create";
    case TriggerEvent::kUpdate:
      return "on_update";
    case TriggerEvent::kDelete:
      return "on_delete";
  }
  return "?";
}

std::string TypeRef::ToString() const {
  switch (kind) {
    case Kind::kVoid:
      return "void";
    case Kind::kBool:
      return "bool";
    case Kind::kInt:
      return "int";
    case Kind::kReal:
      return "real";
    case Kind::kString:
      return "string";
    case Kind::kBlob:
      return "blob";
    case Kind::kClass:
      return class_name;
    case Kind::kRef:
      return class_name + "*";
    case Kind::kSet:
      return "set<" + (element ? element->ToString() : "?") + ">";
    case Kind::kArray:
      return (element ? element->ToString() : "?") + "[" +
             (array_size ? std::to_string(array_size) : "") + "]";
  }
  return "?";
}

bool operator==(const TypeRef& a, const TypeRef& b) {
  if (a.kind != b.kind || a.class_name != b.class_name ||
      a.array_size != b.array_size) {
    return false;
  }
  if ((a.element == nullptr) != (b.element == nullptr)) return false;
  return a.element == nullptr || *a.element == *b.element;
}

const MemberDef* ClassLayout::FindMember(std::string_view member_name) const {
  for (const MemberDef& m : members) {
    if (m.name == member_name) return &m;
  }
  return nullptr;
}

int Schema::IndexOf(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

void Schema::Rebuild() {
  const int n = static_cast<int>(classes_.size());
  index_.clear();
  for (int i = 0; i < n; ++i) index_[classes_[i].name] = i;
  // Base names resolved to ids once. A dangling name gets one id past
  // the classes, so it is listed by name but never walked.
  std::map<std::string_view, int> ids(index_.begin(), index_.end());
  std::vector<const std::string*> names;  // id -> name
  for (const ClassDef& def : classes_) names.push_back(&def.name);
  std::vector<std::vector<int>> bases(classes_.size());
  for (int i = 0; i < n; ++i) {
    for (const std::string& base : classes_[i].bases) {
      auto [it, fresh] = ids.try_emplace(base, static_cast<int>(names.size()));
      if (fresh) names.push_back(&base);
      bases[i].push_back(it->second);
    }
  }
  layouts_.assign(classes_.size(), ClassLayout{});
  cyclic_ = false;

  // Members, in the post-order of an explicit-stack DFS over base edges:
  // a base's members are final before any class inherits them, and no
  // recursion deepens with a chain. A base still on the stack closes a
  // cycle, and nothing is inherited through that edge.
  enum class Mark : uint8_t { kNew, kOnStack, kDone };
  std::vector<Mark> mark(classes_.size(), Mark::kNew);
  std::vector<std::pair<int, size_t>> stack;  // class, next base
  for (int root = 0; root < n; ++root) {
    if (mark[root] == Mark::kNew) stack.emplace_back(root, 0);
    while (!stack.empty()) {
      const auto [cls, next] = stack.back();
      mark[cls] = Mark::kOnStack;
      if (next < bases[cls].size()) {
        ++stack.back().second;
        const int base = bases[cls][next];
        cyclic_ = cyclic_ || (base < n && mark[base] == Mark::kOnStack);
        if (base < n && mark[base] == Mark::kNew) stack.emplace_back(base, 0);
        continue;
      }
      stack.pop_back();
      const ClassDef& def = classes_[cls];
      std::vector<MemberDef>& members = layouts_[cls].members;
      std::unordered_set<std::string_view> seen;  // derived shadows base
      for (const MemberDef& m : def.members) seen.insert(m.name);
      for (int base : bases[cls]) {
        if (base >= n || mark[base] != Mark::kDone) continue;
        for (const MemberDef& m : layouts_[base].members) {
          if (seen.insert(m.name).second) members.push_back(m);
        }
      }
      members.insert(members.end(), def.members.begin(), def.members.end());
      mark[cls] = Mark::kDone;
    }
  }

  // Ancestors and lists: one BFS per class over the resolved ids.
  std::vector<int> reached_by(names.size(), -1);
  std::vector<int> order;  // the class, then its ancestors
  for (int cls = 0; cls < n; ++cls) {
    ClassLayout& layout = layouts_[cls];
    reached_by[cls] = cls;
    order.assign(1, cls);
    for (size_t head = 0; head < order.size(); ++head) {
      if (order[head] >= n) continue;
      for (int base : bases[order[head]]) {
        if (reached_by[base] == cls) continue;
        reached_by[base] = cls;
        order.push_back(base);
        layout.ancestors.push_back(*names[base]);
      }
    }
    auto effective = [&](std::vector<std::string> ClassDef::*list) {
      for (int id : order) {
        if (id < n && !(classes_[id].*list).empty()) {
          return classes_[id].*list;
        }
      }
      return std::vector<std::string>{};
    };
    layout.displaylist = effective(&ClassDef::displaylist);
    layout.selectlist = effective(&ClassDef::selectlist);
  }
}

Status Schema::AddClass(ClassDef def) {
  std::vector<ClassDef> defs;
  defs.push_back(std::move(def));
  return AddClasses(std::move(defs));
}

Status Schema::AddClasses(std::vector<ClassDef> defs) {
  std::unordered_set<std::string_view> batch;
  for (const ClassDef& def : defs) {
    if (def.name.empty()) {
      return Status::InvalidArgument("class name must be non-empty");
    }
    if (IndexOf(def.name) >= 0 || !batch.insert(def.name).second) {
      return Status::AlreadyExists("class '" + def.name + "' already defined");
    }
  }
  classes_.insert(classes_.end(), std::make_move_iterator(defs.begin()),
                  std::make_move_iterator(defs.end()));
  Rebuild();
  return Status::OK();
}

namespace {
bool TypeMentionsClass(const TypeRef& type, std::string_view name) {
  if ((type.kind == TypeRef::Kind::kRef ||
       type.kind == TypeRef::Kind::kClass) &&
      type.class_name == name) {
    return true;
  }
  return type.element != nullptr && TypeMentionsClass(*type.element, name);
}
}  // namespace

Status Schema::DropClass(std::string_view name) {
  int idx = IndexOf(name);
  if (idx < 0) return Status::NotFound("class '" + std::string(name) + "'");
  for (const ClassDef& def : classes_) {
    if (def.name == name) continue;
    for (const std::string& base : def.bases) {
      if (base == name) {
        return Status::FailedPrecondition("class '" + def.name +
                                          "' derives from '" +
                                          std::string(name) + "'");
      }
    }
    for (const MemberDef& m : def.members) {
      if (TypeMentionsClass(m.type, name)) {
        return Status::FailedPrecondition(
            "class '" + def.name + "' member '" + m.name + "' references '" +
            std::string(name) + "'");
      }
    }
  }
  classes_.erase(classes_.begin() + idx);
  Rebuild();
  return Status::OK();
}

Status Schema::ReplaceClass(ClassDef def) {
  int idx = IndexOf(def.name);
  if (idx < 0) return Status::NotFound("class '" + def.name + "'");
  classes_[static_cast<size_t>(idx)] = std::move(def);
  Rebuild();
  return Status::OK();
}

bool Schema::Contains(std::string_view name) const {
  return IndexOf(name) >= 0;
}

Result<const ClassDef*> Schema::GetClass(std::string_view name) const {
  int idx = IndexOf(name);
  if (idx < 0) return Status::NotFound("class '" + std::string(name) + "'");
  return &classes_[static_cast<size_t>(idx)];
}

Result<const ClassLayout*> Schema::Layout(std::string_view name) const {
  int idx = IndexOf(name);
  if (idx < 0) return Status::NotFound("class '" + std::string(name) + "'");
  return &layouts_[static_cast<size_t>(idx)];
}

Result<std::vector<std::string>> Schema::DirectSuperclasses(
    std::string_view name) const {
  ODE_ASSIGN_OR_RETURN(const ClassDef* def, GetClass(name));
  return def->bases;
}

Result<std::vector<std::string>> Schema::DirectSubclasses(
    std::string_view name) const {
  if (!Contains(name)) {
    return Status::NotFound("class '" + std::string(name) + "'");
  }
  std::vector<std::string> subs;
  for (const ClassDef& def : classes_) {
    for (const std::string& base : def.bases) {
      if (base == name) {
        subs.push_back(def.name);
        break;
      }
    }
  }
  return subs;
}

Result<std::vector<std::string>> Schema::Descendants(
    std::string_view name) const {
  ODE_RETURN_IF_ERROR(GetClass(name).status());
  std::vector<std::string> out;
  std::unordered_set<std::string> seen{std::string(name)};
  // BFS: round 0 expands `name`, round k the k-th descendant found.
  for (size_t head = 0; head <= out.size(); ++head) {
    std::vector<std::string> subs = *DirectSubclasses(
        head == 0 ? name : std::string_view(out[head - 1]));
    for (std::string& sub : subs) {
      if (seen.insert(sub).second) out.push_back(std::move(sub));
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> Schema::InheritanceEdges()
    const {
  std::vector<std::pair<std::string, std::string>> edges;
  for (const ClassDef& def : classes_) {
    for (const std::string& base : def.bases) {
      edges.emplace_back(base, def.name);
    }
  }
  return edges;
}

namespace {
Status CheckTypeResolves(const Schema& schema, const ClassDef& def,
                         const MemberDef& member, const TypeRef& type) {
  if (type.kind == TypeRef::Kind::kRef ||
      type.kind == TypeRef::Kind::kClass) {
    if (!schema.Contains(type.class_name)) {
      return Status::InvalidArgument("class '" + def.name + "' member '" +
                                     member.name +
                                     "' references unknown class '" +
                                     type.class_name + "'");
    }
  }
  if (type.element != nullptr) {
    return CheckTypeResolves(schema, def, member, *type.element);
  }
  return Status::OK();
}

/// The class a member holds inline, by value or as the element of a
/// fixed-size array; empty for references, sets and unsized arrays,
/// which hold no instance inline.
std::string_view EmbeddedClass(const TypeRef& type) {
  if (type.kind == TypeRef::Kind::kClass) return type.class_name;
  if (type.kind == TypeRef::Kind::kArray && type.array_size > 0 &&
      type.element != nullptr) {
    return EmbeddedClass(*type.element);
  }
  return {};
}
}  // namespace

Status Schema::Validate() const {
  // Duplicate members and resolvable bases/types.
  for (const ClassDef& def : classes_) {
    std::unordered_set<std::string> names;
    for (const MemberDef& m : def.members) {
      if (!names.insert(m.name).second) {
        return Status::InvalidArgument("class '" + def.name +
                                       "' has duplicate member '" + m.name +
                                       "'");
      }
      ODE_RETURN_IF_ERROR(CheckTypeResolves(*this, def, m, m.type));
    }
    for (const std::string& base : def.bases) {
      if (!Contains(base)) {
        return Status::InvalidArgument("class '" + def.name +
                                       "' derives from unknown class '" +
                                       base + "'");
      }
      if (base == def.name) {
        return Status::InvalidArgument("class '" + def.name +
                                       "' derives from itself");
      }
    }
  }
  if (cyclic_) {
    return Status::InvalidArgument("inheritance graph contains a cycle");
  }
  // A class that holds itself inline, through its own or inherited
  // members, has no finite instance. Depth-first over the "holds
  // inline" graph with an explicit stack; a class on the current path
  // reached again closes a cycle.
  enum : uint8_t { kUnseen, kOnPath, kDone };
  std::vector<uint8_t> state(classes_.size(), kUnseen);
  std::vector<std::pair<size_t, size_t>> path;  // (class, next member)
  for (size_t root = 0; root < classes_.size(); ++root) {
    if (state[root] != kUnseen) continue;
    state[root] = kOnPath;
    path.emplace_back(root, 0);
    while (!path.empty()) {
      auto [cls, next] = path.back();
      const std::vector<MemberDef>& members = layouts_[cls].members;
      if (next == members.size()) {
        state[cls] = kDone;
        path.pop_back();
        continue;
      }
      ++path.back().second;
      int found = IndexOf(EmbeddedClass(members[next].type));
      if (found < 0) continue;
      const size_t held = static_cast<size_t>(found);
      if (state[held] == kOnPath) {
        return Status::InvalidArgument(
            "class '" + classes_[held].name +
            "' contains itself by value (member '" + classes_[cls].name +
            "." + members[next].name + "')");
      }
      if (state[held] == kDone) continue;
      state[held] = kOnPath;
      path.emplace_back(held, 0);
    }
  }
  return Status::OK();
}

namespace {

void EncodeTypeRef(const TypeRef& type, std::string* dst) {
  dst->push_back(static_cast<char>(type.kind));
  PutLengthPrefixed(dst, type.class_name);
  PutVarint32(dst, type.array_size);
  dst->push_back(type.element ? 1 : 0);
  if (type.element) EncodeTypeRef(*type.element, dst);
}

Result<TypeRef> DecodeTypeRef(Decoder* decoder) {
  std::string_view raw;
  ODE_RETURN_IF_ERROR(decoder->GetRaw(1, &raw));
  TypeRef type;
  type.kind = static_cast<TypeRef::Kind>(static_cast<uint8_t>(raw[0]));
  std::string_view name;
  ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&name));
  type.class_name = std::string(name);
  ODE_RETURN_IF_ERROR(decoder->GetVarint32(&type.array_size));
  ODE_RETURN_IF_ERROR(decoder->GetRaw(1, &raw));
  if (raw[0]) {
    ODE_ASSIGN_OR_RETURN(TypeRef element, DecodeTypeRef(decoder));
    type.element = std::make_shared<TypeRef>(std::move(element));
  }
  return type;
}

void EncodeStringList(const std::vector<std::string>& list,
                      std::string* dst) {
  PutVarint64(dst, list.size());
  for (const std::string& s : list) PutLengthPrefixed(dst, s);
}

Result<std::vector<std::string>> DecodeStringList(Decoder* decoder) {
  uint64_t n = 0;
  ODE_RETURN_IF_ERROR(decoder->GetVarint64(&n));
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view s;
    ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
    out.emplace_back(s);
  }
  return out;
}

void EncodeClassDef(const ClassDef& def, std::string* dst) {
  PutLengthPrefixed(dst, def.name);
  dst->push_back(def.persistent ? 1 : 0);
  dst->push_back(def.versioned ? 1 : 0);
  EncodeStringList(def.bases, dst);
  PutVarint64(dst, def.members.size());
  for (const MemberDef& m : def.members) {
    PutLengthPrefixed(dst, m.name);
    EncodeTypeRef(m.type, dst);
    dst->push_back(static_cast<char>(m.access));
  }
  PutVarint64(dst, def.methods.size());
  for (const MethodDef& m : def.methods) {
    PutLengthPrefixed(dst, m.name);
    PutLengthPrefixed(dst, m.return_type);
    PutLengthPrefixed(dst, m.params);
    dst->push_back(static_cast<char>(m.access));
  }
  EncodeStringList(def.display_formats, dst);
  EncodeStringList(def.displaylist, dst);
  EncodeStringList(def.selectlist, dst);
  PutVarint64(dst, def.constraints.size());
  for (const ConstraintDef& c : def.constraints) {
    PutLengthPrefixed(dst, c.predicate_text);
  }
  PutVarint64(dst, def.triggers.size());
  for (const TriggerDef& t : def.triggers) {
    PutLengthPrefixed(dst, t.name);
    dst->push_back(static_cast<char>(t.event));
    PutLengthPrefixed(dst, t.condition_text);
    PutLengthPrefixed(dst, t.action);
  }
  PutLengthPrefixed(dst, def.source);
}

Result<ClassDef> DecodeClassDef(Decoder* decoder) {
  ClassDef def;
  std::string_view s;
  std::string_view raw;
  ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
  def.name = std::string(s);
  ODE_RETURN_IF_ERROR(decoder->GetRaw(1, &raw));
  def.persistent = raw[0] != 0;
  ODE_RETURN_IF_ERROR(decoder->GetRaw(1, &raw));
  def.versioned = raw[0] != 0;
  ODE_ASSIGN_OR_RETURN(def.bases, DecodeStringList(decoder));
  uint64_t n = 0;
  ODE_RETURN_IF_ERROR(decoder->GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    MemberDef m;
    ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
    m.name = std::string(s);
    ODE_ASSIGN_OR_RETURN(m.type, DecodeTypeRef(decoder));
    ODE_RETURN_IF_ERROR(decoder->GetRaw(1, &raw));
    m.access = static_cast<Access>(static_cast<uint8_t>(raw[0]));
    def.members.push_back(std::move(m));
  }
  ODE_RETURN_IF_ERROR(decoder->GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    MethodDef m;
    ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
    m.name = std::string(s);
    ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
    m.return_type = std::string(s);
    ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
    m.params = std::string(s);
    ODE_RETURN_IF_ERROR(decoder->GetRaw(1, &raw));
    m.access = static_cast<Access>(static_cast<uint8_t>(raw[0]));
    def.methods.push_back(std::move(m));
  }
  ODE_ASSIGN_OR_RETURN(def.display_formats, DecodeStringList(decoder));
  ODE_ASSIGN_OR_RETURN(def.displaylist, DecodeStringList(decoder));
  ODE_ASSIGN_OR_RETURN(def.selectlist, DecodeStringList(decoder));
  ODE_RETURN_IF_ERROR(decoder->GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
    def.constraints.push_back({std::string(s)});
  }
  ODE_RETURN_IF_ERROR(decoder->GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    TriggerDef t;
    ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
    t.name = std::string(s);
    ODE_RETURN_IF_ERROR(decoder->GetRaw(1, &raw));
    t.event = static_cast<TriggerEvent>(static_cast<uint8_t>(raw[0]));
    ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
    t.condition_text = std::string(s);
    ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
    t.action = std::string(s);
    def.triggers.push_back(std::move(t));
  }
  ODE_RETURN_IF_ERROR(decoder->GetLengthPrefixed(&s));
  def.source = std::string(s);
  return def;
}

}  // namespace

void Schema::Encode(std::string* dst) const {
  PutVarint64(dst, classes_.size());
  for (const ClassDef& def : classes_) EncodeClassDef(def, dst);
}

Result<Schema> Schema::Decode(Decoder* decoder) {
  uint64_t n = 0;
  ODE_RETURN_IF_ERROR(decoder->GetVarint64(&n));
  std::vector<ClassDef> defs;
  for (uint64_t i = 0; i < n; ++i) {
    ODE_ASSIGN_OR_RETURN(ClassDef def, DecodeClassDef(decoder));
    defs.push_back(std::move(def));
  }
  Schema schema;
  ODE_RETURN_IF_ERROR(schema.AddClasses(std::move(defs)));
  return schema;
}

Result<Schema> Schema::Decode(std::string_view bytes) {
  Decoder decoder(bytes);
  ODE_ASSIGN_OR_RETURN(Schema schema, Decode(&decoder));
  if (!decoder.empty()) {
    return Status::Corruption("trailing bytes after schema");
  }
  return schema;
}

}  // namespace ode::odb
