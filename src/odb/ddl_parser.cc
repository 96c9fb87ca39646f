#include "odb/ddl_parser.h"

#include <cstdlib>

#include "common/strings.h"
#include "odb/lexer.h"

namespace ode::odb {

namespace {

/// Recursive-descent parser over the token stream. Keeps the raw input
/// around to slice verbatim source (class bodies, constraint text).
class DdlParser {
 public:
  DdlParser(std::string_view input, std::vector<Token> tokens)
      : input_(input), cursor_(std::move(tokens)) {}

  Result<Schema> ParseAll() {
    std::vector<ClassDef> defs;
    while (!cursor_.AtEnd()) {
      ODE_ASSIGN_OR_RETURN(ClassDef def, ParseClass());
      defs.push_back(std::move(def));
    }
    Schema schema;
    ODE_RETURN_IF_ERROR(schema.AddClasses(std::move(defs)));
    return schema;
  }

  Result<ClassDef> ParseClass() {
    ClassDef def;
    size_t start_offset = cursor_.Peek().offset;
    // Modifiers, in any order. Classes are persistent unless marked
    // `transient` (every class in an Ode database gets a cluster).
    bool explicit_persistent = false;
    bool transient = false;
    for (;;) {
      if (cursor_.TryConsumeIdent("persistent")) {
        explicit_persistent = true;
      } else if (cursor_.TryConsumeIdent("versioned")) {
        def.versioned = true;
      } else if (cursor_.TryConsumeIdent("transient")) {
        transient = true;
      } else {
        break;
      }
    }
    if (transient && explicit_persistent) {
      return cursor_.ErrorHere("class cannot be persistent and transient");
    }
    def.persistent = !transient;
    ODE_RETURN_IF_ERROR(cursor_.ExpectIdent("class"));
    ODE_ASSIGN_OR_RETURN(def.name, cursor_.ExpectAnyIdent());
    if (cursor_.TryConsumePunct(":")) {
      do {
        // Base access specifiers are accepted and ignored (inheritance
        // in our catalog is always public, as the paper's examples are).
        cursor_.TryConsumeIdent("public") ||
            cursor_.TryConsumeIdent("private") ||
            cursor_.TryConsumeIdent("protected") ||
            cursor_.TryConsumeIdent("virtual");
        ODE_ASSIGN_OR_RETURN(std::string base, cursor_.ExpectAnyIdent());
        def.bases.push_back(std::move(base));
      } while (cursor_.TryConsumePunct(","));
    }
    ODE_RETURN_IF_ERROR(cursor_.ExpectPunct("{"));
    Access access = Access::kPrivate;  // C++ class default
    while (!cursor_.TryConsumePunct("}")) {
      if (cursor_.AtEnd()) {
        return cursor_.ErrorHere("unterminated class body for '" +
                                 def.name + "'");
      }
      ODE_RETURN_IF_ERROR(ParseClassItem(&def, &access));
    }
    const Token& closing = cursor_.Peek();  // the ';' after '}'
    ODE_RETURN_IF_ERROR(cursor_.ExpectPunct(";"));
    size_t end_offset = closing.offset + closing.length;
    def.source = std::string(StripWhitespace(
        input_.substr(start_offset, end_offset - start_offset)));
    return def;
  }

  bool AtEnd() const { return cursor_.AtEnd(); }

 private:
  Status ParseClassItem(ClassDef* def, Access* access) {
    const Token& tok = cursor_.Peek();
    // Access sections.
    if (tok.IsIdent("public") || tok.IsIdent("private") ||
        tok.IsIdent("protected")) {
      // Disambiguate "public:" from a member type named "public" (none
      // exist, but keep parsing strict).
      std::string word = cursor_.Next().text;
      ODE_RETURN_IF_ERROR(cursor_.ExpectPunct(":"));
      *access = word == "public"
                    ? Access::kPublic
                    : (word == "protected" ? Access::kProtected
                                           : Access::kPrivate);
      return Status::OK();
    }
    if (tok.IsIdent("display")) {
      cursor_.Next();
      return ParseIdentList(&def->display_formats);
    }
    if (tok.IsIdent("displaylist")) {
      cursor_.Next();
      return ParseIdentList(&def->displaylist);
    }
    if (tok.IsIdent("selectlist")) {
      cursor_.Next();
      return ParseIdentList(&def->selectlist);
    }
    if (tok.IsIdent("constraint")) {
      cursor_.Next();
      ODE_ASSIGN_OR_RETURN(std::string text, CaptureUntilSemicolon());
      def->constraints.push_back({std::move(text)});
      return Status::OK();
    }
    if (tok.IsIdent("trigger")) {
      cursor_.Next();
      return ParseTrigger(def);
    }
    return ParseMemberOrMethod(def, *access);
  }

  Status ParseIdentList(std::vector<std::string>* out) {
    do {
      ODE_ASSIGN_OR_RETURN(std::string id, cursor_.ExpectAnyIdent());
      out->push_back(std::move(id));
    } while (cursor_.TryConsumePunct(","));
    return FinishStatement();
  }

  /// trigger NAME ":" EVENT ["when" <raw>] "do" ACTION ";"
  Status ParseTrigger(ClassDef* def) {
    TriggerDef trig;
    ODE_ASSIGN_OR_RETURN(trig.name, cursor_.ExpectAnyIdent());
    ODE_RETURN_IF_ERROR(cursor_.ExpectPunct(":"));
    ODE_ASSIGN_OR_RETURN(std::string event, cursor_.ExpectAnyIdent());
    if (event == "on_create") {
      trig.event = TriggerEvent::kCreate;
    } else if (event == "on_update") {
      trig.event = TriggerEvent::kUpdate;
    } else if (event == "on_delete") {
      trig.event = TriggerEvent::kDelete;
    } else {
      return cursor_.ErrorHere("unknown trigger event '" + event + "'");
    }
    if (cursor_.TryConsumeIdent("when")) {
      size_t start = cursor_.Peek().offset;
      while (!cursor_.AtEnd() && !cursor_.Peek().IsIdent("do")) {
        cursor_.Next();
      }
      if (cursor_.AtEnd()) {
        return cursor_.ErrorHere("trigger missing 'do'");
      }
      trig.condition_text = std::string(StripWhitespace(
          input_.substr(start, cursor_.Peek().offset - start)));
    }
    ODE_RETURN_IF_ERROR(cursor_.ExpectIdent("do"));
    ODE_ASSIGN_OR_RETURN(trig.action, cursor_.ExpectAnyIdent());
    def->triggers.push_back(std::move(trig));
    return FinishStatement();
  }

  Result<std::string> CaptureUntilSemicolon() {
    size_t start = cursor_.Peek().offset;
    while (!cursor_.AtEnd() && !cursor_.Peek().IsPunct(";")) {
      cursor_.Next();
    }
    if (cursor_.AtEnd()) {
      return cursor_.ErrorHere("expected ';'");
    }
    std::string text(StripWhitespace(
        input_.substr(start, cursor_.Peek().offset - start)));
    ODE_RETURN_IF_ERROR(FinishStatement());
    return text;
  }

  /// TYPE NAME ("[" N "]")? ";"           -- data member
  /// TYPE NAME "(" ... ")" ["const"] ";"  -- method (metadata)
  Status ParseMemberOrMethod(ClassDef* def, Access access) {
    cursor_.TryConsumeIdent("const");  // accepted, not recorded
    ODE_ASSIGN_OR_RETURN(TypeRef type, ParseType());
    ODE_ASSIGN_OR_RETURN(std::string name, cursor_.ExpectAnyIdent());
    if (cursor_.TryConsumePunct("(")) {
      MethodDef method;
      method.name = std::move(name);
      method.return_type = type.ToString();
      method.access = access;
      size_t start = cursor_.Peek().offset;
      int depth = 1;
      while (!cursor_.AtEnd() && depth > 0) {
        if (cursor_.Peek().IsPunct("(")) ++depth;
        if (cursor_.Peek().IsPunct(")")) {
          --depth;
          if (depth == 0) break;
        }
        cursor_.Next();
      }
      if (cursor_.AtEnd()) return cursor_.ErrorHere("expected ')'");
      method.params = std::string(StripWhitespace(
          input_.substr(start, cursor_.Peek().offset - start)));
      cursor_.Next();  // ')'
      cursor_.TryConsumeIdent("const");
      def->methods.push_back(std::move(method));
      return FinishStatement();
    }
    MemberDef member;
    member.name = std::move(name);
    member.access = access;
    if (cursor_.TryConsumePunct("[")) {
      uint32_t size = 0;
      if (cursor_.Peek().Is(TokenKind::kInt)) {
        size = static_cast<uint32_t>(
            std::strtoul(cursor_.Next().text.c_str(), nullptr, 10));
      }
      ODE_RETURN_IF_ERROR(cursor_.ExpectPunct("]"));
      member.type = TypeRef::Array(std::move(type), size);
    } else {
      member.type = std::move(type);
    }
    def->members.push_back(std::move(member));
    return FinishStatement();
  }

  Result<TypeRef> ParseType() {
    // `set<` / `array<` recurse per nesting level; untrusted DDL can
    // nest arbitrarily deep, so bound it before the stack does.
    if (++type_depth_ > kMaxTypeDepth) {
      --type_depth_;
      return cursor_.ErrorHere("type nesting exceeds limit (" +
                               std::to_string(kMaxTypeDepth) + ")");
    }
    Result<TypeRef> type = ParseTypeInner();
    --type_depth_;
    return type;
  }

  Result<TypeRef> ParseTypeInner() {
    const Token& tok = cursor_.Peek();
    if (!tok.Is(TokenKind::kIdent)) {
      return cursor_.ErrorHere("expected a type name");
    }
    TypeRef base;
    std::string word = cursor_.Next().text;
    if (word == "int" || word == "long" || word == "short") {
      base = TypeRef::Int();
    } else if (word == "real" || word == "double" || word == "float") {
      base = TypeRef::Real();
    } else if (word == "bool") {
      base = TypeRef::Bool();
    } else if (word == "string" || word == "char") {
      // "char*" in O++ examples means a C string; normalize to string.
      if (word == "char" && cursor_.TryConsumePunct("*")) {
        return TypeRef::String();
      }
      base = TypeRef::String();
    } else if (word == "blob" || word == "bitmap") {
      base = TypeRef::Blob();
    } else if (word == "void") {
      base = TypeRef::Void();
    } else if (word == "set") {
      ODE_RETURN_IF_ERROR(cursor_.ExpectPunct("<"));
      ODE_ASSIGN_OR_RETURN(TypeRef element, ParseType());
      ODE_RETURN_IF_ERROR(cursor_.ExpectPunct(">"));
      base = TypeRef::Set(std::move(element));
    } else if (word == "array") {
      ODE_RETURN_IF_ERROR(cursor_.ExpectPunct("<"));
      ODE_ASSIGN_OR_RETURN(TypeRef element, ParseType());
      ODE_RETURN_IF_ERROR(cursor_.ExpectPunct(","));
      if (!cursor_.Peek().Is(TokenKind::kInt)) {
        return cursor_.ErrorHere("expected array size");
      }
      auto size = static_cast<uint32_t>(
          std::strtoul(cursor_.Next().text.c_str(), nullptr, 10));
      ODE_RETURN_IF_ERROR(cursor_.ExpectPunct(">"));
      base = TypeRef::Array(std::move(element), size);
    } else {
      base = TypeRef::Class(std::move(word));
    }
    // Pointer suffixes: one '*' on a class type makes a reference.
    while (cursor_.TryConsumePunct("*")) {
      if (base.kind == TypeRef::Kind::kClass) {
        base = TypeRef::Ref(std::move(base.class_name));
      } else if (base.kind == TypeRef::Kind::kRef) {
        return cursor_.ErrorHere(
            "multiple indirection is not supported in the O++ subset");
      } else {
        return cursor_.ErrorHere("pointer to non-class type");
      }
    }
    return base;
  }

  Status FinishStatement() { return cursor_.ExpectPunct(";"); }

  static constexpr int kMaxTypeDepth = 32;

  std::string_view input_;
  TokenCursor cursor_;
  int type_depth_ = 0;
};

}  // namespace

Result<Schema> ParseSchema(std::string_view source) {
  Lexer lexer(source);
  ODE_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  DdlParser parser(source, std::move(tokens));
  return parser.ParseAll();
}

Result<ClassDef> ParseClassDef(std::string_view source) {
  Lexer lexer(source);
  ODE_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  DdlParser parser(source, std::move(tokens));
  ODE_ASSIGN_OR_RETURN(ClassDef def, parser.ParseClass());
  if (!parser.AtEnd()) {
    return Status::InvalidArgument("trailing input after class definition");
  }
  return def;
}

}  // namespace ode::odb
