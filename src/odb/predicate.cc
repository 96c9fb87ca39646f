#include "odb/predicate.h"

#include <cstdlib>

#include "odb/lexer.h"

namespace ode::odb {

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kContains:
      return "contains";
  }
  return "?";
}

Predicate Predicate::True() { return Predicate(); }

Predicate Predicate::Compare(Operand lhs, CompareOp op, Operand rhs) {
  Predicate p;
  p.kind_ = Kind::kCompare;
  p.lhs_ = std::move(lhs);
  p.op_ = op;
  p.rhs_ = std::move(rhs);
  return p;
}

Predicate Predicate::And(Predicate lhs, Predicate rhs) {
  Predicate p;
  p.kind_ = Kind::kAnd;
  p.children_.push_back(std::move(lhs));
  p.children_.push_back(std::move(rhs));
  return p;
}

Predicate Predicate::Or(Predicate lhs, Predicate rhs) {
  Predicate p;
  p.kind_ = Kind::kOr;
  p.children_.push_back(std::move(lhs));
  p.children_.push_back(std::move(rhs));
  return p;
}

Predicate Predicate::Not(Predicate operand) {
  Predicate p;
  p.kind_ = Kind::kNot;
  p.children_.push_back(std::move(operand));
  return p;
}

namespace {

/// Resolves an operand against the object. Returns nullptr (not an
/// error) when an attribute path is absent.
const Value* ResolveOperand(const Operand& operand, const Value& object,
                            const Value** storage) {
  if (operand.kind == Operand::Kind::kLiteral) {
    *storage = &operand.literal;
    return *storage;
  }
  return object.FindPath(operand.path);
}

}  // namespace

Result<int> OrderValues(const Value& a, const Value& b) {
  // Numeric comparison when both sides are numeric.
  if ((a.kind() == ValueKind::kInt || a.kind() == ValueKind::kReal ||
       a.kind() == ValueKind::kBool) &&
      (b.kind() == ValueKind::kInt || b.kind() == ValueKind::kReal ||
       b.kind() == ValueKind::kBool)) {
    ODE_ASSIGN_OR_RETURN(double da, a.ToNumber());
    ODE_ASSIGN_OR_RETURN(double db, b.ToNumber());
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  if (a.kind() == ValueKind::kString && b.kind() == ValueKind::kString) {
    return a.AsString().compare(b.AsString()) < 0
               ? -1
               : (a.AsString() == b.AsString() ? 0 : 1);
  }
  return Status::InvalidArgument(
      std::string("cannot order values of kind ") +
      std::string(ValueKindName(a.kind())) + " and " +
      std::string(ValueKindName(b.kind())));
}

Result<bool> EvaluateCompareOp(const Value* lhs, CompareOp op,
                               const Value* rhs) {
  if (lhs == nullptr || rhs == nullptr) {
    return false;  // missing attribute: QBE semantics
  }
  switch (op) {
    case CompareOp::kEq:
      // Equality works across all kinds, numerically when numeric.
      if (lhs->kind() != rhs->kind()) {
        Result<int> cmp = OrderValues(*lhs, *rhs);
        if (cmp.ok()) return *cmp == 0;
        return false;
      }
      return *lhs == *rhs;
    case CompareOp::kNe: {
      if (lhs->kind() != rhs->kind()) {
        Result<int> cmp = OrderValues(*lhs, *rhs);
        if (cmp.ok()) return *cmp != 0;
        return true;
      }
      return !(*lhs == *rhs);
    }
    case CompareOp::kLt: {
      ODE_ASSIGN_OR_RETURN(int cmp, OrderValues(*lhs, *rhs));
      return cmp < 0;
    }
    case CompareOp::kLe: {
      ODE_ASSIGN_OR_RETURN(int cmp, OrderValues(*lhs, *rhs));
      return cmp <= 0;
    }
    case CompareOp::kGt: {
      ODE_ASSIGN_OR_RETURN(int cmp, OrderValues(*lhs, *rhs));
      return cmp > 0;
    }
    case CompareOp::kGe: {
      ODE_ASSIGN_OR_RETURN(int cmp, OrderValues(*lhs, *rhs));
      return cmp >= 0;
    }
    case CompareOp::kContains: {
      if (lhs->kind() == ValueKind::kString &&
          rhs->kind() == ValueKind::kString) {
        return lhs->AsString().find(rhs->AsString()) != std::string::npos;
      }
      if (lhs->kind() == ValueKind::kSet ||
          lhs->kind() == ValueKind::kArray) {
        for (const Value& e : lhs->elements()) {
          if (e == *rhs) return true;
        }
        return false;
      }
      return Status::InvalidArgument(
          "contains requires a string, set, or array on the left");
    }
  }
  return Status::Internal("unhandled compare op");
}

Result<bool> Predicate::Evaluate(const Value& object) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kNot: {
      ODE_ASSIGN_OR_RETURN(bool inner, children_[0].Evaluate(object));
      return !inner;
    }
    case Kind::kAnd: {
      ODE_ASSIGN_OR_RETURN(bool l, children_[0].Evaluate(object));
      if (!l) return false;
      return children_[1].Evaluate(object);
    }
    case Kind::kOr: {
      ODE_ASSIGN_OR_RETURN(bool l, children_[0].Evaluate(object));
      if (l) return true;
      return children_[1].Evaluate(object);
    }
    case Kind::kCompare:
      break;
  }
  const Value* lhs_storage = nullptr;
  const Value* rhs_storage = nullptr;
  const Value* lhs = ResolveOperand(lhs_, object, &lhs_storage);
  const Value* rhs = ResolveOperand(rhs_, object, &rhs_storage);
  return EvaluateCompareOp(lhs, op_, rhs);
}

namespace {
void CollectPaths(const Operand& operand, std::vector<std::string>* out) {
  if (operand.kind == Operand::Kind::kAttribute) {
    out->push_back(operand.path);
  }
}
}  // namespace

std::vector<std::string> Predicate::AttributePaths() const {
  std::vector<std::string> out;
  switch (kind_) {
    case Kind::kTrue:
      break;
    case Kind::kCompare:
      CollectPaths(lhs_, &out);
      CollectPaths(rhs_, &out);
      break;
    default:
      for (const Predicate& child : children_) {
        for (std::string& p : child.AttributePaths()) {
          out.push_back(std::move(p));
        }
      }
  }
  return out;
}

namespace {
std::string OperandToString(const Operand& operand) {
  return operand.kind == Operand::Kind::kAttribute
             ? operand.path
             : operand.literal.ToString();
}
}  // namespace

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kCompare:
      return OperandToString(lhs_) + " " + std::string(CompareOpName(op_)) +
             " " + OperandToString(rhs_);
    case Kind::kAnd:
    case Kind::kOr: {
      // Appended piece by piece: GCC 12 mistakes `"(" + std::string&&`
      // at -O3 for an overlapping copy (-Wrestrict).
      std::string out = "(";
      out += children_[0].ToString();
      out += kind_ == Kind::kAnd ? ") && (" : ") || (";
      out += children_[1].ToString();
      out += ')';
      return out;
    }
    case Kind::kNot:
      return "!(" + children_[0].ToString() + ")";
  }
  return "?";
}

namespace {

/// Recursive-descent parser for the condition-box language.
class PredicateParser {
 public:
  explicit PredicateParser(std::vector<Token> tokens)
      : cursor_(std::move(tokens)) {}

  Result<Predicate> Parse() {
    if (cursor_.AtEnd()) return Predicate::True();
    ODE_ASSIGN_OR_RETURN(Predicate p, ParseOr());
    if (!cursor_.AtEnd()) {
      return cursor_.ErrorHere("unexpected trailing input");
    }
    return p;
  }

 private:
  Result<Predicate> ParseOr() {
    ODE_ASSIGN_OR_RETURN(Predicate lhs, ParseAnd());
    while (cursor_.TryConsumePunct("||")) {
      ODE_ASSIGN_OR_RETURN(Predicate rhs, ParseAnd());
      lhs = Predicate::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Predicate> ParseAnd() {
    ODE_ASSIGN_OR_RETURN(Predicate lhs, ParseUnary());
    while (cursor_.TryConsumePunct("&&")) {
      ODE_ASSIGN_OR_RETURN(Predicate rhs, ParseUnary());
      lhs = Predicate::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Predicate> ParseUnary() {
    // `!` and `(` recurse per level; a condition box pasted from an
    // untrusted source can nest arbitrarily, so bound the stack.
    if (++depth_ > kMaxDepth) {
      --depth_;
      return cursor_.ErrorHere("predicate nesting exceeds limit (" +
                               std::to_string(kMaxDepth) + ")");
    }
    Result<Predicate> p = ParseUnaryInner();
    --depth_;
    return p;
  }

  Result<Predicate> ParseUnaryInner() {
    if (cursor_.TryConsumePunct("!")) {
      ODE_ASSIGN_OR_RETURN(Predicate inner, ParseUnary());
      return Predicate::Not(std::move(inner));
    }
    if (cursor_.TryConsumePunct("(")) {
      ODE_ASSIGN_OR_RETURN(Predicate inner, ParseOr());
      ODE_RETURN_IF_ERROR(cursor_.ExpectPunct(")"));
      return inner;
    }
    return ParseCompare();
  }

  Result<Predicate> ParseCompare() {
    ODE_ASSIGN_OR_RETURN(Operand lhs, ParseOperand());
    ODE_ASSIGN_OR_RETURN(CompareOp op, ParseOp());
    ODE_ASSIGN_OR_RETURN(Operand rhs, ParseOperand());
    return Predicate::Compare(std::move(lhs), op, std::move(rhs));
  }

  Result<CompareOp> ParseOp() {
    const Token& tok = cursor_.Peek();
    if (tok.IsIdent("contains")) {
      cursor_.Next();
      return CompareOp::kContains;
    }
    if (!tok.Is(TokenKind::kPunct)) {
      return cursor_.ErrorHere("expected a comparison operator");
    }
    CompareOp op;
    if (tok.text == "==" || tok.text == "=") {
      op = CompareOp::kEq;
    } else if (tok.text == "!=") {
      op = CompareOp::kNe;
    } else if (tok.text == "<") {
      op = CompareOp::kLt;
    } else if (tok.text == "<=") {
      op = CompareOp::kLe;
    } else if (tok.text == ">") {
      op = CompareOp::kGt;
    } else if (tok.text == ">=") {
      op = CompareOp::kGe;
    } else {
      return cursor_.ErrorHere("expected a comparison operator");
    }
    cursor_.Next();
    return op;
  }

  Result<Operand> ParseOperand() {
    const Token& tok = cursor_.Peek();
    switch (tok.kind) {
      case TokenKind::kInt: {
        int64_t v = std::strtoll(cursor_.Next().text.c_str(), nullptr, 10);
        bool negative = false;
        (void)negative;
        return Operand::Literal(Value::Int(v));
      }
      case TokenKind::kReal: {
        double v = std::strtod(cursor_.Next().text.c_str(), nullptr);
        return Operand::Literal(Value::Real(v));
      }
      case TokenKind::kString:
        return Operand::Literal(Value::String(cursor_.Next().text));
      case TokenKind::kPunct:
        if (tok.text == "-") {
          cursor_.Next();
          const Token& num = cursor_.Peek();
          if (num.Is(TokenKind::kInt)) {
            int64_t v =
                std::strtoll(cursor_.Next().text.c_str(), nullptr, 10);
            return Operand::Literal(Value::Int(-v));
          }
          if (num.Is(TokenKind::kReal)) {
            double v = std::strtod(cursor_.Next().text.c_str(), nullptr);
            return Operand::Literal(Value::Real(-v));
          }
          return cursor_.ErrorHere("expected a number after '-'");
        }
        return cursor_.ErrorHere("expected an operand");
      case TokenKind::kIdent: {
        if (tok.text == "true") {
          cursor_.Next();
          return Operand::Literal(Value::Bool(true));
        }
        if (tok.text == "false") {
          cursor_.Next();
          return Operand::Literal(Value::Bool(false));
        }
        if (tok.text == "null") {
          cursor_.Next();
          return Operand::Literal(Value::Null());
        }
        std::string path = cursor_.Next().text;
        while (cursor_.TryConsumePunct(".")) {
          ODE_ASSIGN_OR_RETURN(std::string part, cursor_.ExpectAnyIdent());
          path += ".";
          path += part;
        }
        return Operand::Attribute(std::move(path));
      }
      case TokenKind::kEnd:
        return cursor_.ErrorHere("expected an operand");
    }
    return cursor_.ErrorHere("expected an operand");
  }

  static constexpr int kMaxDepth = 128;

  TokenCursor cursor_;
  int depth_ = 0;
};

}  // namespace

Result<Predicate> ParsePredicate(std::string_view text) {
  Lexer lexer(text);
  ODE_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  PredicateParser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace ode::odb
