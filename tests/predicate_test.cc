#include <gtest/gtest.h>

#include "odb/predicate.h"

namespace ode::odb {
namespace {

Value Employee(std::string name, int64_t age, double salary) {
  return Value::Struct({
      {"name", Value::String(std::move(name))},
      {"age", Value::Int(age)},
      {"salary", Value::Real(salary)},
      {"active", Value::Bool(true)},
      {"dept", Value::Struct({{"name", Value::String("research")}})},
      {"tags", Value::Set({Value::String("db"), Value::String("ui")})},
  });
}

// --- Programmatic construction & evaluation ------------------------------

TEST(PredicateTest, TrueMatchesEverything) {
  EXPECT_TRUE(*Predicate::True().Evaluate(Employee("a", 1, 2)));
  EXPECT_TRUE(*Predicate::True().Evaluate(Value::Null()));
}

TEST(PredicateTest, NumericComparisons) {
  Value obj = Employee("amy", 40, 90000);
  auto cmp = [&](CompareOp op, int64_t rhs) {
    return *Predicate::Compare(Operand::Attribute("age"), op,
                               Operand::Literal(Value::Int(rhs)))
                .Evaluate(obj);
  };
  EXPECT_TRUE(cmp(CompareOp::kEq, 40));
  EXPECT_FALSE(cmp(CompareOp::kEq, 41));
  EXPECT_TRUE(cmp(CompareOp::kNe, 41));
  EXPECT_TRUE(cmp(CompareOp::kLt, 41));
  EXPECT_TRUE(cmp(CompareOp::kLe, 40));
  EXPECT_FALSE(cmp(CompareOp::kLt, 40));
  EXPECT_TRUE(cmp(CompareOp::kGt, 39));
  EXPECT_TRUE(cmp(CompareOp::kGe, 40));
}

TEST(PredicateTest, IntRealCrossComparison) {
  Value obj = Employee("amy", 40, 90000.5);
  Predicate p = Predicate::Compare(Operand::Attribute("salary"),
                                   CompareOp::kGt,
                                   Operand::Literal(Value::Int(90000)));
  EXPECT_TRUE(*p.Evaluate(obj));
}

TEST(PredicateTest, StringComparisons) {
  Value obj = Employee("rakesh", 35, 1);
  EXPECT_TRUE(*Predicate::Compare(Operand::Attribute("name"),
                                  CompareOp::kEq,
                                  Operand::Literal(Value::String("rakesh")))
                   .Evaluate(obj));
  EXPECT_TRUE(*Predicate::Compare(Operand::Attribute("name"),
                                  CompareOp::kLt,
                                  Operand::Literal(Value::String("zzz")))
                   .Evaluate(obj));
  EXPECT_TRUE(*Predicate::Compare(Operand::Attribute("name"),
                                  CompareOp::kContains,
                                  Operand::Literal(Value::String("kes")))
                   .Evaluate(obj));
}

TEST(PredicateTest, SetContains) {
  Value obj = Employee("a", 1, 2);
  EXPECT_TRUE(*Predicate::Compare(Operand::Attribute("tags"),
                                  CompareOp::kContains,
                                  Operand::Literal(Value::String("db")))
                   .Evaluate(obj));
  EXPECT_FALSE(*Predicate::Compare(Operand::Attribute("tags"),
                                   CompareOp::kContains,
                                   Operand::Literal(Value::String("net")))
                    .Evaluate(obj));
}

TEST(PredicateTest, DottedPathsReachNestedAttributes) {
  Value obj = Employee("a", 1, 2);
  EXPECT_TRUE(*Predicate::Compare(
                   Operand::Attribute("dept.name"), CompareOp::kEq,
                   Operand::Literal(Value::String("research")))
                   .Evaluate(obj));
}

TEST(PredicateTest, MissingAttributeIsFalseNotError) {
  Value obj = Employee("a", 1, 2);
  Result<bool> result =
      Predicate::Compare(Operand::Attribute("ghost"), CompareOp::kEq,
                         Operand::Literal(Value::Int(1)))
          .Evaluate(obj);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(*result);
}

TEST(PredicateTest, TypeMismatchOrderingIsError) {
  Value obj = Employee("a", 1, 2);
  Result<bool> result =
      Predicate::Compare(Operand::Attribute("name"), CompareOp::kLt,
                         Operand::Literal(Value::Int(3)))
          .Evaluate(obj);
  EXPECT_FALSE(result.ok());
}

TEST(PredicateTest, EqualityAcrossKindsIsFalseNotError) {
  Value obj = Employee("a", 1, 2);
  Result<bool> eq =
      Predicate::Compare(Operand::Attribute("name"), CompareOp::kEq,
                         Operand::Literal(Value::Int(3)))
          .Evaluate(obj);
  ASSERT_TRUE(eq.ok());
  EXPECT_FALSE(*eq);
  Result<bool> ne =
      Predicate::Compare(Operand::Attribute("name"), CompareOp::kNe,
                         Operand::Literal(Value::Int(3)))
          .Evaluate(obj);
  ASSERT_TRUE(ne.ok());
  EXPECT_TRUE(*ne);
}

TEST(PredicateTest, BooleanConnectives) {
  Value obj = Employee("amy", 40, 90000);
  Predicate young = Predicate::Compare(Operand::Attribute("age"),
                                       CompareOp::kLt,
                                       Operand::Literal(Value::Int(30)));
  Predicate rich = Predicate::Compare(
      Operand::Attribute("salary"), CompareOp::kGt,
      Operand::Literal(Value::Real(50000)));
  EXPECT_FALSE(*Predicate::And(young, rich).Evaluate(obj));
  EXPECT_TRUE(*Predicate::Or(young, rich).Evaluate(obj));
  EXPECT_TRUE(*Predicate::Not(young).Evaluate(obj));
  EXPECT_FALSE(*Predicate::Not(Predicate::Or(young, rich)).Evaluate(obj));
}

TEST(PredicateTest, ShortCircuitSkipsErrors) {
  Value obj = Employee("a", 10, 2);
  // RHS would error (string < int), but LHS decides first.
  Predicate lhs_false = Predicate::Compare(
      Operand::Attribute("age"), CompareOp::kGt,
      Operand::Literal(Value::Int(100)));
  Predicate bad = Predicate::Compare(Operand::Attribute("name"),
                                     CompareOp::kLt,
                                     Operand::Literal(Value::Int(1)));
  EXPECT_FALSE(*Predicate::And(lhs_false, bad).Evaluate(obj));
  Predicate lhs_true = Predicate::Compare(
      Operand::Attribute("age"), CompareOp::kLt,
      Operand::Literal(Value::Int(100)));
  EXPECT_TRUE(*Predicate::Or(lhs_true, bad).Evaluate(obj));
}

TEST(PredicateTest, AttributePathsCollected) {
  Result<Predicate> p =
      ParsePredicate("age > 30 && (dept.name == \"x\" || salary < 5)");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->AttributePaths(),
            (std::vector<std::string>{"age", "dept.name", "salary"}));
}

// --- Parser -----------------------------------------------------------------

struct ParseCase {
  const char* text;
  bool expected;  // against Employee("rakesh", 35, 90000.5)
};

// Names each case after its predicate so the discovered test name is the same
// on every build; gtest's default byte dump would print the text pointer.
void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << (c.expected ? "true: " : "false: ")
      << (*c.text == '\0' ? "(empty)" : c.text);
}

class PredicateParseEval : public ::testing::TestWithParam<ParseCase> {};

TEST_P(PredicateParseEval, EvaluatesAsExpected) {
  Value obj = Employee("rakesh", 35, 90000.5);
  Result<Predicate> p = ParsePredicate(GetParam().text);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  Result<bool> result = p->Evaluate(obj);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, GetParam().expected) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PredicateParseEval,
    ::testing::Values(
        ParseCase{"age == 35", true},
        ParseCase{"age = 35", true},  // QBE-friendly single '='
        ParseCase{"age != 35", false},
        ParseCase{"age >= 35 && age <= 35", true},
        ParseCase{"age < 35 || age > 34", true},
        ParseCase{"!(age < 35) && !(age > 35)", true},
        ParseCase{"name == \"rakesh\"", true},
        ParseCase{"name contains \"ake\"", true},
        ParseCase{"name contains \"xyz\"", false},
        ParseCase{"tags contains \"db\"", true},
        ParseCase{"dept.name == \"research\"", true},
        ParseCase{"salary > 90000", true},
        ParseCase{"salary > 9.5e4", false},
        ParseCase{"active == true", true},
        ParseCase{"active != false", true},
        ParseCase{"age > -100", true},
        ParseCase{"35 == age", true},  // literal on the left
        ParseCase{"age > 30 && name == \"rakesh\" && salary < 100000",
                  true},
        ParseCase{"", true}));  // empty condition box = everything

TEST(PredicateParserTest, ErrorsAreDescriptive) {
  EXPECT_FALSE(ParsePredicate("age >").ok());
  EXPECT_FALSE(ParsePredicate("&& age > 1").ok());
  EXPECT_FALSE(ParsePredicate("age > 1 garbage").ok());
  EXPECT_FALSE(ParsePredicate("(age > 1").ok());
  EXPECT_FALSE(ParsePredicate("age ~ 3").ok());
  EXPECT_FALSE(ParsePredicate("age > \"unterminated").ok());
}

TEST(PredicateParserTest, ToStringIsReparseable) {
  Result<Predicate> p =
      ParsePredicate("age > 30 && (name == \"amy\" || salary <= 5.5)");
  ASSERT_TRUE(p.ok());
  Result<Predicate> reparsed = ParsePredicate(p->ToString());
  ASSERT_TRUE(reparsed.ok()) << p->ToString();
  Value obj = Employee("amy", 40, 2.0);
  EXPECT_EQ(*p->Evaluate(obj), *reparsed->Evaluate(obj));
}

TEST(PredicateParserTest, PrecedenceAndBindsTighterThanOr) {
  // a || b && c  ==  a || (b && c)
  Result<Predicate> p =
      ParsePredicate("age == 1 || age == 35 && name == \"rakesh\"");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(*p->Evaluate(Employee("rakesh", 35, 0)));
  EXPECT_FALSE(*p->Evaluate(Employee("other", 35, 0)));
  EXPECT_TRUE(*p->Evaluate(Employee("other", 1, 0)));
}

}  // namespace
}  // namespace ode::odb
