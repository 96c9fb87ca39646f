#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "odb/value.h"
#include "odb/value_codec.h"

namespace ode::odb {
namespace {

Value SampleEmployee() {
  return Value::Struct({
      {"name", Value::String("rakesh")},
      {"age", Value::Int(35)},
      {"salary", Value::Real(90000.5)},
      {"active", Value::Bool(true)},
      {"dept", Value::Ref(Oid{2, 1}, "department")},
      {"scores", Value::Array({Value::Int(1), Value::Int(2)})},
      {"peers", Value::Set({Value::Ref(Oid{1, 2}, "employee")})},
      {"photo", Value::Blob(std::string("\x00\x01\xff", 3))},
      {"note", Value::Null()},
  });
}

// --- Basic semantics ---------------------------------------------------

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.kind(), ValueKind::kNull);
  EXPECT_EQ(v.size(), 0u);
}

TEST(ValueTest, ScalarAccessors) {
  EXPECT_EQ(Value::Int(-5).AsInt(), -5);
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value::Blob("raw").AsString(), "raw");
}

TEST(ValueTest, RefCarriesOidAndClass) {
  Value ref = Value::Ref(Oid{3, 17}, "manager");
  EXPECT_EQ(ref.AsRef(), (Oid{3, 17}));
  EXPECT_EQ(ref.RefClass(), "manager");
}

TEST(ValueTest, NullOid) {
  EXPECT_TRUE(Oid::Null().IsNull());
  EXPECT_EQ(Oid::Null().ToString(), "null");
  EXPECT_EQ((Oid{2, 9}).ToString(), "c2:o9");
  EXPECT_FALSE((Oid{0, 1}).IsNull());
}

TEST(ValueTest, OidPrintsByName) {
  EXPECT_EQ(::testing::PrintToString(Oid{1, 3}), "c1:o3");
  EXPECT_EQ(::testing::PrintToString(Oid::Null()), "null");
}

TEST(ValueTest, OidOrdering) {
  EXPECT_LT((Oid{1, 5}), (Oid{2, 1}));
  EXPECT_LT((Oid{1, 1}), (Oid{1, 2}));
  EXPECT_EQ((Oid{1, 1}), (Oid{1, 1}));
}

TEST(ValueTest, StructFieldLookup) {
  Value v = SampleEmployee();
  ASSERT_NE(v.FindField("age"), nullptr);
  EXPECT_EQ(v.FindField("age")->AsInt(), 35);
  EXPECT_EQ(v.FindField("missing"), nullptr);
  EXPECT_EQ(v.size(), 9u);
}

TEST(ValueTest, MutableFieldUpdates) {
  Value v = SampleEmployee();
  *v.FindMutableField("age") = Value::Int(36);
  EXPECT_EQ(v.FindField("age")->AsInt(), 36);
}

TEST(ValueTest, FindPathTraversesNestedStructs) {
  Value nested = Value::Struct(
      {{"dept",
        Value::Struct({{"name", Value::String("research")},
                       {"head",
                        Value::Struct({{"name", Value::String("amy")}})}})}});
  ASSERT_NE(nested.FindPath("dept.name"), nullptr);
  EXPECT_EQ(nested.FindPath("dept.name")->AsString(), "research");
  EXPECT_EQ(nested.FindPath("dept.head.name")->AsString(), "amy");
  EXPECT_EQ(nested.FindPath("dept.missing"), nullptr);
  EXPECT_EQ(nested.FindPath("dept.name.deeper"), nullptr);
}

TEST(ValueTest, ElementsOfArraysAndSets) {
  Value arr = Value::Array({Value::Int(1), Value::Int(2), Value::Int(3)});
  EXPECT_EQ(arr.elements().size(), 3u);
  Value set = Value::Set({Value::String("a")});
  EXPECT_EQ(set.size(), 1u);
  // Scalars expose empty element lists rather than UB.
  EXPECT_TRUE(Value::Int(1).elements().empty());
  EXPECT_TRUE(Value::Int(1).fields().empty());
}

TEST(ValueTest, ToNumberCoercions) {
  EXPECT_DOUBLE_EQ(*Value::Int(4).ToNumber(), 4.0);
  EXPECT_DOUBLE_EQ(*Value::Real(2.5).ToNumber(), 2.5);
  EXPECT_DOUBLE_EQ(*Value::Bool(true).ToNumber(), 1.0);
  EXPECT_TRUE(Value::String("x").ToNumber().status().IsInvalidArgument());
  EXPECT_TRUE(Value::Null().ToNumber().status().IsInvalidArgument());
}

TEST(ValueTest, DeepEquality) {
  EXPECT_EQ(SampleEmployee(), SampleEmployee());
  Value changed = SampleEmployee();
  *changed.FindMutableField("age") = Value::Int(99);
  EXPECT_NE(SampleEmployee(), changed);
  EXPECT_NE(Value::Int(1), Value::Real(1.0));  // kinds differ
  EXPECT_NE(Value::Array({}), Value::Set({}));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::String("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Value::Ref(Oid{1, 2}, "employee").ToString(),
            "@employee(c1:o2)");
  EXPECT_EQ(Value::Struct({{"x", Value::Int(1)}}).ToString(), "{x: 1}");
  EXPECT_EQ(Value::Array({Value::Int(1), Value::Int(2)}).ToString(),
            "[1, 2]");
}

// Text forms pinned to what the stream-based formatter printed: reals
// are %g at precision 6, integers in full.
TEST(ValueTest, ScalarTextFormsArePinned) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<Value, std::string>> cases = {
      {Value::Real(0.1), "0.1"},
      {Value::Real(90000.5), "90000.5"},
      {Value::Real(1.0 / 7), "0.142857"},
      {Value::Real(1e20), "1e+20"},
      {Value::Real(1e-7), "1e-07"},
      {Value::Real(123456789.0), "1.23457e+08"},
      {Value::Real(-0.0), "-0"},
      {Value::Real(inf), "inf"},
      {Value::Real(-inf), "-inf"},
      {Value::Real(std::numeric_limits<double>::quiet_NaN()), "nan"},
      {Value::Int(INT64_MIN), "-9223372036854775808"},
      {Value::Int(INT64_MAX), "9223372036854775807"},
      {Value::Int(0), "0"},
      {Value::String("a\"b\\c\nd"), "\"a\\\"b\\\\c\nd\""},
      {Value::Blob(std::string("\0\1", 2)), "<blob 2B>"},
      {Value::Ref(Oid::Null(), "employee"), "@employee(null)"},
      {Value::Ref(Oid{3, 17}, "dept"), "@dept(c3:o17)"},
  };
  for (const auto& [value, text] : cases) {
    EXPECT_EQ(value.ToString(), text);
    EXPECT_EQ(value.ToIndentedString(1), "  " + text + "\n");
  }
}

TEST(ValueTest, NestedTextFormsArePinned) {
  Value set = Value::Set(
      {Value::Struct({{"x", Value::Real(2.5)},
                      {"who", Value::Ref(Oid{1, 2}, "employee")}}),
       Value::Int(-4)});
  EXPECT_EQ(set.ToString(), "({x: 2.5, who: @employee(c1:o2)}, -4)");
  EXPECT_EQ(set.ToIndentedString(1),
            "  -\n"
            "    x: 2.5\n"
            "    who: @employee(c1:o2)\n"
            "  - -4\n");
  Value outer = Value::Struct(
      {{"inner", Value::Set({Value::Struct({{"a", Value::Bool(false)}}),
                             Value::Null()})},
       {"r", Value::Real(123456789.0)}});
  EXPECT_EQ(outer.ToString(), "{inner: ({a: false}, null), r: 1.23457e+08}");
  EXPECT_EQ(outer.ToIndentedString(1),
            "  inner:\n"
            "    -\n"
            "      a: false\n"
            "    - null\n"
            "  r: 1.23457e+08\n");
}

TEST(ValueTest, IndentedStringNestsStructures) {
  Value v = Value::Struct(
      {{"name", Value::String("amy")},
       {"dept", Value::Struct({{"label", Value::String("db")}})}});
  std::string text = v.ToIndentedString();
  EXPECT_NE(text.find("name: \"amy\""), std::string::npos);
  EXPECT_NE(text.find("  label: \"db\""), std::string::npos);
}

TEST(ValueTest, KindNames) {
  EXPECT_EQ(ValueKindName(ValueKind::kStruct), "struct");
  EXPECT_EQ(ValueKindName(ValueKind::kRef), "ref");
  EXPECT_EQ(ValueKindName(ValueKind::kNull), "null");
}

// --- Codec round-trips --------------------------------------------------

TEST(ValueCodecTest, ScalarRoundTrips) {
  for (const Value& v :
       {Value::Null(), Value::Bool(false), Value::Bool(true),
        Value::Int(0), Value::Int(-1), Value::Int(INT64_MAX),
        Value::Int(INT64_MIN), Value::Real(3.25), Value::String(""),
        Value::String("hello"), Value::Blob(std::string(300, '\xfe')),
        Value::Ref(Oid::Null(), "employee"),
        Value::Ref(Oid{7, 123456789}, "department")}) {
    Result<Value> decoded = DecodeValue(EncodeValueToString(v));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, v);
  }
}

TEST(ValueCodecTest, CompositeRoundTrip) {
  Value v = SampleEmployee();
  Result<Value> decoded = DecodeValue(EncodeValueToString(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, v);
}

TEST(ValueCodecTest, DeeplyNestedRoundTrip) {
  Value v = Value::Int(42);
  for (int i = 0; i < 30; ++i) {
    v = Value::Struct({{"inner", std::move(v)}});
  }
  Result<Value> decoded = DecodeValue(EncodeValueToString(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, v);
}

TEST(ValueCodecTest, ExcessiveNestingRejected) {
  Value v = Value::Int(1);
  for (int i = 0; i < 80; ++i) {
    v = Value::Array({std::move(v)});
  }
  Result<Value> decoded = DecodeValue(EncodeValueToString(v));
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(ValueCodecTest, TrailingBytesRejected) {
  std::string bytes = EncodeValueToString(Value::Int(5));
  bytes += "junk";
  EXPECT_TRUE(DecodeValue(bytes).status().IsCorruption());
}

TEST(ValueCodecTest, TruncationRejectedEverywhere) {
  std::string bytes = EncodeValueToString(SampleEmployee());
  // Every proper prefix must fail cleanly, never crash.
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<Value> decoded = DecodeValue(bytes.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len;
  }
}

TEST(ValueCodecTest, UnknownTagRejected) {
  std::string bytes;
  bytes.push_back(static_cast<char>(0x7f));
  EXPECT_TRUE(DecodeValue(bytes).status().IsCorruption());
}

/// Deterministic pseudo-random value generator for property tests.
Value RandomValue(uint64_t* state, int depth) {
  auto next = [&]() {
    *state = *state * 6364136223846793005ull + 1442695040888963407ull;
    return *state >> 33;
  };
  int kind = static_cast<int>(next() % (depth > 3 ? 6 : 9));
  switch (kind) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(next() % 2 == 0);
    case 2:
      return Value::Int(static_cast<int64_t>(next()) -
                        static_cast<int64_t>(next()));
    case 3:
      return Value::Real(static_cast<double>(next()) / 7.0);
    case 4:
      return Value::String(std::string(next() % 20, 'a' + next() % 26));
    case 5:
      return Value::Ref(Oid{static_cast<ClusterId>(next() % 10),
                            next() % 1000},
                        "cls" + std::to_string(next() % 5));
    case 6: {
      std::vector<Value::Field> fields;
      size_t n = next() % 4;
      for (size_t i = 0; i < n; ++i) {
        fields.push_back({"f" + std::to_string(i),
                          RandomValue(state, depth + 1)});
      }
      return Value::Struct(std::move(fields));
    }
    case 7: {
      std::vector<Value> elements;
      size_t n = next() % 4;
      for (size_t i = 0; i < n; ++i) {
        elements.push_back(RandomValue(state, depth + 1));
      }
      return Value::Array(std::move(elements));
    }
    default: {
      std::vector<Value> elements;
      size_t n = next() % 3;
      for (size_t i = 0; i < n; ++i) {
        elements.push_back(RandomValue(state, depth + 1));
      }
      return Value::Set(std::move(elements));
    }
  }
}

class ValueCodecProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueCodecProperty, RandomValueRoundTrips) {
  uint64_t state = GetParam();
  for (int i = 0; i < 50; ++i) {
    Value v = RandomValue(&state, 0);
    Result<Value> decoded = DecodeValue(EncodeValueToString(v));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueCodecProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace ode::odb
