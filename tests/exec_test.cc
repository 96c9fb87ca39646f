// Equivalence suite for the batched executor (src/odb/exec/): for a
// battery of predicates, projections, and batch sizes, the
// vectorized scan/join must produce exactly what the
// legacy per-object tree-walking path produces — same rows, same
// order, errors where it errors. Plus unit tests for the projection
// primitives (SkipValue, DecodeObjectRecordProjected).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "odb/database.h"
#include "odb/exec/executor.h"
#include "odb/labdb.h"
#include "odb/object_record.h"
#include "odb/predicate.h"
#include "odb/value_codec.h"

namespace ode::odb {
namespace {

class ExecSuite : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::move(*Database::CreateInMemory("lab"));
    LabDbConfig config;
    ASSERT_TRUE(BuildLabDatabase(db_.get(), config).ok());
  }

  /// The legacy path: full materialization + tree-walking Evaluate.
  Result<std::vector<Oid>> ReferenceSelect(const std::string& class_name,
                                           const Predicate& predicate) {
    ODE_ASSIGN_OR_RETURN(std::vector<Oid> ids,
                         db_->ScanCluster(class_name));
    std::vector<Oid> out;
    for (Oid oid : ids) {
      ODE_ASSIGN_OR_RETURN(ObjectBuffer buffer, db_->GetObject(oid));
      ODE_ASSIGN_OR_RETURN(bool keep, predicate.Evaluate(buffer.value));
      if (keep) out.push_back(oid);
    }
    return out;
  }

  /// The legacy join: cross product over combined {left, right} structs.
  Result<std::vector<std::pair<Oid, Oid>>> ReferenceJoin(
      const std::string& left_class, const std::string& right_class,
      const Predicate* predicate) {
    ODE_ASSIGN_OR_RETURN(std::vector<Oid> lefts,
                         db_->ScanCluster(left_class));
    ODE_ASSIGN_OR_RETURN(std::vector<Oid> rights,
                         db_->ScanCluster(right_class));
    std::vector<std::pair<Oid, Oid>> out;
    for (Oid left : lefts) {
      ODE_ASSIGN_OR_RETURN(ObjectBuffer lbuf, db_->GetObject(left));
      for (Oid right : rights) {
        ODE_ASSIGN_OR_RETURN(ObjectBuffer rbuf, db_->GetObject(right));
        bool keep = true;
        if (predicate != nullptr) {
          Value combined = Value::Struct(
              {{"left", lbuf.value}, {"right", rbuf.value}});
          ODE_ASSIGN_OR_RETURN(keep, predicate->Evaluate(combined));
        }
        if (keep) out.emplace_back(left, right);
      }
    }
    return out;
  }

  std::vector<Oid> RowOids(const exec::ScanResult& result) {
    std::vector<Oid> out;
    out.reserve(result.rows.size());
    for (const exec::ScanRow& row : result.rows) out.push_back(row.oid);
    return out;
  }

  std::unique_ptr<Database> db_;
};

// --- scan equivalence -------------------------------------------------------

// Predicates spanning every operator, connective, selectivity edge
// (empty, full, missing attribute), and a ref-valued path.
const char* const kScanPredicates[] = {
    "age > 40",
    "age >= 18",         // constraint guarantees 100% selectivity
    "age < 30",
    "age <= 25",
    "age == 33",
    "age != 33",
    "age > 1000",        // 0% selectivity
    "name == \"rakesh\"",
    "name contains \"a\"",
    "title != \"MTS\"",
    "salary > 0.0",
    "age > 30 && title == \"MTS\"",
    "age < 25 || age > 55",
    "!(age > 40)",
    "name contains \"a\" && (age > 30 || title != \"MTS\")",
    "(age > 20 && age < 60) || name == \"rakesh\"",
    "nonexistent == 1",             // missing attribute: false, not error
    "age > 30 && nonexistent == 1",
    "dept.name == \"research\"",    // path through a ref: unresolvable
};

TEST_F(ExecSuite, ScanMatchesTreeWalkAcrossPredicates) {
  for (const char* text : kScanPredicates) {
    Result<Predicate> predicate = ParsePredicate(text);
    ASSERT_TRUE(predicate.ok()) << text;
    Result<std::vector<Oid>> expected =
        ReferenceSelect("employee", *predicate);
    ASSERT_TRUE(expected.ok()) << text;
    for (size_t batch_size : {size_t{1}, size_t{3}, size_t{1024}}) {
      exec::ScanSpec spec;
      spec.class_name = "employee";
      spec.predicate = &*predicate;
      spec.project_all = true;
      spec.batch_size = batch_size;
      Result<exec::ScanResult> result = exec::ExecuteScan(db_.get(), spec);
      ASSERT_TRUE(result.ok()) << text << " batch=" << batch_size << ": "
                               << result.status().ToString();
      EXPECT_EQ(RowOids(*result), *expected)
          << text << " batch=" << batch_size;
    }
  }
}

TEST_F(ExecSuite, ScanRowsCarryFullValuesUnderProjectAll) {
  Predicate predicate = *ParsePredicate("age > 30");
  exec::ScanSpec spec;
  spec.class_name = "employee";
  spec.predicate = &predicate;
  spec.project_all = true;
  exec::ScanResult result = *exec::ExecuteScan(db_.get(), spec);
  ASSERT_FALSE(result.rows.empty());
  for (const exec::ScanRow& row : result.rows) {
    ObjectBuffer buffer = *db_->GetObject(row.oid);
    EXPECT_EQ(row.value, buffer.value);
    EXPECT_EQ(row.version, buffer.version);
  }
  EXPECT_EQ(result.stats.skipped_fields, 0u);
}

TEST_F(ExecSuite, TypeMismatchErrorsOnBothPaths) {
  Predicate predicate = *ParsePredicate("name > 3");
  Result<std::vector<Oid>> reference =
      ReferenceSelect("employee", predicate);
  EXPECT_FALSE(reference.ok());
  exec::ScanSpec spec;
  spec.class_name = "employee";
  spec.predicate = &predicate;
  Result<exec::ScanResult> result = exec::ExecuteScan(db_.get(), spec);
  EXPECT_FALSE(result.ok());
}

TEST_F(ExecSuite, ShortCircuitSuppressesErrorsLikeTreeWalk) {
  // The right conjunct/disjunct would be a type error, but the left
  // side short-circuits it for every row — legacy Evaluate never sees
  // the error, so the batched path must not either.
  for (const char* text : {"age > 1000 && name > 3", "age >= 18 || name > 3"}) {
    Predicate predicate = *ParsePredicate(text);
    Result<std::vector<Oid>> expected =
        ReferenceSelect("employee", predicate);
    ASSERT_TRUE(expected.ok()) << text;
    exec::ScanSpec spec;
    spec.class_name = "employee";
    spec.predicate = &predicate;
    spec.project_all = true;
    Result<exec::ScanResult> result = exec::ExecuteScan(db_.get(), spec);
    ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    EXPECT_EQ(RowOids(*result), *expected) << text;
  }
}

TEST_F(ExecSuite, ProjectionKeepsMaskedAttributesOnly) {
  Predicate predicate = *ParsePredicate("age > 30");
  std::vector<std::string> displaylist = {"name", "age"};
  exec::ScanSpec spec;
  spec.class_name = "employee";
  spec.predicate = &predicate;
  spec.projection = &displaylist;
  exec::ScanResult result = *exec::ExecuteScan(db_.get(), spec);
  ASSERT_FALSE(result.rows.empty());
  // Mask = predicate paths ∪ displaylist = {age, name}.
  for (const exec::ScanRow& row : result.rows) {
    ObjectBuffer full = *db_->GetObject(row.oid);
    ASSERT_EQ(row.value.kind(), ValueKind::kStruct);
    EXPECT_EQ(row.value.fields().size(), 2u);
    for (const Value::Field& field : row.value.fields()) {
      const Value* reference = full.value.FindField(field.name);
      ASSERT_NE(reference, nullptr) << field.name;
      EXPECT_EQ(field.value, *reference) << field.name;
    }
  }
  // Employee records have 7 attributes; 5 per row were never decoded.
  EXPECT_GT(result.stats.skipped_fields, 0u);
  // And the projected rows select exactly the same objects.
  EXPECT_EQ(RowOids(result), *ReferenceSelect("employee", predicate));
}

TEST_F(ExecSuite, IdsOnlyFastPathSkipsDecodingEntirely) {
  exec::ScanSpec spec;
  spec.class_name = "employee";
  exec::ScanResult result = *exec::ExecuteScan(db_.get(), spec);
  EXPECT_EQ(RowOids(result), *db_->ScanCluster("employee"));
  for (const exec::ScanRow& row : result.rows) {
    EXPECT_EQ(row.version, 0u);
    EXPECT_TRUE(row.value.is_null());
  }
}

TEST_F(ExecSuite, ScanStatsCountEveryRow) {
  Predicate predicate = *ParsePredicate("age > 40");
  exec::ScanSpec spec;
  spec.class_name = "employee";
  spec.predicate = &predicate;
  spec.batch_size = 10;
  exec::ScanResult result = *exec::ExecuteScan(db_.get(), spec);
  std::vector<Oid> all = *db_->ScanCluster("employee");
  EXPECT_EQ(result.stats.rows_scanned, all.size());
  EXPECT_EQ(result.stats.rows_matched, result.rows.size());
  EXPECT_GE(result.stats.batches, all.size() / 10);
}

TEST_F(ExecSuite, UnknownClassIsAnError) {
  exec::ScanSpec spec;
  spec.class_name = "nosuchclass";
  EXPECT_FALSE(exec::ExecuteScan(db_.get(), spec).ok());
}

// --- cursor equivalence -----------------------------------------------------

// The object-set window's cursor filters the way Select does. Walking
// it forward yields exactly the reference ids, each buffer equal to
// GetObject's; walking back from the last match revisits the others in
// reverse. The lab has 55 employees, so every walk crosses the cursor's
// 16-record batches.
TEST_F(ExecSuite, CursorMatchesSelectInBothDirections) {
  for (const char* text : kScanPredicates) {
    Predicate predicate = *ParsePredicate(text);
    Result<std::vector<Oid>> expected =
        ReferenceSelect("employee", predicate);
    ASSERT_TRUE(expected.ok()) << text;
    ObjectCursor cursor(db_.get(), "employee", predicate);
    std::vector<Oid> forward;
    while (true) {
      Result<ObjectBuffer> buffer = cursor.Next();
      if (!buffer.ok()) {
        EXPECT_TRUE(buffer.status().IsOutOfRange())
            << text << ": " << buffer.status().ToString();
        break;
      }
      ObjectBuffer reference = *db_->GetObject(buffer->oid);
      EXPECT_EQ(buffer->value, reference.value) << text;
      EXPECT_EQ(buffer->version, reference.version) << text;
      EXPECT_EQ(buffer->class_name, reference.class_name) << text;
      forward.push_back(buffer->oid);
    }
    EXPECT_EQ(forward, *expected) << text;

    std::vector<Oid> backward;
    while (true) {
      Result<ObjectBuffer> buffer = cursor.Prev();
      if (!buffer.ok()) {
        EXPECT_TRUE(buffer.status().IsOutOfRange())
            << text << ": " << buffer.status().ToString();
        break;
      }
      backward.push_back(buffer->oid);
    }
    std::vector<Oid> reversed(expected->rbegin(), expected->rend());
    if (!reversed.empty()) reversed.erase(reversed.begin());
    EXPECT_EQ(backward, reversed) << text;
  }

  Predicate mismatch = *ParsePredicate("name > 3");
  ObjectCursor cursor(db_.get(), "employee", mismatch);
  Result<ObjectBuffer> next = cursor.Next();
  EXPECT_FALSE(next.ok());
  EXPECT_FALSE(next.status().IsOutOfRange()) << next.status().ToString();
  Result<ObjectBuffer> prev = cursor.Prev();
  EXPECT_FALSE(prev.ok());
  EXPECT_FALSE(prev.status().IsOutOfRange()) << prev.status().ToString();
}

// Before every step, the record just ahead of the cursor changes —
// whether it matches flips, it is deleted, or a matching record joins
// the tail — so the lookahead fetched by the previous step is stale.
// Each step must still yield what a fresh select past the current
// position would.
TEST_F(ExecSuite, CursorLookaheadFollowsMutations) {
  Predicate predicate = *ParsePredicate("age > 40");
  ObjectCursor cursor(db_.get(), "employee", predicate);
  ASSERT_TRUE(cursor.Next().ok());
  for (int step = 0; step < 60; ++step) {
    Oid at = *cursor.Current();
    // The record just ahead of the cursor, matching or not.
    RawRecordBatch next;
    ASSERT_TRUE(db_->ScanRawRecords("employee", at.local, 1, &next).ok());
    std::optional<Oid> ahead;
    if (!next.records.empty()) {
      ahead = Oid{next.cluster, next.records[0].local_id};
    }
    switch (step % 3) {
      case 0:
        if (ahead.has_value()) {
          ObjectBuffer buffer = *db_->GetObject(*ahead);
          Value* age = buffer.value.FindMutableField("age");
          *age = Value::Int(age->AsInt() > 40 ? 30 : 50);
          ASSERT_TRUE(db_->UpdateObject(*ahead, buffer.value).ok());
        }
        break;
      case 1:
        if (ahead.has_value()) {
          ASSERT_TRUE(db_->DeleteObject(*ahead).ok());
        }
        break;
      default: {
        ObjectBuffer model = *db_->GetObject(at);
        *model.value.FindMutableField("age") = Value::Int(45);
        ASSERT_TRUE(db_->CreateObject("employee", model.value).ok());
        break;
      }
    }
    std::vector<Oid> reference = *ReferenceSelect("employee", predicate);
    auto expected = std::upper_bound(reference.begin(), reference.end(), at);
    Result<ObjectBuffer> got = cursor.Next();
    if (expected == reference.end()) {
      EXPECT_TRUE(got.status().IsOutOfRange()) << "step " << step;
      EXPECT_EQ(*cursor.Current(), at) << "step " << step;
    } else {
      ASSERT_TRUE(got.ok()) << "step " << step << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->oid, *expected)
          << "step " << step << ": got " << got->oid.ToString()
          << ", expected " << expected->ToString();
      EXPECT_EQ(got->value, db_->GetObject(got->oid)->value)
          << "step " << step;
    }
  }
}

// --- join equivalence -------------------------------------------------------

struct JoinCase {
  const char* text;       // nullptr = cross product
  bool expect_hash;
};

const JoinCase kJoinCases[] = {
    {"left.age == right.age", true},
    {"right.age == left.age", true},  // reversed orientation
    {"left.age == right.age && left.name != right.name", true},
    {"left.age == right.age && left.age > 30", true},
    {"left.age < right.age", false},         // no equality conjunct
    {"left.name contains \"a\" || right.age > 40", false},
    {"left.nonexistent == right.age", true},  // hashable, matches nothing
    {nullptr, false},                         // cross product
};

TEST_F(ExecSuite, JoinMatchesNestedLoopAcrossPredicates) {
  for (const JoinCase& join_case : kJoinCases) {
    Predicate predicate = Predicate::True();
    exec::JoinSpec spec;
    spec.left_class = "employee";
    spec.right_class = "manager";
    if (join_case.text != nullptr) {
      Result<Predicate> parsed = ParsePredicate(join_case.text);
      ASSERT_TRUE(parsed.ok()) << join_case.text;
      predicate = std::move(*parsed);
      spec.predicate = &predicate;
    }
    Result<std::vector<std::pair<Oid, Oid>>> expected =
        ReferenceJoin("employee", "manager", spec.predicate);
    ASSERT_TRUE(expected.ok()) << (join_case.text ? join_case.text : "<true>");
    Result<exec::JoinResult> result = exec::ExecuteJoin(db_.get(), spec);
    ASSERT_TRUE(result.ok())
        << (join_case.text ? join_case.text : "<true>") << ": "
        << result.status().ToString();
    EXPECT_EQ(result->pairs, *expected)
        << (join_case.text ? join_case.text : "<true>");
    EXPECT_EQ(result->stats.hash_join, join_case.expect_hash)
        << (join_case.text ? join_case.text : "<true>");
    EXPECT_EQ(result->stats.pairs, result->pairs.size());
  }
}

TEST_F(ExecSuite, JoinTypeMismatchErrorsOnBothPaths) {
  Predicate predicate = *ParsePredicate("left.name > right.age");
  Result<std::vector<std::pair<Oid, Oid>>> reference =
      ReferenceJoin("employee", "manager", &predicate);
  EXPECT_FALSE(reference.ok());
  exec::JoinSpec spec;
  spec.left_class = "employee";
  spec.right_class = "manager";
  spec.predicate = &predicate;
  EXPECT_FALSE(exec::ExecuteJoin(db_.get(), spec).ok());
}

TEST_F(ExecSuite, HashJoinBuildsTheSmallerSide) {
  Predicate predicate = *ParsePredicate("left.age == right.age");
  exec::JoinSpec spec;
  spec.left_class = "employee";  // 55
  spec.right_class = "manager";  // 7
  spec.predicate = &predicate;
  exec::JoinResult result = *exec::ExecuteJoin(db_.get(), spec);
  ASSERT_TRUE(result.stats.hash_join);
  EXPECT_FALSE(result.stats.built_left);
  EXPECT_LE(result.stats.build_rows, result.stats.probe_rows);
}

// --- projection primitives --------------------------------------------------

Value SampleStruct() {
  return Value::Struct(
      {{"a", Value::Int(7)},
       {"b", Value::String("seven")},
       {"c", Value::Real(7.5)},
       {"d", Value::Array({Value::Int(1), Value::Int(2)})},
       {"e", Value::Struct({{"inner", Value::Bool(true)}})}});
}

TEST(SkipValueTest, SkipsEveryKindCompletely) {
  const Value samples[] = {
      Value::Null(),       Value::Bool(true),
      Value::Int(-42),     Value::Real(3.25),
      Value::String("hi"), Value::Blob(std::string("\x00\x01", 2)),
      Value::Ref(Oid{1, 2}, "employee"),
      Value::Set({Value::Int(1), Value::String("x")}),
      SampleStruct()};
  for (const Value& value : samples) {
    std::string bytes;
    EncodeValue(value, &bytes);
    Decoder decoder(bytes);
    ASSERT_TRUE(SkipValue(&decoder).ok()) << value.ToString();
    EXPECT_TRUE(decoder.empty()) << value.ToString();
  }
}

TEST(SkipValueTest, LeavesFollowingBytesIntact) {
  std::string bytes;
  EncodeValue(SampleStruct(), &bytes);
  Value tail = Value::String("tail");
  EncodeValue(tail, &bytes);
  Decoder decoder(bytes);
  ASSERT_TRUE(SkipValue(&decoder).ok());
  Result<Value> decoded = DecodeValue(&decoder);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, tail);
  EXPECT_TRUE(decoder.empty());
}

TEST(SkipValueTest, TruncatedInputIsCorruption) {
  std::string bytes;
  EncodeValue(SampleStruct(), &bytes);
  Decoder decoder(std::string_view(bytes).substr(0, bytes.size() - 3));
  EXPECT_FALSE(SkipValue(&decoder).ok());
}

TEST(ProjectedDecodeTest, MaskPrunesUnlistedFields) {
  ObjectRecord record;
  record.version = 3;
  record.history.emplace_back(1, Value::Int(1));
  record.history.emplace_back(2, SampleStruct());
  record.value = SampleStruct();
  std::string bytes = EncodeObjectRecord(record);

  ProjectionMask mask = ProjectionMask::Of({"a", "e"});
  ProjectedRecord projected =
      *DecodeObjectRecordProjected(bytes, &mask);
  EXPECT_EQ(projected.version, 3u);
  EXPECT_EQ(projected.skipped_fields, 3u);  // b, c, d skipped
  ASSERT_EQ(projected.value.fields().size(), 2u);
  EXPECT_EQ(*projected.value.FindField("a"), Value::Int(7));
  EXPECT_EQ(*projected.value.FindField("e"),
            Value::Struct({{"inner", Value::Bool(true)}}));
}

TEST(ProjectedDecodeTest, NullMaskDecodesFully) {
  ObjectRecord record;
  record.version = 2;
  record.value = SampleStruct();
  std::string bytes = EncodeObjectRecord(record);
  ProjectedRecord projected = *DecodeObjectRecordProjected(bytes, nullptr);
  EXPECT_EQ(projected.value, record.value);
  EXPECT_EQ(projected.skipped_fields, 0u);
}

TEST(ProjectedDecodeTest, NonStructValueIgnoresMask) {
  ObjectRecord record;
  record.value = Value::String("scalar record");
  std::string bytes = EncodeObjectRecord(record);
  ProjectionMask mask = ProjectionMask::Of({"a"});
  ProjectedRecord projected = *DecodeObjectRecordProjected(bytes, &mask);
  EXPECT_EQ(projected.value, record.value);
  EXPECT_EQ(projected.skipped_fields, 0u);
}

TEST(ProjectionMaskTest, DottedPathsKeepTopLevelPrefix) {
  ProjectionMask mask =
      ProjectionMask::FromPaths({"dept.name", "age", "dept.location"});
  EXPECT_EQ(mask.size(), 2u);
  EXPECT_TRUE(mask.contains("dept"));
  EXPECT_TRUE(mask.contains("age"));
  EXPECT_FALSE(mask.contains("name"));
}

}  // namespace
}  // namespace ode::odb
