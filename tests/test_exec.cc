// Physical execution tests: every join algorithm against a reference
// nested-loop implementation (property-swept over random data), the
// two-stage aggregation protocol, sort/limit/union/sample, the cost-based
// join selection, and operator fusion.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <numeric>
#include <random>
#include <tuple>

#include "api/sql_context.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "catalyst/planner/cost_model.h"
#include "catalyst/planner/planner.h"
#include "datasources/chunk_reader.h"
#include "exec/join_exec.h"
#include "exec/scan_exec.h"

namespace ssql {
namespace {

EngineConfig TestConfig() {
  EngineConfig config;
  config.num_threads = 2;
  config.default_parallelism = 3;
  return config;
}

/// Reference inner/outer join on (key, payload) rows: brute force over
/// collected inputs, mirroring SQL semantics (null keys never match).
std::vector<Row> ReferenceJoin(const std::vector<Row>& left,
                               const std::vector<Row>& right, JoinType type) {
  std::vector<Row> out;
  std::vector<bool> right_matched(right.size(), false);
  for (const Row& l : left) {
    bool matched = false;
    for (size_t j = 0; j < right.size(); ++j) {
      const Row& r = right[j];
      if (l.IsNullAt(0) || r.IsNullAt(0)) continue;
      if (l.Get(0).Compare(r.Get(0)) != 0) continue;
      matched = true;
      right_matched[j] = true;
      if (type == JoinType::kLeftSemi) break;
      out.push_back(Row::Concat(l, r));
    }
    if (type == JoinType::kLeftSemi && matched) out.push_back(l);
    if ((type == JoinType::kLeftOuter || type == JoinType::kFullOuter) &&
        !matched) {
      Row padded = l;
      size_t right_width = right.empty() ? 2 : right[0].size();
      for (size_t c = 0; c < right_width; ++c) {
        padded.Append(Value::Null());
      }
      out.push_back(padded);
    }
  }
  if (type == JoinType::kRightOuter || type == JoinType::kFullOuter) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (!right_matched[j]) {
        Row padded;
        for (size_t c = 0; c < (left.empty() ? 2 : left[0].size()); ++c) {
          padded.Append(Value::Null());
        }
        for (size_t c = 0; c < right[j].size(); ++c) {
          padded.Append(right[j].Get(c));
        }
        out.push_back(padded);
      }
    }
  }
  if (type == JoinType::kRightOuter) {
    // Right-outer also includes all matches (already added above).
    // Reference only adds unmatched-right; matches covered by inner part.
  }
  return out;
}

/// Canonical multiset form for comparing row sets regardless of order.
std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(r.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Row> RandomKeyedRows(std::mt19937_64* rng, size_t n, int key_space,
                                 double null_fraction) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bool is_null =
        std::uniform_real_distribution<>(0, 1)(*rng) < null_fraction;
    Value key = is_null ? Value::Null()
                        : Value(static_cast<int32_t>((*rng)() % key_space));
    rows.push_back(Row({key, Value(static_cast<int32_t>(i))}));
  }
  return rows;
}

PhysPtr ScanOf(const AttributeVector& attrs, std::vector<Row> rows) {
  return std::make_shared<LocalTableScanExec>(
      attrs, std::make_shared<const std::vector<Row>>(std::move(rows)));
}

/// The same rows behind a columnar scan: a Scan of a CachedTableSource,
/// which produces batches when vectorized execution is on.
PhysPtr CachedScanOf(const AttributeVector& attrs,
                     const std::vector<Row>& rows) {
  std::vector<Field> fields;
  for (const auto& a : attrs) {
    fields.emplace_back(a->name(), a->data_type(), a->nullable());
  }
  auto table = CachedTable::Build(StructType::Make(std::move(fields)),
                                  RowDataset::FromRows(rows, 2));
  std::vector<int> columns(attrs.size());
  std::iota(columns.begin(), columns.end(), 0);
  return std::make_shared<DataSourceScanExec>(
      std::make_shared<CachedTableSource>(std::move(table), "sweep"), attrs,
      std::move(columns), ExprVector{});
}

AttributeVector KeyedAttrs(const char* key, const char* payload) {
  return {AttributeReference::Make(key, DataType::Int32(), true),
          AttributeReference::Make(payload, DataType::Int32(), false)};
}

class JoinAlgorithmTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinAlgorithmTest, AllAlgorithmsMatchReferenceOnInnerJoin) {
  std::mt19937_64 rng(GetParam() * 7717);
  ExecContext engine(TestConfig());
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  for (int trial = 0; trial < 5; ++trial) {
    auto left_rows = RandomKeyedRows(&rng, 30 + rng() % 50, 8, 0.1);
    auto right_rows = RandomKeyedRows(&rng, 30 + rng() % 50, 8, 0.1);
    auto expected =
        Canonical(ReferenceJoin(left_rows, right_rows, JoinType::kInner));

    AttributeVector la = KeyedAttrs("lk", "lv");
    AttributeVector ra = KeyedAttrs("rk", "rv");
    ExprVector lk = {la[0]};
    ExprVector rk = {ra[0]};

    BroadcastHashJoinExec broadcast(ScanOf(la, left_rows), ScanOf(ra, right_rows),
                                    lk, rk, JoinType::kInner, nullptr);
    EXPECT_EQ(Canonical(broadcast.Execute(ctx).Collect()), expected);

    ShuffleHashJoinExec shuffle(ScanOf(la, left_rows), ScanOf(ra, right_rows),
                                lk, rk, JoinType::kInner, nullptr);
    EXPECT_EQ(Canonical(shuffle.Execute(ctx).Collect()), expected);

    SortMergeJoinExec merge(ScanOf(la, left_rows), ScanOf(ra, right_rows), lk,
                            rk, JoinType::kInner, nullptr);
    EXPECT_EQ(Canonical(merge.Execute(ctx).Collect()), expected);

    ExprPtr cond = EqualTo::Make(la[0], ra[0]);
    NestedLoopJoinExec nested(ScanOf(la, left_rows), ScanOf(ra, right_rows),
                              JoinType::kInner, cond);
    EXPECT_EQ(Canonical(nested.Execute(ctx).Collect()), expected);
  }
}

TEST_P(JoinAlgorithmTest, OuterAndSemiJoinsMatchReference) {
  std::mt19937_64 rng(GetParam() * 104659);
  ExecContext engine(TestConfig());
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  auto left_rows = RandomKeyedRows(&rng, 40, 10, 0.1);
  auto right_rows = RandomKeyedRows(&rng, 40, 10, 0.1);
  AttributeVector la = KeyedAttrs("lk", "lv");
  AttributeVector ra = KeyedAttrs("rk", "rv");
  ExprVector lk = {la[0]};
  ExprVector rk = {ra[0]};

  for (JoinType type : {JoinType::kLeftOuter, JoinType::kRightOuter,
                        JoinType::kFullOuter, JoinType::kLeftSemi}) {
    auto expected = Canonical(ReferenceJoin(left_rows, right_rows, type));
    ShuffleHashJoinExec shuffle(ScanOf(la, left_rows), ScanOf(ra, right_rows),
                                lk, rk, type, nullptr);
    EXPECT_EQ(Canonical(shuffle.Execute(ctx).Collect()), expected)
        << JoinTypeName(type);
  }
  // Broadcast supports left-outer and semi.
  for (JoinType type : {JoinType::kLeftOuter, JoinType::kLeftSemi}) {
    auto expected = Canonical(ReferenceJoin(left_rows, right_rows, type));
    BroadcastHashJoinExec broadcast(ScanOf(la, left_rows), ScanOf(ra, right_rows),
                                    lk, rk, type, nullptr);
    EXPECT_EQ(Canonical(broadcast.Execute(ctx).Collect()), expected)
        << JoinTypeName(type);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinAlgorithmTest, ::testing::Values(1, 2, 3));

TEST(JoinExecTest, ResidualConditionFiltersMatches) {
  ExecContext engine(TestConfig());
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  AttributeVector la = KeyedAttrs("lk", "lv");
  AttributeVector ra = KeyedAttrs("rk", "rv");
  std::vector<Row> left = {Row({Value(int32_t{1}), Value(int32_t{10})}),
                           Row({Value(int32_t{1}), Value(int32_t{20})})};
  std::vector<Row> right = {Row({Value(int32_t{1}), Value(int32_t{15})})};
  // Join on key AND lv < rv: only the (10, 15) pair survives.
  ExprPtr residual = LessThan::Make(la[1], ra[1]);
  ShuffleHashJoinExec join(ScanOf(la, left), ScanOf(ra, right), {la[0]},
                           {ra[0]}, JoinType::kInner, residual);
  auto rows = join.Execute(ctx).Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetInt32(1), 10);
}

// ---- Join key sweep ------------------------------------------------------

/// One key shape of the sweep: the key column types and a draw of one
/// non-null value for key column `c`.
struct JoinKeyShape {
  const char* name;
  std::vector<DataTypePtr> types;
  std::function<Value(size_t c, std::mt19937_64& rng)> draw;
};

std::vector<JoinKeyShape> JoinKeyShapes() {
  auto pick = [](std::vector<Value> domain) {
    return [domain](size_t, std::mt19937_64& rng) {
      return domain[rng() % domain.size()];
    };
  };
  // Longer than the key table's largest arena block (64 KiB).
  const std::string long_key = std::string(64 * 1024 + 17, 'q') + "!";
  const std::string nul_a("ab\0c", 4), nul_b("ab\0d", 4);
  auto dec = [](int64_t unscaled) { return Value(Decimal(unscaled, 10, 2)); };
  return {
      {"int32", {DataType::Int32()},
       pick({int32_t{-3}, int32_t{0}, int32_t{1}, int32_t{7}, int32_t{42},
             int32_t{2147483647}})},
      {"int64", {DataType::Int64()},
       pick({int64_t{-5}, int64_t{0}, int64_t{1} << 40, int64_t{3},
             int64_t{9000000000000000000}})},
      {"date", {DataType::Date()},
       pick({DateValue{-1}, DateValue{0}, DateValue{18000}, DateValue{18001},
             DateValue{20000}})},
      {"double", {DataType::Double()},
       pick({std::nan(""), 0.0, -0.0, 1.5, -2.25, 1e300, 3.0})},
      {"string", {DataType::String()},
       pick({"", "a", "ab", nul_a, nul_b, long_key,
             "a key longer than eight bytes"})},
      {"decimal", {DecimalType::Make(10, 2)},
       pick({dec(-150), dec(0), dec(1), dec(250), dec(99999)})},
      {"string_int", {DataType::String(), DataType::Int32()},
       [nul_a](size_t c, std::mt19937_64& rng) {
         static const std::vector<Value> strs = {"", "x", "yy"};
         if (c == 1) return Value(static_cast<int32_t>(rng() % 3));
         return rng() % 4 == 0 ? Value(nul_a) : strs[rng() % strs.size()];
       }},
  };
}

/// (shape index, null fraction, with a residual condition).
using JoinSweepParam = std::tuple<int, double, bool>;

class JoinKeySweepTest : public ::testing::TestWithParam<JoinSweepParam> {
 protected:
  /// Rows [key..., payload]; each key cell is null with `null_fraction`.
  static std::vector<Row> Rows(const JoinKeyShape& shape, size_t n,
                               double null_fraction, int32_t first_payload,
                               std::mt19937_64* rng) {
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      Row row;
      for (size_t c = 0; c < shape.types.size(); ++c) {
        bool null =
            std::uniform_real_distribution<>(0, 1)(*rng) < null_fraction;
        row.Append(null ? Value::Null() : shape.draw(c, *rng));
      }
      row.Append(Value(first_payload + static_cast<int32_t>(i)));
      rows.push_back(std::move(row));
    }
    return rows;
  }

  static AttributeVector Attrs(const JoinKeyShape& shape, const char* side) {
    AttributeVector attrs;
    for (size_t c = 0; c < shape.types.size(); ++c) {
      attrs.push_back(AttributeReference::Make(
          std::string(side) + "k" + std::to_string(c), shape.types[c], true));
    }
    attrs.push_back(AttributeReference::Make(std::string(side) + "v",
                                             DataType::Int32(), false));
    return attrs;
  }

  /// Equi-join key equality: a null never matches, NaN matches NaN and
  /// -0.0 matches 0.0; everything else compares by value.
  static bool KeysMatch(const Row& l, const Row& r, size_t width) {
    for (size_t c = 0; c < width; ++c) {
      const Value& a = l.Get(c);
      const Value& b = r.Get(c);
      if (a.is_null() || b.is_null()) return false;
      if (a.type_id() == TypeId::kDouble &&
          std::isnan(a.f64()) != std::isnan(b.f64())) {
        return false;
      }
      if (a.type_id() == TypeId::kDouble && std::isnan(a.f64())) continue;
      if (!a.Equals(b)) return false;
    }
    return true;
  }

  /// Brute-force join of every type; `residual` adds lv < rv.
  static std::vector<Row> Expected(const std::vector<Row>& left,
                                   const std::vector<Row>& right, size_t width,
                                   JoinType type, bool residual) {
    const size_t lw = width + 1, rw = width + 1;
    std::vector<Row> out;
    std::vector<bool> right_matched(right.size(), false);
    for (const Row& l : left) {
      bool matched = false;
      for (size_t j = 0; j < right.size(); ++j) {
        const Row& r = right[j];
        if (!KeysMatch(l, r, width)) continue;
        if (residual && !(l.GetInt32(width) < r.GetInt32(width))) continue;
        matched = true;
        right_matched[j] = true;
        if (type != JoinType::kLeftSemi && type != JoinType::kLeftAnti) {
          out.push_back(Row::Concat(l, r));
        }
      }
      if ((type == JoinType::kLeftSemi && matched) ||
          (type == JoinType::kLeftAnti && !matched)) {
        out.push_back(l);
      }
      if ((type == JoinType::kLeftOuter || type == JoinType::kFullOuter) &&
          !matched) {
        out.push_back(Row::Concat(l, Row(std::vector<Value>(rw))));
      }
    }
    if (type == JoinType::kRightOuter || type == JoinType::kFullOuter) {
      for (size_t j = 0; j < right.size(); ++j) {
        if (!right_matched[j]) {
          out.push_back(Row::Concat(Row(std::vector<Value>(lw)), right[j]));
        }
      }
    }
    return out;
  }
};

TEST_P(JoinKeySweepTest, EveryAlgorithmMatchesBruteForce) {
  const auto [shape_index, null_fraction, with_residual] = GetParam();
  const JoinKeyShape shape = JoinKeyShapes()[shape_index];
  const size_t width = shape.types.size();
  std::mt19937_64 rng(shape_index * 131 + (with_residual ? 7 : 0) +
                      static_cast<int>(null_fraction * 10));
  const std::vector<Row> left = Rows(shape, 60, null_fraction, 0, &rng);
  const std::vector<Row> right = Rows(shape, 50, null_fraction, 30, &rng);
  const AttributeVector la = Attrs(shape, "l");
  const AttributeVector ra = Attrs(shape, "r");
  const ExprVector lk(la.begin(), la.begin() + width);
  const ExprVector rk(ra.begin(), ra.begin() + width);
  const ExprPtr residual =
      with_residual ? LessThan::Make(la[width], ra[width]) : nullptr;

  EngineConfig config = TestConfig();
  config.default_parallelism = 2;
  config.vectorized_enabled = true;
  ExecContext unlimited(config);
  const std::string scratch =
      ::testing::TempDir() + "/ssql-join-sweep-" + std::to_string(::getpid());
  config.query_memory_limit_bytes = 1024;  // forces the Grace fallback
  config.spill_dir = scratch;
  ExecContext limited(config);

  auto check = [&](const PhysicalPlan& join, JoinType type, bool batched,
                   ExecContext& engine, const char* algorithm) {
    QueryContextPtr query = engine.BeginQuery();
    EXPECT_EQ(join.ReadsBatches(config), batched) << algorithm;
    std::vector<Row> got = join.Execute(*query).Collect();
    EXPECT_EQ(Canonical(got),
              Canonical(Expected(left, right, width, type, with_residual)))
        << algorithm << " " << JoinTypeName(type);
    if (&engine == &limited) {
      EXPECT_GT(query->profile().Total(ProfileCounter::kSpillBytes), 0)
          << algorithm << " " << JoinTypeName(type);
    }
    query->Finish("ok");
  };
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                        JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    BroadcastHashJoinExec broadcast(ScanOf(la, left), ScanOf(ra, right), lk,
                                    rk, type, residual);
    check(broadcast, type, false, unlimited, "broadcast");
    // The stream side through the columnar cache: the probe reads batches.
    BroadcastHashJoinExec batched(CachedScanOf(la, left), ScanOf(ra, right),
                                  lk, rk, type, residual);
    check(batched, type, true, unlimited, "broadcast batched");
  }
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeftOuter, JoinType::kRightOuter,
        JoinType::kFullOuter, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    ShuffleHashJoinExec shuffle(ScanOf(la, left), ScanOf(ra, right), lk, rk,
                                type, residual);
    check(shuffle, type, false, unlimited, "shuffle hash");
    check(shuffle, type, false, limited, "shuffle hash (Grace)");
  }
  SortMergeJoinExec merge(ScanOf(la, left), ScanOf(ra, right), lk, rk,
                          JoinType::kInner, residual);
  check(merge, JoinType::kInner, false, unlimited, "sort-merge");
  std::filesystem::remove_all(scratch);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JoinKeySweepTest,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Values(0.0, 0.3),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<JoinSweepParam>& info) {
      return std::string(JoinKeyShapes()[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) > 0 ? "_nulls" : "_no_nulls") +
             (std::get<2>(info.param) ? "_residual" : "");
    });

TEST(JoinExecTest, MismatchedKeyTypesAreRejected) {
  // Analysis casts both sides of an equi-join key to one type; a plan that
  // bypasses it fails with a typed error rather than comparing int32 lanes
  // against int64 ones.
  ExecContext engine(TestConfig());
  QueryContextPtr query = engine.BeginQuery();
  AttributeVector la = KeyedAttrs("lk", "lv");
  AttributeVector ra = {
      AttributeReference::Make("rk", DataType::Int64(), true),
      AttributeReference::Make("rv", DataType::Int32(), false)};
  std::vector<Row> left = {Row({Value(int32_t{1}), Value(int32_t{10})})};
  std::vector<Row> right = {Row({Value(int64_t{1}), Value(int32_t{15})})};
  ShuffleHashJoinExec join(ScanOf(la, left), ScanOf(ra, right), {la[0]},
                           {ra[0]}, JoinType::kInner, nullptr);
  EXPECT_THROW(join.Execute(*query), ExecutionError);
}

TEST(JoinExecTest, OnlyColumnarScansAndTheirFiltersProduceBatches) {
  // Nothing packs rows into batches: asking a row operator for batches is
  // an error, and a cached scan produces them only with vectorization on.
  EngineConfig config = TestConfig();
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  AttributeVector la = KeyedAttrs("lk", "lv");
  AttributeVector ra = KeyedAttrs("rk", "rv");
  std::vector<Row> rows = {Row({Value(int32_t{1}), Value(int32_t{10})})};
  BroadcastHashJoinExec join(CachedScanOf(la, rows), ScanOf(ra, rows), {la[0]},
                             {ra[0]}, JoinType::kInner, nullptr);
  EXPECT_TRUE(join.ReadsBatches(config));
  EXPECT_FALSE(join.ProducesBatches(config));
  EXPECT_THROW(join.ExecuteBatches(*query), ExecutionError);
  EXPECT_THROW(join.Children()[1]->ExecuteBatches(*query), ExecutionError);
  EXPECT_EQ(join.Children()[0]->ExecuteBatches(*query).TotalRows(), 1u);
  config.vectorized_enabled = false;
  EXPECT_FALSE(join.Children()[0]->ProducesBatches(config));
  EXPECT_FALSE(join.ReadsBatches(config));
}

// ---------------------------------------------------------------------------
// Join selection (Section 4.3.3)
// ---------------------------------------------------------------------------

class JoinSelectionTest : public ::testing::Test {
 protected:
  JoinSelectionTest() : ctx_(TestConfig()) {
    // A "small" table with a size estimate (LocalRelation) and SQL tables.
    auto small_schema = StructType::Make({Field("id", DataType::Int32(), false)});
    std::vector<Row> small_rows;
    for (int i = 0; i < 10; ++i) small_rows.push_back(Row({Value(int32_t(i))}));
    ctx_.CreateDataFrame(small_schema, small_rows).RegisterTempTable("small");

    auto big_schema = StructType::Make({
        Field("id", DataType::Int32(), false),
        Field("v", DataType::Int32(), false),
    });
    std::vector<Row> big_rows;
    for (int i = 0; i < 1000; ++i) {
      big_rows.push_back(Row({Value(int32_t(i % 10)), Value(int32_t(i))}));
    }
    ctx_.CreateDataFrame(big_schema, big_rows).RegisterTempTable("big");
  }

  std::string PhysicalPlanFor(const std::string& sql) {
    DataFrame df = ctx_.Sql(sql);
    return ctx_.PlanPhysical(ctx_.Optimize(df.plan()))->TreeString();
  }

  SqlContext ctx_;
};

TEST_F(JoinSelectionTest, SmallBuildSideGetsBroadcast) {
  std::string plan =
      PhysicalPlanFor("SELECT big.v FROM big JOIN small ON big.id = small.id");
  EXPECT_NE(plan.find("BroadcastHashJoin"), std::string::npos) << plan;
}

TEST_F(JoinSelectionTest, LargeBuildSideGetsShuffleJoin) {
  EngineConfig config = TestConfig();
  config.broadcast_threshold_bytes = 16;  // nothing is "small"
  SqlContext tight(config);
  auto schema = StructType::Make({Field("id", DataType::Int32(), false)});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Row({Value(int32_t(i))}));
  tight.CreateDataFrame(schema, rows).RegisterTempTable("a");
  tight.CreateDataFrame(schema, rows).RegisterTempTable("b");
  DataFrame df = tight.Sql("SELECT a.id FROM a JOIN b ON a.id = b.id");
  std::string plan = tight.PlanPhysical(tight.Optimize(df.plan()))->TreeString();
  EXPECT_NE(plan.find("ShuffleHashJoin"), std::string::npos) << plan;
}

TEST_F(JoinSelectionTest, JoinSelectionDisabledForcesShuffle) {
  ctx_.UpdateConfig([&](EngineConfig& c) { c.join_selection_enabled = false; });
  std::string plan =
      PhysicalPlanFor("SELECT big.v FROM big JOIN small ON big.id = small.id");
  EXPECT_EQ(plan.find("BroadcastHashJoin"), std::string::npos) << plan;
  ctx_.UpdateConfig([&](EngineConfig& c) { c.join_selection_enabled = true; });
}

TEST_F(JoinSelectionTest, PreferSortMergeConfig) {
  EngineConfig config = TestConfig();
  config.broadcast_threshold_bytes = 16;
  config.prefer_sort_merge_join = true;
  SqlContext smj(config);
  auto schema = StructType::Make({Field("id", DataType::Int32(), false)});
  std::vector<Row> rows = {Row({Value(int32_t{1})})};
  smj.CreateDataFrame(schema, rows).RegisterTempTable("a");
  smj.CreateDataFrame(schema, rows).RegisterTempTable("b");
  DataFrame df = smj.Sql("SELECT a.id FROM a JOIN b ON a.id = b.id");
  std::string plan = smj.PlanPhysical(smj.Optimize(df.plan()))->TreeString();
  EXPECT_NE(plan.find("SortMergeJoin"), std::string::npos) << plan;
}

TEST_F(JoinSelectionTest, NonEquiJoinUsesNestedLoop) {
  std::string plan =
      PhysicalPlanFor("SELECT big.v FROM big JOIN small ON big.id < small.id");
  EXPECT_NE(plan.find("NestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(JoinSelectionTest, ResultsIdenticalAcrossStrategies) {
  const char* sql =
      "SELECT big.v, small.id FROM big JOIN small ON big.id = small.id "
      "WHERE big.v < 100";
  auto baseline = Canonical(ctx_.Sql(sql).Collect());
  ctx_.UpdateConfig([&](EngineConfig& c) { c.join_selection_enabled = false; });
  EXPECT_EQ(Canonical(ctx_.Sql(sql).Collect()), baseline);
  ctx_.UpdateConfig([&](EngineConfig& c) { c.join_selection_enabled = true; });
  ctx_.UpdateConfig([&](EngineConfig& c) { c.prefer_sort_merge_join = true; });
  ctx_.UpdateConfig([&](EngineConfig& c) { c.broadcast_threshold_bytes = 1; });
  EXPECT_EQ(Canonical(ctx_.Sql(sql).Collect()), baseline);
}

// ---------------------------------------------------------------------------
// Aggregation protocol / sort / limit / union / sample
// ---------------------------------------------------------------------------

class ExecOpsTest : public ::testing::Test {
 protected:
  ExecOpsTest() : ctx_(TestConfig()) {
    auto schema = StructType::Make({
        Field("k", DataType::Int32(), true),
        Field("v", DataType::Int64(), true),
    });
    std::vector<Row> rows;
    for (int i = 0; i < 500; ++i) {
      Value key = (i % 50 == 0) ? Value::Null() : Value(int32_t(i % 7));
      Value value = (i % 31 == 0) ? Value::Null() : Value(int64_t(i));
      rows.push_back(Row({key, value}));
    }
    ctx_.CreateDataFrame(schema, rows).RegisterTempTable("data");
  }
  SqlContext ctx_;
};

TEST_F(ExecOpsTest, GroupedAggregationMatchesSingleThreadedReference) {
  auto rows = ctx_.Sql(
                     "SELECT k, count(*), count(v), sum(v), avg(v), min(v), "
                     "max(v) FROM data GROUP BY k ORDER BY k")
                  .Collect();
  // Reference computation.
  struct Ref {
    int64_t count = 0, count_v = 0, sum = 0, min = INT64_MAX, max = INT64_MIN;
  };
  std::map<std::string, Ref> ref;
  for (int i = 0; i < 500; ++i) {
    bool null_key = i % 50 == 0;
    std::string key = null_key ? "null" : std::to_string(i % 7);
    Ref& r = ref[key];
    r.count++;
    if (i % 31 != 0) {
      r.count_v++;
      r.sum += i;
      r.min = std::min<int64_t>(r.min, i);
      r.max = std::max<int64_t>(r.max, i);
    }
  }
  ASSERT_EQ(rows.size(), ref.size());  // 7 keys + null group
  for (const Row& row : rows) {
    std::string key = row.IsNullAt(0) ? "null" : std::to_string(row.GetInt32(0));
    const Ref& r = ref[key];
    EXPECT_EQ(row.GetInt64(1), r.count) << key;
    EXPECT_EQ(row.GetInt64(2), r.count_v) << key;
    EXPECT_EQ(row.GetInt64(3), r.sum) << key;
    EXPECT_DOUBLE_EQ(row.GetDouble(4),
                     static_cast<double>(r.sum) / r.count_v)
        << key;
    EXPECT_EQ(row.GetInt64(5), r.min) << key;
    EXPECT_EQ(row.GetInt64(6), r.max) << key;
  }
}

TEST_F(ExecOpsTest, AggregateExpressionsOverAggregates) {
  // sum(v) / count(v) + 1 exercises result-expression rewriting in the
  // Final stage.
  auto rows =
      ctx_.Sql("SELECT sum(v) / count(v) + 1 FROM data WHERE v IS NOT NULL")
          .Collect();
  ASSERT_EQ(rows.size(), 1u);
  double expected = 0;
  int64_t sum = 0, count = 0;
  for (int i = 0; i < 500; ++i) {
    if (i % 31 != 0) {
      sum += i;
      ++count;
    }
  }
  expected = static_cast<double>(sum) / count + 1;
  EXPECT_DOUBLE_EQ(rows[0].GetDouble(0), expected);
}

TEST_F(ExecOpsTest, EmptyInputGlobalAggregate) {
  auto rows =
      ctx_.Sql("SELECT count(*), sum(v), avg(v) FROM data WHERE k = 9999")
          .Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetInt64(0), 0);
  EXPECT_TRUE(rows[0].IsNullAt(1));
  EXPECT_TRUE(rows[0].IsNullAt(2));
}

TEST_F(ExecOpsTest, SortIsStableAndHandlesNulls) {
  auto rows = ctx_.Sql(
                     "SELECT k, v FROM data ORDER BY k ASC, v DESC LIMIT 20")
                  .Collect();
  ASSERT_EQ(rows.size(), 20u);
  // Nulls sort first.
  EXPECT_TRUE(rows[0].IsNullAt(0));
  // Within the null-key group, v descends.
  int64_t prev = INT64_MAX;
  for (const Row& r : rows) {
    if (!r.IsNullAt(0)) break;
    if (!r.IsNullAt(1)) {
      EXPECT_LE(r.GetInt64(1), prev);
      prev = r.GetInt64(1);
    }
  }
}

TEST(SortNanTest, OrderByPlacesNanAfterEveryNumber) {
  // Value::Compare makes NaN equal to every number; sorting with it is not
  // a strict weak order and used to leave the numbers out of order.
  // ORDER BY sorts NaN after every number (first under DESC), nulls first.
  SqlContext ctx(TestConfig());
  std::mt19937_64 rng(11);
  std::vector<Row> rows;
  int nans = 0;
  int nulls = 0;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t draw = rng() % 100;
    if (draw < 20) {
      rows.push_back(Row({Value(std::nan(""))}));
      ++nans;
    } else if (draw < 25) {
      rows.push_back(Row({Value::Null()}));
      ++nulls;
    } else {
      rows.push_back(Row({Value(static_cast<double>(rng() % 1000) - 500.0)}));
    }
  }
  ctx.CreateDataFrame(StructType::Make({Field("d", DataType::Double(), true)}),
                      std::move(rows))
      .RegisterTempTable("t");
  for (const bool ascending : {true, false}) {
    SCOPED_TRACE(ascending ? "ASC" : "DESC");
    auto sorted =
        ctx.Sql(std::string("SELECT d FROM t ORDER BY d ") +
                (ascending ? "ASC" : "DESC"))
            .Collect();
    ASSERT_EQ(sorted.size(), 2000u);
    // Rank: null 0, number 1, NaN 2 under ASC; DESC reverses it.
    auto rank = [](const Row& r) {
      if (r.IsNullAt(0)) return 0;
      return std::isnan(r.GetDouble(0)) ? 2 : 1;
    };
    int seen_nans = 0;
    int seen_nulls = 0;
    int inversions = 0;
    for (size_t i = 0; i < sorted.size(); ++i) {
      seen_nans += rank(sorted[i]) == 2;
      seen_nulls += rank(sorted[i]) == 0;
      if (i == 0) continue;
      const Row& a = sorted[i - 1];
      const Row& b = sorted[i];
      const bool out_of_order =
          ascending ? rank(a) > rank(b) : rank(a) < rank(b);
      const bool numbers_out_of_order =
          rank(a) == 1 && rank(b) == 1 &&
          (ascending ? a.GetDouble(0) > b.GetDouble(0)
                     : a.GetDouble(0) < b.GetDouble(0));
      inversions += out_of_order || numbers_out_of_order;
    }
    EXPECT_EQ(inversions, 0);
    EXPECT_EQ(seen_nans, nans);
    EXPECT_EQ(seen_nulls, nulls);
  }
}

TEST_F(ExecOpsTest, SampleIsDeterministicBySeed) {
  DataFrame data = ctx_.Table("data");
  int64_t a = data.Sample(0.3, 7).Count();
  int64_t b = data.Sample(0.3, 7).Count();
  EXPECT_EQ(a, b);
  // Roughly 30% of 500.
  EXPECT_GT(a, 80);
  EXPECT_LT(a, 240);
}

TEST_F(ExecOpsTest, UnionConcatenates) {
  DataFrame data = ctx_.Table("data");
  EXPECT_EQ(data.UnionAll(data).Count(), 1000);
}

TEST_F(ExecOpsTest, OperatorFusionProducesSameResults) {
  const char* sql = "SELECT k, v * 2 FROM data WHERE v > 100 AND k IS NOT NULL";
  auto fused = Canonical(ctx_.Sql(sql).Collect());
  ctx_.UpdateConfig([&](EngineConfig& c) { c.operator_fusion_enabled = false; });
  auto unfused = Canonical(ctx_.Sql(sql).Collect());
  ctx_.UpdateConfig([&](EngineConfig& c) { c.operator_fusion_enabled = true; });
  EXPECT_EQ(fused, unfused);
}

TEST(CostModelTest, EstimatesFollowPlanShape) {
  auto schema = StructType::Make({
      Field("a", DataType::Int32(), false),
      Field("b", DataType::Int32(), false),
  });
  std::vector<Row> rows(100, Row({Value(int32_t{1}), Value(int32_t{2})}));
  PlanPtr local = LocalRelation::FromSchema(schema, rows);
  auto base = EstimatePlanSizeBytes(local);
  ASSERT_TRUE(base.has_value());

  // Limit caps the estimate.
  auto limited = EstimatePlanSizeBytes(Limit::Make(2, local));
  ASSERT_TRUE(limited.has_value());
  EXPECT_LT(*limited, *base);

  // Filters deliberately do NOT shrink the estimate (Spark 1.3 behaviour,
  // the reason for the paper's query 3a gap).
  PlanPtr filtered = Filter::Make(
      EqualTo::Make(local->Output()[0],
                    Literal::Make(Value(int32_t{1}), DataType::Int32())),
      local);
  auto filter_est = EstimatePlanSizeBytes(filtered);
  ASSERT_TRUE(filter_est.has_value());
  EXPECT_EQ(*filter_est, *base);

  // Joins are unknown.
  EXPECT_FALSE(EstimatePlanSizeBytes(
                   Join::Make(local, local, JoinType::kInner, nullptr))
                   .has_value());
}

// ---- Vectorized batch-tail sweep ---------------------------------------

/// Empty relation, single row, and batch_size ± 1 rows all flow through
/// the batched pipeline (native columnar scan → vector filter → partial
/// aggregate) with results identical to the row path. Tables are cached so
/// the source is natively columnar — the shape that engages batching.
TEST(VectorizedTailTest, BatchBoundarySizesMatchRowPath) {
  constexpr size_t kBatchSize = 8;
  for (size_t n : {size_t{0}, size_t{1}, kBatchSize - 1, kBatchSize,
                   kBatchSize + 1, 3 * kBatchSize + 1}) {
    EngineConfig batched_config = TestConfig();
    batched_config.batch_size = kBatchSize;
    batched_config.vectorized_enabled = true;
    EngineConfig row_config = TestConfig();
    row_config.vectorized_enabled = false;
    SqlContext batched(batched_config);
    SqlContext row_path(row_config);
    for (SqlContext* ctx : {&batched, &row_path}) {
      auto schema = StructType::Make({
          Field("k", DataType::Int32(), true),
          Field("v", DataType::Int64(), true),
      });
      std::mt19937_64 rng(77);
      std::vector<Row> rows;
      for (size_t i = 0; i < n; ++i) {
        Value k = rng() % 5 == 0 ? Value::Null()
                                 : Value(static_cast<int32_t>(rng() % 4));
        Value v = rng() % 7 == 0 ? Value::Null()
                                 : Value(static_cast<int64_t>(rng() % 100));
        rows.push_back(Row({k, v}));
      }
      DataFrame df = ctx->CreateDataFrame(schema, rows);
      df.RegisterTempTable("t");
      df.Cache();
    }
    for (const char* sql :
         {"SELECT sum(v), count(*) FROM t",
          "SELECT k, sum(v) FROM t WHERE v > 10 GROUP BY k",
          "SELECT k + 1, v FROM t WHERE k IS NOT NULL"}) {
      auto a = Canonical(batched.Sql(sql).Collect());
      auto b = Canonical(row_path.Sql(sql).Collect());
      EXPECT_EQ(a, b) << sql << " with n=" << n;
    }
  }
}

}  // namespace
}  // namespace ssql
