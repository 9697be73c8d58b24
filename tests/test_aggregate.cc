// Hash-aggregation differential sweep: every grouped query is checked
// against a std::map oracle computed here from the same generated rows,
// across key shapes (int32, nullable int64, date, string, substr(...),
// (int, string) pairs, doubles with NULL/NaN/-0.0), aggregate functions,
// and execution settings (row path vs cached batched path at batch_size 1
// and 1024, codegen on and off, unlimited / 64 KiB spilling / engine-pool
// budgets), plus edge cases: empty input, more than 70k groups, keys longer
// than one arena chunk, and keys with embedded NUL bytes.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>

#include "api/sql_context.h"
#include "engine/exec_context.h"

namespace ssql {
namespace {

// ---- rendering: one canonical string per value ------------------------------

/// Canonical text of a value, shared by the oracle and the engine's rows.
/// Pins Value::Equals grouping semantics for doubles: -0.0 renders like
/// 0.0 and every NaN renders alike. Strings are length-prefixed so
/// embedded NUL bytes and separators stay unambiguous.
std::string Render(const Value& v) {
  switch (v.type_id()) {
    case TypeId::kNull:
      return "N";
    case TypeId::kBoolean:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
      return "I" + std::to_string(v.AsInt64());
    case TypeId::kDouble: {
      double d = v.f64();
      if (std::isnan(d)) return "Dnan";
      if (d == 0.0) return "D0";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "D%a", d);
      return buf;
    }
    case TypeId::kDecimal:
      return "M" + std::to_string(v.decimal().unscaled());
    case TypeId::kString:
      return "S" + std::to_string(v.str().size()) + ":" + v.str();
    default:
      return "?" + v.ToString();
  }
}

std::string RenderRow(const Row& row) {
  std::string out;
  for (const Value& v : row.values()) out += Render(v) + "|";
  return out;
}

std::multiset<std::string> RenderRows(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& r : rows) out.insert(RenderRow(r));
  return out;
}

// ---- data ---------------------------------------------------------------

constexpr int kDecScale = 2;

std::shared_ptr<const StructType> Schema() {
  return StructType::Make({
      Field("i", DataType::Int32(), false),
      Field("n", DataType::Int64(), true),
      Field("dt", DataType::Date(), false),
      Field("s", DataType::String(), false),
      Field("d", DataType::Double(), true),
      Field("v", DataType::Int32(), true),
      Field("x", DataType::Double(), true),
      Field("m", DecimalType::Make(8, kDecScale), true),
      Field("t", DataType::String(), true),
  });
}

/// Column ordinals of Schema().
enum Col { kI, kN, kDt, kS, kD, kV, kX, kM, kT };

std::vector<Row> MakeRows(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const double kDoubles[] = {0.0, -0.0, 1.5, -2.25, 1e300,
                             std::numeric_limits<double>::quiet_NaN()};
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    auto maybe_null = [&](int one_in, Value v) {
      return rng() % one_in == 0 ? Value::Null() : v;
    };
    std::string s = "k" + std::to_string(rng() % 97);
    if (rng() % 5 == 0) s += "-longer-suffix-" + std::to_string(rng() % 13);
    rows.push_back(Row({
        Value(static_cast<int32_t>(rng() % 23)),
        maybe_null(6, Value(static_cast<int64_t>(rng() % 40) - 20)),
        Value(DateValue{static_cast<int32_t>(18000 + rng() % 9)}),
        Value(s),
        maybe_null(7, Value(kDoubles[rng() % 6])),
        maybe_null(5, Value(static_cast<int32_t>(rng() % 1000) - 300)),
        // Multiples of 1/16: every partial sum is exact, so the engine's
        // per-partition summation order cannot change the result bits.
        maybe_null(5, Value(static_cast<double>(rng() % 4000) / 16.0)),
        maybe_null(4, Value(Decimal(static_cast<int64_t>(rng() % 100000),
                                    8, kDecScale))),
        maybe_null(3, Value("t" + std::to_string(rng() % 50))),
    }));
  }
  return rows;
}

// ---- oracle ---------------------------------------------------------------

/// The aggregate list every sweep query computes, in SQL and in the oracle.
const char* kAggSql =
    "count(*), count(v), sum(v), sum(x), sum(m), avg(v), min(v), max(x), "
    "min(t), max(t), count(DISTINCT v)";

struct Acc {
  int64_t rows = 0, count_v = 0, sum_v = 0, sum_m = 0;
  double sum_x = 0;
  bool any_x = false, any_m = false;
  std::optional<int32_t> min_v;
  std::optional<double> max_x;
  std::optional<std::string> min_t, max_t;
  std::set<int32_t> distinct_v;
};

void Fold(Acc* a, const Row& row) {
  a->rows += 1;
  if (!row.IsNullAt(kV)) {
    int32_t v = row.GetInt32(kV);
    a->count_v += 1;
    a->sum_v += v;
    a->min_v = a->min_v ? std::min(*a->min_v, v) : v;
    a->distinct_v.insert(v);
  }
  if (!row.IsNullAt(kX)) {
    double x = row.GetDouble(kX);
    a->sum_x += x;
    a->any_x = true;
    a->max_x = a->max_x ? std::max(*a->max_x, x) : x;
  }
  if (!row.IsNullAt(kM)) {
    a->sum_m += row.Get(kM).decimal().unscaled();
    a->any_m = true;
  }
  if (!row.IsNullAt(kT)) {
    const std::string& t = row.GetString(kT);
    a->min_t = a->min_t ? std::min(*a->min_t, t) : t;
    a->max_t = a->max_t ? std::max(*a->max_t, t) : t;
  }
}

std::string RenderAcc(const Acc& a) {
  auto opt = [](bool has, Value v) { return Render(has ? v : Value::Null()); };
  std::string out;
  out += Render(Value(a.rows)) + "|";
  out += Render(Value(a.count_v)) + "|";
  out += opt(a.count_v > 0, Value(a.sum_v)) + "|";
  out += opt(a.any_x, Value(a.sum_x)) + "|";
  out += opt(a.any_m, Value(Decimal(a.sum_m, 18, kDecScale))) + "|";
  out += opt(a.count_v > 0, Value(static_cast<double>(a.sum_v) /
                                  static_cast<double>(a.count_v))) + "|";
  out += opt(a.min_v.has_value(), Value(a.min_v.value_or(0))) + "|";
  out += opt(a.max_x.has_value(), Value(a.max_x.value_or(0))) + "|";
  out += opt(a.min_t.has_value(), Value(a.min_t.value_or(""))) + "|";
  out += opt(a.max_t.has_value(), Value(a.max_t.value_or(""))) + "|";
  out += Render(Value(static_cast<int64_t>(a.distinct_v.size()))) + "|";
  return out;
}

/// A grouping shape: its SQL key list and how the oracle derives the key
/// values of one input row.
struct KeyShape {
  std::string name;
  std::string sql;
  std::function<std::vector<Value>(const Row&)> key;
};

std::vector<KeyShape> KeyShapes() {
  auto col = [](Col c) {
    return [c](const Row& r) { return std::vector<Value>{r.Get(c)}; };
  };
  return {
      {"int32", "i", col(kI)},
      {"nullable_int64", "n", col(kN)},
      {"date", "dt", col(kDt)},
      {"string", "s", col(kS)},
      {"substr", "substr(s, 1, 3)",
       [](const Row& r) {
         return std::vector<Value>{Value(r.GetString(kS).substr(0, 3))};
       }},
      {"int_string", "i, s",
       [](const Row& r) { return std::vector<Value>{r.Get(kI), r.Get(kS)}; }},
      {"double_null_nan_negzero", "d", col(kD)},
  };
}

/// Expected rendered result rows of `SELECT <keys>, kAggSql ... GROUP BY`.
std::multiset<std::string> Oracle(const std::vector<Row>& rows,
                                  const KeyShape& shape) {
  std::map<std::string, Acc> groups;
  for (const Row& r : rows) {
    std::string key;
    for (const Value& v : shape.key(r)) key += Render(v) + "|";
    Fold(&groups[key], r);
  }
  std::multiset<std::string> out;
  for (const auto& [key, acc] : groups) out.insert(key + RenderAcc(acc));
  return out;
}

// ---- execution settings --------------------------------------------------

enum class Budget { kUnlimited, kQuerySpill64K, kEnginePool64K };

struct Setting {
  bool batched;
  size_t batch_size;
  bool codegen;
  Budget budget;

  std::string Name() const {
    std::string s = batched ? "batched" + std::to_string(batch_size) : "row";
    s += codegen ? "/codegen" : "/interpreted";
    s += budget == Budget::kUnlimited       ? "/unlimited"
         : budget == Budget::kQuerySpill64K ? "/query64k"
                                            : "/pool64k";
    return s;
  }

  EngineConfig Config() const {
    EngineConfig c;
    c.num_threads = 2;
    c.default_parallelism = 3;
    c.vectorized_enabled = batched;
    c.batch_size = batch_size;
    c.codegen_enabled = codegen;
    if (budget == Budget::kQuerySpill64K) c.query_memory_limit_bytes = 64 << 10;
    if (budget == Budget::kEnginePool64K) c.total_memory_limit_bytes = 64 << 10;
    return c;
  }
};

/// gtest prints a parameter it cannot format as its raw bytes, padding
/// included, into the listed test name; zeroing the padding keeps those
/// names the same from run to run instead of leaking stack addresses.
Setting MakeSetting(bool batched, size_t batch_size, bool codegen,
                    Budget budget) {
  Setting s;
  std::memset(&s, 0, sizeof(s));
  s.batched = batched;
  s.batch_size = batch_size;
  s.codegen = codegen;
  s.budget = budget;
  return s;
}

std::vector<Setting> AllSettings() {
  std::vector<Setting> out;
  for (Budget budget :
       {Budget::kUnlimited, Budget::kQuerySpill64K, Budget::kEnginePool64K}) {
    for (bool codegen : {true, false}) {
      out.push_back(MakeSetting(false, 1024, codegen, budget));
      out.push_back(MakeSetting(true, 1, codegen, budget));
      out.push_back(MakeSetting(true, 1024, codegen, budget));
    }
  }
  return out;
}

/// Registers `rows` as table `t` in a context built for `setting`; the
/// batched settings cache it so the partial aggregate runs batched.
std::unique_ptr<SqlContext> ContextFor(const Setting& setting,
                                       const std::vector<Row>& rows) {
  auto ctx = std::make_unique<SqlContext>(setting.Config());
  DataFrame df = ctx->CreateDataFrame(Schema(), rows);
  df.RegisterTempTable("t");
  if (setting.batched) df.Cache();
  return ctx;
}

class AggregateSweepTest : public ::testing::TestWithParam<Setting> {};

TEST_P(AggregateSweepTest, EveryKeyShapeMatchesOracle) {
  const std::vector<Row> rows = MakeRows(3000, 7);
  auto ctx = ContextFor(GetParam(), rows);
  for (const KeyShape& shape : KeyShapes()) {
    std::string sql = "SELECT " + shape.sql + ", " + kAggSql +
                      " FROM t GROUP BY " + shape.sql;
    EXPECT_EQ(RenderRows(ctx->Sql(sql).Collect()), Oracle(rows, shape))
        << shape.name << " under " << GetParam().Name();
  }
}

TEST_P(AggregateSweepTest, BatchedSettingsRunBatched) {
  auto ctx = ContextFor(GetParam(), MakeRows(10, 1));
  std::string plan =
      ctx->Sql("SELECT s, sum(v) FROM t GROUP BY s").Explain(true);
  size_t partial = plan.find("HashAggregate(Partial)");
  ASSERT_NE(partial, std::string::npos) << plan;
  std::string line = plan.substr(partial, plan.find('\n', partial) - partial);
  EXPECT_EQ(line.find("[batched]") != std::string::npos, GetParam().batched)
      << plan;
}

TEST_P(AggregateSweepTest, EmptyInput) {
  auto ctx = ContextFor(GetParam(), {});
  EXPECT_TRUE(ctx->Sql(std::string("SELECT s, ") + kAggSql +
                       " FROM t GROUP BY s")
                  .Collect()
                  .empty());
  // A global aggregate over nothing still yields its one row.
  std::vector<Row> global =
      ctx->Sql(std::string("SELECT ") + kAggSql + " FROM t").Collect();
  ASSERT_EQ(global.size(), 1u);
  EXPECT_EQ(RenderRow(global[0]), RenderAcc(Acc{}));
}

TEST_P(AggregateSweepTest, GlobalAggregateMatchesOracle) {
  const std::vector<Row> rows = MakeRows(2000, 3);
  auto ctx = ContextFor(GetParam(), rows);
  std::vector<Row> got =
      ctx->Sql(std::string("SELECT ") + kAggSql + " FROM t").Collect();
  Acc expected;
  for (const Row& r : rows) Fold(&expected, r);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(RenderRow(got[0]), RenderAcc(expected));
}

INSTANTIATE_TEST_SUITE_P(
    Settings, AggregateSweepTest, ::testing::ValuesIn(AllSettings()),
    [](const ::testing::TestParamInfo<Setting>& info) {
      std::string name = info.param.Name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- edge cases ----------------------------------------------------------

/// Runs `sql` under every budget (row path, codegen on) and expects
/// `expected` each time; returns the spill bytes of the 64 KiB run.
int64_t ExpectUnderEveryBudget(const std::vector<Row>& rows,
                               const std::string& sql,
                               const std::multiset<std::string>& expected) {
  int64_t spilled = 0;
  for (Budget budget :
       {Budget::kUnlimited, Budget::kQuerySpill64K, Budget::kEnginePool64K}) {
    Setting setting{false, 1024, true, budget};
    auto ctx = ContextFor(setting, rows);
    EXPECT_EQ(RenderRows(ctx->Sql(sql).Collect()), expected)
        << sql << " under " << setting.Name();
    if (budget == Budget::kQuerySpill64K) {
      spilled = ctx->last_profile().Total(ProfileCounter::kSpillBytes);
    }
  }
  return spilled;
}

Row RowWith(int32_t i, std::string s, int32_t v) {
  Row r = MakeRows(1, static_cast<uint64_t>(i))[0];
  r.Set(kI, Value(i));
  r.Set(kS, Value(std::move(s)));
  r.Set(kV, Value(v));
  return r;
}

TEST(AggregateEdgeTest, SeventyThousandGroupsResizeAndSpill) {
  std::vector<Row> rows;
  for (int32_t g = 0; g < 72000; ++g) {
    rows.push_back(RowWith(g, "key" + std::to_string(g * 7919 % 72000), g));
  }
  for (int32_t g = 0; g < 72000; g += 3) {
    rows.push_back(RowWith(g, "key" + std::to_string(g * 7919 % 72000), 1));
  }
  for (const KeyShape& shape : KeyShapes()) {
    if (shape.name != "int32" && shape.name != "string" &&
        shape.name != "int_string") {
      continue;
    }
    std::string sql = "SELECT " + shape.sql + ", " + kAggSql +
                      " FROM t GROUP BY " + shape.sql;
    EXPECT_GT(ExpectUnderEveryBudget(rows, sql, Oracle(rows, shape)), 0)
        << "72k groups under 64 KiB must spill: " << sql;
  }
}

TEST(AggregateEdgeTest, KeysLongerThanOneArenaChunkAndEmbeddedNul) {
  const std::string big(70 * 1024, 'z');
  const std::vector<std::string> keys = {
      big, big + "a", big + std::string("\0", 1), std::string(200 * 1024, 'y'),
      std::string("a\0b", 3), std::string("a\0c", 3), std::string("a", 1),
      std::string("\0", 1), "", std::string(1023, 'q'), std::string(1025, 'q')};
  std::vector<Row> rows;
  for (int rep = 0; rep < 5; ++rep) {
    for (size_t k = 0; k < keys.size(); ++k) {
      rows.push_back(RowWith(static_cast<int32_t>(k), keys[k],
                             static_cast<int32_t>(rep * 10 + k)));
    }
  }
  for (const KeyShape& shape : KeyShapes()) {
    if (shape.name != "string" && shape.name != "int_string" &&
        shape.name != "substr") {
      continue;
    }
    std::string sql = "SELECT " + shape.sql + ", " + kAggSql +
                      " FROM t GROUP BY " + shape.sql;
    std::multiset<std::string> expected = Oracle(rows, shape);
    ExpectUnderEveryBudget(rows, sql, expected);
    for (bool codegen : {true, false}) {
      Setting batched{true, 1024, codegen, Budget::kUnlimited};
      auto ctx = ContextFor(batched, rows);
      EXPECT_EQ(RenderRows(ctx->Sql(sql).Collect()), expected)
          << sql << " under " << batched.Name();
    }
  }
}

// ---- memory accounting ----------------------------------------------------

TEST(AggregateMemoryTest, UnlimitedIntKeyGroupByReportsItsWorkingSet) {
  Setting setting{false, 1024, true, Budget::kUnlimited};
  auto ctx = ContextFor(setting, MakeRows(5000, 9));
  ctx->Sql("SELECT i, sum(v), count(*) FROM t GROUP BY i").Collect();
  EXPECT_GT(ctx->last_profile().Total(ProfileCounter::kPeakReservedBytes), 0);
  EXPECT_EQ(ctx->last_profile().Total(ProfileCounter::kSpillBytes), 0);
}

}  // namespace
}  // namespace ssql
