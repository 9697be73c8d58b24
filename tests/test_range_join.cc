// Section 7.2 tests: the interval tree, the planner's range-join
// detection, and end-to-end equivalence between the interval join and the
// naive nested-loop plan on the paper's genomics query and on NaN, date and
// 18-digit decimal bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "api/sql_context.h"
#include "exec/interval_join_exec.h"

namespace ssql {
namespace {

TEST(IntervalTreeTest, BasicQueries) {
  IntervalTree tree({{1.0, 5.0, 0}, {3.0, 8.0, 1}, {10.0, 12.0, 2}});
  std::vector<size_t> out;
  tree.Query(4.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<size_t>{0, 1}));

  out.clear();
  tree.Query(9.0, &out);
  EXPECT_TRUE(out.empty());

  out.clear();
  tree.Query(11.0, &out);
  EXPECT_EQ(out, (std::vector<size_t>{2}));
}

TEST(IntervalTreeTest, StrictBoundaries) {
  IntervalTree tree({{1.0, 5.0, 0}});
  std::vector<size_t> out;
  tree.Query(1.0, &out);  // start < p is strict
  EXPECT_TRUE(out.empty());
  tree.Query(5.0, &out);  // p < end is strict
  EXPECT_TRUE(out.empty());
  tree.Query(1.0001, &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(IntervalTreeTest, MatchesBruteForceOnRandomData) {
  std::mt19937_64 rng(42);
  std::vector<IntervalTree::Interval> intervals;
  for (size_t i = 0; i < 300; ++i) {
    double start = static_cast<double>(rng() % 1000);
    double len = 1.0 + static_cast<double>(rng() % 50);
    intervals.push_back({start, start + len, i});
  }
  IntervalTree tree(intervals);
  for (int q = 0; q < 200; ++q) {
    double p = static_cast<double>(rng() % 1100);
    std::vector<size_t> got;
    tree.Query(p, &got);
    std::vector<size_t> expected;
    for (const auto& iv : intervals) {
      if (iv.start.f64() < p && p < iv.end.f64()) {
        expected.push_back(iv.payload);
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(got, expected) << "p=" << p;
  }
}

class RangeJoinTest : public ::testing::Test {
 protected:
  RangeJoinTest() {
    EngineConfig config;
    config.num_threads = 2;
    config.default_parallelism = 2;
    ctx_ = std::make_unique<SqlContext>(config);

    auto schema = StructType::Make({
        Field("start", DataType::Int64(), false),
        Field("end", DataType::Int64(), false),
    });
    std::mt19937_64 rng(7);
    std::vector<Row> a_rows, b_rows;
    for (int i = 0; i < 200; ++i) {
      int64_t s = rng() % 2000;
      a_rows.push_back(Row({Value(s), Value(s + 1 + int64_t(rng() % 60))}));
      int64_t t = rng() % 2000;
      b_rows.push_back(Row({Value(t), Value(t + 1 + int64_t(rng() % 60))}));
    }
    ctx_->CreateDataFrame(schema, a_rows).RegisterTempTable("a");
    ctx_->CreateDataFrame(schema, b_rows).RegisterTempTable("b");
  }

  // The paper's Section 7.2 query, verbatim structure.
  static constexpr const char* kQuery =
      "SELECT * FROM a JOIN b "
      "ON a.start < a.end AND b.start < b.end "
      "AND a.start < b.start AND b.start < a.end";

  std::unique_ptr<SqlContext> ctx_;
};

TEST_F(RangeJoinTest, PlannerDetectsIntervalJoin) {
  DataFrame df = ctx_->Sql(kQuery);
  std::string plan = ctx_->PlanPhysical(ctx_->Optimize(df.plan()))->TreeString();
  EXPECT_NE(plan.find("IntervalJoin"), std::string::npos) << plan;
}

TEST_F(RangeJoinTest, DisabledRuleFallsBackToNestedLoop) {
  ctx_->UpdateConfig([&](EngineConfig& c) { c.range_join_enabled = false; });
  DataFrame df = ctx_->Sql(kQuery);
  std::string plan = ctx_->PlanPhysical(ctx_->Optimize(df.plan()))->TreeString();
  EXPECT_EQ(plan.find("IntervalJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("NestedLoopJoin"), std::string::npos) << plan;
  ctx_->UpdateConfig([&](EngineConfig& c) { c.range_join_enabled = true; });
}

TEST_F(RangeJoinTest, IntervalAndNestedLoopAgree) {
  auto canonical = [](std::vector<Row> rows) {
    std::vector<std::string> out;
    out.reserve(rows.size());
    for (const Row& r : rows) out.push_back(r.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  auto fast = canonical(ctx_->Sql(kQuery).Collect());
  ctx_->UpdateConfig([&](EngineConfig& c) { c.range_join_enabled = false; });
  auto slow = canonical(ctx_->Sql(kQuery).Collect());
  ctx_->UpdateConfig([&](EngineConfig& c) { c.range_join_enabled = true; });
  EXPECT_GT(fast.size(), 0u);
  EXPECT_EQ(fast, slow);
}

TEST_F(RangeJoinTest, PointProbeFormAlsoDetected) {
  // b supplies a point column; a supplies the interval.
  auto pts = StructType::Make({Field("p", DataType::Int64(), false)});
  std::vector<Row> p_rows;
  for (int i = 0; i < 100; ++i) p_rows.push_back(Row({Value(int64_t(i * 17))}));
  ctx_->CreateDataFrame(pts, p_rows).RegisterTempTable("pts");
  DataFrame df = ctx_->Sql(
      "SELECT * FROM a JOIN pts ON a.start < pts.p AND pts.p < a.end");
  std::string plan = ctx_->PlanPhysical(ctx_->Optimize(df.plan()))->TreeString();
  EXPECT_NE(plan.find("IntervalJoin"), std::string::npos) << plan;
  // And results match the nested loop.
  auto fast = df.Count();
  ctx_->UpdateConfig([&](EngineConfig& c) { c.range_join_enabled = false; });
  auto slow = ctx_->Sql(
                      "SELECT * FROM a JOIN pts ON a.start < pts.p AND "
                      "pts.p < a.end")
                  .Count();
  ctx_->UpdateConfig([&](EngineConfig& c) { c.range_join_enabled = true; });
  EXPECT_EQ(fast, slow);
}

TEST(RangeJoinOrderTest, IntervalJoinFollowsTheValueOrder) {
  // NaN follows every number (so an interval ending at NaN is open on the
  // right), and dates and 18-digit decimals compare exactly.
  SqlContext ctx;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t x = 123456789012345678;
  struct Case {
    DataTypePtr type;
    std::vector<std::pair<Value, Value>> intervals;
    std::vector<Value> points;
    int64_t matches;
  };
  const std::vector<Case> cases = {
      {DataType::Double(),
       {{Value(0.0), Value(nan)},
        {Value(1.0), Value(2.0)},
        {Value(nan), Value(nan)},
        {Value(-inf), Value(0.5)}},
       {Value(0.5), Value(1.5), Value(nan), Value(3.0), Value(-1.0)},
       5},
      {DataType::Date(),
       {{Value(DateValue{16436}), Value(DateValue{16438})}},
       {Value(DateValue{16437}), Value(DateValue{16438})},
       1},
      {DecimalType::Make(18, 0),
       {{Value(Decimal(x, 18, 0)), Value(Decimal(x + 2, 18, 0))}},
       {Value(Decimal(x + 1, 18, 0)), Value(Decimal(x + 2, 18, 0))},
       1}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.type->ToString());
    std::vector<Row> iv_rows, pt_rows;
    for (const auto& [s, e] : c.intervals) iv_rows.push_back(Row({s, e}));
    for (const Value& p : c.points) pt_rows.push_back(Row({p}));
    ctx.CreateDataFrame(StructType::Make({Field("s", c.type, false),
                                          Field("e", c.type, false)}),
                        iv_rows)
        .RegisterTempTable("iv");
    ctx.CreateDataFrame(StructType::Make({Field("p", c.type, false)}), pt_rows)
        .RegisterTempTable("pt");
    const std::string q =
        "SELECT count(*) FROM iv JOIN pt ON iv.s < pt.p AND pt.p < iv.e";
    const std::string plan =
        ctx.PlanPhysical(ctx.Optimize(ctx.Sql(q).plan()))->TreeString();
    EXPECT_NE(plan.find("IntervalJoin"), std::string::npos) << plan;
    EXPECT_EQ(ctx.Sql(q).Collect()[0].GetInt64(0), c.matches);
    ctx.UpdateConfig([](EngineConfig& e) { e.range_join_enabled = false; });
    EXPECT_EQ(ctx.Sql(q).Collect()[0].GetInt64(0), c.matches);
    ctx.UpdateConfig([](EngineConfig& e) { e.range_join_enabled = true; });
  }
}

}  // namespace
}  // namespace ssql
