// End-to-end smoke tests: DataFrame DSL and SQL through analysis,
// optimization, physical planning and execution.

#include <gtest/gtest.h>

#include <algorithm>

#include "api/sql_context.h"

namespace ssql {
namespace {

using functions::Avg;
using functions::CountStar;
using functions::Lit;
using functions::Sum;

EngineConfig SmallConfig() {
  EngineConfig config;
  config.num_threads = 2;
  config.default_parallelism = 3;
  return config;
}

/// The users/dept fixture of the paper's Section 3.3 example.
class EndToEndTest : public ::testing::Test {
 protected:
  EndToEndTest() : ctx_(SmallConfig()) {
    auto employees = StructType::Make({
        Field("name", DataType::String(), false),
        Field("age", DataType::Int32(), false),
        Field("gender", DataType::String(), false),
        Field("deptId", DataType::Int32(), false),
        Field("salary", DataType::Double(), false),
    });
    std::vector<Row> employee_rows = {
        Row({Value("Alice"), Value(int32_t{22}), Value("female"), Value(int32_t{1}), Value(95000.0)}),
        Row({Value("Bob"), Value(int32_t{19}), Value("male"), Value(int32_t{1}), Value(70000.0)}),
        Row({Value("Carol"), Value(int32_t{35}), Value("female"), Value(int32_t{2}), Value(120000.0)}),
        Row({Value("Dave"), Value(int32_t{29}), Value("male"), Value(int32_t{2}), Value(88000.0)}),
        Row({Value("Eve"), Value(int32_t{41}), Value("female"), Value(int32_t{3}), Value(99000.0)}),
    };
    ctx_.CreateDataFrame(employees, employee_rows).RegisterTempTable("employees");

    auto dept = StructType::Make({
        Field("id", DataType::Int32(), false),
        Field("name", DataType::String(), false),
    });
    std::vector<Row> dept_rows = {
        Row({Value(int32_t{1}), Value("eng")}),
        Row({Value(int32_t{2}), Value("sales")}),
        Row({Value(int32_t{3}), Value("hr")}),
    };
    ctx_.CreateDataFrame(dept, dept_rows).RegisterTempTable("dept");
  }

  SqlContext ctx_;
};

TEST_F(EndToEndTest, DataFrameWhereCount) {
  // The paper's Section 3.1 example: users.where(users("age") < 21).count().
  DataFrame users = ctx_.Table("employees");
  DataFrame young = users.Where(users("age") < Lit(Value(int32_t{21})));
  EXPECT_EQ(young.Count(), 1);
  auto rows = young.Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetString(0), "Bob");
}

TEST_F(EndToEndTest, SqlSelectWhere) {
  auto rows =
      ctx_.Sql("SELECT name, age FROM employees WHERE age >= 29 ORDER BY age")
          .Collect();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].GetString(0), "Dave");
  EXPECT_EQ(rows[1].GetString(0), "Carol");
  EXPECT_EQ(rows[2].GetString(0), "Eve");
}

TEST_F(EndToEndTest, SqlAggregation) {
  auto rows = ctx_.Sql(
                      "SELECT deptId, count(*) AS cnt, avg(salary) AS avg_sal "
                      "FROM employees GROUP BY deptId ORDER BY deptId")
                  .Collect();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].GetInt32(0), 1);
  EXPECT_EQ(rows[0].GetInt64(1), 2);
  EXPECT_DOUBLE_EQ(rows[0].GetDouble(2), 82500.0);
  EXPECT_EQ(rows[2].GetInt32(0), 3);
  EXPECT_EQ(rows[2].GetInt64(1), 1);
}

TEST_F(EndToEndTest, PaperJoinGroupByExample) {
  // Section 3.3:
  //   employees.join(dept, employees("deptId") === dept("id"))
  //     .where(employees("gender") === "female")
  //     .groupBy(dept("id"), dept("name")).agg(count("name"))
  DataFrame employees = ctx_.Table("employees");
  DataFrame dept = ctx_.Table("dept");
  DataFrame joined = employees.Join(dept, employees("deptId") == dept("id"));
  DataFrame result =
      joined.Where(employees("gender") == Lit(Value("female")))
          .GroupBy({dept("id"), dept("name")})
          .Agg({functions::Count(employees("name")).As("cnt")});
  auto rows = result.Collect();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.GetInt32(0) < b.GetInt32(0);
  });
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].GetInt32(0), 1);
  EXPECT_EQ(rows[0].GetInt64(2), 1);  // Alice
  EXPECT_EQ(rows[1].GetInt64(2), 1);  // Carol
  EXPECT_EQ(rows[2].GetInt64(2), 1);  // Eve
}

TEST_F(EndToEndTest, SqlJoin) {
  auto rows = ctx_.Sql(
                      "SELECT e.name, d.name FROM employees e "
                      "JOIN dept d ON e.deptId = d.id "
                      "WHERE e.salary > 90000 ORDER BY e.name")
                  .Collect();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].GetString(0), "Alice");
  EXPECT_EQ(rows[0].GetString(1), "eng");
  EXPECT_EQ(rows[1].GetString(0), "Carol");
  EXPECT_EQ(rows[2].GetString(0), "Eve");
  EXPECT_EQ(rows[2].GetString(1), "hr");
}

TEST_F(EndToEndTest, EagerAnalysisReportsBadColumn) {
  DataFrame users = ctx_.Table("employees");
  // Error surfaces when the bad plan is *constructed*, not at execution —
  // Section 3.4.
  EXPECT_THROW(users.Where(Column::Named("agee") > Lit(Value(int32_t{1}))),
               AnalysisError);
  EXPECT_THROW(ctx_.Sql("SELECT nope FROM employees"), AnalysisError);
  EXPECT_THROW(ctx_.Sql("SELECT * FROM missing_table"), AnalysisError);
}

TEST_F(EndToEndTest, GlobalAggregateWithoutGroupBy) {
  auto rows =
      ctx_.Sql("SELECT count(*), avg(age), min(name), max(salary) FROM employees")
          .Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetInt64(0), 5);
  EXPECT_DOUBLE_EQ(rows[0].GetDouble(1), (22 + 19 + 35 + 29 + 41) / 5.0);
  EXPECT_EQ(rows[0].GetString(2), "Alice");
  EXPECT_DOUBLE_EQ(rows[0].GetDouble(3), 120000.0);
}

TEST_F(EndToEndTest, HavingOnAggregate) {
  auto rows = ctx_.Sql(
                      "SELECT deptId, count(*) AS cnt FROM employees "
                      "GROUP BY deptId HAVING count(*) > 1 ORDER BY deptId")
                  .Collect();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].GetInt32(0), 1);
  EXPECT_EQ(rows[1].GetInt32(0), 2);
}

TEST_F(EndToEndTest, RegisterTempTableIsUnmaterializedView) {
  // Section 3.3: registered DataFrames are unmaterialized views; SQL works
  // across them.
  DataFrame users = ctx_.Table("employees");
  users.Where(users("age") < Lit(Value(int32_t{30}))).RegisterTempTable("young");
  auto rows = ctx_.Sql("SELECT count(*), avg(age) FROM young").Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetInt64(0), 3);
}

TEST_F(EndToEndTest, UdfInSqlAndDsl) {
  // Section 3.7 inline UDF registration.
  ctx_.RegisterUdf("bonus", DataType::Double(),
                   [](const std::vector<Value>& args) -> Value {
                     if (args[0].is_null()) return Value::Null();
                     return Value(args[0].AsDouble() * 0.1);
                   });
  auto rows = ctx_.Sql(
                      "SELECT name, bonus(salary) FROM employees "
                      "WHERE bonus(salary) > 9000 ORDER BY name")
                  .Collect();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].GetString(0), "Alice");
  EXPECT_DOUBLE_EQ(rows[0].GetDouble(1), 9500.0);
}

TEST_F(EndToEndTest, LimitAndUnionAndDistinct) {
  EXPECT_EQ(ctx_.Sql("SELECT name FROM employees LIMIT 2").Collect().size(), 2u);
  auto rows = ctx_.Sql(
                      "SELECT deptId FROM employees UNION ALL "
                      "SELECT id FROM dept")
                  .Collect();
  EXPECT_EQ(rows.size(), 8u);
  auto distinct = ctx_.Sql("SELECT DISTINCT deptId FROM employees").Collect();
  EXPECT_EQ(distinct.size(), 3u);
}

TEST_F(EndToEndTest, SelectExpressionWithoutFrom) {
  auto rows = ctx_.Sql("SELECT 1 + 2 AS three, 'a' AS letter").Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetInt32(0), 3);
  EXPECT_EQ(rows[0].GetString(1), "a");
}

TEST_F(EndToEndTest, CachedDataFrameStillAnswersQueries) {
  DataFrame users = ctx_.Table("employees");
  users.Cache();
  DataFrame count = ctx_.Sql("SELECT count(*) FROM employees");
  auto rows = count.Collect();
  EXPECT_EQ(rows[0].GetInt64(0), 5);
  // The physical plan scans the in-memory columnar cache.
  const std::string plan = count.Explain();
  EXPECT_NE(plan.find("Scan cache:"), std::string::npos) << plan;
}

TEST_F(EndToEndTest, ExplainShowsPhysicalPlan) {
  DataFrame users = ctx_.Table("employees");
  std::string plan =
      users.Where(users("age") < Lit(Value(int32_t{30}))).Explain(true);
  EXPECT_NE(plan.find("== Physical Plan =="), std::string::npos);
  EXPECT_NE(plan.find("LocalTableScan"), std::string::npos);
}

TEST_F(EndToEndTest, CodegenAndInterpretedAgree) {
  const char* query =
      "SELECT name, age * 2 + 1, salary / 2 FROM employees "
      "WHERE age > 20 AND name LIKE '%a%' ORDER BY name";
  ctx_.UpdateConfig([&](EngineConfig& c) { c.codegen_enabled = true; });
  auto with_codegen = ctx_.Sql(query).Collect();
  ctx_.UpdateConfig([&](EngineConfig& c) { c.codegen_enabled = false; });
  auto interpreted = ctx_.Sql(query).Collect();
  ctx_.UpdateConfig([&](EngineConfig& c) { c.codegen_enabled = true; });
  ASSERT_EQ(with_codegen.size(), interpreted.size());
  for (size_t i = 0; i < with_codegen.size(); ++i) {
    EXPECT_TRUE(with_codegen[i].Equals(interpreted[i]))
        << with_codegen[i].ToString() << " vs " << interpreted[i].ToString();
  }
}

}  // namespace
}  // namespace ssql
