// SQL front-end tests: lexer tokens, expression grammar/precedence, query
// clause structure, CREATE TEMPORARY TABLE, and parse errors.

#include <gtest/gtest.h>

#include "catalyst/expr/arithmetic.h"
#include "catalyst/expr/case_when.h"
#include "catalyst/expr/cast.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "catalyst/expr/string_ops.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace ssql {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT a1, 'str''ing', 1.5e2 FROM t -- comment\n");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_TRUE(tokens[0].IsKeyword("select"));
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "a1");
  EXPECT_TRUE(tokens[2].IsSymbol(","));
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, "str'ing");
  EXPECT_EQ(tokens[5].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[5].text, "1.5e2");
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, OperatorsNormalize) {
  auto tokens = Tokenize("a <> b == c != d <= e");
  EXPECT_TRUE(tokens[1].IsSymbol("!="));  // <> normalized
  EXPECT_TRUE(tokens[3].IsSymbol("="));   // == normalized
  EXPECT_TRUE(tokens[5].IsSymbol("!="));
  EXPECT_TRUE(tokens[7].IsSymbol("<="));
}

TEST(LexerTest, QuotedIdentifiersAndErrors) {
  auto tokens = Tokenize("`weird name`");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "weird name");
  EXPECT_THROW(Tokenize("'unterminated"), ParseError);
  EXPECT_THROW(Tokenize("a ; b"), ParseError);
}

TEST(ExprParseTest, ArithmeticPrecedence) {
  // 1 + 2 * 3 parses as 1 + (2 * 3).
  ExprPtr e = ParseSqlExpression("1 + 2 * 3");
  const auto* add = As<Add>(e);
  ASSERT_NE(add, nullptr);
  EXPECT_NE(As<Multiply>(add->right()), nullptr);
  EXPECT_EQ(e->Eval(Row{}).i32(), 7);
  EXPECT_EQ(ParseSqlExpression("(1 + 2) * 3")->Eval(Row{}).i32(), 9);
  EXPECT_EQ(ParseSqlExpression("-2 + 5")->Eval(Row{}).i32(), 3);
  EXPECT_EQ(ParseSqlExpression("10 % 3")->Eval(Row{}).i32(), 1);
}

TEST(ExprParseTest, BooleanPrecedence) {
  // OR binds weaker than AND: a OR b AND c == a OR (b AND c).
  ExprPtr e = ParseSqlExpression("TRUE OR FALSE AND FALSE");
  const auto* orr = As<Or>(e);
  ASSERT_NE(orr, nullptr);
  EXPECT_TRUE(e->Eval(Row{}).bool_value());
  // NOT binds tighter than AND.
  EXPECT_FALSE(
      ParseSqlExpression("NOT TRUE AND TRUE")->Eval(Row{}).bool_value());
}

TEST(ExprParseTest, ComparisonChainsAndPostfix) {
  EXPECT_TRUE(ParseSqlExpression("1 < 2")->Eval(Row{}).bool_value());
  EXPECT_TRUE(ParseSqlExpression("3 BETWEEN 1 AND 5")->Eval(Row{}).bool_value());
  EXPECT_FALSE(
      ParseSqlExpression("3 NOT BETWEEN 1 AND 5")->Eval(Row{}).bool_value());
  EXPECT_TRUE(ParseSqlExpression("2 IN (1, 2, 3)")->Eval(Row{}).bool_value());
  EXPECT_TRUE(
      ParseSqlExpression("5 NOT IN (1, 2, 3)")->Eval(Row{}).bool_value());
  EXPECT_TRUE(
      ParseSqlExpression("'abc' LIKE 'a%'")->Eval(Row{}).bool_value());
  EXPECT_TRUE(
      ParseSqlExpression("'abc' NOT LIKE 'b%'")->Eval(Row{}).bool_value());
  EXPECT_TRUE(ParseSqlExpression("NULL IS NULL")->Eval(Row{}).bool_value());
  EXPECT_FALSE(ParseSqlExpression("1 IS NULL")->Eval(Row{}).bool_value());
  EXPECT_TRUE(ParseSqlExpression("1 IS NOT NULL")->Eval(Row{}).bool_value());
}

TEST(ExprParseTest, LiteralsAndCase) {
  EXPECT_EQ(ParseSqlExpression("3000000000")->Eval(Row{}).i64(), 3000000000LL);
  EXPECT_DOUBLE_EQ(ParseSqlExpression("2.5")->Eval(Row{}).f64(), 2.5);
  EXPECT_EQ(ParseSqlExpression("'hi'")->Eval(Row{}).str(), "hi");
  EXPECT_TRUE(ParseSqlExpression("NULL")->Eval(Row{}).is_null());
  Value d = ParseSqlExpression("DATE '2015-05-31'")->Eval(Row{});
  EXPECT_EQ(d.type_id(), TypeId::kDate);

  EXPECT_EQ(ParseSqlExpression(
                "CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END")
                ->Eval(Row{})
                .str(),
            "b");
  // Operand form.
  EXPECT_EQ(
      ParseSqlExpression("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END")
          ->Eval(Row{})
          .str(),
      "two");
}

TEST(ExprParseTest, DateLiteralMustBeWholeDate) {
  EXPECT_THROW(ParseSqlExpression("DATE '2020-01-05junk'"), ParseError);
  EXPECT_THROW(ParseSqlExpression("DATE '2020-01-05 10:30:00'"), ParseError);
  EXPECT_TRUE(ParseSqlExpression("CAST('2020-01-05junk' AS date)")
                  ->Eval(Row{})
                  .is_null());
  EXPECT_EQ(FormatDate(ParseSqlExpression("DATE '2020-01-05'")->Eval(Row{}).date()),
            "2020-01-05");
}

TEST(ExprParseTest, CastSyntax) {
  ExprPtr e = ParseSqlExpression("CAST('42' AS int)");
  EXPECT_NE(As<Cast>(e), nullptr);
  EXPECT_EQ(e->Eval(Row{}).i32(), 42);
  ExprPtr dec = ParseSqlExpression("CAST(1.5 AS decimal(5,2))");
  EXPECT_EQ(dec->Eval(Row{}).decimal().ToString(), "1.50");
}

TEST(ExprParseTest, CastRejectsOutOfRangeDecimalTypes) {
  // decimal(38,30) once parsed and evaluated 2.5 to a garbage negative
  // zero: 10^30 overflows the int64 unscaled value.
  for (const char* type : {"decimal(38,30)", "decimal(39,2)", "decimal(0,0)",
                           "decimal(5,6)", "decimal(10,-1)", "decimal(7.5)"}) {
    EXPECT_THROW(ParseSqlExpression(std::string("CAST(2.5 AS ") + type + ")"),
                 ParseError)
        << type;
  }
  EXPECT_EQ(ParseSqlExpression("CAST(2.5 AS decimal(38,18))")
                ->Eval(Row{})
                .decimal()
                .ToString(),
            "2.500000000000000000");
}

TEST(ExprParseTest, FunctionsAndDistinct) {
  ExprPtr fn = ParseSqlExpression("foo(1, 'x')");
  const auto* uf = As<UnresolvedFunction>(fn);
  ASSERT_NE(uf, nullptr);
  EXPECT_EQ(uf->name(), "foo");
  EXPECT_EQ(uf->Children().size(), 2u);
  EXPECT_FALSE(uf->distinct());

  ExprPtr distinct_expr = ParseSqlExpression("count(DISTINCT x)");
  const auto* cd = As<UnresolvedFunction>(distinct_expr);
  ASSERT_NE(cd, nullptr);
  EXPECT_TRUE(cd->distinct());

  ExprPtr star_expr = ParseSqlExpression("count(*)");
  const auto* star = As<UnresolvedFunction>(star_expr);
  ASSERT_NE(star, nullptr);
  EXPECT_TRUE(star->Children().empty());
}

TEST(ExprParseTest, DottedNames) {
  ExprPtr dotted = ParseSqlExpression("a.b.c");
  const auto* ua = As<UnresolvedAttribute>(dotted);
  ASSERT_NE(ua, nullptr);
  EXPECT_EQ(ua->parts().size(), 3u);
  EXPECT_EQ(ua->parts()[2], "c");
}

TEST(QueryParseTest, ClauseStructure) {
  ParsedStatement stmt = ParseSql(
      "SELECT a, count(*) AS c FROM t WHERE x > 1 GROUP BY a "
      "HAVING count(*) > 2 ORDER BY a DESC LIMIT 7");
  ASSERT_EQ(stmt.kind, ParsedStatement::Kind::kQuery);
  // Limit(Sort(Filter[having](Aggregate(Filter[where](rel))))).
  const auto* limit = AsPlan<Limit>(stmt.plan);
  ASSERT_NE(limit, nullptr);
  EXPECT_EQ(limit->n(), 7);
  const auto* sort = AsPlan<Sort>(limit->child());
  ASSERT_NE(sort, nullptr);
  EXPECT_FALSE(sort->orders()[0]->ascending());
  const auto* having = AsPlan<Filter>(sort->child());
  ASSERT_NE(having, nullptr);
  const auto* agg = AsPlan<Aggregate>(having->child());
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->groupings().size(), 1u);
  EXPECT_EQ(agg->aggregates().size(), 2u);
  const auto* where = AsPlan<Filter>(agg->child());
  ASSERT_NE(where, nullptr);
  EXPECT_NE(AsPlan<UnresolvedRelation>(where->child()), nullptr);
}

TEST(QueryParseTest, JoinVariants) {
  auto join_type = [](const std::string& sql) {
    ParsedStatement stmt = ParseSql(sql);
    const auto* proj = AsPlan<Project>(stmt.plan);
    const auto* join = AsPlan<Join>(proj->child());
    EXPECT_NE(join, nullptr) << sql;
    return join->join_type();
  };
  EXPECT_EQ(join_type("SELECT * FROM a JOIN b ON a.x = b.x"), JoinType::kInner);
  EXPECT_EQ(join_type("SELECT * FROM a INNER JOIN b ON a.x = b.x"),
            JoinType::kInner);
  EXPECT_EQ(join_type("SELECT * FROM a LEFT JOIN b ON a.x = b.x"),
            JoinType::kLeftOuter);
  EXPECT_EQ(join_type("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x"),
            JoinType::kLeftOuter);
  EXPECT_EQ(join_type("SELECT * FROM a RIGHT JOIN b ON a.x = b.x"),
            JoinType::kRightOuter);
  EXPECT_EQ(join_type("SELECT * FROM a FULL OUTER JOIN b ON a.x = b.x"),
            JoinType::kFullOuter);
  EXPECT_EQ(join_type("SELECT * FROM a CROSS JOIN b"), JoinType::kCross);
  EXPECT_EQ(join_type("SELECT * FROM a LEFT SEMI JOIN b ON a.x = b.x"),
            JoinType::kLeftSemi);
  EXPECT_EQ(join_type("SELECT * FROM a, b"), JoinType::kCross);
}

TEST(QueryParseTest, SubqueriesAndAliases) {
  ParsedStatement stmt =
      ParseSql("SELECT s.a FROM (SELECT a FROM t) AS s");
  const auto* proj = AsPlan<Project>(stmt.plan);
  ASSERT_NE(proj, nullptr);
  const auto* alias = AsPlan<SubqueryAlias>(proj->child());
  ASSERT_NE(alias, nullptr);
  EXPECT_EQ(alias->alias(), "s");
  EXPECT_NE(AsPlan<Project>(alias->child()), nullptr);
}

TEST(QueryParseTest, UnionForms) {
  ParsedStatement all = ParseSql("SELECT a FROM t UNION ALL SELECT a FROM u");
  EXPECT_NE(AsPlan<Union>(all.plan), nullptr);
  ParsedStatement dedup = ParseSql("SELECT a FROM t UNION SELECT a FROM u");
  EXPECT_NE(AsPlan<Distinct>(dedup.plan), nullptr);
}

TEST(QueryParseTest, CreateTempTable) {
  ParsedStatement stmt = ParseSql(
      "CREATE TEMPORARY TABLE messages USING com.databricks.spark.avro "
      "OPTIONS (path 'messages.avro', mode 'fast')");
  EXPECT_EQ(stmt.kind, ParsedStatement::Kind::kCreateTempTable);
  EXPECT_EQ(stmt.table_name, "messages");
  EXPECT_EQ(stmt.provider, "avro");  // last dotted component
  EXPECT_EQ(stmt.options.at("path"), "messages.avro");
  EXPECT_EQ(stmt.options.at("mode"), "fast");
}

TEST(QueryParseTest, ParseErrors) {
  EXPECT_THROW(ParseSql("SELECT"), ParseError);
  EXPECT_THROW(ParseSql("SELECT a FROM"), ParseError);
  EXPECT_THROW(ParseSql("SELECT a FROM t WHERE"), ParseError);
  EXPECT_THROW(ParseSql("SELECT a FROM t LIMIT abc"), ParseError);
  EXPECT_THROW(ParseSql("SELECT a FROM t GROUP a"), ParseError);
  EXPECT_THROW(ParseSql("SELECT a b c FROM t"), ParseError);
  EXPECT_THROW(ParseSql("CREATE TEMPORARY TABLE x USING csv OPTIONS (path)"),
               ParseError);
  EXPECT_THROW(ParseSqlExpression("1 +"), ParseError);
  EXPECT_THROW(ParseSqlExpression("CASE END"), ParseError);
}

}  // namespace
}  // namespace ssql
