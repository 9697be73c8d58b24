// Codegen tests (Section 4.3.4): the register program must agree with the
// tree interpreter (Expression::Eval, row by row) on every expression, over
// each input the one evaluator takes — a chunk of rows, a RowBatch, and a
// FilterView with a sparse selection — both compiled and with codegen off
// (one interpreter call over the whole tree). A property sweep generates
// random trees over bigints, doubles, strings, dates and fallback nodes
// (UDF, decimal, CASE), with ~15% nulls everywhere.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <random>

#include "catalyst/codegen/compiled_expression.h"
#include "catalyst/expr/arithmetic.h"
#include "catalyst/expr/case_when.h"
#include "catalyst/expr/cast.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "catalyst/expr/string_ops.h"
#include "catalyst/expr/udf_expr.h"
#include "columnar/row_batch.h"

namespace ssql {
namespace {

ExprPtr I32(int32_t v) { return Literal::Make(Value(v), DataType::Int32()); }
ExprPtr I64(int64_t v) { return Literal::Make(Value(v), DataType::Int64()); }
ExprPtr F64(double v) { return Literal::Make(Value(v), DataType::Double()); }
ExprPtr Str(const char* s) {
  return Literal::Make(Value(s), DataType::String());
}

/// Same value: both null, or the same type and value. Doubles must match
/// bit for bit up to NaN payloads, so -0.0 is not 0.0.
bool Same(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type_id() != b.type_id()) return false;
  if (a.type_id() == TypeId::kDouble) {
    const double x = a.f64(), y = b.f64();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    return x == y && std::signbit(x) == std::signbit(y);
  }
  return a.Equals(b);
}

/// `rows` as one RowBatch of `types` columns.
RowBatchPtr ToBatch(const std::vector<Row>& rows,
                    const std::vector<DataTypePtr>& types) {
  std::vector<std::shared_ptr<ColumnVector>> cols;
  for (size_t c = 0; c < types.size(); ++c) {
    auto col = std::make_shared<ColumnVector>(types[c]);
    for (const Row& row : rows) col->Append(row.Get(c));
    cols.push_back(std::move(col));
  }
  return std::make_shared<const RowBatch>(std::move(cols));
}

std::vector<DataTypePtr> TypesOf(const std::vector<Row>& rows) {
  std::vector<DataTypePtr> types;
  for (size_t c = 0; c < rows[0].size(); ++c) {
    DataTypePtr type = DataType::Int64();
    for (const Row& row : rows) {
      const Value& v = row.Get(c);
      if (v.is_null()) continue;
      switch (v.type_id()) {
        case TypeId::kBoolean: type = DataType::Boolean(); break;
        case TypeId::kInt32: type = DataType::Int32(); break;
        case TypeId::kDouble: type = DataType::Double(); break;
        case TypeId::kString: type = DataType::String(); break;
        case TypeId::kDate: type = DataType::Date(); break;
        case TypeId::kDecimal:
          type = DecimalType::Make(v.decimal().precision(), v.decimal().scale());
          break;
        default: break;
      }
      break;
    }
    types.push_back(type);
  }
  return types;
}

/// Checks one program against the interpreter's `expected` (one value per
/// row of `rows`) over every input the evaluator takes. Returns a failure
/// description, or "" when all agree.
std::string Disagreement(const ExprPtr& expr, const CompiledExpression& prog,
                         const std::vector<Row>& rows,
                         const std::vector<DataTypePtr>& types,
                         const std::vector<Value>& expected) {
  const bool predicate = expr->data_type()->id() == TypeId::kBoolean;
  auto eval = prog.NewVectorEvaluator();
  std::string failure;
  auto check = [&](const char* input, size_t row, const Value& got) {
    if (failure.empty() && !Same(expected[row], got)) {
      failure = std::string(input) + " row " + std::to_string(row) + " (" +
                rows[row].ToString() + "): interpreted=" +
                expected[row].ToString() + " program=" + got.ToString();
    }
  };
  auto check_selection = [&](const char* input,
                             const std::vector<uint32_t>& got,
                             const std::vector<uint32_t>& rows_in) {
    std::vector<uint32_t> want;
    for (uint32_t r : rows_in) {
      if (!expected[r].is_null() && expected[r].bool_value()) want.push_back(r);
    }
    if (failure.empty() && got != want) {
      failure = std::string(input) + ": selection differs (" +
                std::to_string(got.size()) + " vs " +
                std::to_string(want.size()) + " rows)";
    }
  };

  // A sparse FilterView first (small), so the later runs grow the lanes.
  RowBatchPtr batch = ToBatch(rows, types);
  std::vector<uint32_t> sparse;
  for (uint32_t r = 0; r < rows.size(); ++r) {
    if (r % 5 == 1 || r % 7 == 3) sparse.push_back(r);
  }
  RowBatchPtr view = RowBatch::FilterView(batch, sparse);
  ColumnVector view_out(prog.result_type());
  eval.EvaluateColumn(*view, &view_out);
  for (size_t k = 0; k < sparse.size(); ++k) {
    check("filter view", sparse[k], view_out.GetValue(k));
  }

  // A chunk of rows: as a column, and boxed into output rows.
  std::vector<const Row*> ptrs;
  std::vector<uint32_t> all;
  for (const Row& row : rows) {
    all.push_back(static_cast<uint32_t>(ptrs.size()));
    ptrs.push_back(&row);
  }
  ColumnVector rows_out(prog.result_type());
  eval.EvaluateColumn(ptrs, &rows_out);
  for (size_t k = 0; k < rows.size(); ++k) {
    check("row chunk", k, rows_out.GetValue(k));
  }
  std::vector<Row> boxed(rows.size());
  eval.EvaluateAppend(ptrs, boxed.data());
  for (size_t k = 0; k < rows.size(); ++k) {
    check("boxed rows", k, boxed[k].Get(0));
  }

  // The whole batch.
  ColumnVector batch_out(prog.result_type());
  eval.EvaluateColumn(*batch, &batch_out);
  for (size_t k = 0; k < rows.size(); ++k) {
    check("batch", k, batch_out.GetValue(k));
  }

  if (predicate) {
    std::vector<uint32_t> sel;
    eval.EvaluateSelection(*view, &sel);
    check_selection("filter view", sel, sparse);
    sel.clear();
    eval.EvaluateSelection(ptrs, &sel);
    check_selection("row chunk", sel, all);
    sel.clear();
    eval.EvaluateSelection(*batch, &sel);
    check_selection("batch", sel, all);
  }
  return failure;
}

/// The interpreter's value of `expr` on each row; then checks the compiled
/// program and the codegen-off program against it on every input.
void ExpectAgreeOnRows(const ExprPtr& expr, const std::vector<Row>& rows) {
  std::vector<Value> expected;
  for (const Row& row : rows) expected.push_back(expr->Eval(row));
  const std::vector<DataTypePtr> types = TypesOf(rows);
  const CompiledExpression compiled = CompiledExpression::Compile(expr);
  EXPECT_EQ(Disagreement(expr, compiled, rows, types, expected), "")
      << "compiled " << expr->ToString();
  const CompiledExpression interpreted =
      CompiledExpression::Compile(expr, /*codegen=*/false);
  EXPECT_DOUBLE_EQ(interpreted.compiled_fraction(), 0.0);
  EXPECT_EQ(Disagreement(expr, interpreted, rows, types, expected), "")
      << "codegen off " << expr->ToString();
}

void ExpectAgree(const ExprPtr& expr, const Row& row) {
  ExpectAgreeOnRows(expr, {row});
}

TEST(CodegenTest, ArithmeticOnColumns) {
  ExprPtr x = BoundReference::Make(0, DataType::Int32(), false);
  Row row({Value(int32_t{7})});
  ExpectAgree(Add::Make(Add::Make(x, x), x), row);  // Figure 4's x+x+x
  ExpectAgree(Multiply::Make(x, I32(3)), row);
  ExpectAgree(Subtract::Make(I32(100), x), row);
  ExpectAgree(Divide::Make(x, I32(2)), row);
  ExpectAgree(Remainder::Make(x, I32(4)), row);
  ExpectAgree(UnaryMinus::Make(x), row);
}

TEST(CodegenTest, FullyCompiledHasNoFallback) {
  ExprPtr x = BoundReference::Make(0, DataType::Int32(), false);
  auto compiled = CompiledExpression::Compile(Add::Make(Add::Make(x, x), x));
  EXPECT_DOUBLE_EQ(compiled.compiled_fraction(), 1.0);
}

TEST(CodegenTest, NullColumns) {
  ExprPtr x = BoundReference::Make(0, DataType::Int32(), true);
  Row null_row({Value::Null()});
  ExpectAgree(Add::Make(x, I32(1)), null_row);
  ExpectAgree(IsNull::Make(x), null_row);
  ExpectAgree(IsNotNull::Make(x), null_row);
  ExpectAgree(EqualTo::Make(x, I32(1)), null_row);
}

TEST(CodegenTest, DivisionByZeroMatchesInterpreter) {
  ExprPtr x = BoundReference::Make(0, DataType::Int32(), false);
  Row zero({Value(int32_t{0})});
  ExpectAgree(Divide::Make(I32(10), x), zero);
  ExpectAgree(Remainder::Make(I32(10), x), zero);
}

TEST(CodegenTest, Comparisons) {
  ExprPtr a = BoundReference::Make(0, DataType::Int64(), false);
  ExprPtr b = BoundReference::Make(1, DataType::Double(), false);
  ExprPtr s = BoundReference::Make(2, DataType::String(), false);
  Row row({Value(int64_t{5}), Value(4.5), Value("hello")});
  ExpectAgree(LessThan::Make(a, I64(6)), row);
  ExpectAgree(GreaterThanOrEqual::Make(b, F64(4.5)), row);
  ExpectAgree(EqualTo::Make(s, Str("hello")), row);
  ExpectAgree(NotEqualTo::Make(s, Str("world")), row);
  // Mixed int/double comparison compiles via promotion.
  ExpectAgree(LessThan::Make(a, b), row);
}

TEST(CodegenTest, BooleanLogicThreeValued) {
  ExprPtr p = BoundReference::Make(0, DataType::Boolean(), true);
  ExprPtr q = BoundReference::Make(1, DataType::Boolean(), true);
  std::vector<Value> options = {Value(true), Value(false), Value::Null()};
  std::vector<Row> rows;
  for (const Value& vp : options) {
    for (const Value& vq : options) rows.push_back(Row({vp, vq}));
  }
  ExpectAgreeOnRows(And::Make(p, q), rows);
  ExpectAgreeOnRows(Or::Make(p, q), rows);
  ExpectAgreeOnRows(Not::Make(p), rows);
}

TEST(CodegenTest, StringOperations) {
  ExprPtr s = BoundReference::Make(0, DataType::String(), true);
  std::vector<Row> rows = {Row({Value("hello world")}), Row({Value("")}),
                           Row({Value::Null()}), Row({Value("wOrld")})};
  ExpectAgreeOnRows(StartsWith::Make(s, Str("hello")), rows);
  ExpectAgreeOnRows(EndsWith::Make(s, Str("world")), rows);
  ExpectAgreeOnRows(StringContains::Make(s, Str("o w")), rows);
  ExpectAgreeOnRows(Like::Make(s, Str("%wor%")), rows);
  ExpectAgreeOnRows(Upper::Make(s), rows);
  ExpectAgreeOnRows(Lower::Make(Upper::Make(s)), rows);
  ExpectAgreeOnRows(StringLength::Make(s), rows);
  ExpectAgreeOnRows(Concat::Make({s, Str("!")}), rows);
  // Zero, negative and past-the-end positions.
  for (int32_t pos : {7, 0, -3, -100, 11, 12, 100}) {
    for (int32_t len : {5, 0, -1, 100}) {
      ExpectAgreeOnRows(Substring::Make(s, I32(pos), I32(len)), rows);
    }
  }
}

TEST(CodegenTest, CastsCompile) {
  ExprPtr i = BoundReference::Make(0, DataType::Int32(), false);
  ExprPtr d = BoundReference::Make(1, DataType::Double(), false);
  Row row({Value(int32_t{3}), Value(2.7)});
  ExpectAgree(Cast::Make(i, DataType::Double()), row);
  ExpectAgree(Cast::Make(d, DataType::Int64()), row);
  ExpectAgree(Cast::Make(i, DataType::Int64()), row);
}

TEST(CodegenTest, UdfFallsBackToInterpreter) {
  // Mixed mode: the UDF node is interpreted, the surrounding arithmetic is
  // compiled (Section 4.3.4: compiled code "can directly call into our
  // expression interpreter").
  ExprPtr x = BoundReference::Make(0, DataType::Int32(), false);
  ExprPtr udf = ScalarUDF::Make(
      "inc", {x}, DataType::Int32(), [](const std::vector<Value>& args) {
        return Value(static_cast<int32_t>(args[0].AsInt64() + 1));
      });
  ExprPtr expr = Add::Make(udf, I32(10));
  auto compiled = CompiledExpression::Compile(expr);
  EXPECT_LT(compiled.compiled_fraction(), 1.0);
  EXPECT_GT(compiled.compiled_fraction(), 0.0);
  Row row({Value(int32_t{5})});
  std::vector<const Row*> rows = {&row};
  Row out;
  compiled.NewVectorEvaluator().EvaluateAppend(rows, &out);
  EXPECT_EQ(out.Get(0).i32(), 16);
  ExpectAgree(expr, row);
}

TEST(CodegenTest, DecimalFallsBack) {
  ExprPtr d = BoundReference::Make(0, DecimalType::Make(7, 2), false);
  ExprPtr expr = Add::Make(d, Literal::Make(Value(Decimal(100, 7, 2)),
                                            DecimalType::Make(7, 2)));
  Row row({Value(Decimal(250, 7, 2))});
  ExpectAgree(expr, row);
}

TEST(CodegenTest, DateComparisonsCompileAsInt) {
  ExprPtr d = BoundReference::Make(0, DataType::Date(), false);
  DateValue cutoff;
  ParseDate("2015-01-01", &cutoff);
  ExprPtr expr =
      GreaterThan::Make(d, Literal::Make(Value(cutoff), DataType::Date()));
  DateValue v;
  ParseDate("2015-06-01", &v);
  ExpectAgree(expr, Row({Value(v)}));
  auto compiled = CompiledExpression::Compile(expr);
  EXPECT_DOUBLE_EQ(compiled.compiled_fraction(), 1.0);
}

// ---------------------------------------------------------------------------
// Property test: random expression trees agree under every input and both
// program kinds.
// ---------------------------------------------------------------------------

/// Rows of: a bigint, b bigint, x double, y double, s string, t string,
/// d date, m decimal(7,2) — every cell null with probability ~15%.
class RandomExprGen {
 public:
  explicit RandomExprGen(uint64_t seed) : rng_(seed) {}

  // Every generator nests only trees of a smaller depth; depth 0 is a
  // column or a literal.

  /// A bigint tree and a bound on its magnitude; multiplications that
  /// could overflow become additions, since signed overflow is undefined
  /// in the interpreter and the kernels alike.
  struct Int {
    ExprPtr expr;
    int64_t bound;
  };
  Int IntTree(int depth) {
    if (depth == 0 || Chance(0.3)) {
      switch (rng_() % (depth == 0 ? 4 : 5)) {
        case 0:
          return {Col(0, DataType::Int64()), 50};
        case 1:
          return {Col(1, DataType::Int64()), 500};
        case 4:
          // length(string): an int32 cast (for free) to bigint.
          return {Cast::Make(StringLength::Make(StrTree(depth - 1)),
                             DataType::Int64()),
                  1 << 20};
        default: {
          const int64_t v = static_cast<int64_t>(rng_() % 21) - 10;
          return {I64(v), 10};
        }
      }
    }
    Int l = IntTree(depth - 1);
    Int r = IntTree(depth - 1);
    switch (rng_() % 8) {
      case 0:
        return {Subtract::Make(l.expr, r.expr), l.bound + r.bound};
      case 1:
        if (l.bound * r.bound < (int64_t{1} << 40)) {
          return {Multiply::Make(l.expr, r.expr), l.bound * r.bound};
        }
        return {Add::Make(l.expr, r.expr), l.bound + r.bound};
      case 2:
        return {Divide::Make(l.expr, r.expr), l.bound};
      case 3:
        return {Remainder::Make(l.expr, r.expr), l.bound};
      case 4:
        return {UnaryMinus::Make(l.expr), l.bound};
      case 5:
        // Fallback: a UDF (interpreted) inside compiled arithmetic.
        return {ScalarUDF::Make("inc", {l.expr}, DataType::Int64(), Inc),
                l.bound + 1};
      case 6:
        // Fallback: CASE WHEN p THEN l ELSE r END.
        return {CaseWhen::If(PredTree(depth - 1), l.expr, r.expr),
                std::max(l.bound, r.bound)};
      default:
        return {Add::Make(l.expr, r.expr), l.bound + r.bound};
    }
  }

  /// A double tree; literals include NaN, -0.0 and infinity, and division
  /// by zero (or -0.0) is null.
  ExprPtr DoubleTree(int depth) {
    if (depth == 0 || Chance(0.3)) {
      switch (rng_() % (depth == 0 ? 3 : 4)) {
        case 0:
          return Col(2, DataType::Double());
        case 1:
          return Col(3, DataType::Double());
        case 3:
          return Cast::Make(IntTree(depth - 1).expr, DataType::Double());
        default:
          return F64(RandomDouble());
      }
    }
    ExprPtr l = DoubleTree(depth - 1);
    ExprPtr r = DoubleTree(depth - 1);
    switch (rng_() % 6) {
      case 0:
        return Add::Make(l, r);
      case 1:
        return Subtract::Make(l, r);
      case 2:
        return Multiply::Make(l, r);
      case 3:
        return Divide::Make(l, r);
      case 4:
        return UnaryMinus::Make(l);
      default:
        return Remainder::Make(l, r);  // fmod: a fallback on doubles
    }
  }

  ExprPtr StrTree(int depth) {
    if (depth == 0 || Chance(0.3)) {
      switch (rng_() % 3) {
        case 0:
          return Col(4, DataType::String());
        case 1:
          return Col(5, DataType::String());
        default:
          return Literal::Make(Value(RandomString()), DataType::String());
      }
    }
    switch (rng_() % 6) {
      case 0:
        return Upper::Make(StrTree(depth - 1));
      case 1:
        return Lower::Make(StrTree(depth - 1));
      case 2:
        return Concat::Make({StrTree(depth - 1), StrTree(depth - 1)});
      case 3:
        // Three-way concat is a fallback.
        return Concat::Make(
            {StrTree(depth - 1), StrTree(0), StrTree(depth - 1)});
      case 4:
        return CaseWhen::If(PredTree(depth - 1), StrTree(depth - 1),
                            StrTree(0));
      default: {
        // Zero, negative and past-the-end positions and lengths.
        static const int32_t kPos[] = {0, 1, 2, -1, -3, -50, 5, 9, 50};
        static const int32_t kLen[] = {0, 1, 3, -2, 50};
        ExprPtr pos = Chance(0.2) ? Cast::Make(Col(0, DataType::Int64()),
                                               DataType::Int32())
                                  : I32(kPos[rng_() % 9]);
        return Substring::Make(StrTree(depth - 1), pos, I32(kLen[rng_() % 5]));
      }
    }
  }

  ExprPtr PredTree(int depth) {
    if (depth == 0 || Chance(0.3)) {
      const int sub = std::max(depth - 1, 0);
      switch (rng_() % 7) {
        case 0:
          return Compare(IntTree(sub).expr, IntTree(sub).expr);
        case 1:
          return Compare(DoubleTree(sub), DoubleTree(sub));
        case 2:
          return Compare(StrTree(sub), StrTree(sub));
        case 3: {
          DateValue day{static_cast<int32_t>(16000 + rng_() % 40)};
          ExprPtr date = Literal::Make(Value(day), DataType::Date());
          return Chance(0.5) ? Compare(Col(6, DataType::Date()), date)
                             : Compare(date, Col(6, DataType::Date()));
        }
        case 4: {
          // Fallback: a decimal comparison.
          ExprPtr m = Col(7, DecimalType::Make(7, 2));
          ExprPtr lit = Literal::Make(
              Value(Decimal(static_cast<int64_t>(rng_() % 2000) - 1000, 7, 2)),
              DecimalType::Make(7, 2));
          return Compare(Chance(0.5) ? Add::Make(m, lit) : m, lit);
        }
        case 5: {
          ExprPtr s = StrTree(sub);
          ExprPtr p = StrTree(0);
          switch (rng_() % 4) {
            case 0:
              return StartsWith::Make(s, p);
            case 1:
              return EndsWith::Make(s, p);
            case 2:
              return StringContains::Make(s, p);
            default:
              return Like::Make(s, p);
          }
        }
        default: {
          ExprPtr any = Chance(0.5) ? IntTree(sub).expr : StrTree(sub);
          return Chance(0.5) ? IsNull::Make(any) : IsNotNull::Make(any);
        }
      }
    }
    ExprPtr l = PredTree(depth - 1);
    switch (rng_() % 4) {
      case 0:
        return And::Make(l, PredTree(depth - 1));
      case 1:
        return Or::Make(l, PredTree(depth - 1));
      case 2:
        return Not::Make(l);
      default:
        return ScalarUDF::Make("id", {l}, DataType::Boolean(),
                               [](const std::vector<Value>& args) {
                                 return args[0];
                               });
    }
  }

  Row RandomRow() {
    auto maybe = [&](Value v) { return Chance(0.15) ? Value::Null() : v; };
    return Row({maybe(Value(static_cast<int64_t>(rng_() % 101) - 50)),
                maybe(Value(static_cast<int64_t>(rng_() % 1001) - 500)),
                maybe(Value(RandomDouble())), maybe(Value(RandomDouble())),
                maybe(Value(RandomString())), maybe(Value(RandomString())),
                maybe(Value(DateValue{static_cast<int32_t>(16000 + rng_() % 40)})),
                maybe(Value(Decimal(static_cast<int64_t>(rng_() % 2000) - 1000,
                                    7, 2)))});
  }

  std::vector<Row> RandomRows(size_t n) {
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) rows.push_back(RandomRow());
    return rows;
  }

 private:
  static Value Inc(const std::vector<Value>& args) {
    return args[0].is_null() ? Value::Null() : Value(args[0].i64() + 1);
  }

  ExprPtr Col(int ordinal, DataTypePtr type) {
    return BoundReference::Make(ordinal, std::move(type), true);
  }

  ExprPtr Compare(ExprPtr l, ExprPtr r) {
    switch (rng_() % 6) {
      case 0:
        return EqualTo::Make(l, r);
      case 1:
        return NotEqualTo::Make(l, r);
      case 2:
        return LessThan::Make(l, r);
      case 3:
        return LessThanOrEqual::Make(l, r);
      case 4:
        return GreaterThan::Make(l, r);
      default:
        return GreaterThanOrEqual::Make(l, r);
    }
  }

  double RandomDouble() {
    static const double kSpecial[] = {
        std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0,
        std::numeric_limits<double>::infinity(), 1.5, -2.25};
    if (Chance(0.3)) return kSpecial[rng_() % 6];
    return static_cast<double>(static_cast<int64_t>(rng_() % 2001) - 1000) / 8;
  }

  std::string RandomString() {
    static const char kAlphabet[] = "abAB%_ z";
    std::string s(rng_() % 7, ' ');
    for (char& c : s) c = kAlphabet[rng_() % 8];
    return s;
  }

  bool Chance(double p) {
    return std::uniform_real_distribution<>(0, 1)(rng_) < p;
  }
  std::mt19937_64 rng_;
};

class CodegenPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CodegenPropertyTest, RandomNumericTreesAgree) {
  RandomExprGen gen(GetParam() * 7919 + 13);
  for (int t = 0; t < 20; ++t) {
    const std::vector<Row> rows = gen.RandomRows(40);
    ExpectAgreeOnRows(gen.IntTree(4).expr, rows);
    ExpectAgreeOnRows(gen.DoubleTree(3), rows);
  }
}

TEST_P(CodegenPropertyTest, RandomPredicatesAgree) {
  RandomExprGen gen(GetParam() * 104729 + 7);
  for (int t = 0; t < 20; ++t) {
    ExpectAgreeOnRows(gen.PredTree(3), gen.RandomRows(40));
  }
}

TEST_P(CodegenPropertyTest, RandomStringTreesAgree) {
  RandomExprGen gen(GetParam() * 15485863 + 3);
  for (int t = 0; t < 20; ++t) {
    ExpectAgreeOnRows(gen.StrTree(3), gen.RandomRows(40));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodegenPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The comparison kernel kCmpF64 against Spark's order of doubles, written
// out as ranks: NaN (either sign) equals NaN and follows +inf, -0.0 equals
// 0.0. Every pair of the grid, every comparison operator, compiled.
TEST(ValueOrderTest, CmpF64MatchesTheRankTable) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, int>> grid = {
      {-inf, 1}, {-2.25, 2}, {-0.0, 3}, {0.0, 3}, {1.5, 4},
      {inf, 5},  {nan, 6},   {-nan, 6}};
  std::vector<Row> rows;
  std::vector<int> sign;  // of rank(a) - rank(b)
  for (const auto& [a, ra] : grid) {
    for (const auto& [b, rb] : grid) {
      rows.push_back(Row({Value(a), Value(b)}));
      sign.push_back((ra > rb) - (ra < rb));
    }
  }
  RowBatchPtr batch = ToBatch(rows, {DataType::Double(), DataType::Double()});
  ExprPtr a = BoundReference::Make(0, DataType::Double(), false);
  ExprPtr b = BoundReference::Make(1, DataType::Double(), false);
  const std::vector<std::pair<ExprPtr, std::function<bool(int)>>> ops = {
      {EqualTo::Make(a, b), [](int c) { return c == 0; }},
      {NotEqualTo::Make(a, b), [](int c) { return c != 0; }},
      {LessThan::Make(a, b), [](int c) { return c < 0; }},
      {LessThanOrEqual::Make(a, b), [](int c) { return c <= 0; }},
      {GreaterThan::Make(a, b), [](int c) { return c > 0; }},
      {GreaterThanOrEqual::Make(a, b), [](int c) { return c >= 0; }}};
  for (const auto& [expr, holds] : ops) {
    SCOPED_TRACE(expr->ToString());
    const auto compiled = CompiledExpression::Compile(expr);
    ASSERT_EQ(compiled.compiled_fraction(), 1.0);
    ColumnVector out(compiled.result_type());
    compiled.NewVectorEvaluator().EvaluateColumn(*batch, &out);
    for (size_t r = 0; r < rows.size(); ++r) {
      SCOPED_TRACE(rows[r].ToString());
      ASSERT_FALSE(out.IsNull(r));
      EXPECT_EQ(out.GetValue(r).bool_value(), holds(sign[r]));
      EXPECT_EQ(expr->Eval(rows[r]).bool_value(), holds(sign[r]));
    }
  }
}

}  // namespace
}  // namespace ssql
