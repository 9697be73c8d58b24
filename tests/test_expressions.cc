// Unit tests for Catalyst expression nodes: evaluation semantics, null
// handling (SQL three-valued logic), tree transforms, and binding.

#include <gtest/gtest.h>

#include <optional>

#include "catalyst/expr/aggregates.h"
#include "catalyst/expr/arithmetic.h"
#include "catalyst/expr/attribute.h"
#include "catalyst/expr/case_when.h"
#include "catalyst/expr/cast.h"
#include "catalyst/expr/complex_types.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "catalyst/expr/string_ops.h"
#include "catalyst/expr/udf_expr.h"

namespace ssql {
namespace {

ExprPtr I32(int32_t v) { return Literal::Make(Value(v), DataType::Int32()); }
ExprPtr I64(int64_t v) { return Literal::Make(Value(v), DataType::Int64()); }
ExprPtr F64(double v) { return Literal::Make(Value(v), DataType::Double()); }
ExprPtr Str(const char* s) {
  return Literal::Make(Value(s), DataType::String());
}
ExprPtr NullOf(DataTypePtr t) { return Literal::Null(std::move(t)); }

const Row kEmpty;

TEST(ArithmeticTest, IntegerOps) {
  EXPECT_EQ(Add::Make(I32(2), I32(3))->Eval(kEmpty).i32(), 5);
  EXPECT_EQ(Subtract::Make(I32(2), I32(3))->Eval(kEmpty).i32(), -1);
  EXPECT_EQ(Multiply::Make(I32(4), I32(3))->Eval(kEmpty).i32(), 12);
  EXPECT_EQ(Divide::Make(I32(7), I32(2))->Eval(kEmpty).i32(), 3);
  EXPECT_EQ(Remainder::Make(I32(7), I32(2))->Eval(kEmpty).i32(), 1);
}

TEST(ArithmeticTest, DoubleOps) {
  EXPECT_DOUBLE_EQ(Add::Make(F64(0.5), F64(0.25))->Eval(kEmpty).f64(), 0.75);
  EXPECT_DOUBLE_EQ(Divide::Make(F64(1.0), F64(4.0))->Eval(kEmpty).f64(), 0.25);
}

TEST(ArithmeticTest, NullPropagates) {
  EXPECT_TRUE(Add::Make(NullOf(DataType::Int32()), I32(1))
                  ->Eval(kEmpty)
                  .is_null());
  EXPECT_TRUE(Add::Make(I32(1), NullOf(DataType::Int32()))
                  ->Eval(kEmpty)
                  .is_null());
}

TEST(ArithmeticTest, DivideByZeroIsNull) {
  EXPECT_TRUE(Divide::Make(I32(1), I32(0))->Eval(kEmpty).is_null());
  EXPECT_TRUE(Remainder::Make(I64(5), I64(0))->Eval(kEmpty).is_null());
  EXPECT_TRUE(Divide::Make(F64(1.0), F64(0.0))->Eval(kEmpty).is_null());
}

TEST(ArithmeticTest, UnaryOps) {
  EXPECT_EQ(UnaryMinus::Make(I32(5))->Eval(kEmpty).i32(), -5);
  EXPECT_EQ(Abs::Make(I32(-5))->Eval(kEmpty).i32(), 5);
  EXPECT_DOUBLE_EQ(Abs::Make(F64(-2.5))->Eval(kEmpty).f64(), 2.5);
}

TEST(ArithmeticTest, DecimalUnscaledRoundTrip) {
  // The two halves of the DecimalAggregates rewrite compose to identity.
  Decimal d(12345, 7, 2);
  ExprPtr lit = Literal::Make(Value(d), DecimalType::Make(7, 2));
  ExprPtr unscaled = UnscaledValue::Make(lit);
  EXPECT_EQ(unscaled->Eval(kEmpty).i64(), 12345);
  ExprPtr back = MakeDecimal::Make(unscaled, 7, 2);
  EXPECT_TRUE(back->Eval(kEmpty).decimal() == d);
}

TEST(ComparisonTest, AllOperators) {
  EXPECT_TRUE(EqualTo::Make(I32(3), I32(3))->Eval(kEmpty).bool_value());
  EXPECT_FALSE(EqualTo::Make(I32(3), I32(4))->Eval(kEmpty).bool_value());
  EXPECT_TRUE(NotEqualTo::Make(I32(3), I32(4))->Eval(kEmpty).bool_value());
  EXPECT_TRUE(LessThan::Make(I32(3), I32(4))->Eval(kEmpty).bool_value());
  EXPECT_TRUE(LessThanOrEqual::Make(I32(4), I32(4))->Eval(kEmpty).bool_value());
  EXPECT_TRUE(GreaterThan::Make(I32(5), I32(4))->Eval(kEmpty).bool_value());
  EXPECT_TRUE(
      GreaterThanOrEqual::Make(I32(4), I32(4))->Eval(kEmpty).bool_value());
  EXPECT_TRUE(LessThan::Make(Str("a"), Str("b"))->Eval(kEmpty).bool_value());
}

TEST(ComparisonTest, NullComparisonIsNull) {
  EXPECT_TRUE(EqualTo::Make(NullOf(DataType::Int32()), I32(1))
                  ->Eval(kEmpty)
                  .is_null());
  EXPECT_TRUE(LessThan::Make(I32(1), NullOf(DataType::Int32()))
                  ->Eval(kEmpty)
                  .is_null());
}

TEST(BooleanLogicTest, ThreeValuedAnd) {
  ExprPtr null_bool = NullOf(DataType::Boolean());
  // false AND null == false (short circuit through the null).
  EXPECT_FALSE(
      And::Make(Literal::False(), null_bool)->Eval(kEmpty).bool_value());
  EXPECT_FALSE(
      And::Make(null_bool, Literal::False())->Eval(kEmpty).bool_value());
  // true AND null == null.
  EXPECT_TRUE(And::Make(Literal::True(), null_bool)->Eval(kEmpty).is_null());
  EXPECT_TRUE(
      And::Make(Literal::True(), Literal::True())->Eval(kEmpty).bool_value());
}

TEST(BooleanLogicTest, ThreeValuedOr) {
  ExprPtr null_bool = NullOf(DataType::Boolean());
  EXPECT_TRUE(Or::Make(Literal::True(), null_bool)->Eval(kEmpty).bool_value());
  EXPECT_TRUE(Or::Make(null_bool, Literal::True())->Eval(kEmpty).bool_value());
  EXPECT_TRUE(Or::Make(Literal::False(), null_bool)->Eval(kEmpty).is_null());
  EXPECT_FALSE(
      Or::Make(Literal::False(), Literal::False())->Eval(kEmpty).bool_value());
}

TEST(BooleanLogicTest, NotAndNullChecks) {
  EXPECT_FALSE(Not::Make(Literal::True())->Eval(kEmpty).bool_value());
  EXPECT_TRUE(Not::Make(NullOf(DataType::Boolean()))->Eval(kEmpty).is_null());
  EXPECT_TRUE(
      IsNull::Make(NullOf(DataType::Int32()))->Eval(kEmpty).bool_value());
  EXPECT_FALSE(IsNull::Make(I32(1))->Eval(kEmpty).bool_value());
  EXPECT_TRUE(IsNotNull::Make(I32(1))->Eval(kEmpty).bool_value());
}

TEST(InTest, Semantics) {
  EXPECT_TRUE(
      In::Make(I32(2), {I32(1), I32(2)})->Eval(kEmpty).bool_value());
  EXPECT_FALSE(
      In::Make(I32(3), {I32(1), I32(2)})->Eval(kEmpty).bool_value());
  // null IN (...) is null.
  EXPECT_TRUE(In::Make(NullOf(DataType::Int32()), {I32(1)})
                  ->Eval(kEmpty)
                  .is_null());
  // 3 IN (1, null) is null (unknown).
  EXPECT_TRUE(In::Make(I32(3), {I32(1), NullOf(DataType::Int32())})
                  ->Eval(kEmpty)
                  .is_null());
  // 1 IN (1, null) is true.
  EXPECT_TRUE(In::Make(I32(1), {I32(1), NullOf(DataType::Int32())})
                  ->Eval(kEmpty)
                  .bool_value());
}

TEST(StringOpsTest, LikePatterns) {
  auto like = [](const char* value, const char* pattern) {
    return Like::Make(Str(value), Str(pattern))->Eval(kEmpty).bool_value();
  };
  EXPECT_TRUE(like("hello", "hello"));
  EXPECT_TRUE(like("hello", "he%"));
  EXPECT_TRUE(like("hello", "%llo"));
  EXPECT_TRUE(like("hello", "%ell%"));
  EXPECT_TRUE(like("hello", "h_llo"));
  EXPECT_FALSE(like("hello", "h_y%"));
  EXPECT_TRUE(like("", "%"));
  EXPECT_FALSE(like("abc", "ab"));
}

TEST(StringOpsTest, CaseAndSubstr) {
  EXPECT_EQ(Upper::Make(Str("MiXeD"))->Eval(kEmpty).str(), "MIXED");
  EXPECT_EQ(Lower::Make(Str("MiXeD"))->Eval(kEmpty).str(), "mixed");
  EXPECT_EQ(
      Substring::Make(Str("hello"), I32(2), I32(3))->Eval(kEmpty).str(),
      "ell");
  EXPECT_EQ(
      Substring::Make(Str("hello"), I32(-3), I32(2))->Eval(kEmpty).str(),
      "ll");
  EXPECT_EQ(
      Substring::Make(Str("hi"), I32(10), I32(3))->Eval(kEmpty).str(), "");
  EXPECT_EQ(StringLength::Make(Str("spark"))->Eval(kEmpty).i32(), 5);
  EXPECT_EQ(StringTrim::Make(Str("  x "))->Eval(kEmpty).str(), "x");
}

TEST(StringOpsTest, ConcatAndSplit) {
  EXPECT_EQ(Concat::Make({Str("a"), Str("b"), Str("c")})->Eval(kEmpty).str(),
            "abc");
  EXPECT_TRUE(Concat::Make({Str("a"), NullOf(DataType::String())})
                  ->Eval(kEmpty)
                  .is_null());
  Value words = SplitString::Make(Str("a b  c"), Str(""))->Eval(kEmpty);
  ASSERT_EQ(words.array().elements.size(), 3u);
  EXPECT_EQ(words.array().elements[2].str(), "c");
}

TEST(CastTest, NumericAndStringCasts) {
  EXPECT_EQ(Cast::Make(Str("42"), DataType::Int32())->Eval(kEmpty).i32(), 42);
  EXPECT_EQ(Cast::Make(Str(" 42 "), DataType::Int64())->Eval(kEmpty).i64(), 42);
  EXPECT_TRUE(
      Cast::Make(Str("abc"), DataType::Int32())->Eval(kEmpty).is_null());
  EXPECT_DOUBLE_EQ(
      Cast::Make(I32(3), DataType::Double())->Eval(kEmpty).f64(), 3.0);
  EXPECT_EQ(Cast::Make(F64(3.9), DataType::Int64())->Eval(kEmpty).i64(), 3);
  EXPECT_EQ(Cast::Make(I32(7), DataType::String())->Eval(kEmpty).str(), "7");
  EXPECT_TRUE(
      Cast::Make(Str("true"), DataType::Boolean())->Eval(kEmpty).bool_value());
}

TEST(CastTest, DateCasts) {
  Value d = Cast::Make(Str("2015-05-31"), DataType::Date())->Eval(kEmpty);
  ASSERT_EQ(d.type_id(), TypeId::kDate);
  EXPECT_EQ(FormatDate(d.date()), "2015-05-31");
  Value ts =
      Cast::Make(Str("2015-05-31 12:00:00"), DataType::Timestamp())->Eval(kEmpty);
  ASSERT_EQ(ts.type_id(), TypeId::kTimestamp);
  Value back = Cast::Convert(ts, *DataType::Date());
  EXPECT_EQ(FormatDate(back.date()), "2015-05-31");
}

TEST(CastTest, DateTextMustBeWholeDate) {
  EXPECT_TRUE(
      Cast::Make(Str("2020-01-05junk"), DataType::Date())->Eval(kEmpty).is_null());
  EXPECT_TRUE(Cast::Make(Str("2020-01-05 10:30:00"), DataType::Date())
                  ->Eval(kEmpty)
                  .is_null());
  // Padding is trimmed and short fields still parse.
  Value d = Cast::Make(Str(" 2020-1-5 "), DataType::Date())->Eval(kEmpty);
  ASSERT_EQ(d.type_id(), TypeId::kDate);
  EXPECT_EQ(FormatDate(d.date()), "2020-01-05");
  // A timestamp's date part must be whole too.
  EXPECT_TRUE(Cast::Make(Str("2020-01-05x 10:30:00"), DataType::Timestamp())
                  ->Eval(kEmpty)
                  .is_null());
  Value ts =
      Cast::Make(Str("2020-01-05 10:30"), DataType::Timestamp())->Eval(kEmpty);
  Value midnight =
      Cast::Make(Str("2020-01-05"), DataType::Timestamp())->Eval(kEmpty);
  EXPECT_EQ(ts.timestamp().micros - midnight.timestamp().micros,
            (10 * 3600LL + 30 * 60LL) * 1000000LL);
}

TEST(CastTest, TimestampTimeOfDayMustBeWholeTime) {
  int64_t midnight = 0;
  double unused = 0;
  ASSERT_TRUE(ParseTextAs("2020-01-05", *DataType::Timestamp(), &midnight,
                          &unused));
  auto micros_after_midnight = [&](const char* text) -> std::optional<int64_t> {
    int64_t micros = 0;
    if (!ParseTextAs(text, *DataType::Timestamp(), &micros, &unused)) {
      return std::nullopt;
    }
    return micros - midnight;
  };
  EXPECT_EQ(micros_after_midnight("2020-01-05 10:30"),
            (10 * 3600LL + 30 * 60LL) * 1000000LL);
  EXPECT_EQ(micros_after_midnight("2020-01-05 23:59:59"),
            (23 * 3600LL + 59 * 60LL + 59) * 1000000LL);
  // The fraction is kept to the microsecond.
  EXPECT_EQ(micros_after_midnight("2020-01-05 10:30:00.75"),
            (10 * 3600LL + 30 * 60LL) * 1000000LL + 750000);
  EXPECT_EQ(micros_after_midnight("2020-01-05 00:00:01.000001"), 1000001);
  // Junk, out-of-range fields and partial times fail instead of rolling
  // over or reading as midnight.
  for (const char* bad :
       {"2020-01-05 junk", "2020-01-05 99:99", "2020-01-05 24:00",
        "2020-01-05 10:60", "2020-01-05 10:30:60", "2020-01-05 10",
        "2020-01-05 10:", "2020-01-05 10:30:", "2020-01-05 10:30x",
        "2020-01-05 10:30:00.", "2020-01-05 10:30:00.1234567",
        "2020-01-05 10:30:00.5x", "2020-01-05 1:5"}) {
    EXPECT_EQ(micros_after_midnight(bad), std::nullopt) << bad;
    EXPECT_TRUE(
        Cast::Make(Str(bad), DataType::Timestamp())->Eval(kEmpty).is_null())
        << bad;
  }
}

TEST(CastTest, OutOfRangeStringToIntIsNullNumbersStillWrap) {
  EXPECT_TRUE(
      Cast::Make(Str("3000000000"), DataType::Int32())->Eval(kEmpty).is_null());
  EXPECT_TRUE(
      Cast::Make(Str("-2147483649"), DataType::Int32())->Eval(kEmpty).is_null());
  EXPECT_EQ(Cast::Make(Str("-2147483648"), DataType::Int32())->Eval(kEmpty).i32(),
            INT32_MIN);
  EXPECT_EQ(Cast::Make(Str("3000000000"), DataType::Int64())->Eval(kEmpty).i64(),
            3000000000LL);
  // A numeric source keeps its wrapping conversion.
  EXPECT_EQ(Cast::Convert(Value(int64_t{3000000000LL}), *DataType::Int32()).i32(),
            static_cast<int32_t>(3000000000LL));
}

TEST(CaseWhenTest, BranchesAndElse) {
  ExprPtr cw = CaseWhen::Make(
      {EqualTo::Make(I32(1), I32(2)), Str("one"),
       EqualTo::Make(I32(2), I32(2)), Str("two"), Str("other")},
      /*has_else=*/true);
  EXPECT_EQ(cw->Eval(kEmpty).str(), "two");
  ExprPtr no_match = CaseWhen::Make(
      {Literal::False(), Str("x")}, /*has_else=*/false);
  EXPECT_TRUE(no_match->Eval(kEmpty).is_null());
  EXPECT_EQ(CaseWhen::If(Literal::True(), I32(1), I32(2))->Eval(kEmpty).i32(),
            1);
}

TEST(CoalesceTest, FirstNonNull) {
  EXPECT_EQ(Coalesce::Make({NullOf(DataType::Int32()), I32(5), I32(7)})
                ->Eval(kEmpty)
                .i32(),
            5);
  EXPECT_TRUE(Coalesce::Make({NullOf(DataType::Int32())})
                  ->Eval(kEmpty)
                  .is_null());
}

TEST(ComplexTypesTest, StructArrayMapAccess) {
  Row row({Value::Struct({Value(1.5), Value(2.5)}),
           Value::Array({Value("a"), Value("b")}),
           Value::Map({{Value("k"), Value(int32_t{9})}})});
  auto struct_type = StructType::Make(
      {Field("x", DataType::Double()), Field("y", DataType::Double())});
  ExprPtr st = BoundReference::Make(0, struct_type, false);
  EXPECT_DOUBLE_EQ(GetStructField::Make(st, 1, "y")->Eval(row).f64(), 2.5);

  ExprPtr arr = BoundReference::Make(
      1, ArrayType::Make(DataType::String(), false), false);
  EXPECT_EQ(GetArrayItem::Make(arr, I32(0))->Eval(row).str(), "a");
  EXPECT_TRUE(GetArrayItem::Make(arr, I32(5))->Eval(row).is_null());
  EXPECT_EQ(SizeOf::Make(arr)->Eval(row).i32(), 2);
  EXPECT_TRUE(ArrayContains::Make(arr, Str("b"))->Eval(row).bool_value());
  EXPECT_FALSE(ArrayContains::Make(arr, Str("z"))->Eval(row).bool_value());

  ExprPtr m = BoundReference::Make(
      2, MapType::Make(DataType::String(), DataType::Int32()), false);
  EXPECT_EQ(GetMapValue::Make(m, Str("k"))->Eval(row).i32(), 9);
  EXPECT_TRUE(GetMapValue::Make(m, Str("nope"))->Eval(row).is_null());
}

TEST(TransformTest, TransformUpRewritesLeaves) {
  // The Section 4.2 example: fold Add(Literal, Literal) bottom-up so
  // (x+0)+(3+3) style trees collapse.
  ExprPtr x = BoundReference::Make(0, DataType::Int32(), false);
  ExprPtr tree = Add::Make(Add::Make(x, I32(0)), Add::Make(I32(3), I32(3)));
  ExprPtr rewritten = tree->TransformUp([](const ExprPtr& e) -> ExprPtr {
    if (const auto* add = As<Add>(e)) {
      const auto* l = As<Literal>(add->left());
      const auto* r = As<Literal>(add->right());
      if (l && r) {
        return Literal::Make(
            Value(static_cast<int32_t>(l->value().AsInt64() +
                                       r->value().AsInt64())),
            DataType::Int32());
      }
      if (r && !r->value().is_null() && r->value().AsInt64() == 0) {
        return add->left();
      }
      if (l && !l->value().is_null() && l->value().AsInt64() == 0) {
        return add->right();
      }
    }
    return e;
  });
  // (x+0)+(3+3) -> x+6
  const auto* add = As<Add>(rewritten);
  ASSERT_NE(add, nullptr);
  EXPECT_NE(As<BoundReference>(add->left()), nullptr);
  const auto* six = As<Literal>(add->right());
  ASSERT_NE(six, nullptr);
  EXPECT_EQ(six->value().i32(), 6);
}

TEST(TransformTest, UnchangedTreeKeepsIdentity) {
  ExprPtr tree = Add::Make(I32(1), I32(2));
  ExprPtr same = tree->TransformUp([](const ExprPtr& e) { return e; });
  EXPECT_EQ(same.get(), tree.get());  // pointer identity = "no change"
}

TEST(TransformTest, TransformDownSeesParentFirst) {
  std::vector<std::string> visits;
  ExprPtr tree = Add::Make(I32(1), I32(2));
  tree->TransformDown([&](const ExprPtr& e) -> ExprPtr {
    visits.push_back(e->NodeName());
    return e;
  });
  ASSERT_GE(visits.size(), 3u);
  EXPECT_EQ(visits[0], "Add");
  EXPECT_EQ(visits[1], "Literal");
}

TEST(BindingTest, BindReferencesByExprId) {
  AttributePtr a = AttributeReference::Make("a", DataType::Int32(), false);
  AttributePtr b = AttributeReference::Make("b", DataType::Int32(), false);
  ExprPtr sum = Add::Make(a, b);
  ExprPtr bound = BindReferences(sum, {b, a});  // note swapped order
  Row row({Value(int32_t{10}), Value(int32_t{1})});  // b=10, a=1
  EXPECT_EQ(bound->Eval(row).i32(), 11);
}

TEST(BindingTest, MissingAttributeThrows) {
  AttributePtr a = AttributeReference::Make("a", DataType::Int32(), false);
  AttributePtr other = AttributeReference::Make("a", DataType::Int32(), false);
  // Same name, different expr-id: must NOT bind.
  EXPECT_THROW(BindReferences(a, {other}), AnalysisError);
}

TEST(AggregateTest, SumUpdateMergeFinish) {
  ExprPtr child = BoundReference::Make(0, DataType::Int64(), true);
  auto sum = std::static_pointer_cast<const AggregateFunction>(Sum::Make(child));
  Value acc = sum->InitAccumulator();
  sum->Update(&acc, Row({Value(int64_t{5})}));
  sum->Update(&acc, Row({Value::Null()}));  // nulls skipped
  sum->Update(&acc, Row({Value(int64_t{7})}));
  Value acc2 = sum->InitAccumulator();
  sum->Update(&acc2, Row({Value(int64_t{100})}));
  sum->Merge(&acc, acc2);
  EXPECT_EQ(sum->Finish(acc).i64(), 112);
  // Empty group sums to null.
  EXPECT_TRUE(sum->Finish(sum->InitAccumulator()).is_null());
}

TEST(AggregateTest, AverageAndCount) {
  ExprPtr child = BoundReference::Make(0, DataType::Double(), true);
  auto avg =
      std::static_pointer_cast<const AggregateFunction>(Average::Make(child));
  Value acc = avg->InitAccumulator();
  avg->Update(&acc, Row({Value(2.0)}));
  avg->Update(&acc, Row({Value(4.0)}));
  EXPECT_DOUBLE_EQ(avg->Finish(acc).f64(), 3.0);

  auto count =
      std::static_pointer_cast<const AggregateFunction>(Count::Make({child}));
  Value cacc = count->InitAccumulator();
  count->Update(&cacc, Row({Value(1.0)}));
  count->Update(&cacc, Row({Value::Null()}));
  EXPECT_EQ(count->Finish(cacc).i64(), 1);

  auto star =
      std::static_pointer_cast<const AggregateFunction>(Count::Star());
  Value sacc = star->InitAccumulator();
  star->Update(&sacc, Row({Value::Null()}));
  EXPECT_EQ(star->Finish(sacc).i64(), 1);  // count(*) counts null rows
}

TEST(AggregateTest, MinMaxAndCountDistinct) {
  ExprPtr child = BoundReference::Make(0, DataType::Int32(), true);
  auto mn = std::static_pointer_cast<const AggregateFunction>(MinMax::Min(child));
  auto mx = std::static_pointer_cast<const AggregateFunction>(MinMax::Max(child));
  Value mn_acc = mn->InitAccumulator();
  Value mx_acc = mx->InitAccumulator();
  for (int v : {5, 3, 9, 3}) {
    mn->Update(&mn_acc, Row({Value(int32_t(v))}));
    mx->Update(&mx_acc, Row({Value(int32_t(v))}));
  }
  EXPECT_EQ(mn->Finish(mn_acc).i32(), 3);
  EXPECT_EQ(mx->Finish(mx_acc).i32(), 9);

  auto cd = std::static_pointer_cast<const AggregateFunction>(
      CountDistinct::Make(child));
  Value acc = cd->InitAccumulator();
  for (int v : {1, 2, 2, 3, 1}) cd->Update(&acc, Row({Value(int32_t(v))}));
  EXPECT_EQ(cd->Finish(acc).i64(), 3);
}

TEST(UdfTest, EvalAndDeterminism) {
  ExprPtr udf = ScalarUDF::Make(
      "twice", {BoundReference::Make(0, DataType::Int32(), false)},
      DataType::Int32(), [](const std::vector<Value>& args) -> Value {
        return Value(static_cast<int32_t>(args[0].AsInt64() * 2));
      });
  EXPECT_EQ(udf->Eval(Row({Value(int32_t{21})})).i32(), 42);
  EXPECT_TRUE(udf->deterministic());

  ExprPtr rand_udf = ScalarUDF::Make(
      "rand", {}, DataType::Int32(),
      [](const std::vector<Value>&) -> Value { return Value(int32_t{4}); },
      /*deterministic=*/false);
  EXPECT_FALSE(rand_udf->deterministic());
  EXPECT_FALSE(Add::Make(rand_udf, I32(1))->deterministic());
}

TEST(FoldableTest, Semantics) {
  EXPECT_TRUE(I32(1)->foldable());
  EXPECT_TRUE(Add::Make(I32(1), I32(2))->foldable());
  ExprPtr col = BoundReference::Make(0, DataType::Int32(), false);
  EXPECT_FALSE(col->foldable());
  EXPECT_FALSE(Add::Make(col, I32(1))->foldable());
}

}  // namespace
}  // namespace ssql
