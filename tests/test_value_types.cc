// Unit tests for the type system: Value, Decimal, DataType, Schema, dates,
// and the one value order against hand-written rank tables.

#include <gtest/gtest.h>

#include <limits>

#include "types/data_type.h"
#include "types/decimal.h"
#include "types/row.h"
#include "types/schema.h"
#include "types/value.h"

namespace ssql {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type_id(), TypeId::kNull);
  EXPECT_EQ(v.ToString(), "null");
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
}

TEST(ValueTest, NumericAccessorsAndWidening) {
  Value i(int32_t{42});
  EXPECT_EQ(i.i32(), 42);
  EXPECT_EQ(i.AsInt64(), 42);
  EXPECT_DOUBLE_EQ(i.AsDouble(), 42.0);

  Value l(int64_t{1} << 40);
  EXPECT_EQ(l.i64(), int64_t{1} << 40);

  Value d(2.5);
  EXPECT_DOUBLE_EQ(d.f64(), 2.5);
  EXPECT_EQ(d.AsInt64(), 2);
}

TEST(ValueTest, CrossWidthNumericEqualityAndCompare) {
  EXPECT_TRUE(Value(int32_t{7}).Equals(Value(int64_t{7})));
  EXPECT_TRUE(Value(int32_t{7}).Equals(Value(7.0)));
  EXPECT_EQ(Value(int32_t{3}).Compare(Value(4.0)), -1);
  EXPECT_EQ(Value(5.0).Compare(Value(int64_t{5})), 0);
  EXPECT_EQ(Value(int64_t{9}).Compare(Value(int32_t{8})), 1);
}

TEST(ValueTest, CrossWidthNumericHashingAgrees) {
  EXPECT_EQ(Value(int32_t{100}).Hash(), Value(int64_t{100}).Hash());
  EXPECT_EQ(Value(100.0).Hash(), Value(int64_t{100}).Hash());
}

// ---------------------------------------------------------------------------
// The one value order, against hand-written rank tables (Spark's rules):
// null first; NaN equals NaN and follows +inf; -0.0 equals 0.0; decimals and
// integers compare exactly.
// ---------------------------------------------------------------------------

struct Ranked {
  Value v;
  int rank;
};

int Sign(int x) { return (x > 0) - (x < 0); }

std::vector<Ranked> DoubleGrid() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  return {{Value::Null(), 0}, {Value(-inf), 1},         {Value(-2.25), 2},
          {Value(-0.0), 3},   {Value(0.0), 3},          {Value(1.5), 4},
          {Value(inf), 5},    {Value(nan), 6},          {Value(-nan), 6}};
}

std::vector<Ranked> DecimalGrid() {
  const int64_t m = 999999999999999999;  // 10^18 - 1
  return {{Value::Null(), 0},
          {Value(Decimal(-m, 18, 0)), 1},
          {Value(int64_t{-m}), 1},
          {Value(Decimal(-m, 18, 18)), 2},
          {Value(Decimal(0, 18, 18)), 3},
          {Value(Decimal(0, 18, 0)), 3},
          {Value(int64_t{0}), 3},
          {Value(Decimal(1, 18, 18)), 4},
          {Value(Decimal(m, 18, 18)), 5},
          {Value(Decimal(100000000000000000, 18, 17)), 6},
          {Value(int32_t{1}), 6},
          {Value(Decimal(123456789012345678, 18, 0)), 7},
          {Value(Decimal(123456789012345679, 18, 0)), 8},
          {Value(int64_t{123456789012345679}), 8},
          {Value(Decimal(m, 18, 0)), 9},
          {Value(std::numeric_limits<int64_t>::max()), 10}};
}

TEST(ValueOrderTest, CompareMatchesTheRankTables) {
  for (const auto& grid : {DoubleGrid(), DecimalGrid()}) {
    for (const Ranked& a : grid) {
      for (const Ranked& b : grid) {
        SCOPED_TRACE(a.v.ToString() + " vs " + b.v.ToString());
        EXPECT_EQ(Sign(a.v.Compare(b.v)), Sign(a.rank - b.rank));
        EXPECT_EQ(a.v.Equals(b.v), a.rank == b.rank);
      }
    }
  }
  // A decimal against a double compares as doubles (Spark's cast).
  EXPECT_EQ(Value(Decimal(150, 5, 2)).Compare(Value(1.5)), 0);
  EXPECT_LT(Value(Decimal(150, 5, 2)).Compare(
                Value(std::numeric_limits<double>::quiet_NaN())),
            0);
}

TEST(ValueOrderTest, EqualValuesHashAlike) {
  // A decimal hashes by its double, so an integer and a decimal hash alike
  // only within 2^53; the analyzer coerces join and grouping keys to one
  // type first, so the grids check pairs of one type.
  for (const auto& grid : {DoubleGrid(), DecimalGrid()}) {
    for (const Ranked& a : grid) {
      for (const Ranked& b : grid) {
        if (a.v.type_id() != b.v.type_id() || !a.v.Equals(b.v)) continue;
        SCOPED_TRACE(a.v.ToString() + " vs " + b.v.ToString());
        EXPECT_EQ(a.v.Hash(), b.v.Hash());
      }
    }
  }
  // Equal decimals at other scales, digits past a double's precision.
  EXPECT_EQ(Value(Decimal(12345678901234567, 18, 0)).Hash(),
            Value(Decimal(123456789012345670, 18, 1)).Hash());
  EXPECT_EQ(Value(Decimal(0, 18, 0)).Hash(), Value(int64_t{0}).Hash());
  EXPECT_EQ(Value(Decimal(150, 5, 2)).Hash(), Value(1.5).Hash());
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value(int32_t{0})), 0);
  EXPECT_GT(Value(int32_t{0}).Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, StringsCompareLexicographically) {
  EXPECT_LT(Value("apple").Compare(Value("banana")), 0);
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
  EXPECT_TRUE(Value("x").Equals(Value(std::string("x"))));
}

TEST(ValueTest, ComplexValues) {
  Value arr = Value::Array({Value(int32_t{1}), Value(int32_t{2})});
  EXPECT_EQ(arr.type_id(), TypeId::kArray);
  EXPECT_EQ(arr.array().elements.size(), 2u);
  EXPECT_EQ(arr.ToString(), "[1,2]");

  Value st = Value::Struct({Value("a"), Value::Null()});
  EXPECT_EQ(st.struct_data().fields.size(), 2u);
  EXPECT_TRUE(st.struct_data().fields[1].is_null());

  Value m = Value::Map({{Value("k"), Value(int32_t{1})}});
  EXPECT_EQ(m.map().entries.size(), 1u);

  EXPECT_TRUE(arr.Equals(Value::Array({Value(int32_t{1}), Value(int32_t{2})})));
  EXPECT_FALSE(arr.Equals(Value::Array({Value(int32_t{1})})));
}

TEST(DateTest, ParseAndFormatRoundTrip) {
  DateValue d;
  ASSERT_TRUE(ParseDate("2015-05-31", &d));
  EXPECT_EQ(FormatDate(d), "2015-05-31");
  ASSERT_TRUE(ParseDate("1970-01-01", &d));
  EXPECT_EQ(d.days, 0);
  ASSERT_TRUE(ParseDate("1969-12-31", &d));
  EXPECT_EQ(d.days, -1);
  ASSERT_TRUE(ParseDate("2000-02-29", &d));  // leap year
  EXPECT_EQ(FormatDate(d), "2000-02-29");
}

TEST(DateTest, RejectsBadDates) {
  DateValue d;
  EXPECT_FALSE(ParseDate("2015-13-01", &d));
  EXPECT_FALSE(ParseDate("2015-02-30", &d));
  EXPECT_FALSE(ParseDate("not-a-date", &d));
}

TEST(DateTest, OrderingMatchesCalendar) {
  DateValue a, b;
  ASSERT_TRUE(ParseDate("2014-12-31", &a));
  ASSERT_TRUE(ParseDate("2015-01-01", &b));
  EXPECT_LT(Value(a).Compare(Value(b)), 0);
}

TEST(DecimalTest, ParseAndToString) {
  Decimal d;
  ASSERT_TRUE(Decimal::Parse("123.45", &d));
  EXPECT_EQ(d.unscaled(), 12345);
  EXPECT_EQ(d.scale(), 2);
  EXPECT_EQ(d.ToString(), "123.45");
  ASSERT_TRUE(Decimal::Parse("-0.5", &d));
  EXPECT_EQ(d.ToString(), "-0.5");
  EXPECT_FALSE(Decimal::Parse("12.34.56", &d));
  EXPECT_FALSE(Decimal::Parse("", &d));
}

TEST(DecimalTest, ArithmeticAlignsScales) {
  Decimal a(150, 3, 2);   // 1.50
  Decimal b(25, 3, 1);    // 2.5
  Decimal sum = a.Add(b);
  EXPECT_DOUBLE_EQ(sum.ToDouble(), 4.0);
  Decimal diff = b.Subtract(a);
  EXPECT_DOUBLE_EQ(diff.ToDouble(), 1.0);
  Decimal prod = a.Multiply(b);
  EXPECT_DOUBLE_EQ(prod.ToDouble(), 3.75);
}

TEST(DecimalTest, CompareAcrossScales) {
  Decimal a(150, 3, 2);  // 1.50
  Decimal b(15, 2, 1);   // 1.5
  EXPECT_EQ(a.Compare(b), 0);
  EXPECT_TRUE(a == b);
  Decimal c(16, 2, 1);  // 1.6
  EXPECT_LT(a.Compare(c), 0);

  // Extremes: aligning 10^18 - 1 at scale 0 with scale 18 multiplies it by
  // 10^18, past int64.
  const int64_t m = 999999999999999999;
  EXPECT_GT(Decimal(m, 18, 0).Compare(Decimal(m, 18, 18)), 0);
  EXPECT_LT(Decimal(m, 18, 18).Compare(Decimal(m, 18, 0)), 0);
  EXPECT_LT(Decimal(-m, 18, 0).Compare(Decimal(m, 18, 18)), 0);
  EXPECT_LT(Decimal(-m, 18, 0).Compare(Decimal(-m, 18, 18)), 0);
  EXPECT_GT(Decimal(-m, 18, 18).Compare(Decimal(-m, 18, 0)), 0);
  EXPECT_EQ(Decimal(-m, 18, 18).Compare(Decimal(-m, 18, 18)), 0);
  // 10^17 at scale 0 against every decimal(18,2) (|v| < 10^16).
  EXPECT_GT(Decimal(100000000000000000, 18, 0).Compare(Decimal(m, 18, 2)), 0);
  EXPECT_LT(Decimal(-100000000000000000, 18, 0).Compare(Decimal(-m, 18, 2)), 0);
  // Values a double cannot tell apart.
  EXPECT_LT(Decimal(123456789012345678, 18, 0)
                .Compare(Decimal(123456789012345679, 18, 0)),
            0);
  // An int64 against a decimal of scale 18 compares exactly (as scale 0).
  const int64_t big = std::numeric_limits<int64_t>::max();
  const int64_t small = std::numeric_limits<int64_t>::min();
  EXPECT_GT(Value(big).Compare(Value(Decimal(m, 18, 18))), 0);
  EXPECT_LT(Value(small).Compare(Value(Decimal(-m, 18, 18))), 0);
  EXPECT_LT(Value(int64_t{0}).Compare(Value(Decimal(1, 18, 18))), 0);
  EXPECT_GT(Value(int64_t{0}).Compare(Value(Decimal(-1, 18, 18))), 0);
  const Decimal one(1000000000000000000, 18, 18);
  EXPECT_EQ(Value(int64_t{1}).Compare(Value(one)), 0);
  EXPECT_GT(Value(Decimal(m, 18, 18)).Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value(int32_t{-7}).Compare(Value(Decimal(-700, 5, 2))), 0);
}

TEST(DecimalTest, RescaleRounds) {
  Decimal d(12345, 5, 3);  // 12.345
  Decimal r = d.Rescale(4, 2);
  EXPECT_EQ(r.unscaled(), 1235);  // rounds half away from zero -> 12.35
  Decimal neg(-12345, 5, 3);
  EXPECT_EQ(neg.Rescale(4, 2).unscaled(), -1235);
}

TEST(DataTypeTest, PrimitivesAreSingletonsWithNames) {
  EXPECT_EQ(DataType::Int32().get(), DataType::Int32().get());
  EXPECT_EQ(DataType::Int32()->ToString(), "int");
  EXPECT_EQ(DataType::Int64()->ToString(), "bigint");
  EXPECT_EQ(DataType::String()->ToString(), "string");
  EXPECT_TRUE(DataType::Int32()->IsNumeric());
  EXPECT_TRUE(DataType::Int32()->IsIntegral());
  EXPECT_FALSE(DataType::Double()->IsIntegral());
  EXPECT_TRUE(DataType::String()->IsAtomic());
}

TEST(DataTypeTest, ComplexTypeEqualityIsStructural) {
  auto a1 = ArrayType::Make(DataType::Int32(), true);
  auto a2 = ArrayType::Make(DataType::Int32(), true);
  auto a3 = ArrayType::Make(DataType::Int64(), true);
  EXPECT_TRUE(a1->Equals(*a2));
  EXPECT_FALSE(a1->Equals(*a3));

  auto s1 = StructType::Make({Field("x", DataType::Double(), false)});
  auto s2 = StructType::Make({Field("x", DataType::Double(), false)});
  auto s3 = StructType::Make({Field("y", DataType::Double(), false)});
  EXPECT_TRUE(s1->Equals(*s2));
  EXPECT_FALSE(s1->Equals(*s3));
}

TEST(DataTypeTest, StructFieldLookupIsCaseInsensitive) {
  auto s = StructType::Make(
      {Field("Name", DataType::String()), Field("age", DataType::Int32())});
  EXPECT_EQ(s->FieldIndex("name"), 0);
  EXPECT_EQ(s->FieldIndex("AGE"), 1);
  EXPECT_EQ(s->FieldIndex("missing"), -1);
}

TEST(DataTypeTest, DecimalTypeDisplay) {
  auto d = DecimalType::Make(7, 2);
  EXPECT_EQ(d->ToString(), "decimal(7,2)");
  EXPECT_TRUE(d->Equals(*DecimalType::Make(7, 2)));
  EXPECT_FALSE(d->Equals(*DecimalType::Make(8, 2)));
}

TEST(RowTest, ConcatAndEquality) {
  Row a({Value(int32_t{1}), Value("x")});
  Row b({Value(2.0)});
  Row c = Row::Concat(a, b);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.GetInt32(0), 1);
  EXPECT_EQ(c.GetString(1), "x");
  EXPECT_DOUBLE_EQ(c.GetDouble(2), 2.0);
  EXPECT_TRUE(a.Equals(Row({Value(int32_t{1}), Value("x")})));
  EXPECT_FALSE(a.Equals(b));
  EXPECT_EQ(a.ToString(), "[1, x]");
}

}  // namespace
}  // namespace ssql
