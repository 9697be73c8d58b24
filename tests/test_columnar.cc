// Columnar storage tests (Section 3.6): encodings round-trip exactly
// (property-swept), compression actually shrinks compressible data,
// corrupt chunks raise IoError, the chunk reader's filter kernels agree
// with FilterSpec::Matches over every op, type and encoding and, with the
// zone maps, with Spark's value order, and the in-memory cache serves
// pruned scans with an order-of-magnitude smaller footprint than boxed
// rows.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <numeric>
#include <optional>
#include <random>

#include "columnar/column_vector.h"
#include "columnar/columnar_cache.h"
#include "columnar/encoding.h"
#include "columnar/row_batch.h"
#include "datasources/chunk_reader.h"
#include "datasources/colf_format.h"
#include "engine/exec_context.h"
#include "util/status.h"

namespace ssql {
namespace {

ColumnVector MakeColumn(DataTypePtr type, const std::vector<Value>& values) {
  ColumnVector col(std::move(type));
  for (const auto& v : values) col.Append(v);
  return col;
}

TEST(ColumnVectorTest, AppendAndGet) {
  ColumnVector col(DataType::Int64());
  col.Append(Value(int64_t{5}));
  col.Append(Value::Null());
  col.Append(Value(int64_t{-3}));
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetValue(0).i64(), 5);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetValue(2).i64(), -3);
}

TEST(ColumnVectorTest, TypedBanksPreserveLogicalTypes) {
  DateValue d;
  ParseDate("2015-05-31", &d);
  ColumnVector dates(DataType::Date());
  dates.Append(Value(d));
  EXPECT_EQ(dates.GetValue(0).type_id(), TypeId::kDate);

  ColumnVector decimals(DecimalType::Make(7, 2));
  decimals.Append(Value(Decimal(12345, 7, 2)));
  EXPECT_EQ(decimals.GetValue(0).type_id(), TypeId::kDecimal);
  EXPECT_EQ(decimals.GetValue(0).decimal().unscaled(), 12345);

  ColumnVector bools(DataType::Boolean());
  bools.Append(Value(true));
  EXPECT_TRUE(bools.GetValue(0).bool_value());
}

void ExpectRoundTrip(const ColumnVector& col, ColumnEncoding scheme) {
  EncodedColumn encoded = EncodeColumnAs(col, scheme);
  ColumnVector decoded = DecodeColumn(encoded);
  ASSERT_EQ(decoded.size(), col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_TRUE(col.GetValue(i).Equals(decoded.GetValue(i)) ||
                (col.IsNull(i) && decoded.IsNull(i)))
        << "row " << i << " under scheme " << static_cast<int>(scheme);
  }
}

TEST(EncodingTest, AllSchemesRoundTripInts) {
  ColumnVector col = MakeColumn(
      DataType::Int64(),
      {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{1}), Value::Null(),
       Value(int64_t{9}), Value(int64_t{-5}), Value(int64_t{9})});
  ExpectRoundTrip(col, ColumnEncoding::kPlain);
  ExpectRoundTrip(col, ColumnEncoding::kRunLength);
  ExpectRoundTrip(col, ColumnEncoding::kDictionary);
}

TEST(EncodingTest, AllSchemesRoundTripStrings) {
  ColumnVector col = MakeColumn(
      DataType::String(), {Value("aa"), Value("aa"), Value::Null(), Value("bb"),
                           Value(""), Value("aa")});
  ExpectRoundTrip(col, ColumnEncoding::kPlain);
  ExpectRoundTrip(col, ColumnEncoding::kRunLength);
  ExpectRoundTrip(col, ColumnEncoding::kDictionary);
}

TEST(EncodingTest, DoublesRoundTrip) {
  ColumnVector col = MakeColumn(
      DataType::Double(),
      {Value(1.5), Value(-0.0), Value::Null(), Value(1e300), Value(1.5)});
  ExpectRoundTrip(col, ColumnEncoding::kPlain);
  ExpectRoundTrip(col, ColumnEncoding::kRunLength);
  ExpectRoundTrip(col, ColumnEncoding::kDictionary);
}

class EncodingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EncodingPropertyTest, RandomColumnsRoundTripUnderChosenEncoding) {
  std::mt19937_64 rng(GetParam() * 31337);
  for (int trial = 0; trial < 10; ++trial) {
    // Mix of low-cardinality, runs, and random data to hit every encoder.
    ColumnVector ints(DataType::Int64());
    ColumnVector strs(DataType::String());
    size_t n = 1 + rng() % 500;
    for (size_t i = 0; i < n; ++i) {
      if (rng() % 10 == 0) {
        ints.Append(Value::Null());
        strs.Append(Value::Null());
        continue;
      }
      int mode = rng() % 3;
      int64_t v = mode == 0 ? static_cast<int64_t>(rng() % 4)       // dict
                  : mode == 1 ? static_cast<int64_t>(i / 17)        // runs
                              : static_cast<int64_t>(rng());        // random
      ints.Append(Value(v));
      strs.Append(Value("s" + std::to_string(v % 100)));
    }
    for (auto* col : {&ints, &strs}) {
      EncodedColumn encoded = EncodeColumn(*col);  // auto-chosen scheme
      ColumnVector decoded = DecodeColumn(encoded);
      ASSERT_EQ(decoded.size(), col->size());
      for (size_t i = 0; i < col->size(); ++i) {
        ASSERT_TRUE(col->GetValue(i).Equals(decoded.GetValue(i)) ||
                    (col->IsNull(i) && decoded.IsNull(i)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(EncodingTest, CompressionShrinksCompressibleData) {
  // Run-heavy column: RLE must beat plain by a wide margin.
  ColumnVector runs(DataType::Int64());
  for (int i = 0; i < 10000; ++i) runs.Append(Value(int64_t(i / 1000)));
  EncodedColumn plain = EncodeColumnAs(runs, ColumnEncoding::kPlain);
  EncodedColumn rle = EncodeColumnAs(runs, ColumnEncoding::kRunLength);
  EXPECT_LT(rle.data.size() * 20, plain.data.size());
  // Auto-choice picks the smallest.
  EncodedColumn chosen = EncodeColumn(runs);
  EXPECT_LE(chosen.data.size(), rle.data.size());

  // Low-cardinality strings: dictionary wins over plain.
  ColumnVector dict(DataType::String());
  for (int i = 0; i < 10000; ++i) {
    dict.Append(Value(i % 2 == 0 ? "some-long-category-name-a"
                                 : "some-long-category-name-b"));
  }
  EncodedColumn splain = EncodeColumnAs(dict, ColumnEncoding::kPlain);
  EncodedColumn sdict = EncodeColumnAs(dict, ColumnEncoding::kDictionary);
  EXPECT_LT(sdict.data.size() * 4, splain.data.size());
}

TEST(EncodingTest, ZoneMapStatistics) {
  ColumnVector col = MakeColumn(
      DataType::Int64(),
      {Value(int64_t{5}), Value::Null(), Value(int64_t{-2}), Value(int64_t{9})});
  EncodedColumn encoded = EncodeColumn(col);
  ASSERT_TRUE(encoded.min.has_value());
  ASSERT_TRUE(encoded.max.has_value());
  EXPECT_EQ(encoded.min->i64(), -2);
  EXPECT_EQ(encoded.max->i64(), 9);
  EXPECT_TRUE(encoded.has_nulls);

  ColumnVector all_null = MakeColumn(DataType::Int64(), {Value::Null()});
  EncodedColumn null_encoded = EncodeColumn(all_null);
  EXPECT_FALSE(null_encoded.min.has_value());
}

TEST(EncodingTest, SerializeDeserializeWithStats) {
  ColumnVector col = MakeColumn(
      DataType::String(), {Value("m"), Value("a"), Value::Null(), Value("z")});
  EncodedColumn encoded = EncodeColumn(col);
  std::string buffer;
  SerializeColumn(encoded, &buffer);
  size_t offset = 0;
  EncodedColumn restored =
      DeserializeColumn(buffer, &offset, DataType::String());
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(restored.num_rows, 4u);
  EXPECT_EQ(restored.min->str(), "a");
  EXPECT_EQ(restored.max->str(), "z");
  ColumnVector decoded = DecodeColumn(restored);
  EXPECT_EQ(decoded.GetValue(0).str(), "m");
  EXPECT_TRUE(decoded.IsNull(2));
}

TEST(EncodingTest, ComplexTypesUseBoxedEncoding) {
  ColumnVector col(ArrayType::Make(DataType::Int32(), true));
  col.Append(Value::Array({Value(int32_t{1})}));
  col.Append(Value::Null());
  EncodedColumn encoded = EncodeColumn(col);
  EXPECT_EQ(encoded.encoding, ColumnEncoding::kBoxed);
  ColumnVector decoded = DecodeColumn(encoded);
  EXPECT_EQ(decoded.GetValue(0).array().elements[0].i32(), 1);
  std::string buffer;
  EXPECT_THROW(SerializeColumn(encoded, &buffer), IoError);
}

TEST(CachedTableTest, BuildScanAndPrune) {
  auto schema = StructType::Make({
      Field("a", DataType::Int64(), false),
      Field("b", DataType::String(), true),
      Field("c", DataType::Double(), true),
  });
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(
        Row({Value(int64_t(i)), Value("cat" + std::to_string(i % 3)),
             Value(i * 0.5)}));
  }
  RowDataset data = RowDataset::FromRows(rows, 4);
  auto table = CachedTable::Build(schema, data);
  EXPECT_EQ(table->num_rows(), 100u);
  EXPECT_EQ(table->num_chunks(), 4u);

  // Pruned scan through the cache's data source: only column c,
  // partition structure preserved.
  CachedTableSource cache(table, "t");
  ExecContext engine{EngineConfig()};
  QueryContextPtr query = engine.BeginQuery();
  BatchDataset scanned = cache.ScanBatches(*query, {2}, {}, 1024);
  EXPECT_EQ(scanned.num_partitions(), 4u);
  auto out = scanned.ToRowDataset(*query).Collect();
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out[0].size(), 1u);
  EXPECT_DOUBLE_EQ(out[10].GetDouble(0), 5.0);

  // Multi-column scan in requested order.
  auto two =
      cache.ScanBatches(*query, {1, 0}, {}, 1024).ToRowDataset(*query).Collect();
  EXPECT_EQ(two[0].GetString(0), "cat0");
  EXPECT_EQ(two[0].GetInt64(1), 0);
}

TEST(CachedTableTest, ColumnarFootprintBeatsBoxedRows) {
  // The Section 3.6 claim: columnar + compression is roughly an order of
  // magnitude smaller than boxed row objects for repetitive data.
  auto schema = StructType::Make({
      Field("k", DataType::Int64(), false),
      Field("cat", DataType::String(), false),
  });
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back(Row(
        {Value(int64_t(i / 100)), Value(i % 2 == 0 ? "female" : "male")}));
  }
  auto table = CachedTable::Build(schema, RowDataset::FromRows(rows, 4));
  EXPECT_LT(table->MemoryBytes() * 8, table->EstimatedRowCacheBytes())
      << "columnar=" << table->MemoryBytes()
      << " rows=" << table->EstimatedRowCacheBytes();
}

TEST(CacheManagerTest, PutGetRemove) {
  CacheManager manager;
  auto schema = StructType::Make({Field("x", DataType::Int32(), false)});
  auto table = CachedTable::Build(
      schema, RowDataset::SinglePartition({Row({Value(int32_t{1})})}));
  manager.Put("key", table);
  EXPECT_NE(manager.Get("key"), nullptr);
  EXPECT_EQ(manager.Get("other"), nullptr);
  EXPECT_GT(manager.TotalMemoryBytes(), 0u);
  manager.Remove("key");
  EXPECT_EQ(manager.Get("key"), nullptr);
  manager.Clear();
  EXPECT_EQ(manager.TotalMemoryBytes(), 0u);
}

// ---- Null-slot and RowBatch regressions (vectorized engine hazards) ----

TEST(ColumnVectorTest, NullSlotsHoldDefinedZeros) {
  // Every bank writes a defined zero for a null entry, so vectorized
  // kernels may gather from banks unconditionally under the null mask.
  ColumnVector ints(DataType::Int64());
  ints.Append(Value(int64_t{42}));
  ints.Append(Value::Null());
  ints.AppendNull();
  ASSERT_EQ(ints.size(), 3u);
  EXPECT_TRUE(ints.IsNull(1));
  EXPECT_TRUE(ints.IsNull(2));
  EXPECT_EQ(ints.ints()[1], 0);
  EXPECT_EQ(ints.ints()[2], 0);
  EXPECT_EQ(ints.GetInt64(1), 0);
  EXPECT_TRUE(ints.GetValue(1).is_null());

  ColumnVector doubles(DataType::Double());
  doubles.Append(Value::Null());
  EXPECT_EQ(doubles.doubles()[0], 0.0);
  EXPECT_TRUE(doubles.GetValue(0).is_null());

  ColumnVector strings(DataType::String());
  strings.Append(Value("x"));
  strings.Append(Value::Null());
  EXPECT_EQ(strings.strings()[1], "");
  EXPECT_TRUE(strings.GetValue(1).is_null());

  ColumnVector boxed(StructType::Make({}));
  boxed.Append(Value::Null());
  EXPECT_TRUE(boxed.boxed()[0].is_null());
  EXPECT_TRUE(boxed.GetValue(0).is_null());
}

TEST(ColumnVectorTest, ReserveCoversActiveAndNullBanks) {
  ColumnVector strings(DataType::String());
  strings.Reserve(100);
  EXPECT_GE(strings.strings().capacity(), 100u);
  EXPECT_GE(strings.nulls().capacity(), 100u);

  ColumnVector nums(DataType::Int32());
  nums.Reserve(50);
  EXPECT_GE(nums.ints().capacity(), 50u);
  EXPECT_GE(nums.nulls().capacity(), 50u);

  ColumnVector dbls(DataType::Double());
  dbls.Reserve(50);
  EXPECT_GE(dbls.doubles().capacity(), 50u);
  EXPECT_GE(dbls.nulls().capacity(), 50u);
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(ColumnVectorDeathTest, OutOfRangeAccessAssertsInDebug) {
  ColumnVector col(DataType::Int64());
  col.Append(Value(int64_t{1}));
  EXPECT_DEATH(col.GetInt64(5), "out of range");
  EXPECT_DEATH(col.IsNull(5), "out of range");
}
#endif

TEST(RowBatchTest, FilterViewSharesColumnsAndSelectsPhysicalRows) {
  auto col = std::make_shared<ColumnVector>(DataType::Int64());
  for (int i = 0; i < 6; ++i) col->Append(Value(int64_t{i * 10}));
  auto base = std::make_shared<const RowBatch>(
      std::vector<std::shared_ptr<ColumnVector>>{col});
  auto view = RowBatch::FilterView(base, {1, 3, 5});
  EXPECT_EQ(view->num_rows(), 6u);
  EXPECT_EQ(view->ActiveRows(), 3u);
  EXPECT_EQ(view->ActiveIndex(2), 5u);
  EXPECT_EQ(&view->column(0), col.get());  // shared, not copied
  std::vector<Row> out;
  view->AppendActiveRowsTo(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].GetInt64(0), 10);
  EXPECT_EQ(out[2].GetInt64(0), 50);
  // A view of a view still carries physical indices into the base columns.
  auto narrower = RowBatch::FilterView(view, {3});
  EXPECT_EQ(narrower->ActiveRows(), 1u);
  EXPECT_EQ(narrower->BoxRow(narrower->ActiveIndex(0)).GetInt64(0), 30);
}

// ---------------------------------------------------------------------------
// Corrupt encoded chunks
// ---------------------------------------------------------------------------

TEST(CorruptChunkTest, DictionaryCodePastTheDictionaryThrowsIoError) {
  ColumnVector col = MakeColumn(
      DataType::Int64(), {Value(int64_t{1}), Value(int64_t{2}),
                          Value(int64_t{1}), Value(int64_t{2})});
  EncodedColumn encoded = EncodeColumnAs(col, ColumnEncoding::kDictionary);
  ASSERT_EQ(encoded.encoding, ColumnEncoding::kDictionary);
  // The payload ends with one little-endian u32 code per row: point the
  // last row at entry 7 of a two-entry dictionary.
  const size_t last = encoded.data.size() - 4;
  encoded.data[last] = 7;
  encoded.data[last + 1] = 0;
  encoded.data[last + 2] = 0;
  encoded.data[last + 3] = 0;
  EXPECT_THROW(DecodeColumn(encoded), IoError);
}

TEST(CorruptChunkTest, RunsPastTheRowCountThrowsIoError) {
  ColumnVector col = MakeColumn(
      DataType::Int64(), {Value(int64_t{9}), Value(int64_t{9}),
                          Value(int64_t{9}), Value(int64_t{9})});
  EncodedColumn encoded = EncodeColumnAs(col, ColumnEncoding::kRunLength);
  ASSERT_EQ(encoded.encoding, ColumnEncoding::kRunLength);
  ASSERT_EQ(encoded.data.size(), 4u + 1u + 8u);  // one run: length, null, value
  // Rewrite the one run of 4 rows as a run of 5,000,000 rows.
  const uint32_t run = 5000000;
  for (int i = 0; i < 4; ++i) {
    encoded.data[i] = static_cast<uint8_t>(run >> (8 * i));
  }
  EXPECT_THROW(DecodeColumn(encoded), IoError);
}

// ---------------------------------------------------------------------------
// Kernel oracle sweep: every FilterSpec op x type x encoding x null share,
// each kernel's selection against a Matches loop over DecodeColumn.
// ---------------------------------------------------------------------------

struct TypeCase {
  const char* name;
  DataTypePtr type;
  std::vector<Value> domain;    // what the column draws its values from
  std::vector<Value> literals;  // comparison literals, cross-type included
};

std::vector<TypeCase> TypeCases() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t x = 123456789012345678;
  const std::string nul("a\0b", 3);
  return {
      {"int32",
       DataType::Int32(),
       {Value(int32_t{-2}), Value(int32_t{0}), Value(int32_t{1}),
        Value(int32_t{7})},
       {Value(int32_t{0}), Value(int32_t{7}), Value(int64_t{1}), Value(0.5),
        Value(nan), Value(-0.0), Value(Decimal(150, 5, 2)), Value("x"),
        Value(true)}},
      {"int64",
       DataType::Int64(),
       {Value(int64_t{-3}), Value(int64_t{0}), Value(int64_t{5}),
        Value(int64_t{1} << 40)},
       {Value(int64_t{5}), Value(int32_t{0}), Value(5.0), Value(4.9),
        Value(nan), Value("s")}},
      {"date",
       DataType::Date(),
       {Value(DateValue{-5}), Value(DateValue{0}), Value(DateValue{100}),
        Value(DateValue{18000})},
       {Value(DateValue{100}), Value(DateValue{-1})}},
      {"timestamp",
       DataType::Timestamp(),
       {Value(TimestampValue{-7}), Value(TimestampValue{0}),
        Value(TimestampValue{1000}), Value(TimestampValue{1000000000000})},
       {Value(TimestampValue{1000}), Value(TimestampValue{1})}},
      {"decimal",
       DecimalType::Make(7, 2),
       {Value(Decimal(-150, 7, 2)), Value(Decimal(0, 7, 2)),
        Value(Decimal(5, 7, 2)), Value(Decimal(12345, 7, 2))},
       {Value(Decimal(5, 7, 2)), Value(Decimal(1, 3, 1)), Value(int32_t{0}),
        Value(0.05), Value(nan), Value("d")}},
      {"double",
       DataType::Double(),
       {Value(nan), Value(-0.0), Value(0.0), Value(1.5), Value(-2.25),
        Value(1e300), Value(-nan), Value(-inf)},
       {Value(0.0), Value(-0.0), Value(nan), Value(1.5), Value(int32_t{1}),
        Value(int64_t{-2}), Value(Decimal(150, 5, 2)), Value("s"),
        Value(-nan), Value(inf)}},
      {"string",
       DataType::String(),
       {Value(""), Value(nul), Value("a"), Value("ab"), Value("b")},
       {Value(""), Value("a"), Value(nul), Value("b"), Value("zz")}},
      {"boolean",
       DataType::Boolean(),
       {Value(true), Value(false)},
       {Value(true), Value(false)}},
      // 18 digits: neighbours a double cannot tell apart.
      {"decimal18",
       DecimalType::Make(18, 0),
       {Value(Decimal(x, 18, 0)), Value(Decimal(x + 1, 18, 0)),
        Value(Decimal(x + 3, 18, 0)), Value(Decimal(-x, 18, 0))},
       {Value(Decimal(x + 1, 18, 0)), Value(int64_t{x + 2}),
        Value(Decimal(x * 10 + 5, 18, 1)), Value(Decimal(1, 18, 18)),
        Value(static_cast<double>(x)), Value(nan)}},
  };
}

/// A column of `n` values drawn from `domain` in runs of 1-4 (so run-length
/// and dictionary encodings have something to find), `null_pct`% null.
ColumnVector SweepColumn(const TypeCase& tc, int null_pct, size_t n,
                         std::mt19937_64* rng) {
  ColumnVector col(tc.type);
  while (col.size() < n) {
    const bool null = static_cast<int>((*rng)() % 100) < null_pct;
    const Value v = null ? Value::Null() : tc.domain[(*rng)() % tc.domain.size()];
    for (size_t k = 1 + (*rng)() % 4; k > 0 && col.size() < n; --k) {
      col.Append(v);
    }
  }
  return col;
}

/// Every filter the sweep runs over one type: each comparison op with each
/// literal, IN over all literals and over two, IS [NOT] NULL, and for
/// strings STARTSWITH / CONTAINS.
std::vector<FilterSpec> SweepFilters(const TypeCase& tc) {
  using Op = FilterSpec::Op;
  std::vector<FilterSpec> out;
  for (Op op : {Op::kEq, Op::kLt, Op::kLe, Op::kGt, Op::kGe}) {
    for (const Value& lit : tc.literals) out.push_back({"c", op, {lit}});
  }
  out.push_back({"c", Op::kIn, tc.literals});
  out.push_back({"c", Op::kIn, {tc.literals.back(), tc.literals.front()}});
  out.push_back({"c", Op::kIsNull, {}});
  out.push_back({"c", Op::kIsNotNull, {}});
  if (tc.type->id() == TypeId::kString) {
    for (const Value& p : {Value(""), Value("a"), Value(std::string(1, '\0')),
                           Value("b")}) {
      out.push_back({"c", Op::kStartsWith, {p}});
      out.push_back({"c", Op::kContains, {p}});
    }
  }
  return out;
}

const char* EncodingName(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kPlain:
      return "plain";
    case ColumnEncoding::kRunLength:
      return "rle";
    case ColumnEncoding::kDictionary:
      return "dict";
    case ColumnEncoding::kBoxed:
      return "boxed";
  }
  return "?";
}

using OracleParam = std::tuple<size_t, ColumnEncoding, int>;

class KernelOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(KernelOracleTest, SelectionEqualsMatchesOverDecodeColumn) {
  const auto& [type_index, encoding, null_pct] = GetParam();
  const TypeCase tc = TypeCases()[type_index];
  std::mt19937_64 rng(type_index * 131 + static_cast<int>(encoding) * 17 +
                      null_pct);
  const ColumnVector col = SweepColumn(tc, null_pct, 150, &rng);
  const EncodedColumn encoded = EncodeColumnAs(col, encoding);
  ASSERT_EQ(encoded.encoding, encoding);
  const ColumnVector decoded = DecodeColumn(encoded);
  ASSERT_EQ(decoded.size(), col.size());
  const ChunkValues values = ReadChunkValues(encoded);

  // Refine both the full selection and one already narrowed to every
  // third row, as a second filter would see it.
  std::vector<uint32_t> all(col.size());
  std::iota(all.begin(), all.end(), 0u);
  std::vector<uint32_t> thirds;
  for (uint32_t r = 0; r < col.size(); r += 3) thirds.push_back(r);

  for (const FilterSpec& spec : SweepFilters(tc)) {
    SCOPED_TRACE(spec.ToString());
    const ChunkFilter kernel(spec, tc.type);
    for (const std::vector<uint32_t>* start : {&all, &thirds}) {
      std::vector<uint32_t> expected;
      for (uint32_t r : *start) {
        if (spec.Matches(decoded.GetValue(r))) expected.push_back(r);
      }
      std::vector<uint32_t> sel = *start;
      kernel.Refine(values, &sel);
      ASSERT_EQ(sel, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelOracleTest,
    ::testing::Combine(::testing::Range<size_t>(0, 9),
                       ::testing::Values(ColumnEncoding::kPlain,
                                         ColumnEncoding::kRunLength,
                                         ColumnEncoding::kDictionary,
                                         ColumnEncoding::kBoxed),
                       ::testing::Values(0, 30, 100)),
    [](const ::testing::TestParamInfo<OracleParam>& info) {
      return std::string(TypeCases()[std::get<0>(info.param)].name) + "_" +
             EncodingName(std::get<1>(info.param)) + "_nulls" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ChunkFilterTest, IncomparableLiteralIsRejectedAtBind) {
  // Value::Compare cannot order a date against a string at all.
  FilterSpec spec{"c", FilterSpec::Op::kLt, {Value("2015-01-01")}};
  EXPECT_THROW(ChunkFilter(spec, DataType::Date()), ExecutionError);
  FilterSpec prefix{"c", FilterSpec::Op::kStartsWith, {Value("1")}};
  EXPECT_THROW(ChunkFilter(prefix, DataType::Int32()), ExecutionError);
}

// ---------------------------------------------------------------------------
// The one value order in the chunk kernels and zone maps, against an
// oracle written from Spark's rules rather than Value::Compare: doubles by
// rank (NaN equals NaN and follows +inf, -0.0 equals 0.0), decimals and
// integers exactly in 128 bits.
// ---------------------------------------------------------------------------

/// An ordered grid: each value with its exact key (equal keys, equal
/// values). Nulls are added by the test.
struct OrderGrid {
  DataTypePtr type;
  std::vector<std::pair<Value, __int128>> column;    // values of the column
  std::vector<std::pair<Value, __int128>> literals;  // of any numeric type
};

std::vector<OrderGrid> OrderGrids() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<Value, __int128>> doubles = {
      {Value(-inf), 1}, {Value(-2.25), 2}, {Value(-0.0), 3}, {Value(0.0), 3},
      {Value(1.5), 4},  {Value(inf), 5},   {Value(nan), 6},  {Value(-nan), 6}};
  std::vector<std::pair<Value, __int128>> double_literals = doubles;
  double_literals.push_back({Value(int32_t{0}), 3});
  double_literals.push_back({Value(Decimal(150, 5, 2)), 4});  // as a double
  // Decimals keyed by their value times 10^18.
  const __int128 e18 = static_cast<__int128>(1000000000000000000);
  const int64_t m = 999999999999999999;  // 10^18 - 1
  const int64_t x = 123456789012345678;
  const std::vector<std::pair<Value, __int128>> decimals = {
      {Value(Decimal(-m, 18, 0)), -m * e18},
      {Value(Decimal(0, 18, 0)), 0},
      {Value(Decimal(1, 18, 0)), e18},
      {Value(Decimal(x, 18, 0)), x * e18},
      {Value(Decimal(x + 1, 18, 0)), (x + 1) * e18},
      {Value(Decimal(x + 3, 18, 0)), (x + 3) * e18},
      {Value(Decimal(m, 18, 0)), m * e18}};
  std::vector<std::pair<Value, __int128>> decimal_literals = decimals;
  for (const auto& [v, key] : std::vector<std::pair<Value, __int128>>{
           {Value(Decimal(-m, 18, 18)), -m},
           {Value(Decimal(1, 18, 18)), 1},
           {Value(Decimal(m, 18, 18)), m},
           {Value(Decimal(100, 18, 2)), e18},
           {Value(int64_t{x + 1}), (x + 1) * e18},
           {Value(int64_t{x + 2}), (x + 2) * e18},
           {Value(std::numeric_limits<int64_t>::max()),
            std::numeric_limits<int64_t>::max() * e18},
           {Value(1.5), 15 * e18 / 10},  // compares as doubles
           {Value(nan), static_cast<__int128>(1) << 126}}) {  // after all
    decimal_literals.push_back({v, key});
  }
  return {{DataType::Double(), doubles, double_literals},
          {DecimalType::Make(18, 0), decimals, decimal_literals}};
}

TEST(ValueOrderTest, ChunkFiltersAndZoneMapsMatchTheOracle) {
  using Op = FilterSpec::Op;
  auto holds = [](Op op, __int128 a, __int128 b) {
    switch (op) {
      case Op::kEq:
        return a == b;
      case Op::kLt:
        return a < b;
      case Op::kLe:
        return a <= b;
      case Op::kGt:
        return a > b;
      default:
        return a >= b;
    }
  };
  for (const OrderGrid& grid : OrderGrids()) {
    SCOPED_TRACE(grid.type->ToString());
    // Every value in runs of 1-3, a null among them.
    std::vector<Value> values;
    std::vector<std::optional<__int128>> keys;
    for (size_t i = 0; i < grid.column.size(); ++i) {
      for (size_t k = 0; k <= i % 3; ++k) {
        values.push_back(grid.column[i].first);
        keys.push_back(grid.column[i].second);
      }
      if (i == 2) {
        values.push_back(Value::Null());
        keys.push_back(std::nullopt);
      }
    }
    const ColumnVector col = MakeColumn(grid.type, values);
    std::vector<uint32_t> all(col.size());
    std::iota(all.begin(), all.end(), 0u);
    for (ColumnEncoding encoding :
         {ColumnEncoding::kPlain, ColumnEncoding::kRunLength,
          ColumnEncoding::kDictionary}) {
      const EncodedColumn encoded = EncodeColumnAs(col, encoding);
      ASSERT_EQ(encoded.encoding, encoding);
      const ChunkValues slots = ReadChunkValues(encoded);
      for (Op op : {Op::kEq, Op::kLt, Op::kLe, Op::kGt, Op::kGe}) {
        for (const auto& [lit, lit_key] : grid.literals) {
          const FilterSpec spec{"c", op, {lit}};
          SCOPED_TRACE(std::string(EncodingName(encoding)) + " " +
                       spec.ToString());
          std::vector<uint32_t> want;
          for (uint32_t r = 0; r < keys.size(); ++r) {
            if (keys[r] && holds(op, *keys[r], lit_key)) want.push_back(r);
          }
          std::vector<uint32_t> sel = all;
          ChunkFilter(spec, grid.type).Refine(slots, &sel);
          EXPECT_EQ(sel, want);
        }
      }
    }
    // Zone maps: a chunk of any two values holds the least and greatest
    // of them, and may match whenever one of its rows does.
    for (const auto& [a, a_key] : grid.column) {
      for (const auto& [b, b_key] : grid.column) {
        const EncodedColumn chunk = EncodeColumn(MakeColumn(grid.type, {a, b}));
        SCOPED_TRACE(a.ToString() + ", " + b.ToString());
        EXPECT_EQ(chunk.min->Compare(a_key <= b_key ? a : b), 0);
        EXPECT_EQ(chunk.max->Compare(a_key >= b_key ? a : b), 0);
        for (Op op : {Op::kEq, Op::kLt, Op::kLe, Op::kGt, Op::kGe}) {
          for (const auto& [lit, lit_key] : grid.literals) {
            if (holds(op, a_key, lit_key) || holds(op, b_key, lit_key)) {
              EXPECT_TRUE(ColumnChunkMayMatch(chunk, {"c", op, {lit}}))
                  << FilterSpec{"c", op, {lit}}.ToString();
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The four scan forms over one table: cache batches, cache rows, colf
// batches and colf rows return the same row multiset as a Matches loop.
// ---------------------------------------------------------------------------

std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) s += row.Get(i).ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ScanAgreementTest, CacheAndColfScansReturnTheMatchesRows) {
  const std::vector<TypeCase> cases = TypeCases();
  std::vector<Field> fields;
  for (const TypeCase& tc : cases) fields.emplace_back(tc.name, tc.type, true);
  SchemaPtr schema = StructType::Make(fields);

  std::mt19937_64 rng(2026);
  std::vector<ColumnVector> cols;
  for (size_t c = 0; c < cases.size(); ++c) {
    cols.push_back(SweepColumn(cases[c], c % 2 == 0 ? 30 : 0, 600, &rng));
  }
  std::vector<Row> rows(600);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (const ColumnVector& col : cols) rows[r].Append(col.GetValue(r));
  }
  const std::string path = ::testing::TempDir() + "/agree-" +
                           std::to_string(::getpid()) + ".colf";
  WriteColfFile(path, schema, rows, /*row_group_size=*/64);
  ColfRelation colf(path, ReadColfSchema(path));
  CachedTableSource cache(
      CachedTable::Build(schema, RowDataset::FromRows(rows, 5)), "agree");

  using Op = FilterSpec::Op;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<FilterSpec>> filter_sets = {
      {},
      {{"int32", Op::kGt, {Value(int32_t{0})}}},
      {{"double", Op::kLe, {Value(nan)}}, {"string", Op::kIsNotNull, {}}},
      {{"string", Op::kStartsWith, {Value("a")}}},
      {{"int32", Op::kIn, {Value(int32_t{1}), Value(2.5), Value(int64_t{7})}}},
      {{"date", Op::kGe, {Value(DateValue{0})}},
       {"boolean", Op::kEq, {Value(true)}}},
      {{"decimal", Op::kLt, {Value(1.5)}}, {"int64", Op::kIsNotNull, {}}},
      {{"timestamp", Op::kEq, {Value(TimestampValue{1000})}}},
      {{"string", Op::kIsNull, {}}},
      {{"int64", Op::kGt, {Value(int64_t{1} << 50)}}},  // zone maps skip all
      {{"double", Op::kLt, {Value(1.0)}}},
      {{"double", Op::kGt, {Value(int32_t{1})}}},
      {{"double", Op::kEq, {Value(0.0)}}},
      {{"decimal18", Op::kGt, {Value(Decimal(123456789012345678, 18, 0))}}},
  };
  const std::vector<std::vector<int>> projections = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8}, {6, 0}, {}};

  for (size_t batch_size : {size_t{1}, size_t{1024}}) {
    EngineConfig config;
    config.num_threads = 2;
    config.batch_size = batch_size;
    ExecContext engine(config);
    for (const auto& filters : filter_sets) {
      for (const auto& columns : projections) {
        std::string trace = "batch_size " + std::to_string(batch_size) + ":";
        for (const FilterSpec& f : filters) trace += " " + f.ToString();
        SCOPED_TRACE(trace + " / " + std::to_string(columns.size()) + " cols");
        std::vector<Row> expected;
        for (const Row& row : rows) {
          bool keep = true;
          for (const FilterSpec& f : filters) {
            keep = keep && f.Matches(row.Get(schema->FieldIndex(f.column)));
          }
          if (!keep) continue;
          Row out;
          for (int c : columns) out.Append(row.Get(c));
          expected.push_back(std::move(out));
        }
        const auto want = Canonical(expected);
        QueryContextPtr query = engine.BeginQuery();
        QueryContext& ctx = *query;
        // A row-reading plan unpacks the same batches; a scan with no
        // columns (COUNT(*)) yields one empty row per survivor.
        EXPECT_EQ(Canonical(cache.ScanBatches(ctx, columns, filters, batch_size)
                                .ToRowDataset(ctx)
                                .Collect()),
                  want);
        EXPECT_EQ(Canonical(colf.ScanBatches(ctx, columns, filters, batch_size)
                                .ToRowDataset(ctx)
                                .Collect()),
                  want);
      }
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ssql
