// Data source API tests (Section 4.4.1): filter translation, CSV with and
// without schema, colf round-trips / zone-map skipping / pruning, kvdb
// pushdown, end-to-end CREATE TEMPORARY TABLE ... USING, and local rows,
// the cache and colf agreeing with Spark's value order.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <random>

#include "api/sql_context.h"
#include "columnar/column_vector.h"
#include "catalyst/expr/cast.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "catalyst/expr/string_ops.h"
#include "datasources/colf_format.h"
#include "datasources/csv_source.h"
#include "datasources/data_source.h"
#include "datasources/kvdb.h"
#include "util/string_util.h"

namespace ssql {
namespace {

AttributePtr Attr(const char* name, DataTypePtr t) {
  return AttributeReference::Make(name, std::move(t), true);
}

TEST(FilterTranslationTest, SupportedShapes) {
  auto a = Attr("a", DataType::Int32());
  ExprPtr lit = Literal::Make(Value(int32_t{5}), DataType::Int32());

  auto eq = TranslateFilter(*EqualTo::Make(a, lit));
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(eq->column, "a");
  EXPECT_EQ(eq->op, FilterSpec::Op::kEq);

  // literal < attr flips to attr > literal.
  auto flipped = TranslateFilter(*LessThan::Make(lit, a));
  ASSERT_TRUE(flipped.has_value());
  EXPECT_EQ(flipped->op, FilterSpec::Op::kGt);

  auto in = TranslateFilter(*In::Make(a, {lit, lit}));
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->op, FilterSpec::Op::kIn);
  EXPECT_EQ(in->values.size(), 2u);

  EXPECT_TRUE(TranslateFilter(*IsNotNull::Make(a)).has_value());
  EXPECT_TRUE(TranslateFilter(*IsNull::Make(a)).has_value());

  auto s = Attr("s", DataType::String());
  ExprPtr p = Literal::Make(Value("pre"), DataType::String());
  auto sw = TranslateFilter(*StartsWith::Make(s, p));
  ASSERT_TRUE(sw.has_value());
  EXPECT_EQ(sw->op, FilterSpec::Op::kStartsWith);
}

TEST(FilterTranslationTest, UnsupportedShapesReturnNothing) {
  auto a = Attr("a", DataType::Int32());
  auto b = Attr("b", DataType::Int32());
  ExprPtr lit = Literal::Make(Value(int32_t{5}), DataType::Int32());
  // attr-attr comparisons, != (outside the paper's Filter set), arithmetic.
  EXPECT_FALSE(TranslateFilter(*EqualTo::Make(a, b)).has_value());
  EXPECT_FALSE(TranslateFilter(*NotEqualTo::Make(a, lit)).has_value());
}

TEST(FilterSpecTest, Matching) {
  FilterSpec ge{"x", FilterSpec::Op::kGe, {Value(int32_t{10})}};
  EXPECT_TRUE(ge.Matches(Value(int32_t{10})));
  EXPECT_FALSE(ge.Matches(Value(int32_t{9})));
  EXPECT_FALSE(ge.Matches(Value::Null()));

  FilterSpec isnull{"x", FilterSpec::Op::kIsNull, {}};
  EXPECT_TRUE(isnull.Matches(Value::Null()));
  EXPECT_FALSE(isnull.Matches(Value(int32_t{1})));

  FilterSpec in{"x", FilterSpec::Op::kIn,
                {Value(int32_t{1}), Value(int32_t{3})}};
  EXPECT_TRUE(in.Matches(Value(int32_t{3})));
  EXPECT_FALSE(in.Matches(Value(int32_t{2})));

  FilterSpec contains{"x", FilterSpec::Op::kContains, {Value("bc")}};
  EXPECT_TRUE(contains.Matches(Value("abcd")));
  EXPECT_FALSE(contains.Matches(Value("axd")));
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/people-" + std::to_string(::getpid()) +
              ".csv";
    std::ofstream out(path_);
    out << "name,age,score,joined\n";
    out << "Alice,22,9.5,2014-03-01\n";
    out << "Bob,19,7.25,2015-01-15\n";
    out << "Carol,,8.0,2013-07-20\n";  // missing age -> null
  }
  std::string path_;
};

TEST_F(CsvTest, SchemaInferenceFromSample) {
  SqlContext ctx;
  DataFrame df = ctx.ReadCsv(path_);
  SchemaPtr schema = df.schema();
  ASSERT_EQ(schema->num_fields(), 4u);
  EXPECT_EQ(schema->field(0).type->id(), TypeId::kString);
  EXPECT_EQ(schema->field(1).type->id(), TypeId::kInt64);
  EXPECT_EQ(schema->field(2).type->id(), TypeId::kDouble);
  EXPECT_EQ(schema->field(3).type->id(), TypeId::kDate);
}

TEST_F(CsvTest, NullCellsAndQueries) {
  SqlContext ctx;
  ctx.ReadCsv(path_).RegisterTempTable("people");
  auto rows =
      ctx.Sql("SELECT name FROM people WHERE age IS NULL").Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetString(0), "Carol");
  auto dated = ctx.Sql(
                      "SELECT name FROM people WHERE joined > '2014-06-01'")
                   .Collect();
  ASSERT_EQ(dated.size(), 1u);
  EXPECT_EQ(dated[0].GetString(0), "Bob");
}

TEST_F(CsvTest, ExplicitSchemaOverridesInference) {
  SqlContext ctx;
  DataFrame df = ctx.Read(
      "csv", {{"path", path_},
              {"schema", "name string, age string, score string, joined string"}});
  EXPECT_EQ(df.schema()->field(1).type->id(), TypeId::kString);
  auto rows = df.Collect();
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(CsvTest, WriteReadRoundTrip) {
  auto schema = StructType::Make({Field("a", DataType::Int64(), true),
                                  Field("b", DataType::String(), true)});
  std::vector<Row> rows = {Row({Value(int64_t{1}), Value("x")}),
                           Row({Value::Null(), Value("y")})};
  std::string path = ::testing::TempDir() + "/roundtrip.csv";
  CsvRelation::Write(path, schema, rows);
  SqlContext ctx;
  auto read =
      ctx.Read("csv", {{"path", path}, {"schema", "a bigint, b string"}})
          .Collect();
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[0].GetInt64(0), 1);
  EXPECT_TRUE(read[1].IsNullAt(0));
  EXPECT_EQ(read[1].GetString(1), "y");
}

// ---------------------------------------------------------------------------
// colf (the Parquet stand-in)
// ---------------------------------------------------------------------------

class ColfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = StructType::Make({
        Field("id", DataType::Int64(), false),
        Field("category", DataType::String(), true),
        Field("score", DataType::Double(), true),
    });
    // 1000 rows in row groups of 100; ids ascending so zone maps are
    // selective on id ranges.
    for (int i = 0; i < 1000; ++i) {
      rows_.push_back(Row({Value(int64_t(i)),
                           Value(std::string(i % 2 == 0 ? "even" : "odd")),
                           Value(i / 10.0)}));
    }
    path_ = ::testing::TempDir() + "/data-" + std::to_string(::getpid()) +
              ".colf";
    WriteColfFile(path_, schema_, rows_, /*row_group_size=*/100);
  }

  SchemaPtr schema_;
  std::vector<Row> rows_;
  std::string path_;
};

TEST_F(ColfTest, SchemaRoundTrip) {
  SchemaPtr read = ReadColfSchema(path_);
  ASSERT_EQ(read->num_fields(), 3u);
  EXPECT_EQ(read->field(0).name, "id");
  EXPECT_EQ(read->field(0).type->id(), TypeId::kInt64);
  EXPECT_EQ(read->field(1).type->id(), TypeId::kString);
  EXPECT_EQ(read->field(2).type->id(), TypeId::kDouble);
}

TEST_F(ColfTest, FullScanRoundTrip) {
  SqlContext ctx;
  DataFrame df = ctx.ReadColf(path_);
  auto read = df.Collect();
  ASSERT_EQ(read.size(), rows_.size());
  EXPECT_EQ(df.Count(), 1000);
}

TEST_F(ColfTest, ZoneMapsSkipRowGroups) {
  SqlContext ctx;
  ctx.ReadColf(path_).RegisterTempTable("data");
  auto rows = ctx.Sql("SELECT id FROM data WHERE id >= 950").Collect();
  EXPECT_EQ(rows.size(), 50u);
  // 9 of 10 row groups have max id < 950 and must be skipped: only the
  // last group's 100 rows are read.
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRowsScanned), 100);
}

TEST_F(ColfTest, PushdownDisabledScansEverything) {
  EngineConfig config;
  config.pushdown_enabled = false;
  SqlContext ctx(config);
  ctx.ReadColf(path_).RegisterTempTable("data");
  auto rows = ctx.Sql("SELECT id FROM data WHERE id >= 950").Collect();
  EXPECT_EQ(rows.size(), 50u);
  // No row group is skipped.
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRowsScanned), 1000);
}

TEST_F(ColfTest, EqualityOnStringColumn) {
  SqlContext ctx;
  ctx.ReadColf(path_).RegisterTempTable("data");
  auto rows =
      ctx.Sql("SELECT count(*) FROM data WHERE category = 'even'").Collect();
  EXPECT_EQ(rows[0].GetInt64(0), 500);
}

TEST_F(ColfTest, NullsSurviveRoundTrip) {
  std::vector<Row> with_nulls = {
      Row({Value(int64_t{1}), Value::Null(), Value(0.5)}),
      Row({Value(int64_t{2}), Value("x"), Value::Null()}),
  };
  std::string path = ::testing::TempDir() + "/nulls.colf";
  WriteColfFile(path, schema_, with_nulls, 10);
  SqlContext ctx;
  auto read = ctx.ReadColf(path).Collect();
  ASSERT_EQ(read.size(), 2u);
  EXPECT_TRUE(read[0].IsNullAt(1));
  EXPECT_TRUE(read[1].IsNullAt(2));
  EXPECT_EQ(read[1].GetString(1), "x");
}

// ---------------------------------------------------------------------------
// kvdb (the external-RDBMS stand-in)
// ---------------------------------------------------------------------------

class KvdbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = StructType::Make({
        Field("id", DataType::Int32(), false),
        Field("name", DataType::String(), false),
        Field("registrationDate", DataType::Date(), false),
    });
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      DateValue d;
      ParseDate(i < 80 ? "2014-06-01" : "2015-02-01", &d);
      rows.push_back(
          Row({Value(int32_t(i)), Value("user" + std::to_string(i)), Value(d)}));
    }
    KvdbDatabase::Global().CreateTable("users_kv", schema, rows);
  }
};

TEST_F(KvdbTest, PushdownReducesRowsShipped) {
  SqlContext ctx;
  ctx.Sql(
      "CREATE TEMPORARY TABLE users USING kvdb OPTIONS (table 'users_kv')");
  // The Section 5.3 pattern: the date filter runs inside the database.
  auto rows = ctx.Sql(
                     "SELECT id, name FROM users "
                     "WHERE registrationDate > '2015-01-01'")
                  .Collect();
  EXPECT_EQ(rows.size(), 20u);
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRowsScanned), 100);
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRowsReturned), 20);
}

TEST_F(KvdbTest, CatalystScanHandlesArbitraryPredicates) {
  SqlContext ctx;
  ctx.Sql(
      "CREATE TEMPORARY TABLE users USING kvdb OPTIONS (table 'users_kv')");
  // id % 10 = 3 is not expressible as a FilterSpec, but kvdb implements
  // CatalystScan, so the whole predicate still runs inside the store.
  auto rows = ctx.Sql("SELECT id FROM users WHERE id % 10 = 3").Collect();
  EXPECT_EQ(rows.size(), 10u);
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRowsReturned), 10);
}

TEST_F(KvdbTest, UnknownTableFailsAtCreate) {
  SqlContext ctx;
  EXPECT_THROW(
      ctx.Sql("CREATE TEMPORARY TABLE x USING kvdb OPTIONS (table 'nope')"),
      IoError);
}

TEST(DataSourceRegistryTest, ProvidersRegisteredAndErrorsClean) {
  auto names = DataSourceRegistry::Global().ProviderNames();
  auto has = [&](const char* n) {
    for (const auto& name : names) {
      if (name == n) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("csv"));
  EXPECT_TRUE(has("json"));
  EXPECT_TRUE(has("colf"));
  EXPECT_TRUE(has("kvdb"));
  EXPECT_THROW(DataSourceRegistry::Global().CreateRelation("nosuch", {}),
               AnalysisError);
}

TEST(DataSourceRegistryTest, ThirdPartySourceExtension) {
  // The extension point: register a trivial in-process source and query it
  // through SQL, including a dotted provider name like the paper's
  // com.databricks.spark.avro.
  class TinyRelation : public BaseRelation, public TableScan {
   public:
    std::string name() const override { return "tiny"; }
    SchemaPtr schema() const override {
      return StructType::Make({Field("n", DataType::Int32(), false)});
    }
    std::vector<Row> ScanAll(QueryContext&) const override {
      return {Row({Value(int32_t{1})}), Row({Value(int32_t{2})})};
    }
  };
  DataSourceRegistry::Global().Register(
      "tiny", [](const DataSourceOptions&) -> std::shared_ptr<BaseRelation> {
        return std::make_shared<TinyRelation>();
      });
  SqlContext ctx;
  ctx.Sql("CREATE TEMPORARY TABLE t2 USING com.example.tiny");
  auto rows = ctx.Sql("SELECT sum(n) FROM t2").Collect();
  EXPECT_EQ(rows[0].GetInt64(0), 3);
}

TEST(SchemaStringTest, ParseSchemaString) {
  SchemaPtr s = ParseSchemaString(
      "a int, b bigint, c double, d string, e date, f boolean, g decimal(7,2)");
  ASSERT_EQ(s->num_fields(), 7u);
  EXPECT_EQ(s->field(0).type->id(), TypeId::kInt32);
  EXPECT_EQ(s->field(6).type->id(), TypeId::kDecimal);
  EXPECT_EQ(AsDecimal(*s->field(6).type).precision(), 7);
  EXPECT_THROW(ParseSchemaString("a sometype"), AnalysisError);
  EXPECT_THROW(ParseSchemaString("justaname"), AnalysisError);
}

TEST(SchemaStringTest, CsvSchemaOptionRejectsOutOfRangeDecimals) {
  // A scale past 18 overflows the int64 unscaled value; precision is 1..38.
  const std::string path =
      ::testing::TempDir() + "/dec-" + std::to_string(::getpid()) + ".csv";
  std::ofstream(path) << "2.5\n";
  SqlContext ctx;
  for (const char* type : {"decimal(38,30)", "decimal(39,2)", "decimal(0,0)",
                           "decimal(5,6)", "decimal(7", "decimal(a,b)",
                           "decimal(7,2,1)", "decimal()"}) {
    EXPECT_THROW(
        ctx.Sql("CREATE TEMPORARY TABLE d USING csv OPTIONS (path '" + path +
                "', schema 'x " + type + "')"),
        AnalysisError)
        << type;
  }
  // In range: the widest precision, the largest scale, and the bare default.
  EXPECT_EQ(AsDecimal(*ParseSchemaString("x decimal(38,18)")->field(0).type)
                .scale(),
            18);
  EXPECT_EQ(AsDecimal(*ParseSchemaString("x decimal(7)")->field(0).type)
                .precision(),
            7);
  EXPECT_EQ(
      AsDecimal(*ParseSchemaString("x decimal")->field(0).type).precision(),
      10);
  std::filesystem::remove(path);
}

TEST(SchemaStringTest, ColfSchemaWithOutOfRangeDecimalIsCorrupt) {
  const std::string path = ::testing::TempDir() + "/dec-" +
                           std::to_string(::getpid()) + ".colf";
  const Row row({Value(Decimal(25, 10, 1))});
  WriteColfFile(path,
                StructType::Make({Field("x", DecimalType::Make(38, 30), true)}),
                {row});
  EXPECT_THROW(ReadColfSchema(path), IoError);
  // What sum() over a decimal produces (precision 38 at the operand's
  // scale) still reads back.
  SqlContext ctx;
  DataFrame in = ctx.CreateDataFrame(
      StructType::Make({Field("x", DecimalType::Make(10, 1), true)}), {row});
  in.RegisterTempTable("in");
  DataFrame sums = ctx.Sql("SELECT sum(x) AS s FROM in");
  ASSERT_EQ(sums.schema()->field(0).type->ToString(), "decimal(20,1)");
  WriteColfFile(path,
                StructType::Make({Field("s", DecimalType::Make(38, 1), true)}),
                sums.Collect());
  EXPECT_EQ(ctx.ReadColf(path).Collect()[0].Get(0).decimal().ToString(), "2.5");
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// I/O failure semantics: a vanished or short file is an I/O error, never a
// silent partial result. Parse modes (PERMISSIVE / DROPMALFORMED / FAILFAST)
// govern *malformed records only* — an unreadable file must throw IoError
// under every mode, after the bounded retry loop gives up.
// ---------------------------------------------------------------------------

const char* kAllModes[] = {"PERMISSIVE", "DROPMALFORMED", "FAILFAST"};

TEST(CsvIoFailureTest, FileDeletedMidScanThrowsIoErrorUnderAllModes) {
  for (const char* mode : kAllModes) {
    SCOPED_TRACE(mode);
    std::string path = ::testing::TempDir() + "/doomed.csv";
    {
      std::ofstream out(path);
      out << "1,2\n3,4\n";
    }
    SqlContext ctx;
    // Explicit schema: Open() never touches the file, so the DataFrame is
    // built successfully and the deletion lands squarely on the scan.
    DataFrame df = ctx.Read("csv", {{"path", path},
                                    {"schema", "a bigint, b bigint"},
                                    {"header", "false"},
                                    {"mode", mode}});
    std::filesystem::remove(path);
    EXPECT_THROW(df.Collect(), IoError);
  }
}

TEST(CsvIoFailureTest, TruncatedLastRecordFollowsParseMode) {
  // A file cut off mid-record leaves a short last line. That is a malformed
  // record, so here — and only here — the parse mode decides.
  std::string path = ::testing::TempDir() + "/cutoff.csv";
  {
    std::ofstream out(path);
    out << "1,2\n3,4\n5";  // truncated mid-record: second field missing
  }
  auto read = [&](const char* mode) {
    SqlContext ctx;
    return ctx.Read("csv", {{"path", path},
                            {"schema", "a bigint, b bigint"},
                            {"header", "false"},
                            {"mode", mode}})
        .Collect();
  };
  auto permissive = read("PERMISSIVE");
  ASSERT_EQ(permissive.size(), 3u);  // kept as a null-filled row
  EXPECT_TRUE(permissive[2].IsNullAt(0));
  EXPECT_TRUE(permissive[2].IsNullAt(1));
  EXPECT_EQ(read("DROPMALFORMED").size(), 2u);  // dropped
  {
    SqlContext ctx;
    DataFrame df = ctx.Read("csv", {{"path", path},
                                    {"schema", "a bigint, b bigint"},
                                    {"header", "false"},
                                    {"mode", "FAILFAST"}});
    EXPECT_THROW(df.Collect(), ParseError);
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// CSV typed scans: the range splitter, CRLF, int32 range, date/timestamp
// text, and a differential run against the per-line reader the engine
// used before typed scans.
// ---------------------------------------------------------------------------

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::vector<std::string> RowStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(r.ToString());
  return out;
}

/// Every row of a CSV relation read as the given byte ranges.
std::vector<std::string> ScanRangeRows(ExecContext& engine,
                                       const CsvRelation& rel,
                                       const std::vector<CsvRange>& ranges,
                                       size_t batch_size = 1024) {
  QueryContextPtr query = engine.BeginQuery();
  std::vector<int> columns(rel.schema()->num_fields());
  std::iota(columns.begin(), columns.end(), 0);
  const BatchDataset batches =
      rel.ScanRanges(*query, ranges, columns, {}, batch_size);
  return RowStrings(batches.ToRowDataset(*query).Collect());
}

TEST(CsvRangeTest, SplitterTilesTheFileOneRangePerQuarterMebibyte) {
  EXPECT_EQ(SplitCsvRanges(0, 4).size(), 1u);
  EXPECT_EQ(SplitCsvRanges(100, 4).size(), 1u);  // small files stay whole
  EXPECT_EQ(SplitCsvRanges(600 * 1024, 4).size(), 2u);
  EXPECT_EQ(SplitCsvRanges(100 << 20, 4).size(), 4u);  // capped
  EXPECT_EQ(SplitCsvRanges(100 << 20, 0).size(), 1u);
  for (const uint64_t size : {uint64_t{0}, uint64_t{1} << 20,
                              (uint64_t{5} << 20) + 3}) {
    const auto ranges = SplitCsvRanges(size, 8);
    uint64_t at = 0;
    for (const CsvRange& r : ranges) {
      EXPECT_EQ(r.begin, at);
      EXPECT_LE(r.begin, r.end);
      at = r.end;
    }
    EXPECT_EQ(at, size);
  }
}

TEST(CsvRangeTest, EveryBoundaryReadsEachLineOnceAndTheHeaderOnce) {
  // Leading blank lines, CRLF, a blank CRLF line, a long line and no final
  // newline: a boundary at every byte (and every pair of bytes) must give
  // the rows of a one-range scan.
  const std::string path =
      ::testing::TempDir() + "/ranges-" + std::to_string(::getpid()) + ".csv";
  const std::string text =
      "\n\na,b\r\n1,x\n\r\n22,yy\r\n333,a long string cell\n\n4,z";
  WriteText(path, text);
  auto rel = CsvRelation::Open({{"path", path}, {"schema", "a int, b string"}});
  const uint64_t size = text.size();
  ExecContext engine;
  const std::vector<std::string> want =
      ScanRangeRows(engine, *rel, {{0, size}});
  ASSERT_EQ(want.size(), 4u);
  EXPECT_EQ(want[0], "[1, x]");
  EXPECT_EQ(want[3], "[4, z]");
  for (uint64_t b = 0; b <= size; ++b) {
    EXPECT_EQ(ScanRangeRows(engine, *rel, {{0, b}, {b, size}}), want)
        << "b=" << b;
    for (uint64_t c = b; c <= size; c += 3) {
      EXPECT_EQ(ScanRangeRows(engine, *rel, {{0, b}, {b, c}, {c, size}}, 1),
                want)
          << "b=" << b << " c=" << c;
    }
  }
  std::filesystem::remove(path);
}

TEST(CsvRangeTest, LargeFileScansAsSeveralRangeTasks) {
  // Over 512 KiB: two ranges under the default parallelism, one task each.
  const std::string path =
      ::testing::TempDir() + "/large-" + std::to_string(::getpid()) + ".csv";
  {
    std::ofstream out(path);
    out << "k,v\n";
    for (int i = 0; i < 70000; ++i) out << i << "," << (i % 97) << "\n";
  }
  ASSERT_GT(std::filesystem::file_size(path), 512u * 1024);
  {
    ExecContext engine;
    QueryContextPtr query = engine.BeginQuery();
    auto rel = CsvRelation::Open({{"path", path}, {"schema", "k int, v int"}});
    EXPECT_EQ(rel->ScanBatches(*query, {0}, {}, 1024).num_partitions(), 2u);
  }
  SqlContext ctx;
  ctx.ReadCsv(path, {{"schema", "k int, v int"}}).RegisterTempTable("big");
  auto rows = ctx.Sql("SELECT count(*), sum(k), min(k), max(k) FROM big")
                  .Collect();
  EXPECT_EQ(rows[0].GetInt64(0), 70000);
  EXPECT_EQ(rows[0].Get(1).AsInt64(), int64_t{70000} * 69999 / 2);
  EXPECT_EQ(rows[0].Get(2).AsInt64(), 0);
  EXPECT_EQ(rows[0].Get(3).AsInt64(), 69999);
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRowsScanned), 70000);
  // Pushed into the scan: rows_returned counts the survivors only.
  EXPECT_EQ(ctx.Sql("SELECT k FROM big WHERE v = 3").Collect().size(), 722u);
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRowsScanned), 70000);
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRowsReturned), 722);
  std::filesystem::remove(path);
}

TEST(CsvTypedScanTest, CrlfRecordsLoseTheirCarriageReturn) {
  const std::string path =
      ::testing::TempDir() + "/crlf-" + std::to_string(::getpid()) + ".csv";
  WriteText(path, "a,b\r\n1,abc\r\n2,\r\nbad,row\r\n");
  SqlContext ctx;
  auto rows =
      ctx.ReadCsv(path, {{"schema", "a int, b string"}, {"mode", "PERMISSIVE"}})
          .Collect();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].GetString(1), "abc");  // 3 bytes, no '\r'
  EXPECT_TRUE(rows[1].IsNullAt(1));        // an empty last cell stays null
  EXPECT_TRUE(rows[2].IsNullAt(0));
  EXPECT_EQ(rows[2].GetString(2), "bad,row");  // raw text without '\r'
  // Inference reads the same records: b is a string column, a an int one.
  DataFrame inferred = ctx.ReadCsv(path);
  EXPECT_EQ(inferred.schema()->field(1).name, "b");
  EXPECT_EQ(inferred.schema()->field(0).type->id(), TypeId::kString);
  EXPECT_EQ(inferred.Collect()[0].GetString(1), "abc");
  std::filesystem::remove(path);
}

TEST(CsvTypedScanTest, OutOfRangeIntIsMalformedInEveryMode) {
  const std::string path =
      ::testing::TempDir() + "/int32-" + std::to_string(::getpid()) + ".csv";
  WriteText(path, "a,b\n1,2\n3000000000,4\n-2147483648,5\n");
  const DataSourceOptions schema{{"schema", "a int, b int"}};
  {
    SqlContext ctx;  // lenient: the cell becomes null instead of wrapping
    auto rows = ctx.ReadCsv(path, schema).Collect();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_TRUE(rows[1].IsNullAt(0));
    EXPECT_EQ(rows[2].GetInt32(0), INT32_MIN);
  }
  {
    SqlContext ctx;
    DataSourceOptions opts = schema;
    opts["mode"] = "PERMISSIVE";
    auto rows = ctx.ReadCsv(path, opts).Collect();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_TRUE(rows[1].IsNullAt(0));
    EXPECT_EQ(rows[1].GetString(2), "3000000000,4");
  }
  {
    SqlContext ctx;
    DataSourceOptions opts = schema;
    opts["mode"] = "DROPMALFORMED";
    auto rows = ctx.ReadCsv(path, opts).Collect();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRowsDropped), 1);
  }
  {
    SqlContext ctx;
    DataSourceOptions opts = schema;
    opts["mode"] = "FAILFAST";
    try {
      ctx.ReadCsv(path, opts).Collect();
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":3"), std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove(path);
}

TEST(CsvTypedScanTest, DateTimeCellsInferAsTimestampAndKeepTheirTime) {
  const std::string path =
      ::testing::TempDir() + "/ts-" + std::to_string(::getpid()) + ".csv";
  WriteText(path,
            "d,t,mixed\n"
            "2020-01-05,2020-01-05 10:30:00,2020-01-05\n"
            "2020-01-06,2020-01-06 00:00:01,2020-01-06 12:00:00\n");
  SqlContext ctx;
  DataFrame df = ctx.ReadCsv(path);
  EXPECT_EQ(df.schema()->field(0).type->id(), TypeId::kDate);
  EXPECT_EQ(df.schema()->field(1).type->id(), TypeId::kTimestamp);
  EXPECT_EQ(df.schema()->field(2).type->id(), TypeId::kTimestamp);
  auto rows = df.Collect();
  ASSERT_EQ(rows.size(), 2u);
  int64_t day = 0;
  double unused = 0;
  ASSERT_TRUE(ParseTextAs("2020-01-05", *DataType::Date(), &day, &unused));
  const int64_t midnight = day * 86400LL * 1000000LL;
  EXPECT_EQ(rows[0].Get(1).timestamp().micros,
            midnight + (10 * 3600LL + 30 * 60LL) * 1000000LL);
  EXPECT_EQ(rows[0].Get(2).timestamp().micros, midnight);
  std::filesystem::remove(path);
}

TEST(CsvTypedScanTest, JunkTimeOfDayIsNotATimestamp) {
  const std::string path =
      ::testing::TempDir() + "/junk-ts-" + std::to_string(::getpid()) + ".csv";
  WriteText(path,
            "t\n"
            "2020-01-05 junk\n"
            "2020-01-06 10:30\n");
  SqlContext ctx;
  // Inference: a junk time part makes the column a string.
  DataFrame inferred = ctx.ReadCsv(path);
  EXPECT_EQ(inferred.schema()->field(0).type->id(), TypeId::kString);
  // An explicit timestamp schema: the junk cell is null, and malformed
  // under the strict modes.
  for (const char* mode : {"PERMISSIVE", "DROPMALFORMED"}) {
    ctx.Sql(std::string("CREATE TEMPORARY TABLE junk_ts USING csv OPTIONS "
                        "(path '") +
            path + "', schema 't timestamp', mode '" + mode + "')");
    auto rows = ctx.Sql("SELECT t FROM junk_ts").Collect();
    if (std::string(mode) == "PERMISSIVE") {
      ASSERT_EQ(rows.size(), 2u);
      EXPECT_TRUE(rows[0].Get(0).is_null());
      EXPECT_EQ(rows[1].Get(0).type_id(), TypeId::kTimestamp);
    } else {
      ASSERT_EQ(rows.size(), 1u) << mode;
      EXPECT_EQ(rows[0].Get(0).type_id(), TypeId::kTimestamp);
    }
  }
  // Through SQL: the cast is null, a whole time keeps its fraction.
  auto cast = ctx.Sql(
                     "SELECT CAST('2020-01-05 junk' AS timestamp), "
                     "CAST('2020-01-05 99:99' AS timestamp), "
                     "CAST('2020-01-05 00:00:00.25' AS timestamp), "
                     "CAST('2020-01-05' AS timestamp)")
                  .Collect();
  ASSERT_EQ(cast.size(), 1u);
  EXPECT_TRUE(cast[0].Get(0).is_null());
  EXPECT_TRUE(cast[0].Get(1).is_null());
  EXPECT_EQ(cast[0].Get(2).timestamp().micros -
                cast[0].Get(3).timestamp().micros,
            250000);
  std::filesystem::remove(path);
}

/// The per-line CSV reader the engine used before typed scans: getline,
/// a std::string per cell, Cast::Convert per cell, and the parse-mode
/// logic, with the one intended change applied (a line loses one trailing
/// '\r'). The differential test's oracle.
struct OracleCsv {
  std::vector<Row> rows;  // the relation's full schema
  int64_t malformed = 0;
  int64_t dropped = 0;
  std::string error;  // FAILFAST's message, when it fails
};

OracleCsv ReadCsvOracle(const std::string& path, const StructType& schema,
                        const std::string& mode) {
  const bool strict = !mode.empty();
  const int corrupt = mode == "PERMISSIVE"
                          ? static_cast<int>(schema.num_fields()) - 1
                          : -1;
  const size_t data_fields = schema.num_fields() - (corrupt >= 0 ? 1 : 0);
  OracleCsv out;
  std::ifstream in(path);
  std::string line;
  bool skip_header = true;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (skip_header) {
      skip_header = false;
      continue;
    }
    const std::vector<std::string> cells = Split(line, ',');
    bool malformed = strict && cells.size() != data_fields;
    Row row;
    for (size_t i = 0; i < data_fields && !malformed; ++i) {
      if (i >= cells.size()) {
        row.Append(Value::Null());
        continue;
      }
      const DataType& type = *schema.field(i).type;
      Value v = cells[i].empty() ? Value::Null()
                                 : Cast::Convert(Value(cells[i]), type);
      if (strict && v.is_null() && !cells[i].empty() &&
          type.id() != TypeId::kString) {
        malformed = true;
        break;
      }
      row.Append(std::move(v));
    }
    if (malformed) {
      ++out.malformed;
      if (mode == "FAILFAST") {
        out.error =
            FormatRecordError("malformed CSV record", path, line_no, line);
        return out;
      }
      if (mode == "DROPMALFORMED") {
        ++out.dropped;
        continue;
      }
      row = Row();
      for (size_t i = 0; i < data_fields; ++i) row.Append(Value::Null());
      row.Append(Value(line));
    } else if (corrupt >= 0) {
      row.Append(Value::Null());
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

/// One generated cell of `type`: valid, padded, signed, empty, malformed,
/// out of range, quoted, or a date with a time on it.
std::string GenCell(std::mt19937_64& rng, TypeId type) {
  auto pick = [&](std::initializer_list<const char*> options) {
    return std::string(*(options.begin() + rng() % options.size()));
  };
  std::string valid;
  switch (type) {
    case TypeId::kBoolean:
      valid = pick({"true", "false", "TRUE", "False"});
      break;
    case TypeId::kInt32:
      valid = rng() % 8 == 0 ? pick({"2147483647", "-2147483648", "0"})
                             : std::to_string(static_cast<int>(rng() % 2001) - 1000);
      break;
    case TypeId::kInt64:
      valid = rng() % 8 == 0
                  ? pick({"9223372036854775807", "-9223372036854775808"})
                  : std::to_string(static_cast<int64_t>(rng() % 200001) - 100000);
      break;
    case TypeId::kDouble:
      valid = rng() % 6 == 0 ? pick({"0", "-0.0", "1e10", "inf", "nan", ".5",
                                     "1e-320", "0x1p3", "5."})
                             : std::to_string(static_cast<int>(rng() % 2001) - 1000) +
                                   "." + std::to_string(rng() % 100);
      break;
    case TypeId::kDecimal:
      valid = rng() % 6 == 0 ? pick({"7", "-0.1", "123.456", "0.005"})
                             : std::to_string(static_cast<int>(rng() % 20001) - 10000) +
                                   "." + std::to_string(rng() % 100);
      break;
    case TypeId::kDate:
      valid = rng() % 6 == 0 ? pick({"2020-1-5", "1999-12-31", "2020-02-29",
                                     "2020-01-05 10:30:00", "2021-02-29"})
                             : "2020-0" + std::to_string(1 + rng() % 9) + "-1" +
                                   std::to_string(rng() % 10);
      break;
    case TypeId::kTimestamp:
      valid = rng() % 6 == 0 ? pick({"2020-01-05", "2020-01-05 7:5",
                                     "2020-01-05 10:30:00.5", "2020-01-05 junk"})
                             : "2020-01-1" + std::to_string(rng() % 10) + " 1" +
                                   std::to_string(rng() % 10) + ":3" +
                                   std::to_string(rng() % 10) + ":0" +
                                   std::to_string(rng() % 10);
      break;
    default:
      valid = pick({"abc", "hello world", "x\ty", "", "caf\xc3\xa9", "b"});
      break;
  }
  switch (rng() % 14) {
    case 0:
      return "";
    case 1:
      return " " + valid + "  ";
    case 2:
      return pick({"abc", "1.2.3", "--1", "2020-13-45", "tru", "+", "1e"});
    case 3:
      return pick({"3000000000", "-2147483649", "99999999999999999999", "1e999",
                   "12345678901234567890.5"});
    case 4:
      return "\"" + valid + "\"";
    case 5:
      return (rng() % 2 ? "+" : "-") + std::to_string(rng() % 1000);
    default:
      return valid;
  }
}

/// A seeded corpus over every schema type: cell shapes from GenCell, short
/// and long rows, embedded delimiters, blank lines, CRLF, and sometimes no
/// final newline.
std::string GenCsvCorpus(std::mt19937_64& rng, const StructType& schema,
                         int rows) {
  std::string text;
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    text += (f > 0 ? "," : "") + schema.field(f).name;
  }
  text += "\n";
  for (int r = 0; r < rows; ++r) {
    const int shape = static_cast<int>(rng() % 20);
    std::string line;
    if (shape == 0) {
      line = "";  // blank
    } else {
      size_t cells = schema.num_fields();
      if (shape == 1) cells = rng() % cells;                     // short
      if (shape == 2) cells += 1 + rng() % 2;                    // long
      for (size_t f = 0; f < cells; ++f) {
        if (f > 0) line += ",";
        line += f < schema.num_fields()
                    ? GenCell(rng, schema.field(f).type->id())
                    : GenCell(rng, TypeId::kString);
      }
      if (shape == 3) line.insert(rng() % (line.size() + 1), ",");  // delimiter
    }
    text += line + (rng() % 4 == 0 ? "\r\n" : "\n");
  }
  if (rng() % 2 == 0) text.pop_back();  // sometimes no final newline
  if (!text.empty() && text.back() == '\r') text.pop_back();
  return text;
}

TEST(CsvDifferentialTest, TypedScansMatchThePerLineReader) {
  const std::string schema_text =
      "fb boolean, fi int, fl bigint, fd double, fm decimal(10,2), "
      "ft date, fts timestamp, fs string";
  const auto schema = ParseSchemaString(schema_text);
  const std::string path =
      ::testing::TempDir() + "/diff-" + std::to_string(::getpid()) + ".csv";
  std::mt19937_64 rng(2015);
  ExecContext engine;
  int64_t compared_rows = 0, malformed_records = 0, failfast_errors = 0;
  for (int corpus = 0; corpus < 6; ++corpus) {
    const std::string text = GenCsvCorpus(rng, *schema, 150);
    WriteText(path, text);
    for (const std::string mode :
         {"", "PERMISSIVE", "DROPMALFORMED", "FAILFAST"}) {
      SCOPED_TRACE("corpus " + std::to_string(corpus) + " mode '" + mode + "'");
      DataSourceOptions opts{{"path", path}, {"schema", schema_text}};
      if (!mode.empty()) opts["mode"] = mode;
      auto rel = CsvRelation::Open(opts);
      const OracleCsv oracle = ReadCsvOracle(path, *rel->schema(), mode);
      malformed_records += oracle.malformed;
      failfast_errors += oracle.error.empty() ? 0 : 1;

      // The range splitter: random boundaries give the oracle's rows.
      if (oracle.error.empty()) {
        std::vector<uint64_t> cuts = {0, text.size()};
        for (int k = 0; k < 3; ++k) cuts.push_back(rng() % (text.size() + 1));
        std::sort(cuts.begin(), cuts.end());
        std::vector<CsvRange> ranges;
        for (size_t k = 0; k + 1 < cuts.size(); ++k) {
          ranges.push_back({cuts[k], cuts[k + 1]});
        }
        EXPECT_EQ(ScanRangeRows(engine, *rel, ranges, 1 + rng() % 5),
                  RowStrings(oracle.rows));
      }

      for (const bool vectorized : {true, false}) {
        for (const size_t batch_size : {size_t{1}, size_t{1024}}) {
          EngineConfig config;
          config.vectorized_enabled = vectorized;
          config.batch_size = batch_size;
          config.num_threads = 2;
          SqlContext ctx(config);
          DataFrame csv = ctx.Read("csv", opts);
          DataFrame local = ctx.CreateDataFrame(rel->schema(), oracle.rows);
          for (int q = 0; q < 4; ++q) {
            // A random projection and up to two pushable conjuncts, applied
            // alike to the CSV scan and to the oracle's rows.
            std::vector<std::string> names;
            for (size_t f = 0; f < rel->schema()->num_fields(); ++f) {
              if (rng() % 2 == 0) names.push_back(rel->schema()->field(f).name);
            }
            if (names.empty()) names.push_back("fs");
            std::shuffle(names.begin(), names.end(), rng);
            std::vector<std::pair<size_t, int>> preds(rng() % 3);
            for (auto& [field, op] : preds) {
              field = rng() % schema->num_fields();
              op = static_cast<int>(rng() % 5);
            }
            auto query = [&](DataFrame df) {
              for (const auto& [f, op] : preds) {
                const Field& field = schema->field(f);
                Column c = df(field.name);
                Value lit;
                switch (field.type->id()) {
                  case TypeId::kBoolean: lit = Value(true); break;
                  case TypeId::kInt32: lit = Value(int32_t{0}); break;
                  case TypeId::kInt64: lit = Value(int64_t{0}); break;
                  case TypeId::kDouble: lit = Value(0.5); break;
                  case TypeId::kDecimal: lit = Value(Decimal(150, 10, 2)); break;
                  case TypeId::kDate: lit = Value(DateValue{18270}); break;
                  case TypeId::kTimestamp:
                    lit = Value(TimestampValue{1578900000000000LL});
                    break;
                  default: lit = Value("b"); break;
                }
                const Column l = functions::Lit(lit);
                df = df.Where(op == 0   ? c.IsNull()
                              : op == 1 ? c.IsNotNull()
                              : op == 2 ? c == l
                              : op == 3 ? c < l
                                        : c >= l);
              }
              return RowStrings(df.Select(names).Collect());
            };
            SCOPED_TRACE("vectorized " + std::to_string(vectorized) +
                         " batch " + std::to_string(batch_size) + " query " +
                         std::to_string(q));
            if (!oracle.error.empty()) {
              try {
                query(csv);
                ADD_FAILURE() << "expected ParseError: " << oracle.error;
              } catch (const ParseError& e) {
                EXPECT_NE(std::string(e.what()).find(oracle.error),
                          std::string::npos)
                    << e.what() << "\nwant: " << oracle.error;
              }
              continue;
            }
            const std::vector<std::string> got = query(csv);
            compared_rows += static_cast<int64_t>(got.size());
            EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kMalformedRecords),
                      oracle.malformed);
            EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRowsDropped),
                      oracle.dropped);
            EXPECT_EQ(got, query(local));
          }
        }
      }
    }
  }
  // The corpora reach every path: rows compared, malformed records seen,
  // and FAILFAST failing.
  EXPECT_GT(compared_rows, 1000);
  EXPECT_GT(malformed_records, 0);
  EXPECT_GT(failfast_errors, 0);
  std::filesystem::remove(path);
}

TEST(JsonIoFailureTest, FileDeletedBeforeOpenThrowsIoErrorUnderAllModes) {
  // JSON does all of its file I/O at Open() time (records are pre-parsed),
  // so the vanished-file case surfaces from Read() itself.
  for (const char* mode : kAllModes) {
    SCOPED_TRACE(mode);
    std::string path = ::testing::TempDir() + "/gone.json";
    {
      std::ofstream out(path);
      out << "{\"a\": 1}\n";
    }
    std::filesystem::remove(path);
    SqlContext ctx;
    EXPECT_THROW(ctx.Read("json", {{"path", path}, {"mode", mode}}), IoError);
  }
}

TEST(JsonIoFailureTest, TruncatedLastRecordFollowsParseMode) {
  std::string path = ::testing::TempDir() + "/cutoff.json";
  {
    std::ofstream out(path);
    out << "{\"a\": 1}\n{\"a\": 2}\n{\"a\":";  // cut off mid-record
  }
  {
    SqlContext ctx;
    auto rows =
        ctx.Read("json", {{"path", path}, {"mode", "PERMISSIVE"}}).Collect();
    EXPECT_EQ(rows.size(), 3u);  // corrupt record kept as a null-filled row
  }
  {
    SqlContext ctx;
    auto rows =
        ctx.Read("json", {{"path", path}, {"mode", "DROPMALFORMED"}}).Collect();
    EXPECT_EQ(rows.size(), 2u);
  }
  {
    SqlContext ctx;
    EXPECT_THROW(ctx.Read("json", {{"path", path}, {"mode", "FAILFAST"}}),
                 ParseError);
  }
  std::filesystem::remove(path);
}

class ColfIoFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = StructType::Make({Field("id", DataType::Int64(), false),
                                Field("tag", DataType::String(), true)});
    std::vector<Row> rows;
    for (int i = 0; i < 300; ++i) {
      rows.push_back(Row({Value(int64_t(i)), Value("tag_" + std::to_string(i))}));
    }
    path_ = ::testing::TempDir() + "/fragile-" + std::to_string(::getpid()) +
              ".colf";
    WriteColfFile(path_, schema_, rows, /*row_group_size=*/50);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  SchemaPtr schema_;
  std::string path_;
};

TEST_F(ColfIoFailureTest, FileDeletedMidScanThrowsIoErrorUnderAllModes) {
  // colf re-opens the file on every scan, so Open() (schema read) succeeds
  // and the deletion lands on Collect(). The binary format has no malformed
  // *records* — any mode option is accepted and the failure is IoError.
  for (const char* mode : kAllModes) {
    SCOPED_TRACE(mode);
    SqlContext ctx;
    DataFrame df = ctx.Read("colf", {{"path", path_}, {"mode", mode}});
    std::filesystem::remove(path_);
    EXPECT_THROW(df.Collect(), IoError);
    // Restore for the next mode iteration.
    SetUp();
  }
}

TEST_F(ColfIoFailureTest, TruncatedFileThrowsIoErrorUnderAllModes) {
  // Chop the file mid-row-group: the bounds-checked reader must refuse with
  // IoError naming the truncation — never return a partial scan.
  const auto full = std::filesystem::file_size(path_);
  for (const char* mode : kAllModes) {
    SCOPED_TRACE(mode);
    SqlContext ctx;
    DataFrame df = ctx.Read("colf", {{"path", path_}, {"mode", mode}});
    std::filesystem::resize_file(path_, full / 2);
    try {
      df.Collect();
      FAIL() << "truncated colf scan must not return rows";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
    SetUp();  // rewrite the full file for the next mode
  }
}

TEST_F(ColfIoFailureTest, TruncatedSchemaThrowsIoError) {
  std::filesystem::resize_file(path_, 6);  // magic survives, schema does not
  EXPECT_THROW(ReadColfSchema(path_), IoError);
}

TEST(ColfCorruptTest, ColumnRowCountOtherThanItsRowGroupsThrowsIoError) {
  auto schema = StructType::Make({Field("id", DataType::Int64(), false)});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Row({Value(int64_t{i * 7})}));
  const std::string path = ::testing::TempDir() + "/rowcount-" +
                           std::to_string(::getpid()) + ".colf";
  WriteColfFile(path, schema, rows, /*row_group_size=*/100);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // "COLF1", u32 schema length, schema, u32 group count, u32 group rows,
  // then the column: u8 encoding, u32 row count. Claim 99 rows of 100.
  uint32_t schema_len = 0;
  std::memcpy(&schema_len, bytes.data() + 5, 4);
  const size_t group_rows_at = 5 + 4 + schema_len + 4;
  const size_t column_rows_at = group_rows_at + 4 + 1;
  ASSERT_EQ(static_cast<uint8_t>(bytes[group_rows_at]), 100);
  ASSERT_EQ(static_cast<uint8_t>(bytes[column_rows_at]), 100);
  bytes[column_rows_at] = 99;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  SqlContext ctx;
  EXPECT_THROW(ctx.ReadColf(path).Collect(), IoError);
  std::filesystem::remove(path);
}

TEST(ColfFuzzTest, MutatedFilesScanOrThrowIoError) {
  // Seeded byte mutations of a small colf file (plain, run-length and
  // dictionary chunks, nulls, several row groups): every mutated file must
  // either scan or be refused with IoError, never crash, hang or throw
  // anything else.
  auto schema = StructType::Make({Field("id", DataType::Int64(), false),
                                  Field("tag", DataType::String(), true),
                                  Field("score", DataType::Double(), true),
                                  Field("day", DataType::Date(), false),
                                  Field("flag", DataType::Boolean(), true)});
  std::vector<Row> rows;
  for (int i = 0; i < 256; ++i) {
    rows.push_back(Row({Value(int64_t{i}),
                        i % 5 == 0 ? Value::Null()
                                   : Value("tag_" + std::to_string(i % 3)),
                        i % 7 == 0 ? Value::Null() : Value(i * 0.25),
                        Value(DateValue{i / 40}), Value(i % 2 == 0)}));
  }
  const std::string path = ::testing::TempDir() + "/fuzz-" +
                           std::to_string(::getpid()) + ".colf";
  WriteColfFile(path, schema, rows, /*row_group_size=*/64);
  std::string original;
  {
    std::ifstream in(path, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(original.size(), 64u);

  EngineConfig config;
  config.num_threads = 2;
  ExecContext engine(config);
  std::mt19937_64 rng(19);
  int scanned = 0;
  int refused = 0;
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    std::string bytes = original;
    for (int k = 1 + static_cast<int>(rng() % 3); k > 0; --k) {
      bytes[rng() % bytes.size()] = static_cast<char>(rng());
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    QueryContextPtr query = engine.BeginQuery();
    try {
      auto rel = ColfRelation::Open({{"path", path}});
      std::vector<int> columns(rel->schema()->num_fields());
      std::iota(columns.begin(), columns.end(), 0);
      rel->ScanBatches(*query, columns, {}, 1024).ToRowDataset(*query);
      if (!columns.empty()) {
        const FilterSpec not_null{rel->schema()->field(0).name,
                                  FilterSpec::Op::kIsNotNull, {}};
        rel->ScanBatches(*query, columns, {not_null}, 7);
      }
      ++scanned;
    } catch (const IoError&) {
      ++refused;
    }
  }
  EXPECT_EQ(scanned + refused, kRounds);
  EXPECT_GT(scanned, 0);
  EXPECT_GT(refused, 0);
  std::filesystem::remove(path);
}

TEST(CsvFuzzTest, MutatedFilesScanOrThrowTypedError) {
  // Seeded byte mutations of a small CSV file over every schema type, read
  // in every parse mode, as one range and as two: each mutated file must
  // scan or be refused with ParseError or IoError, never crash, hang or
  // throw anything else. SSQL_FUZZ_SEED replays a failing seed.
  uint64_t seed = 21;
  if (const char* env = std::getenv("SSQL_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  SCOPED_TRACE("SSQL_FUZZ_SEED=" + std::to_string(seed));
  const std::string schema =
      "fb boolean, fi int, fl bigint, fd double, fm decimal(10,2), "
      "ft date, fts timestamp, fs string";
  std::string original =
      "fb,fi,fl,fd,fm,ft,fts,fs\n";
  for (int i = 0; i < 40; ++i) {
    original += std::string(i % 2 ? "true" : "false") + "," +
                std::to_string(i * 37 - 500) + "," +
                std::to_string(int64_t{i} * 1000000007) + "," +
                std::to_string(i * 0.25) + "," + std::to_string(i) + ".5," +
                "2020-01-" + std::to_string(10 + i % 19) + "," +
                "2020-02-0" + std::to_string(1 + i % 9) + " 10:30:0" +
                std::to_string(i % 10) + "," + (i % 5 ? "tag" : "") +
                (i % 7 == 0 ? "\r\n" : "\n");
  }
  const std::string path =
      ::testing::TempDir() + "/fuzz-" + std::to_string(::getpid()) + ".csv";
  // Structural bytes are the interesting mutations; half come from here.
  const std::string structural = ",\n\r -+.:e0123456789";

  EngineConfig config;
  config.num_threads = 2;
  ExecContext engine(config);
  std::mt19937_64 rng(seed);
  int scanned = 0;
  int refused = 0;
  constexpr int kRounds = 2000;
  for (const std::string mode : {"", "PERMISSIVE", "DROPMALFORMED", "FAILFAST"}) {
    SCOPED_TRACE("mode '" + mode + "'");
    for (int round = 0; round < kRounds; ++round) {
      std::string bytes = original;
      for (int k = 1 + static_cast<int>(rng() % 3); k > 0; --k) {
        const size_t at = rng() % bytes.size();
        const char c = rng() % 2 ? structural[rng() % structural.size()]
                                 : static_cast<char>(rng());
        switch (rng() % 4) {
          case 0:
            bytes.insert(bytes.begin() + static_cast<long>(at), c);
            break;
          case 1:
            bytes.erase(at, 1 + rng() % 4);
            break;
          default:
            bytes[at] = c;
        }
        if (bytes.empty()) bytes = "x";
      }
      WriteText(path, bytes);
      QueryContextPtr query = engine.BeginQuery();
      try {
        DataSourceOptions opts{{"path", path}};
        if (round % 4 != 0) opts["schema"] = schema;  // else infer
        if (!mode.empty()) opts["mode"] = mode;
        auto rel = CsvRelation::Open(opts);
        std::vector<int> columns(rel->schema()->num_fields());
        std::iota(columns.begin(), columns.end(), 0);
        rel->ScanBatches(*query, columns, {}, 1024).ToRowDataset(*query);
        const uint64_t cut = rng() % (bytes.size() + 1);
        const FilterSpec not_null{rel->schema()->field(0).name,
                                  FilterSpec::Op::kIsNotNull, {}};
        rel->ScanRanges(*query, {{0, cut}, {cut, bytes.size()}}, columns,
                        {not_null}, 7)
            .ToRowDataset(*query);
        ++scanned;
      } catch (const ParseError&) {
        ++refused;
      } catch (const IoError&) {
        ++refused;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "round " << round << " threw " << e.what()
                      << "\nfile: " << EscapeForDisplay(bytes);
      }
    }
  }
  EXPECT_EQ(scanned + refused, 4 * kRounds);
  EXPECT_GT(scanned, 0);
  EXPECT_GT(refused, 0);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Source agreement with an absolute oracle: the same rows as local rows, a
// cached copy and a colf file whose small row groups let the zone maps
// prune, each queried in SQL and checked against answers computed here from
// Spark's rules (NaN equals NaN and follows every number, -0.0 equals 0.0,
// decimals compare exactly), not from Value::Compare.
// ---------------------------------------------------------------------------

/// Spark's order of doubles.
int SparkCompare(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
  }
  return (a > b) - (a < b);
}

/// A double's class under Spark's equality: every NaN alike, -0.0 as 0.
std::string SparkKey(double d) {
  if (std::isnan(d)) return "NaN";
  return d == 0.0 ? "0" : Value(d).ToString();
}

bool Holds(const std::string& op, int c) {
  if (op == "=") return c == 0;
  if (op == "<>") return c != 0;
  if (op == "<") return c < 0;
  if (op == "<=") return c <= 0;
  if (op == ">") return c > 0;
  return c >= 0;
}

TEST(SourceAgreementTest, LocalCacheAndColfGiveSparksAnswers) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> doubles = {nan, -nan, 0.0, -0.0, 1.5, -2.25,
                                       inf, -inf};
  const int64_t x = 123456789012345678;
  const std::vector<int64_t> decimals = {x,          x + 1, x + 2, x + 3,
                                         -999999999999999999, 0,
                                         999999999999999999};
  auto schema = StructType::Make({Field("id", DataType::Int64(), false),
                                  Field("d", DataType::Double(), true),
                                  Field("m", DecimalType::Make(18, 0), true)});
  constexpr int kRows = 240;
  constexpr int kGroup = 16;  // colf row group
  std::mt19937_64 rng(25);
  std::vector<Row> rows;
  std::vector<std::optional<double>> ds;
  std::vector<std::optional<int64_t>> ms;
  for (int i = 0; i < kRows; ++i) {
    // NaN leads every third row group and the first cached partition, so
    // a zone map that let NaN be least or greatest would prune wrongly.
    std::optional<double> d = doubles[rng() % doubles.size()];
    if (rng() % 8 == 0) d.reset();
    if (i % (3 * kGroup) == 0) d = i % 2 == 0 ? nan : -nan;
    std::optional<int64_t> m = decimals[rng() % decimals.size()];
    if (rng() % 9 == 0) m.reset();
    rows.push_back(Row({Value(int64_t{i}), d ? Value(*d) : Value::Null(),
                        m ? Value(Decimal(*m, 18, 0)) : Value::Null()}));
    ds.push_back(d);
    ms.push_back(m);
  }
  const std::string path = ::testing::TempDir() + "/agree-order-" +
                           std::to_string(::getpid()) + ".colf";
  WriteColfFile(path, schema, rows, kGroup);

  EngineConfig config;
  config.num_threads = 2;
  config.default_parallelism = 3;
  SqlContext ctx(config);
  ctx.CreateDataFrame(schema, rows).RegisterTempTable("local");
  DataFrame cached = ctx.CreateDataFrame(schema, rows);
  cached.Cache();
  cached.RegisterTempTable("cached");
  ctx.Read("colf", {{"path", path}}).RegisterTempTable("colf");

  // The literal set: SQL text and value.
  const std::vector<std::pair<std::string, double>> literals = {
      {"CAST('NaN' AS double)", nan}, {"-CAST('NaN' AS double)", -nan},
      {"CAST('0.0' AS double)", 0.0}, {"CAST('-0.0' AS double)", -0.0},
      {"1.5", 1.5},                   {"-2.25", -2.25},
      {"CAST('inf' AS double)", inf}, {"CAST('-inf' AS double)", -inf},
      {"1", 1.0}};
  // Rows passing a predicate on d, as "count|sum(id)".
  auto expect_d = [&](const std::function<bool(double)>& pass) {
    int64_t n = 0, sum = 0;
    for (int i = 0; i < kRows; ++i) {
      if (ds[i] && pass(*ds[i])) n += 1, sum += i;
    }
    return std::to_string(n) + "|" + (n > 0 ? std::to_string(sum) : "null");
  };
  auto expect_m = [&](const std::function<bool(int64_t)>& pass) {
    int64_t n = 0, sum = 0;
    for (int i = 0; i < kRows; ++i) {
      if (ms[i] && pass(*ms[i])) n += 1, sum += i;
    }
    return std::to_string(n) + "|" + (n > 0 ? std::to_string(sum) : "null");
  };
  std::vector<std::pair<std::string, std::string>> filters;  // WHERE, want
  for (const std::string op : {"=", "<>", "<", "<=", ">", ">="}) {
    for (const auto& [sql, v] : literals) {
      filters.push_back({"d " + op + " " + sql, expect_d([&, v = v](double d) {
                           return Holds(op, SparkCompare(d, v));
                         })});
      filters.push_back(
          {"NOT (d " + op + " " + sql + ")", expect_d([&, v = v](double d) {
             return !Holds(op, SparkCompare(d, v));
           })});
    }
    for (int64_t lit : {x, x + 1, x + 3, int64_t{0}}) {
      filters.push_back({"m " + op + " " + std::to_string(lit),
                         expect_m([&](int64_t m) {
                           return Holds(op, (m > lit) - (m < lit));
                         })});
    }
  }
  filters.push_back({"d IN (CAST('NaN' AS double), CAST('-0.0' AS double))",
                     expect_d([](double d) {
                       return std::isnan(d) || d == 0.0;
                     })});
  filters.push_back(
      {"d BETWEEN CAST('0.0' AS double) AND CAST('NaN' AS double)",
       expect_d([](double d) { return std::isnan(d) || d >= 0.0; })});
  filters.push_back({"d BETWEEN -2.25 AND 1.5", expect_d([](double d) {
                       return d >= -2.25 && d <= 1.5;
                     })});
  const std::string x1 = std::to_string(x + 1);
  const std::string x2 = std::to_string(x + 2);
  const std::string m_x1_x2 =
      expect_m([&](int64_t m) { return m == x + 1 || m == x + 2; });
  filters.push_back({"m IN (" + x1 + ", " + x2 + ")", m_x1_x2});
  filters.push_back({"m BETWEEN " + x1 + " AND " + x2, m_x1_x2});
  {
    int64_t n = 0, sum = 0;
    for (int i = 0; i < kRows; ++i) {
      if (!ds[i]) n += 1, sum += i;
    }
    const std::string want = std::to_string(n) + "|" + std::to_string(sum);
    filters.push_back({"d IS NULL", n > 0 ? want : "0|null"});
  }

  // Aggregates, grouping, DISTINCT, ORDER BY and the two joins.
  std::map<std::string, int64_t> d_groups, m_groups;
  std::optional<double> d_min, d_max;
  std::optional<int64_t> m_min, m_max;
  for (int i = 0; i < kRows; ++i) {
    if (ds[i]) {
      d_groups[SparkKey(*ds[i])] += 1;
      if (!d_min || SparkCompare(*ds[i], *d_min) < 0) d_min = ds[i];
      if (!d_max || SparkCompare(*ds[i], *d_max) > 0) d_max = ds[i];
    }
    if (ms[i]) {
      m_groups[std::to_string(*ms[i])] += 1;
      m_min = std::min(m_min.value_or(*ms[i]), *ms[i]);
      m_max = std::max(m_max.value_or(*ms[i]), *ms[i]);
    }
  }
  int64_t d_pairs = 0, m_pairs = 0;
  for (const auto& [k, n] : d_groups) d_pairs += n * n;
  for (const auto& [k, n] : m_groups) m_pairs += n * n;

  for (const std::string table : {"local", "cached", "colf"}) {
    SCOPED_TRACE(table);
    auto text = [](const Value& v) {
      return v.type_id() == TypeId::kDouble ? SparkKey(v.f64()) : v.ToString();
    };
    auto one = [&](const std::string& sql) {
      const std::vector<Row> got = ctx.Sql(sql).Collect();
      EXPECT_EQ(got.size(), 1u) << sql;
      std::string out;
      for (size_t c = 0; !got.empty() && c < got[0].size(); ++c) {
        out += (c > 0 ? "|" : "") + text(got[0].Get(c));
      }
      return out;
    };
    const std::string from = " FROM " + table;
    for (const auto& [where, want] : filters) {
      EXPECT_EQ(one("SELECT count(*), sum(id)" + from + " WHERE " + where),
                want)
          << where;
    }
    EXPECT_EQ(one("SELECT min(d), max(d), count(DISTINCT d)" + from),
              SparkKey(*d_min) + "|" + SparkKey(*d_max) + "|" +
                  std::to_string(d_groups.size()));
    EXPECT_EQ(one("SELECT min(m), max(m), count(DISTINCT m)" + from),
              std::to_string(*m_min) + "|" + std::to_string(*m_max) + "|" +
                  std::to_string(m_groups.size()));
    for (const auto& [col, groups] : {std::pair{"d", d_groups},
                                      std::pair{"m", m_groups}}) {
      const std::string where = from + " WHERE " + col + " IS NOT NULL";
      std::map<std::string, int64_t> got;
      for (const Row& r : ctx.Sql(std::string("SELECT ") + col + ", count(*)" +
                                  where + " GROUP BY " + col)
                              .Collect()) {
        got[text(r.Get(0))] += r.GetInt64(1);
      }
      EXPECT_EQ(got, groups) << "GROUP BY " << col;
      EXPECT_EQ(ctx.Sql("SELECT DISTINCT " + std::string(col) + where)
                    .Collect()
                    .size(),
                groups.size())
          << "DISTINCT " << col;
    }
    // ORDER BY: nulls first, then Spark's order.
    const std::vector<Row> sorted =
        ctx.Sql("SELECT d" + from + " ORDER BY d").Collect();
    ASSERT_EQ(sorted.size(), static_cast<size_t>(kRows));
    for (size_t i = 1; i < sorted.size(); ++i) {
      const Value& a = sorted[i - 1].Get(0);
      const Value& b = sorted[i].Get(0);
      EXPECT_TRUE(a.is_null() ||
                  (!b.is_null() && SparkCompare(a.f64(), b.f64()) <= 0))
          << "ORDER BY d at " << i << ": " << a.ToString() << " before "
          << b.ToString();
    }
    for (const auto& [col, pairs] : {std::pair{std::string("d"), d_pairs},
                                     std::pair{std::string("m"), m_pairs}}) {
      const std::string join =
          "SELECT count(*)" + from + " a JOIN " + table + " b ON a." + col;
      EXPECT_EQ(one(join + " = b." + col), std::to_string(pairs))
          << "hash join on " << col;
      EXPECT_EQ(one(join + " <= b." + col + " AND a." + col + " >= b." + col),
                std::to_string(pairs))
          << "nested-loop join on " << col;
    }
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// EstimatedSizeBytes (the broadcast-join and ANALYZE TABLE size input)
// ---------------------------------------------------------------------------

TEST(EstimatedSizeTest, FileSourcesReportFileSizeAndNulloptWhenGone) {
  const std::string dir = ::testing::TempDir();
  // csv / json: one file each, estimate == exact on-disk size.
  const std::string csv = dir + "/est.csv";
  std::ofstream(csv) << "a,b\n1,x\n2,y\n";
  const std::string json = dir + "/est.json";
  std::ofstream(json) << "{\"a\": 1}\n{\"a\": 2}\n";

  auto csv_rel = DataSourceRegistry::Global().CreateRelation(
      "csv", {{"path", csv}});
  ASSERT_TRUE(csv_rel->EstimatedSizeBytes().has_value());
  EXPECT_EQ(*csv_rel->EstimatedSizeBytes(),
            std::filesystem::file_size(csv));

  auto json_rel = DataSourceRegistry::Global().CreateRelation(
      "json", {{"path", json}});
  ASSERT_TRUE(json_rel->EstimatedSizeBytes().has_value());
  EXPECT_EQ(*json_rel->EstimatedSizeBytes(),
            std::filesystem::file_size(json));

  // colf: written through the writer, same contract.
  const std::string colf = dir + "/est.colf";
  auto schema = StructType::Make({Field("id", DataType::Int64(), false)});
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) rows.push_back(Row({Value(int64_t{i})}));
  WriteColfFile(colf, schema, rows, /*row_group_size=*/10);
  auto colf_rel = DataSourceRegistry::Global().CreateRelation(
      "colf", {{"path", colf}});
  ASSERT_TRUE(colf_rel->EstimatedSizeBytes().has_value());
  EXPECT_EQ(*colf_rel->EstimatedSizeBytes(),
            std::filesystem::file_size(colf));

  // A file deleted after open: the estimate degrades to "unknown" rather
  // than throwing — the planner treats it as not broadcastable.
  std::filesystem::remove(csv);
  std::filesystem::remove(json);
  std::filesystem::remove(colf);
  EXPECT_FALSE(csv_rel->EstimatedSizeBytes().has_value());
  EXPECT_FALSE(json_rel->EstimatedSizeBytes().has_value());
  EXPECT_FALSE(colf_rel->EstimatedSizeBytes().has_value());
}

TEST(EstimatedSizeTest, EmptyTableEstimatesHeaderOnly) {
  const std::string csv = ::testing::TempDir() + "/est-empty.csv";
  std::ofstream(csv) << "a,b\n";
  auto rel = DataSourceRegistry::Global().CreateRelation(
      "csv", {{"path", csv}});
  ASSERT_TRUE(rel->EstimatedSizeBytes().has_value());
  EXPECT_EQ(*rel->EstimatedSizeBytes(), std::filesystem::file_size(csv));

  SqlContext ctx;
  ctx.RegisterTable("e", ctx.ReadCsv(csv));
  EXPECT_TRUE(ctx.Sql("SELECT * FROM e").Collect().empty());
  std::filesystem::remove(csv);
}

TEST(EstimatedSizeTest, KvdbEstimatesBoxedRowsAndNulloptAfterDrop) {
  auto schema = StructType::Make({Field("id", DataType::Int32(), false),
                                  Field("name", DataType::String(), false)});
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(Row({Value(int32_t{i}), Value("u" + std::to_string(i))}));
  }
  KvdbDatabase::Global().CreateTable("est_kv", schema, rows);
  auto rel = DataSourceRegistry::Global().CreateRelation(
      "kvdb", {{"table", "est_kv"}});
  ASSERT_TRUE(rel->EstimatedSizeBytes().has_value());
  EXPECT_EQ(*rel->EstimatedSizeBytes(), 40 * EstimateBoxedRowBytes(*schema));

  // Dropped out from under the relation: unknown, not a crash.
  KvdbDatabase::Global().DropTable("est_kv");
  EXPECT_FALSE(rel->EstimatedSizeBytes().has_value());
}

TEST(EstimatedSizeTest, CachedTableReportsMemoryBytes) {
  // The in-memory cache source reports its compressed columnar footprint;
  // reachable through SqlContext::CachePlan.
  SqlContext ctx;
  const std::string csv = ::testing::TempDir() + "/est-cache.csv";
  std::ofstream out(csv);
  out << "a\n";
  for (int i = 0; i < 200; ++i) out << i << "\n";
  out.close();
  DataFrame df = ctx.ReadCsv(csv);
  ctx.CachePlan(df.plan());
  EXPECT_GT(ctx.cache_manager().TotalMemoryBytes(), 0u);
  std::filesystem::remove(csv);
}

}  // namespace
}  // namespace ssql
