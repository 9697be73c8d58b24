// Data source API tests (Section 4.4.1): filter translation, CSV with and
// without schema, colf round-trips / zone-map skipping / pruning, kvdb
// pushdown, and end-to-end CREATE TEMPORARY TABLE ... USING.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>

#include "api/sql_context.h"
#include "columnar/column_vector.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "catalyst/expr/string_ops.h"
#include "datasources/colf_format.h"
#include "datasources/csv_source.h"
#include "datasources/data_source.h"
#include "datasources/kvdb.h"

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
