// Ablation: predicate pushdown & column pruning into data sources
// (Sections 4.4.1, 5.3). Measures the same selective query against the
// colf columnar file and the kvdb embedded database with the pushdown
// batch on and off, plus the federation query of Section 5.3.

#include <benchmark/benchmark.h>

#include <fstream>

#include "bench/workloads.h"
#include "datasources/kvdb.h"

namespace ssql {
namespace bench {
namespace {

constexpr size_t kRows = 200000;

struct Fixture {
  std::string colf_path = "/tmp/ssql_bench_pushdown.colf";
  std::string logs_path = "/tmp/ssql_bench_logs.json";

  Fixture() {
    // A wide-ish table where the query touches 2 of 6 columns and a
    // selective range of rows.
    auto schema = StructType::Make({
        Field("id", DataType::Int64(), false),
        Field("a", DataType::Int64(), false),
        Field("b", DataType::Double(), false),
        Field("c", DataType::String(), false),
        Field("d", DataType::String(), false),
        Field("e", DataType::Double(), false),
    });
    std::mt19937_64 rng(5);
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      rows.push_back(Row({Value(int64_t(i)), Value(int64_t(rng() % 1000)),
                          Value(double(rng() % 100) / 7.0),
                          Value("payload-" + std::to_string(rng() % 50)),
                          Value(std::string(24, 'x')),
                          Value(double(i) * 0.25)}));
    }
    WriteColfFile(colf_path, schema, rows, /*row_group_size=*/4096);

    // kvdb "users" + JSON "logs" for the federation query (Section 5.3).
    auto users_schema = StructType::Make({
        Field("id", DataType::Int32(), false),
        Field("name", DataType::String(), false),
        Field("registrationDate", DataType::Date(), false),
    });
    std::vector<Row> users;
    DateValue old_day, new_day;
    ParseDate("2014-06-01", &old_day);
    ParseDate("2015-02-01", &new_day);
    for (int i = 0; i < 20000; ++i) {
      users.push_back(Row({Value(int32_t(i)),
                           Value("user" + std::to_string(i)),
                           Value(i % 100 < 95 ? old_day : new_day)}));
    }
    KvdbDatabase::Global().CreateTable("bench_users", users_schema,
                                       std::move(users));

    std::ofstream logs(logs_path, std::ios::trunc);
    for (int i = 0; i < 20000; ++i) {
      logs << "{\"userId\": " << (i % 20000)
           << ", \"message\": \"event-" << i % 97 << "\"}\n";
    }
  }
};

Fixture& F() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

/// `c` summed over the last query's scan operators of `source_prefix`
/// sources ("kvdb:"): data-source counters land on the scan's own span.
int64_t ScanCounter(SqlContext& ctx, const std::string& source_prefix,
                    ProfileCounter c) {
  const std::string scan = "Scan " + source_prefix;
  int64_t total = 0;
  std::vector<const ProfileSpan*> stack = {ctx.last_profile().root()};
  while (!stack.empty()) {
    const ProfileSpan* span = stack.back();
    stack.pop_back();
    if (span->kind == SpanKind::kOperator && span->detail.rfind(scan, 0) == 0) {
      total += span->Counter(c);
    }
    stack.insert(stack.end(), span->children.begin(), span->children.end());
  }
  return total;
}

void RunColfQuery(benchmark::State& state, bool pushdown) {
  EngineConfig config = SparkSqlConfig();
  config.pushdown_enabled = pushdown;
  SqlContext ctx(config);
  ctx.ReadColf(F().colf_path).RegisterTempTable("wide");
  int64_t scanned = 0;
  for (auto _ : state) {
    auto rows = ctx.Sql(
                       "SELECT id, b FROM wide "
                       "WHERE id >= 190000 AND a < 500")
                    .Collect();
    benchmark::DoNotOptimize(rows.size());
    scanned = ctx.last_profile().Total(ProfileCounter::kRowsScanned);
  }
  state.counters["rows_scanned"] = static_cast<double>(scanned);
}

void BM_Pushdown_Colf_On(benchmark::State& state) {
  RunColfQuery(state, true);
  state.SetLabel("colf scan: filters + pruning pushed, zone maps skip groups");
}
BENCHMARK(BM_Pushdown_Colf_On)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_Pushdown_Colf_Off(benchmark::State& state) {
  RunColfQuery(state, false);
  state.SetLabel("colf scan: full scan, engine-side filter");
}
BENCHMARK(BM_Pushdown_Colf_Off)->Unit(benchmark::kMillisecond)->Iterations(3);

void RunFederation(benchmark::State& state, bool pushdown) {
  EngineConfig config = SparkSqlConfig();
  config.pushdown_enabled = pushdown;
  SqlContext ctx(config);
  ctx.Sql(
      "CREATE TEMPORARY TABLE users USING kvdb OPTIONS (table 'bench_users')");
  ctx.Sql("CREATE TEMPORARY TABLE logs USING json OPTIONS (path '" +
          F().logs_path + "')");
  int64_t shipped = 0;
  for (auto _ : state) {
    // The Section 5.3 federation query.
    auto rows = ctx.Sql(
                       "SELECT users.id, users.name, logs.message "
                       "FROM users JOIN logs ON users.id = logs.userId "
                       "WHERE users.registrationDate > '2015-01-01'")
                    .Collect();
    benchmark::DoNotOptimize(rows.size());
    shipped = ScanCounter(ctx, "kvdb:", ProfileCounter::kRowsReturned);
  }
  state.counters["kvdb_rows_shipped"] = static_cast<double>(shipped);
}

void BM_Federation_PushdownOn(benchmark::State& state) {
  RunFederation(state, true);
  state.SetLabel("date filter executes inside the external DB");
}
BENCHMARK(BM_Federation_PushdownOn)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_Federation_PushdownOff(benchmark::State& state) {
  RunFederation(state, false);
  state.SetLabel("all user rows shipped, filtered by the engine");
}
BENCHMARK(BM_Federation_PushdownOff)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
}  // namespace bench
}  // namespace ssql

BENCHMARK_MAIN();
