// Section 5.3 end to end: query federation to external databases.
//
// Recreates the paper's example — a "MySQL" users table (the embedded kvdb
// row store) joined with a JSON log file — and shows, via EXPLAIN and the
// engine's counters, that the registrationDate predicate executes *inside*
// the external database rather than after shipping every row.
//
//   cmake --build build --target federation && ./build/examples/federation

#include <fstream>
#include <iostream>

#include "api/sql_context.h"
#include "datasources/kvdb.h"

using namespace ssql;  // NOLINT — example brevity

/// `c` of the last query's kvdb scan operator: data-source counters land on
/// the scan's own span of the query profile.
int64_t KvdbScanCounter(SqlContext& ctx, ProfileCounter c) {
  int64_t total = 0;
  std::vector<const ProfileSpan*> stack = {ctx.last_profile().root()};
  while (!stack.empty()) {
    const ProfileSpan* span = stack.back();
    stack.pop_back();
    if (span->kind == SpanKind::kOperator &&
        span->detail.rfind("Scan kvdb:", 0) == 0) {
      total += span->Counter(c);
    }
    stack.insert(stack.end(), span->children.begin(), span->children.end());
  }
  return total;
}

int main() {
  // -- The "external RDBMS": a users table inside the embedded kvdb. -------
  auto users_schema = StructType::Make({
      Field("id", DataType::Int32(), false),
      Field("name", DataType::String(), false),
      Field("registrationDate", DataType::Date(), false),
  });
  std::vector<Row> users;
  for (int i = 0; i < 1000; ++i) {
    DateValue d;
    ParseDate(i % 10 == 0 ? "2015-02-14" : "2013-05-01", &d);
    users.push_back(
        Row({Value(int32_t(i)), Value("user" + std::to_string(i)), Value(d)}));
  }
  KvdbDatabase::Global().CreateTable("users_db", users_schema, users);

  // -- The log file: newline-delimited JSON with inferred schema. ----------
  const std::string logs_path = "/tmp/ssql_example_logs.json";
  {
    std::ofstream out(logs_path, std::ios::trunc);
    for (int i = 0; i < 5000; ++i) {
      out << "{\"userId\": " << i % 1000 << ", \"message\": \"clicked page "
          << i % 37 << "\"}\n";
    }
  }

  SqlContext ctx;
  // The paper's registration statements, almost verbatim.
  ctx.Sql("CREATE TEMPORARY TABLE users USING kvdb OPTIONS (table 'users_db')");
  ctx.Sql("CREATE TEMPORARY TABLE logs USING json OPTIONS (path '" + logs_path +
          "')");

  const std::string query =
      "SELECT users.id, users.name, logs.message "
      "FROM users JOIN logs ON users.id = logs.userId "
      "WHERE users.registrationDate > '2015-01-01'";

  // -- EXPLAIN: the date predicate is attached to the kvdb scan. -----------
  DataFrame df = ctx.Sql(query);
  std::cout << df.Explain(/*extended=*/true) << "\n";

  // -- Run it; the kvdb scan's counters show what the pushdown saved. ------
  auto rows = df.Collect();
  std::cout << "joined rows: " << rows.size() << "\n";
  std::cout << "rows examined inside the external DB: "
            << KvdbScanCounter(ctx, ProfileCounter::kRowsScanned) << "\n";
  std::cout << "rows shipped to the engine:           "
            << KvdbScanCounter(ctx, ProfileCounter::kRowsReturned) << "\n\n";

  // -- Same query with pushdown disabled, for contrast. ---------------------
  ctx.UpdateConfig([&](EngineConfig& c) { c.pushdown_enabled = false; });
  ctx.RefreshOptimizer();
  DataFrame no_pushdown = ctx.Sql(query);
  no_pushdown.Collect();
  std::cout << "without pushdown, rows shipped:        "
            << KvdbScanCounter(ctx, ProfileCounter::kRowsReturned) << "\n";
  return 0;
}
