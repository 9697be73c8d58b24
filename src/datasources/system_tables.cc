#include "datasources/system_tables.h"

#include <utility>

#include "catalyst/analysis/catalog.h"
#include "engine/exec_context.h"
#include "util/event_journal.h"
#include "util/metrics_registry.h"
#include "util/string_util.h"

namespace ssql {

std::vector<Row> SystemTableRelation::ScanFiltered(
    QueryContext& ctx, const std::vector<int>& columns,
    const std::vector<FilterSpec>& filters) const {
  std::vector<Row> snapshot = generator_(ctx);

  std::vector<std::pair<int, const FilterSpec*>> bound;
  bound.reserve(filters.size());
  for (const auto& f : filters) {
    int idx = schema_->FieldIndex(f.column);
    if (idx < 0) {
      throw ExecutionError(name_ + ": unknown filter column " + f.column);
    }
    bound.emplace_back(idx, &f);
  }

  std::vector<Row> out;
  out.reserve(snapshot.size());
  for (Row& row : snapshot) {
    bool keep = true;
    for (const auto& [idx, spec] : bound) {
      if (!spec->Matches(row.Get(idx))) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    Row projected;
    projected.Reserve(columns.size());
    for (int c : columns) projected.Append(row.Get(c));
    out.push_back(std::move(projected));
  }

  ctx.profile().Add(nullptr, ProfileCounter::kRowsScanned,
                    static_cast<int64_t>(snapshot.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsReturned,
                    static_cast<int64_t>(out.size()));
  ctx.engine()
      .registry()
      .Counter("ssql_system_table_scans_total",
               "Scans served by system.* virtual tables")
      .Increment();
  return out;
}

namespace {

SchemaPtr QueriesSchema() {
  return StructType::Make({
      Field("id", DataType::Int64(), false),
      Field("status", DataType::String(), false),
      Field("start_unix_ms", DataType::Int64(), false),
      Field("duration_ms", DataType::Int64(), false),
      Field("rows_out", DataType::Int64(), false),
      Field("spill_bytes", DataType::Int64(), false),
      Field("peak_memory_bytes", DataType::Int64(), false),
      Field("error", DataType::String(), true),
      Field("error_code", DataType::String(), true),
      Field("last_heartbeat_ms", DataType::Int64(), false),
      Field("stalled", DataType::Boolean(), false),
  });
}

std::vector<Row> QueriesRows(QueryContext& ctx) {
  std::vector<Row> rows;
  for (const QueryRecord& r : ctx.engine().QueryRecords()) {
    Row row;
    row.Reserve(11);
    row.Append(static_cast<int64_t>(r.id));
    row.Append(r.status);
    row.Append(r.start_unix_ms);
    row.Append(r.duration_ms);
    row.Append(r.rows_out);
    row.Append(r.spill_bytes);
    row.Append(r.peak_memory_bytes);
    row.Append(r.error.empty() ? Value() : Value(r.error));
    row.Append(r.error_code.empty() ? Value() : Value(r.error_code));
    row.Append(r.last_heartbeat_ms);
    row.Append(r.stalled);
    rows.push_back(std::move(row));
  }
  return rows;
}

SchemaPtr QueryOperatorsSchema() {
  return StructType::Make({
      Field("query_id", DataType::Int64(), false),
      Field("operator_id", DataType::Int64(), false),
      Field("parent_id", DataType::Int64(), false),
      Field("depth", DataType::Int64(), false),
      Field("name", DataType::String(), false),
      Field("detail", DataType::String(), true),
      Field("status", DataType::String(), false),
      Field("wall_ns", DataType::Int64(), false),
      Field("rows_in", DataType::Int64(), false),
      Field("rows_out", DataType::Int64(), false),
      Field("batches", DataType::Int64(), false),
      Field("spill_bytes", DataType::Int64(), false),
      Field("est_rows", DataType::Int64(), true),
      Field("est_source", DataType::String(), true),
      Field("misestimate", DataType::Double(), true),
  });
}

std::vector<Row> QueryOperatorsRows(QueryContext& ctx) {
  std::vector<Row> rows;
  for (const QueryRecord& r : ctx.engine().QueryRecords()) {
    for (const QueryProfile::OperatorActual& op : r.operators) {
      Row row;
      row.Reserve(15);
      row.Append(static_cast<int64_t>(r.id));
      row.Append(static_cast<int64_t>(op.id));
      row.Append(static_cast<int64_t>(op.parent_id));
      row.Append(static_cast<int64_t>(op.depth));
      row.Append(op.name);
      row.Append(op.detail.empty() ? Value() : Value(op.detail));
      row.Append(op.status);
      row.Append(op.wall_ns);
      row.Append(op.rows_in);
      row.Append(op.rows_out);
      row.Append(op.batches);
      row.Append(op.spill_bytes);
      row.Append(op.est_rows >= 0 ? Value(op.est_rows) : Value());
      row.Append(op.est_source.empty() ? Value() : Value(op.est_source));
      row.Append(op.est_rows >= 0 ? Value(op.misestimate) : Value());
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

SchemaPtr MetricsSchema() {
  return StructType::Make({
      Field("name", DataType::String(), false),
      Field("kind", DataType::String(), false),
      Field("value", DataType::Int64(), false),
      Field("sum", DataType::Int64(), true),
      Field("p50", DataType::Int64(), true),
      Field("p95", DataType::Int64(), true),
      Field("p99", DataType::Int64(), true),
      Field("help", DataType::String(), true),
  });
}

std::vector<Row> MetricsRows(QueryContext& ctx) {
  std::vector<Row> rows;
  for (const MetricSnapshot& m : ctx.engine().registry().Snapshot()) {
    const bool hist = m.kind == "histogram";
    Row row;
    row.Reserve(8);
    row.Append(m.name);
    row.Append(m.kind);
    row.Append(m.value);
    row.Append(hist ? Value(m.sum) : Value());
    row.Append(hist ? Value(m.p50) : Value());
    row.Append(hist ? Value(m.p95) : Value());
    row.Append(hist ? Value(m.p99) : Value());
    row.Append(m.help.empty() ? Value() : Value(m.help));
    rows.push_back(std::move(row));
  }
  return rows;
}

SchemaPtr MemorySchema() {
  return StructType::Make({
      Field("scope", DataType::String(), false),
      Field("query_id", DataType::Int64(), true),
      Field("limit_bytes", DataType::Int64(), true),
      Field("reserved_bytes", DataType::Int64(), false),
  });
}

std::vector<Row> MemoryRows(QueryContext& ctx) {
  std::vector<Row> rows;
  ExecContext& engine = ctx.engine();
  Row pool;
  pool.Reserve(4);
  pool.Append("engine");
  pool.Append(Value());
  const int64_t pool_limit = engine.engine_memory().limit_bytes();
  pool.Append(pool_limit < 0 ? Value() : Value(pool_limit));
  pool.Append(engine.engine_memory().reserved_bytes());
  rows.push_back(std::move(pool));
  for (const ExecContext::MemoryRecord& r : engine.QueryMemoryRecords()) {
    Row row;
    row.Reserve(4);
    row.Append("query");
    row.Append(static_cast<int64_t>(r.query_id));
    row.Append(r.limit_bytes < 0 ? Value() : Value(r.limit_bytes));
    row.Append(r.reserved_bytes);
    rows.push_back(std::move(row));
  }
  return rows;
}

SchemaPtr TablesSchema() {
  return StructType::Make({
      Field("name", DataType::String(), false),
      Field("is_system", DataType::Boolean(), false),
      Field("columns", DataType::Int64(), true),
  });
}

SchemaPtr ColumnsSchema() {
  return StructType::Make({
      Field("table_name", DataType::String(), false),
      Field("column_name", DataType::String(), false),
      Field("ordinal", DataType::Int64(), false),
      Field("type", DataType::String(), false),
      Field("nullable", DataType::Boolean(), false),
  });
}

bool IsSystemTableName(const std::string& name) {
  return name.rfind("system.", 0) == 0;
}

SchemaPtr TableStatsSchema() {
  return StructType::Make({
      Field("table_name", DataType::String(), false),
      Field("row_count", DataType::Int64(), false),
      Field("size_bytes", DataType::Int64(), false),
      Field("analyzed_at_ms", DataType::Int64(), false),
      Field("stale", DataType::Boolean(), false),
      Field("columns_analyzed", DataType::Int64(), false),
  });
}

std::vector<Row> TableStatsRows(QueryContext& ctx, Catalog* catalog) {
  (void)ctx;
  std::vector<Row> rows;
  for (const auto& ts : catalog->stats().Snapshot()) {
    Row row;
    row.Reserve(6);
    row.Append(ts->table);
    row.Append(ts->row_count);
    row.Append(ts->size_bytes);
    row.Append(ts->analyzed_at_unix_ms);
    row.Append(ts->stale);
    row.Append(static_cast<int64_t>(ts->columns.size()));
    rows.push_back(std::move(row));
  }
  return rows;
}

SchemaPtr ColumnStatsSchema() {
  return StructType::Make({
      Field("table_name", DataType::String(), false),
      Field("column_name", DataType::String(), false),
      Field("null_count", DataType::Int64(), false),
      Field("ndv", DataType::Int64(), false),
      Field("min", DataType::String(), true),
      Field("max", DataType::String(), true),
      Field("histogram", DataType::String(), true),
      Field("stale", DataType::Boolean(), false),
  });
}

/// Nonzero log2 histogram buckets as "<=bound:count" pairs — compact enough
/// for a cell, lossless for the buckets that matter.
std::string RenderHistogram(const std::vector<int64_t>& buckets) {
  std::string out;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (!out.empty()) out += ",";
    out += "<=" +
           std::to_string(HistogramMetric::BucketUpperBound(static_cast<int>(i))) +
           ":" + std::to_string(buckets[i]);
  }
  return out;
}

std::vector<Row> ColumnStatsRows(QueryContext& ctx, Catalog* catalog) {
  (void)ctx;
  std::vector<Row> rows;
  for (const auto& ts : catalog->stats().Snapshot()) {
    for (const auto& [key, cs] : ts->columns) {
      (void)key;
      Row row;
      row.Reserve(8);
      row.Append(ts->table);
      row.Append(cs.column);
      row.Append(cs.null_count);
      row.Append(cs.ndv);
      row.Append(cs.min.is_null() ? Value() : Value(cs.min.ToString()));
      row.Append(cs.max.is_null() ? Value() : Value(cs.max.ToString()));
      std::string hist = RenderHistogram(cs.histogram);
      row.Append(hist.empty() ? Value() : Value(hist));
      row.Append(ts->stale);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

SchemaPtr EventsSchema() {
  return StructType::Make({
      Field("seq", DataType::Int64(), false),
      Field("unix_ms", DataType::Int64(), false),
      Field("query_id", DataType::Int64(), false),
      Field("kind", DataType::String(), false),
      Field("severity", DataType::String(), false),
      Field("value", DataType::Int64(), false),
      Field("detail", DataType::String(), true),
  });
}

std::vector<Row> EventsRows(QueryContext& ctx) {
  // One bounded snapshot of the flight recorder: at most
  // event_journal_capacity rows, ordered oldest-first by seq. The scanning
  // query's own begin/task events may appear — the recorder is always on,
  // and observing the observer is a feature, not a bug.
  std::vector<Row> rows;
  for (const EngineEvent& e : ctx.engine().journal().Snapshot()) {
    Row row;
    row.Reserve(7);
    row.Append(static_cast<int64_t>(e.seq));
    row.Append(e.unix_ms);
    row.Append(static_cast<int64_t>(e.query_id));
    row.Append(std::string(EngineEventKindName(
        static_cast<EngineEventKind>(e.kind))));
    row.Append(std::string(EventSeverityName(
        static_cast<EventSeverity>(e.severity))));
    row.Append(e.value);
    row.Append(e.detail[0] == '\0' ? Value() : Value(std::string(e.detail)));
    rows.push_back(std::move(row));
  }
  return rows;
}

SchemaPtr MetricsHistorySchema() {
  return StructType::Make({
      Field("sample_unix_ms", DataType::Int64(), false),
      Field("name", DataType::String(), false),
      Field("kind", DataType::String(), false),
      Field("value", DataType::Int64(), false),
      Field("sum", DataType::Int64(), true),
      Field("p50", DataType::Int64(), true),
      Field("p95", DataType::Int64(), true),
      Field("p99", DataType::Int64(), true),
  });
}

std::vector<Row> MetricsHistoryRows(QueryContext& ctx) {
  // Flattened sampler ring: one row per (sample, metric). Bounded by
  // kMetricsHistoryCapacity samples × registry size; filter pushdown on
  // `name` prunes before the row ever reaches the query.
  std::vector<Row> rows;
  for (const ExecContext::MetricsSample& s : ctx.engine().MetricsHistory()) {
    for (const MetricSnapshot& m : s.metrics) {
      const bool hist = m.kind == "histogram";
      Row row;
      row.Reserve(8);
      row.Append(s.unix_ms);
      row.Append(m.name);
      row.Append(m.kind);
      row.Append(m.value);
      row.Append(hist ? Value(m.sum) : Value());
      row.Append(hist ? Value(m.p50) : Value());
      row.Append(hist ? Value(m.p95) : Value());
      row.Append(hist ? Value(m.p99) : Value());
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// Output attributes of a catalog plan, or empty when the stored plan is
/// not self-describing (an unresolved view over a dropped table, say) —
/// introspection must not fail the introspecting query.
AttributeVector SafeOutput(const PlanPtr& plan) {
  try {
    return plan->Output();
  } catch (const SsqlError&) {
    return {};
  }
}

std::vector<Row> TablesRows(QueryContext& ctx, Catalog* catalog) {
  (void)ctx;
  std::vector<Row> rows;
  for (const std::string& name : catalog->TableNames()) {
    PlanPtr plan = catalog->Lookup(name);
    Row row;
    row.Reserve(3);
    row.Append(name);
    row.Append(IsSystemTableName(name));
    if (plan && plan->resolved()) {
      row.Append(static_cast<int64_t>(SafeOutput(plan).size()));
    } else {
      row.Append(Value());
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> ColumnsRows(QueryContext& ctx, Catalog* catalog) {
  (void)ctx;
  std::vector<Row> rows;
  for (const std::string& name : catalog->TableNames()) {
    PlanPtr plan = catalog->Lookup(name);
    if (!plan || !plan->resolved()) continue;
    AttributeVector output = SafeOutput(plan);
    for (size_t i = 0; i < output.size(); ++i) {
      Row row;
      row.Reserve(5);
      row.Append(name);
      row.Append(output[i]->name());
      row.Append(static_cast<int64_t>(i));
      row.Append(output[i]->data_type()->ToString());
      row.Append(output[i]->nullable());
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace

void RegisterSystemTables(Catalog& catalog, ExecContext& engine) {
  (void)engine;  // generators reach the engine through ctx.engine()
  Catalog* cat = &catalog;
  auto add = [cat](const std::string& name, SchemaPtr schema,
                   SystemTableRelation::Generator gen) {
    cat->RegisterSystemTable(
        name, LogicalRelation::Make(std::make_shared<SystemTableRelation>(
                  name, std::move(schema), std::move(gen))));
  };
  add("system.queries", QueriesSchema(), QueriesRows);
  add("system.query_operators", QueryOperatorsSchema(), QueryOperatorsRows);
  add("system.metrics", MetricsSchema(), MetricsRows);
  add("system.events", EventsSchema(), EventsRows);
  add("system.metrics_history", MetricsHistorySchema(), MetricsHistoryRows);
  add("system.memory", MemorySchema(), MemoryRows);
  add("system.tables", TablesSchema(),
      [cat](QueryContext& ctx) { return TablesRows(ctx, cat); });
  add("system.columns", ColumnsSchema(),
      [cat](QueryContext& ctx) { return ColumnsRows(ctx, cat); });
  add("system.table_stats", TableStatsSchema(),
      [cat](QueryContext& ctx) { return TableStatsRows(ctx, cat); });
  add("system.column_stats", ColumnStatsSchema(),
      [cat](QueryContext& ctx) { return ColumnStatsRows(ctx, cat); });
}

}  // namespace ssql
