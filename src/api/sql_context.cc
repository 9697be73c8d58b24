#include "api/sql_context.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "catalyst/planner/planner.h"
#include "datasources/chunk_reader.h"
#include "datasources/system_tables.h"
#include "exec/scan_exec.h"
#include "sql/parser.h"
#include "util/hll_sketch.h"
#include "util/metrics_registry.h"
#include "util/string_util.h"

namespace ssql {

SqlContext::SqlContext(EngineConfig config)
    : exec_(config),
      analyzer_(&catalog_, &functions_),
      optimizer_(std::make_unique<Optimizer>(
          OptimizerOptions{config.pushdown_enabled})) {
  // The system. catalog: engine state served through the same data source
  // API as any external table (pruning and filter pushdown included).
  RegisterSystemTables(catalog_, exec_);
}

std::string SqlContext::ExportMetricsText() const {
  return exec_.ExportMetricsText();
}

void SqlContext::RefreshOptimizer() {
  optimizer_ = std::make_unique<Optimizer>(
      OptimizerOptions{exec_.config().pushdown_enabled});
}

void SqlContext::SetConfig(const EngineConfig& config) {
  exec_.SetConfig(config);
  RefreshOptimizer();
}

QueryProfile& SqlContext::last_profile() const {
  std::lock_guard<std::mutex> lock(last_query_mu_);
  if (!last_query_) {
    throw ExecutionError("last_profile(): no query has been executed yet");
  }
  return last_query_->profile();
}

DataFrame SqlContext::CreateDataFrame(const SchemaPtr& schema,
                                      std::vector<Row> rows) {
  return DataFrame(this, LocalRelation::FromSchema(schema, std::move(rows)));
}

DataFrame SqlContext::Table(const std::string& name) {
  PlanPtr plan = catalog_.Lookup(name);
  if (!plan) {
    throw AnalysisError("table not found: '" + name + "'");
  }
  return DataFrame(this, SubqueryAlias::Make(name, plan));
}

DataFrame SqlContext::Read(const std::string& provider,
                           const DataSourceOptions& options) {
  std::shared_ptr<BaseRelation> rel =
      DataSourceRegistry::Global().CreateRelation(provider, options);
  return DataFrame(this, LogicalRelation::Make(rel));
}

DataFrame SqlContext::ReadCsv(const std::string& path) {
  return Read("csv", {{"path", path}});
}
DataFrame SqlContext::ReadCsv(const std::string& path,
                              DataSourceOptions options) {
  options["path"] = path;
  return Read("csv", options);
}
DataFrame SqlContext::ReadJson(const std::string& path) {
  return Read("json", {{"path", path}});
}
DataFrame SqlContext::ReadJson(const std::string& path,
                               DataSourceOptions options) {
  options["path"] = path;
  return Read("json", options);
}
DataFrame SqlContext::ReadColf(const std::string& path) {
  return Read("colf", {{"path", path}});
}

DataFrame DataFrameReader::Load(const std::string& path) {
  options_["path"] = path;
  return ctx_->Read(provider_, options_);
}

DataFrame DataFrameReader::Load() { return ctx_->Read(provider_, options_); }

DataFrame SqlContext::Sql(const std::string& statement) {
  ParsedStatement parsed = ParseSql(statement);
  if (parsed.kind == ParsedStatement::Kind::kCreateTempTable) {
    std::shared_ptr<BaseRelation> rel =
        DataSourceRegistry::Global().CreateRelation(parsed.provider,
                                                    parsed.options);
    catalog_.RegisterTable(parsed.table_name, LogicalRelation::Make(rel));
    return CreateDataFrame(StructType::Make({}), {});
  }
  if (parsed.kind == ParsedStatement::Kind::kCreateTempView) {
    // Analyze eagerly so errors surface now; register the analyzed plan as
    // an unmaterialized view.
    PlanPtr analyzed = Analyze(parsed.plan);
    catalog_.RegisterTable(parsed.table_name, analyzed);
    return CreateDataFrame(StructType::Make({}), {});
  }
  if (parsed.kind == ParsedStatement::Kind::kAnalyzeTable) {
    return AnalyzeTableStats(parsed);
  }
  if (parsed.kind == ParsedStatement::Kind::kExplain) {
    PlanPtr analyzed = Analyze(parsed.plan);
    std::string text = ExplainText(analyzed, parsed.explain_mode);
    Row row;
    row.Append(Value(text));
    return CreateDataFrame(
        StructType::Make({Field("plan", DataType::String(), false)}),
        {std::move(row)});
  }
  return DataFrame(this, parsed.plan);
}

DataFrame SqlContext::AnalyzeTableStats(const ParsedStatement& parsed) {
  PlanPtr plan = catalog_.Lookup(parsed.table_name);
  if (!plan) {
    throw AnalysisError("ANALYZE TABLE: table not found: '" +
                        parsed.table_name + "'");
  }
  PlanPtr analyzed = Analyze(SubqueryAlias::Make(parsed.table_name, plan));

  // The scanned source's identity — what lets the cost model match these
  // stats against pruned copies of the scan. Views (anything that isn't a
  // bare relation under the aliases) get no identity: their stats stay
  // visible in system.table_stats but are never used for estimation.
  std::shared_ptr<const SourceRelation> source;
  {
    PlanPtr p = analyzed;
    while (const auto* alias = AsPlan<SubqueryAlias>(p)) p = alias->child();
    if (const auto* rel = AsPlan<LogicalRelation>(p)) source = rel->source();
  }

  // Which columns get per-column stats.
  AttributeVector output = analyzed->Output();
  std::vector<size_t> column_ordinals;
  if (parsed.analyze_all_columns) {
    for (size_t i = 0; i < output.size(); ++i) column_ordinals.push_back(i);
  } else {
    for (const std::string& want : parsed.analyze_columns) {
      std::string want_lower = ToLower(want);
      bool found = false;
      for (size_t i = 0; i < output.size(); ++i) {
        if (ToLower(output[i]->name()) == want_lower) {
          column_ordinals.push_back(i);
          found = true;
          break;
        }
      }
      if (!found) {
        throw AnalysisError("ANALYZE TABLE: column not found in '" +
                            parsed.table_name + "': '" + want + "'");
      }
    }
  }

  // Scan the table as a regular query (admission, profile, cancellation
  // and all), then fold the rows into the statistics.
  std::vector<Row> rows = Execute(analyzed).Collect();

  TableStats stats;
  stats.table = parsed.table_name;
  stats.row_count = static_cast<int64_t>(rows.size());
  stats.analyzed_at_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();

  std::optional<uint64_t> source_bytes =
      source ? source->EstimatedSizeBytes() : std::nullopt;
  if (source_bytes) {
    stats.size_bytes = static_cast<int64_t>(*source_bytes);
  } else {
    std::vector<Field> fields;
    fields.reserve(output.size());
    for (const auto& attr : output) {
      fields.emplace_back(attr->name(), attr->data_type(), attr->nullable());
    }
    stats.size_bytes = static_cast<int64_t>(
        rows.size() * EstimateBoxedRowBytes(*StructType::Make(fields)));
  }

  for (size_t ord : column_ordinals) {
    ColumnStats cs;
    cs.column = output[ord]->name();
    cs.rows = stats.row_count;
    cs.histogram.assign(HistogramMetric::kNumBuckets, 0);
    HllSketch hll;
    bool any_numeric = false;
    for (const Row& row : rows) {
      const Value& v = row.Get(ord);
      if (v.is_null()) {
        ++cs.null_count;
        continue;
      }
      hll.Add(Mix64(v.Hash()));
      if (cs.min.is_null() || v.Compare(cs.min) < 0) cs.min = v;
      if (cs.max.is_null() || v.Compare(cs.max) > 0) cs.max = v;
      TypeId id = v.type_id();
      if (id == TypeId::kInt32 || id == TypeId::kInt64 ||
          id == TypeId::kDouble) {
        any_numeric = true;
        ++cs.histogram[HistogramMetric::BucketIndex(
            static_cast<int64_t>(std::llround(v.AsDouble())))];
      }
    }
    cs.ndv = hll.Estimate();
    if (!any_numeric) cs.histogram.clear();
    stats.columns[ToLower(cs.column)] = std::move(cs);
  }

  int64_t columns_analyzed = static_cast<int64_t>(stats.columns.size());
  catalog_.stats().Put(parsed.table_name, std::move(stats), source);

  Row summary;
  summary.Append(Value(parsed.table_name));
  summary.Append(Value(static_cast<int64_t>(rows.size())));
  summary.Append(Value(columns_analyzed));
  return CreateDataFrame(
      StructType::Make({Field("table_name", DataType::String(), false),
                        Field("row_count", DataType::Int64(), false),
                        Field("columns_analyzed", DataType::Int64(), false)}),
      {std::move(summary)});
}

std::string SqlContext::ExplainText(const PlanPtr& analyzed_plan,
                                    ExplainMode mode) {
  PlanPtr with_cache = SubstituteCached(analyzed_plan);
  PlanPtr optimized = Optimize(with_cache);
  std::vector<std::string> decisions;
  PhysPtr physical = PlanPhysical(optimized, &decisions);

  std::string out;
  if (mode == ExplainMode::kExtended) {
    out += "== Analyzed Logical Plan ==\n" + analyzed_plan->TreeString();
    out += "== Optimized Logical Plan ==\n" + optimized->TreeString();
    out += "== Join Selection ==\n";
    if (decisions.empty()) {
      out += "(no join decisions)\n";
    } else {
      for (const std::string& d : decisions) out += d + "\n";
    }
  }
  out += "== Physical Plan ==\n" + physical->TreeString();
  if (mode == ExplainMode::kAnalyze) {
    // Run the query for real; its profile then carries the actuals.
    QueryContextPtr query;
    ExecuteInternal(analyzed_plan, QueryOptions(), &query);
    out += "\n" + query->profile().RenderAnalyzed();
  }
  return out;
}

void SqlContext::RegisterTable(const std::string& name, const DataFrame& df) {
  catalog_.RegisterTable(name, df.plan());
}

void SqlContext::DropTable(const std::string& name) { catalog_.DropTable(name); }

void SqlContext::RegisterUdf(const std::string& name, DataTypePtr return_type,
                             ScalarUDF::Body body, bool deterministic) {
  functions_.RegisterUdf(name, std::move(return_type), std::move(body),
                         deterministic);
}

void SqlContext::RegisterUdt(std::shared_ptr<const UserDefinedType> udt) {
  catalog_.RegisterUdt(std::move(udt));
}

PlanPtr SqlContext::Analyze(const PlanPtr& plan) const {
  return analyzer_.Analyze(plan);
}

PlanPtr SqlContext::Optimize(const PlanPtr& plan,
                             std::vector<RuleExecutor::TraceEntry>* trace,
                             QueryProfile* profile) const {
  return optimizer_->Optimize(plan, trace, profile);
}

PhysPtr SqlContext::PlanPhysical(const PlanPtr& optimized,
                                 std::vector<std::string>* decisions) const {
  PhysicalPlanner planner(exec_.config(), &catalog_.stats());
  return planner.Plan(optimized, decisions);
}

PlanPtr SqlContext::SubstituteCached(const PlanPtr& plan) const {
  return plan->TransformUp([this](const PlanPtr& p) -> PlanPtr {
    auto table = cache_.Get(p->TreeString());
    if (!table) return p;
    if (const auto* rel = AsPlan<LogicalRelation>(p)) {
      // Already a cache-backed scan? Don't re-wrap.
      if (rel->source()->name().rfind("cache:", 0) == 0) return p;
    }
    AttributeVector output = p->Output();
    std::vector<int> all_columns;
    all_columns.reserve(output.size());
    for (size_t i = 0; i < output.size(); ++i) {
      all_columns.push_back(static_cast<int>(i));
    }
    // Preserve the subtree's attribute identities so parents still bind.
    return std::make_shared<LogicalRelation>(
        std::make_shared<CachedTableSource>(std::move(table), "plan"),
        std::move(output), std::move(all_columns), ExprVector{});
  });
}

RowDataset SqlContext::Execute(const PlanPtr& analyzed_plan) {
  return ExecuteInternal(analyzed_plan, QueryOptions(), nullptr);
}

RowDataset SqlContext::Execute(const PlanPtr& analyzed_plan,
                               const QueryOptions& options) {
  return ExecuteInternal(analyzed_plan, options, nullptr);
}

RowDataset SqlContext::ExecuteInternal(const PlanPtr& analyzed_plan,
                                       const QueryOptions& options,
                                       QueryContextPtr* out_query) {
  // Open a per-query context: fresh cancellation token (with the wall-clock
  // timeout armed now, after admission, so queue wait doesn't burn budget),
  // fresh profile, and a memory budget carved from the engine pool.
  // Everything engine-wide (pool, catalog, cache) stays shared.
  QueryContextPtr query = exec_.BeginQuery(options);
  {
    std::lock_guard<std::mutex> lock(last_query_mu_);
    last_query_ = query;
  }
  if (out_query != nullptr) *out_query = query;
  if (options.on_start) options.on_start(*query);
  QueryProfile& profile = query->profile();
  try {
    ProfileSpan* phase = profile.BeginSpan(SpanKind::kPhase, "optimize");
    PlanPtr with_cache = SubstituteCached(analyzed_plan);
    PlanPtr optimized = Optimize(with_cache, nullptr,
                                 profile.detailed() ? &profile : nullptr);
    profile.EndSpan(phase);

    phase = profile.BeginSpan(SpanKind::kPhase, "planning");
    PhysPtr physical = PlanPhysical(optimized);
    // Stashed for diagnostics: a bundle written at Finish (failure, kill,
    // slow query) includes the physical plan that actually ran.
    query->set_plan_text(physical->TreeString());
    profile.EndSpan(phase);

    phase = profile.BeginSpan(SpanKind::kPhase, "execution");
    RowDataset out = physical->Execute(*query);
    profile.EndSpan(phase);

    query->Finish("ok");
    return out;
  } catch (const SsqlError& e) {
    // Preserve the taxonomy code for system.queries / per-code counters.
    query->Finish(std::string("error: ") + e.what(), e.code());
    throw;
  } catch (const std::exception& e) {
    query->Finish(std::string("error: ") + e.what());
    throw;
  } catch (...) {
    query->Finish("error: unknown");
    throw;
  }
}

void SqlContext::CachePlan(const PlanPtr& analyzed_plan) {
  // Build the columnar table from the plan's result, keyed by the
  // analyzed plan's canonical form.
  RowDataset data = Execute(analyzed_plan);
  std::vector<Field> fields;
  for (const auto& attr : analyzed_plan->Output()) {
    fields.emplace_back(attr->name(), attr->data_type(), attr->nullable());
  }
  SchemaPtr schema = StructType::Make(std::move(fields));
  cache_.Put(analyzed_plan->TreeString(), CachedTable::Build(schema, data));
}

void SqlContext::UncachePlan(const PlanPtr& analyzed_plan) {
  cache_.Remove(analyzed_plan->TreeString());
}

}  // namespace ssql
