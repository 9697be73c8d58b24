#ifndef SSQL_API_SQL_CONTEXT_H_
#define SSQL_API_SQL_CONTEXT_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/dataframe.h"
#include "catalyst/analysis/analyzer.h"
#include "catalyst/analysis/catalog.h"
#include "catalyst/analysis/function_registry.h"
#include "catalyst/optimizer/optimizer.h"
#include "columnar/columnar_cache.h"
#include "datasources/data_source.h"
#include "engine/exec_context.h"
#include "engine/query_context.h"
#include "exec/physical_plan.h"

namespace ssql {

class SqlContext;
struct ParsedStatement;

/// Fluent reader builder (Spark's `sqlContext.read.format("json")
/// .option("mode", "PERMISSIVE").load(path)`): accumulates provider +
/// OPTIONS, then constructs the relation on Load().
class DataFrameReader {
 public:
  explicit DataFrameReader(SqlContext* ctx) : ctx_(ctx) {}

  DataFrameReader& Format(std::string provider) {
    provider_ = std::move(provider);
    return *this;
  }
  DataFrameReader& Option(const std::string& key, const std::string& value) {
    options_[key] = value;
    return *this;
  }
  /// Shorthand for Option("mode", ...): PERMISSIVE, DROPMALFORMED, FAILFAST.
  DataFrameReader& Mode(const std::string& mode) {
    return Option("mode", mode);
  }
  DataFrameReader& Schema(const std::string& schema) {
    return Option("schema", schema);
  }

  /// Opens the source. Throws IoError/ParseError like SqlContext::Read.
  DataFrame Load(const std::string& path);
  /// Variant for sources whose location was given via Option("path", ...).
  DataFrame Load();

 private:
  SqlContext* ctx_;
  std::string provider_ = "csv";
  DataSourceOptions options_;
};

/// The entry point (the paper's SQLContext/HiveContext): owns the catalog,
/// function registry, optimizer, cache manager and the mini-Spark engine,
/// and runs the four Catalyst phases of Figure 3 — analysis, logical
/// optimization, physical planning, execution.
class SqlContext {
 public:
  explicit SqlContext(EngineConfig config = EngineConfig());

  // ---- DataFrame construction -----------------------------------------

  /// From driver-local rows.
  DataFrame CreateDataFrame(const SchemaPtr& schema, std::vector<Row> rows);

  /// From a registered table (paper's ctx.table("users")).
  DataFrame Table(const std::string& name);

  /// From a data source provider with OPTIONS (Section 4.4.1).
  DataFrame Read(const std::string& provider, const DataSourceOptions& options);
  /// Fluent form: ctx.Read().Format("json").Mode("PERMISSIVE").Load(path).
  DataFrameReader Read() { return DataFrameReader(this); }
  DataFrame ReadCsv(const std::string& path);
  DataFrame ReadCsv(const std::string& path, DataSourceOptions options);
  DataFrame ReadJson(const std::string& path);
  DataFrame ReadJson(const std::string& path, DataSourceOptions options);
  DataFrame ReadColf(const std::string& path);

  /// Runs a SQL statement. SELECT returns its result DataFrame; CREATE
  /// TEMPORARY TABLE registers the source and returns an empty DataFrame;
  /// EXPLAIN [EXTENDED|ANALYZE] returns a single-row DataFrame whose "plan"
  /// column holds the rendered plan (ANALYZE actually runs the query and
  /// annotates the plan with per-operator actuals).
  DataFrame Sql(const std::string& statement);

  /// Renders an analyzed plan per `mode`. kAnalyze executes the query and
  /// includes the profiled actuals; the other modes never execute.
  std::string ExplainText(const PlanPtr& analyzed_plan, ExplainMode mode);

  // ---- registration -----------------------------------------------------

  void RegisterTable(const std::string& name, const DataFrame& df);
  void DropTable(const std::string& name);

  /// Inline UDF registration (Section 3.7): usable immediately from both
  /// SQL and the DSL.
  void RegisterUdf(const std::string& name, DataTypePtr return_type,
                   ScalarUDF::Body body, bool deterministic = true);

  /// UDT registration (Section 4.4.2).
  void RegisterUdt(std::shared_ptr<const UserDefinedType> udt);

  // ---- the Catalyst pipeline (Figure 3) ---------------------------------

  PlanPtr Analyze(const PlanPtr& plan) const;
  PlanPtr Optimize(const PlanPtr& plan,
                   std::vector<RuleExecutor::TraceEntry>* trace = nullptr,
                   QueryProfile* profile = nullptr) const;
  /// `decisions`, when non-null, receives the planner's strategy notes
  /// (join algorithm choices with the broadcast-threshold reasoning).
  PhysPtr PlanPhysical(const PlanPtr& optimized,
                       std::vector<std::string>* decisions = nullptr) const;
  /// Full pipeline: substitute cached subtrees, optimize, plan, execute.
  /// Opens a QueryContext via ExecContext::BeginQuery (blocking in FIFO
  /// order when max_concurrent_queries is saturated); each Catalyst phase
  /// runs under the query's profile span, and the context is finished (the
  /// trace file / slow-query log emitted, spill dir removed) on success and
  /// error alike. The finished query's profile stays readable via
  /// last_profile() until the next Execute on this thread of control.
  /// Thread-safe: any number of threads may Execute concurrently on one
  /// SqlContext.
  RowDataset Execute(const PlanPtr& analyzed_plan);
  /// Variant with per-query knobs (timeout override, on_start hook that
  /// receives the live QueryContext right after admission).
  RowDataset Execute(const PlanPtr& analyzed_plan, const QueryOptions& options);

  // ---- caching (Section 3.6) --------------------------------------------

  /// Materializes `plan`'s result in compressed columnar form; later
  /// Execute() calls swap matching subtrees for in-memory scans.
  void CachePlan(const PlanPtr& analyzed_plan);
  void UncachePlan(const PlanPtr& analyzed_plan);
  CacheManager& cache_manager() { return cache_; }

  // ---- accessors ----------------------------------------------------------

  Catalog& catalog() { return catalog_; }
  FunctionRegistry& functions() { return functions_; }
  ExecContext& exec() { return exec_; }

  /// Prometheus text exposition of the engine's metrics registry — the
  /// programmatic twin of EngineConfig::metrics_path.
  std::string ExportMetricsText() const;

  /// Writes an on-demand diagnostics bundle (journal tail, metrics
  /// snapshot, config) under EngineConfig::diag_dir and returns its
  /// directory, or "" on failure. The engine-level twin of the automatic
  /// bundle a failing query writes at Finish; the shell's `.diag` command.
  std::string WriteDiagnosticsBundle(const std::string& reason) {
    return exec_.WriteDiagnosticsBundle(reason);
  }
  const EngineConfig& config() const { return exec_.config(); }
  const Analyzer& analyzer() const { return analyzer_; }

  /// Replaces the engine configuration. Validates the new config and
  /// rejects the change (ConfigError) while any query is in flight —
  /// running queries hold a snapshot, so a mid-flight swap would silently
  /// apply to some operators and not others. Also rebuilds the optimizer
  /// so pushdown toggles take effect.
  void SetConfig(const EngineConfig& config);

  /// Copy-mutate-swap convenience: UpdateConfig([](EngineConfig& c) {
  /// c.spill_enabled = false; }).
  template <typename Fn>
  void UpdateConfig(Fn&& fn) {
    EngineConfig next = exec_.config();
    fn(next);
    SetConfig(next);
  }

  /// Profile of the most recently started query (kept alive after it
  /// finishes). Throws ExecutionError before the first Execute. Under
  /// concurrent Execute calls "last" means last admitted — concurrent
  /// tests should grab their own QueryContext via QueryOptions::on_start.
  QueryProfile& last_profile() const;

  /// Rebuilds the optimizer after config changes (pushdown toggles).
  void RefreshOptimizer();

 private:
  friend class DataFrame;

  /// Replaces cached subtrees with LogicalRelation leaves over the cached
  /// table (a CachedTableSource), so they get pruning and pushdown.
  PlanPtr SubstituteCached(const PlanPtr& plan) const;

  /// Runs an ANALYZE TABLE statement: scans the table as a regular query,
  /// computes table-level (and per-column, when requested) statistics and
  /// installs them in catalog().stats(). Returns a one-row summary frame.
  DataFrame AnalyzeTableStats(const ParsedStatement& parsed);

  RowDataset ExecuteInternal(const PlanPtr& analyzed_plan,
                             const QueryOptions& options,
                             QueryContextPtr* out_query);

  ExecContext exec_;
  Catalog catalog_;
  FunctionRegistry functions_;
  Analyzer analyzer_;
  std::unique_ptr<Optimizer> optimizer_;
  CacheManager cache_;
  mutable std::mutex last_query_mu_;
  QueryContextPtr last_query_;  // most recently admitted query
};

}  // namespace ssql

#endif  // SSQL_API_SQL_CONTEXT_H_
