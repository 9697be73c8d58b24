// Closed-loop benchmark client: one client thread, no think time, sending
// its next request only after the previous one returned and was checked.
//
//   perfbench_client --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --dir <private scratch dir> [--trace-out <file.json>]
//
// Workloads (a request is one unit of homogeneous cost on each):
//   amplab_colf        Figure 8's Q1, Q2 and Q3 back to back over uncached
//                      colf files: colf decode, exchange, joins, aggregate
//                      and sort/limit on the row path do the work.
//   cached_interactive 8 parameterized scan->filter->aggregate queries
//                      over a table in the columnar cache: the batched
//                      path plus the fixed per-query costs (parse,
//                      Catalyst, admission, bookkeeping).
//   etl_spill          one ETL job reading CSV, joining, aggregating and
//                      sorting under a memory budget smaller than its
//                      input, saving colf and reading it back: the only
//                      workload that spills or writes.
//
// The seed drives all data generation and every query constant; the engine
// receives only the generated inputs. Every answer is compared with one
// computed independently by native loops over the generated data.
//
// With --trace 0 the run measures the end-to-end metrics. With --trace 1
// every second request records spans around each public engine call it
// makes (ParseSql, SqlContext::Analyze, SqlContext::Execute, DataFrame::Save,
// SqlContext::ReadColf) and beneath them the engine's profile phases and
// operators; the run reports per-layer self times and profile counts of the
// traced requests, and the tracing overhead as the traced minus the
// untraced median request time.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is 0 only when every request succeeded with the
// right answer.

#include <sys/resource.h>
#include <sys/stat.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/sql_context.h"
#include "datasources/colf_format.h"
#include "sql/parser.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using ssql::DataFrame;
using ssql::DataType;
using ssql::Field;
using ssql::Row;
using ssql::SqlContext;
using ssql::StructType;
using ssql::Value;

constexpr double kMiB = 1024.0 * 1024.0;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void MakeDir(const std::string& path) {
  if (mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create " + path + ": " +
                             std::strerror(errno));
  }
}

/// Process CPU over all threads.
struct CpuNs {
  int64_t user = 0;
  int64_t sys = 0;
};
CpuNs ProcessCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return CpuNs{ns(ru.ru_utime), ns(ru.ru_stime)};
}

/// Starts a new resident-set high-water mark (Linux clear_refs "5"); false
/// when the kernel refuses, in which case the lifetime peak is reported.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// Resident-set high-water mark in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

// ---------------------------------------------------------------------------
// Engine calls. Untraced, these are exactly the public calls a user makes;
// traced, each is wrapped in a span and the finished query's profile is
// read back beneath it.

/// Profile counts summed over the traced requests.
struct ProfileCounts {
  int64_t rule_invocations = 0;
  int64_t task_attempts = 0;
  int64_t task_retries = 0;
  int64_t spill_bytes = 0;
  int64_t spill_files = 0;
  int64_t peak_reserved_bytes = 0;  // per-request maxima, summed
  int64_t shuffle_rows = 0;
  int64_t broadcast_rows = 0;
  int64_t build_rows = 0;
  int64_t probe_rows = 0;
  int64_t rows_scanned = 0;
  int64_t rows_returned = 0;
};

/// Which layer an operator's self time belongs to.
std::string OperatorLayer(const std::string& op) {
  auto has = [&](const char* s) { return op.find(s) != std::string::npos; };
  if (has("Join")) return "exec.join";
  if (has("Aggregate")) return "exec.aggregate";
  if (has("Exchange") || has("Coalesce")) return "exec.exchange";
  if (has("Sort") || has("Limit")) return "exec.sort_limit";
  if (has("Filter") || has("Project")) return "exec.filter_project";
  if (has("Scan") || has("InMemoryRelation")) return "exec.scan";
  return "exec.other";
}

class Engine {
 public:
  Engine(SqlContext& ctx, Trace* trace, ProfileCounts* counts)
      : ctx_(ctx), trace_(trace), counts_(counts) {}

  /// Opens a request; everything until EndRequest belongs to it.
  void BeginRequest() {
    request_peak_ = 0;
    if (trace_ != nullptr) {
      request_first_ = trace_->spans().size();
      request_span_ = trace_->Begin("request", "engine.unattributed", -1);
    }
  }
  /// Closes the request and returns its wall time split by layer (empty
  /// when untraced).
  std::map<std::string, int64_t> EndRequest() {
    if (trace_ == nullptr) return {};
    trace_->End(request_span_);
    counts_->peak_reserved_bytes += request_peak_;
    return trace_->LayerSelfNs(request_first_);
  }
  int64_t request_wall_ns() const {
    const Span& s = trace_->spans()[request_span_];
    return s.end_ns - s.start_ns;
  }

  /// ParseSql -> SqlContext::Analyze -> SqlContext::Execute, collected.
  std::vector<Row> Query(const std::string& sql) {
    ssql::PlanPtr analyzed;
    {
      ssql::PlanPtr parsed = Parse(sql);
      Scope s(this, "SqlContext::Analyze", "catalyst.analyze");
      analyzed = ctx_.Analyze(parsed);
    }
    std::vector<Row> rows;
    Scope s(this, "SqlContext::Execute", "engine.unattributed");
    rows = ctx_.Execute(analyzed).Collect();
    s.Close();
    RecordLastProfile(s.span);
    return rows;
  }

  /// Runs `sql` and writes its result with DataFrame::Save("colf").
  void SaveColf(const std::string& sql, const std::string& path) {
    std::unique_ptr<DataFrame> df;
    {
      ssql::PlanPtr parsed = Parse(sql);
      Scope s(this, "SqlContext::Analyze", "catalyst.analyze");
      df = std::make_unique<DataFrame>(&ctx_, parsed);  // analyzes eagerly
    }
    Scope s(this, "DataFrame::Save", "datasources.save");
    df->Save("colf", {{"path", path}});
    s.Close();
    if (trace_ != nullptr) {
      // The query Save ran sits beneath it; the rest of Save is the write.
      const ssql::ProfileSpan* root = ctx_.last_profile().root();
      int q = trace_->Add("SqlContext::Execute", "engine.unattributed",
                          s.span, root->start_ns, root->end_ns.load());
      RecordLastProfile(q);
    }
  }

  /// SqlContext::ReadColf, then the full scan collected.
  std::vector<Row> ReadColf(const std::string& path) {
    std::unique_ptr<DataFrame> df;
    {
      Scope s(this, "SqlContext::ReadColf", "datasources.open");
      df = std::make_unique<DataFrame>(ctx_.ReadColf(path));
    }
    Scope s(this, "SqlContext::Execute", "engine.unattributed");
    std::vector<Row> rows = df->Collect();
    s.Close();
    RecordLastProfile(s.span);
    return rows;
  }

 private:
  /// A span around one call; a no-op when untraced.
  struct Scope {
    Scope(Engine* e, const char* name, const char* layer) : trace(e->trace_) {
      if (trace != nullptr) span = trace->Begin(name, layer, e->request_span_);
    }
    void Close() {
      if (trace != nullptr && !closed) trace->End(span);
      closed = true;
    }
    ~Scope() { Close(); }
    Trace* trace;
    int span = -1;
    bool closed = false;
  };

  ssql::PlanPtr Parse(const std::string& sql) {
    Scope s(this, "ParseSql", "sql.parse");
    ssql::ParsedStatement parsed = ssql::ParseSql(sql);
    if (parsed.kind != ssql::ParsedStatement::Kind::kQuery) {
      throw std::logic_error("benchmark statement is not a query: " + sql);
    }
    return parsed.plan;
  }

  /// Adds the last query's profile phases and operators beneath `under`
  /// and folds its counters into the run's counts.
  void RecordLastProfile(int under) {
    if (trace_ == nullptr) return;
    // Reading the profile is the tracer's own cost; it gets a span of its
    // own so it never passes for engine time.
    const int64_t read_start = NowNs();
    const ssql::QueryProfile& profile = ctx_.last_profile();
    const ssql::ProfileSpan* root = profile.root();
    if (root == nullptr) return;

    // Phase spans hang off the root; operator start times come from the
    // same tree (OperatorActuals carries wall times but no start).
    std::unordered_map<uint32_t, int> phase_span;
    std::unordered_map<uint32_t, std::pair<int64_t, uint32_t>> op_start;
    std::function<void(const ssql::ProfileSpan*, uint32_t)> walk =
        [&](const ssql::ProfileSpan* span, uint32_t phase) {
          for (const ssql::ProfileSpan* child : span->children) {
            if (child->kind == ssql::SpanKind::kPhase) {
              const std::string layer =
                  child->name == "optimize"   ? "catalyst.optimize"
                  : child->name == "planning" ? "catalyst.plan"
                                              : "engine.unattributed";
              phase_span[child->id] =
                  trace_->Add(child->name, layer, under, child->start_ns,
                              child->end_ns.load());
              walk(child, child->id);
            } else if (child->kind == ssql::SpanKind::kOperator) {
              op_start[child->id] = {child->start_ns, phase};
              walk(child, phase);
            }
          }
        };
    walk(root, 0);

    std::unordered_map<uint32_t, int> op_span;
    for (const auto& op : profile.OperatorActuals()) {
      auto [start_ns, phase] = op_start.at(op.id);
      int parent = under;
      if (op.parent_id != 0) {
        parent = op_span.at(op.parent_id);
      } else if (auto it = phase_span.find(phase); it != phase_span.end()) {
        parent = it->second;
      }
      op_span[op.id] = trace_->Add(op.name, OperatorLayer(op.name), parent,
                                   start_ns, start_ns + op.wall_ns);
    }

    using C = ssql::ProfileCounter;
    for (const auto& [rule, stat] : profile.rule_stats()) {
      counts_->rule_invocations += stat.invocations;
    }
    counts_->task_attempts += profile.Total(C::kAttempts);
    counts_->task_retries += profile.Total(C::kRetries);
    counts_->spill_bytes += profile.Total(C::kSpillBytes);
    counts_->spill_files += profile.Total(C::kSpillFiles);
    counts_->shuffle_rows += profile.Total(C::kShuffleRows);
    counts_->broadcast_rows += profile.Total(C::kBroadcastRows);
    counts_->build_rows += profile.Total(C::kBuildRows);
    counts_->probe_rows += profile.Total(C::kProbeRows);
    counts_->rows_scanned += profile.Total(C::kRowsScanned);
    counts_->rows_returned += profile.Total(C::kRowsReturned);
    request_peak_ =
        std::max(request_peak_, profile.Total(C::kPeakReservedBytes));
    trace_->Add("read profile", "trace.read", request_span_, read_start,
                NowNs());
  }

  SqlContext& ctx_;
  Trace* trace_;
  ProfileCounts* counts_;
  size_t request_first_ = 0;
  int request_span_ = -1;
  int64_t request_peak_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Input sizes, for the report.
  virtual std::string Describe() const = 0;
  virtual void Configure(ssql::EngineConfig&) const {}
  /// Everything before the first request: generate the inputs from `seed`,
  /// write them under `dir`, load them into `ctx`.
  virtual void Setup(uint64_t seed, SqlContext& ctx,
                     const std::string& dir) = 0;
  /// Expected answers, computed natively from the generated data.
  virtual void PrepareOracle() {}
  /// Input rows one request processes.
  virtual int64_t InputRowsPerRequest() const = 0;
  virtual void Run(Engine& engine, std::mt19937_64& rng) = 0;
  /// "" when the last request's outputs are right, else what was wrong.
  virtual std::string Verify() const = 0;
  /// Frees the last request's outputs, outside the timed window.
  virtual void Release() = 0;
  /// Wall time of the columnar cache build in the last Setup.
  virtual double cache_build_s() const { return 0; }
};

// ---- amplab_colf ----------------------------------------------------------

class AmplabColf : public Workload {
 public:
  static constexpr size_t kRankings = 20000;
  static constexpr size_t kUserVisits = 60000;
  static constexpr int kQ1Cutoff = 5000;
  static constexpr int kQ2Prefix = 8;
  static constexpr const char* kQ3Until = "1983-01-01";

  std::string Describe() const override {
    return "rankings " + std::to_string(kRankings) + " rows, uservisits " +
           std::to_string(kUserVisits) + " rows, uncached colf files";
  }

  void Configure(ssql::EngineConfig& config) const override {
    config.broadcast_threshold_bytes = 4ull * 1024 * 1024;  // Figure 8
  }

  void Setup(uint64_t seed, SqlContext& ctx, const std::string& dir) override {
    Generate(seed);
    std::vector<Row> rankings;
    rankings.reserve(kRankings);
    for (size_t i = 0; i < kRankings; ++i) {
      rankings.push_back(
          Row({Value(url_[i]), Value(rank_[i]), Value(duration_[i])}));
    }
    std::vector<Row> visits;
    visits.reserve(kUserVisits);
    for (size_t i = 0; i < kUserVisits; ++i) {
      visits.push_back(Row({Value(ip_[i]), Value(dest_[i]),
                            Value(ssql::DateValue{day_[i]}),
                            Value(revenue_[i])}));
    }
    const std::string rankings_path = dir + "/rankings.colf";
    const std::string visits_path = dir + "/uservisits.colf";
    ssql::WriteColfFile(
        rankings_path,
        StructType::Make({Field("pageURL", DataType::String(), false),
                          Field("pageRank", DataType::Int32(), false),
                          Field("avgDuration", DataType::Int32(), false)}),
        rankings);
    ssql::WriteColfFile(
        visits_path,
        StructType::Make({Field("sourceIP", DataType::String(), false),
                          Field("destURL", DataType::String(), false),
                          Field("visitDate", DataType::Date(), false),
                          Field("adRevenue", DataType::Double(), false)}),
        visits);
    ctx.ReadColf(rankings_path).RegisterTempTable("rankings");
    ctx.ReadColf(visits_path).RegisterTempTable("uservisits");
  }

  void PrepareOracle() override {
    q1_rows_ = 0;
    q1_sum_ = 0;
    for (size_t i = 0; i < kRankings; ++i) {
      if (rank_[i] > kQ1Cutoff) {
        ++q1_rows_;
        q1_sum_ += RowHash(url_[i], rank_[i]);
      }
    }
    q2_.clear();
    for (size_t i = 0; i < kUserVisits; ++i) {
      q2_[ip_[i].substr(0, kQ2Prefix)] += revenue_[i];
    }
    ssql::DateValue lo;
    ssql::DateValue hi;
    ssql::ParseDate("1980-01-01", &lo);
    ssql::ParseDate(kQ3Until, &hi);
    std::unordered_map<std::string, int32_t> rank_of;
    for (size_t i = 0; i < kRankings; ++i) rank_of[url_[i]] = rank_[i];
    q3_.clear();
    for (size_t i = 0; i < kUserVisits; ++i) {
      if (day_[i] < lo.days || day_[i] > hi.days) continue;
      auto it = rank_of.find(dest_[i]);
      if (it == rank_of.end()) continue;
      Q3Acc& acc = q3_[ip_[i]];
      acc.revenue += revenue_[i];
      acc.rank_sum += it->second;
      acc.count += 1;
    }
    q3_best_ = 0;
    for (const auto& [ip, acc] : q3_) {
      q3_best_ = std::max(q3_best_, acc.revenue);
    }
  }

  int64_t InputRowsPerRequest() const override {
    // Q1 scans rankings, Q2 uservisits, Q3 both.
    return static_cast<int64_t>(2 * kRankings + 2 * kUserVisits);
  }

  void Run(Engine& engine, std::mt19937_64&) override {
    q1_out_ = engine.Query(
        "SELECT pageURL, pageRank FROM rankings WHERE pageRank > " +
        std::to_string(kQ1Cutoff));
    const std::string prefix = std::to_string(kQ2Prefix);
    q2_out_ = engine.Query("SELECT substr(sourceIP, 1, " + prefix +
                           "), sum(adRevenue) FROM uservisits GROUP BY "
                           "substr(sourceIP, 1, " + prefix + ")");
    q3_out_ = engine.Query(
        "SELECT sourceIP, sum(adRevenue) AS totalRevenue, avg(pageRank) AS "
        "avgPageRank FROM rankings JOIN uservisits ON pageURL = destURL "
        "WHERE visitDate BETWEEN '1980-01-01' AND '" +
        std::string(kQ3Until) +
        "' GROUP BY sourceIP ORDER BY totalRevenue DESC LIMIT 1");
  }

  void Release() override {
    q1_out_.clear();
    q2_out_.clear();
    q3_out_.clear();
  }

  std::string Verify() const override {
    uint64_t sum = 0;
    for (const Row& r : q1_out_) sum += RowHash(r.GetString(0), r.GetInt32(1));
    if (q1_out_.size() != q1_rows_ || sum != q1_sum_) {
      return "q1: " + std::to_string(q1_out_.size()) + " rows, expected " +
             std::to_string(q1_rows_) + " (or wrong rows)";
    }
    if (q2_out_.size() != q2_.size()) {
      return "q2: " + std::to_string(q2_out_.size()) + " groups, expected " +
             std::to_string(q2_.size());
    }
    for (const Row& r : q2_out_) {
      auto it = q2_.find(r.GetString(0));
      if (it == q2_.end() || !Near(r.Get(1).AsDouble(), it->second)) {
        return "q2: wrong sum for group '" + r.GetString(0) + "'";
      }
    }
    if (q3_out_.size() != 1) return "q3: expected one row";
    const Row& top = q3_out_[0];
    auto it = q3_.find(top.GetString(0));
    if (it == q3_.end()) return "q3: unknown sourceIP " + top.GetString(0);
    const Q3Acc& acc = it->second;
    if (!Near(top.Get(1).AsDouble(), acc.revenue) ||
        !Near(acc.revenue, q3_best_) ||
        !Near(top.Get(2).AsDouble(),
              acc.rank_sum / static_cast<double>(acc.count))) {
      return "q3: wrong top sourceIP or aggregates";
    }
    return "";
  }

 private:
  struct Q3Acc {
    double revenue = 0;
    double rank_sum = 0;
    int64_t count = 0;
  };

  static uint64_t RowHash(const std::string& url, int32_t rank) {
    return std::hash<std::string>()(url) * 31 + static_cast<uint64_t>(rank);
  }

  void Generate(uint64_t seed) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
    url_.resize(kRankings);
    rank_.resize(kRankings);
    duration_.resize(kRankings);
    for (size_t i = 0; i < kRankings; ++i) {
      url_[i] = "url" + std::to_string(i);
      // Skewed ranks, as in the AMPLab data: most low, few high.
      const double u = std::uniform_real_distribution<>(0, 1)(rng);
      rank_[i] = static_cast<int32_t>(10000 * u * u * u);
      duration_[i] = static_cast<int32_t>(rng() % 100);
    }
    ssql::DateValue first;
    ssql::DateValue last;
    ssql::ParseDate("1980-01-01", &first);
    ssql::ParseDate("2010-01-01", &last);
    ip_.resize(kUserVisits);
    dest_.resize(kUserVisits);
    day_.resize(kUserVisits);
    revenue_.resize(kUserVisits);
    for (size_t i = 0; i < kUserVisits; ++i) {
      ip_[i] = std::to_string(rng() % 256) + "." + std::to_string(rng() % 256) +
               "." + std::to_string(rng() % 256) + "." +
               std::to_string(rng() % 256);
      dest_[i] = url_[rng() % kRankings];
      day_[i] = first.days +
                static_cast<int32_t>(rng() % (last.days - first.days));
      revenue_[i] = std::uniform_real_distribution<>(0, 1000)(rng);
    }
  }

  std::vector<std::string> url_;
  std::vector<int32_t> rank_;
  std::vector<int32_t> duration_;
  std::vector<std::string> ip_;
  std::vector<std::string> dest_;
  std::vector<int32_t> day_;
  std::vector<double> revenue_;

  size_t q1_rows_ = 0;
  uint64_t q1_sum_ = 0;
  std::unordered_map<std::string, double> q2_;
  std::unordered_map<std::string, Q3Acc> q3_;
  double q3_best_ = 0;

  std::vector<Row> q1_out_;
  std::vector<Row> q2_out_;
  std::vector<Row> q3_out_;
};

// ---- cached_interactive ---------------------------------------------------

class CachedInteractive : public Workload {
 public:
  static constexpr size_t kRows = 100000;
  static constexpr int kRegions = 8;
  static constexpr int kItems = 10000;
  static constexpr int kItemWindow = 1000;  // ~10% of items per query
  /// One request is a dashboard refresh of this many short queries: each
  /// query keeps its fixed per-query costs, while the request is long
  /// enough that a descheduled core does not dominate its tail latency
  /// (single 6 ms queries over 50k rows spread 30% at p90 run to run).
  static constexpr size_t kQueriesPerRequest = 8;

  std::string Describe() const override {
    return "sales " + std::to_string(kRows) + " rows in the columnar cache, " +
           std::to_string(kQueriesPerRequest) + " queries per request";
  }

  void Setup(uint64_t seed, SqlContext& ctx, const std::string&) override {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 2);
    region_.resize(kRows);
    item_.resize(kRows);
    qty_.resize(kRows);
    cents_.resize(kRows);
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      region_[i] = static_cast<int>(rng() % kRegions);
      item_[i] = static_cast<int32_t>(rng() % kItems);
      qty_[i] = 1 + static_cast<int32_t>(rng() % 20);
      cents_[i] = 100 + static_cast<int32_t>(rng() % 100000);
      rows.push_back(Row({Value(RegionName(region_[i])), Value(item_[i]),
                          Value(qty_[i]), Value(cents_[i])}));
    }
    DataFrame sales = ctx.CreateDataFrame(
        StructType::Make({Field("s_region", DataType::String(), false),
                          Field("s_item", DataType::Int32(), false),
                          Field("s_qty", DataType::Int32(), false),
                          Field("s_cents", DataType::Int32(), false)}),
        std::move(rows));
    sales.RegisterTempTable("sales");
    const int64_t start = NowNs();
    sales.Cache();
    cache_build_s_ = Seconds(NowNs() - start);
  }

  int64_t InputRowsPerRequest() const override {
    return static_cast<int64_t>(kQueriesPerRequest * kRows);
  }

  void Run(Engine& engine, std::mt19937_64& rng) override {
    for (Query& q : queries_) {
      q.item_lo = static_cast<int32_t>(rng() % (kItems - kItemWindow));
      q.min_qty = 1 + static_cast<int32_t>(rng() % 10);
      q.out = engine.Query(
          "SELECT s_region, count(*), sum(s_qty), sum(s_cents) FROM sales "
          "WHERE s_item BETWEEN " + std::to_string(q.item_lo) + " AND " +
          std::to_string(q.item_lo + kItemWindow - 1) +
          " AND s_qty >= " + std::to_string(q.min_qty) +
          " GROUP BY s_region");
    }
  }

  void Release() override {
    for (Query& q : queries_) q.out.clear();
  }

  std::string Verify() const override {
    for (const Query& q : queries_) {
      std::string error = VerifyOne(q);
      if (!error.empty()) return error;
    }
    return "";
  }

  double cache_build_s() const override { return cache_build_s_; }

 private:
  struct Query {
    int32_t item_lo = 0;
    int32_t min_qty = 0;
    std::vector<Row> out;
  };

  static std::string RegionName(int r) { return "region-" + std::to_string(r); }

  std::string VerifyOne(const Query& q) const {
    struct Acc {
      int64_t count = 0;
      int64_t qty = 0;
      int64_t cents = 0;
    };
    std::map<std::string, Acc> want;
    for (size_t i = 0; i < kRows; ++i) {
      if (item_[i] < q.item_lo || item_[i] > q.item_lo + kItemWindow - 1 ||
          qty_[i] < q.min_qty) {
        continue;
      }
      Acc& acc = want[RegionName(region_[i])];
      acc.count += 1;
      acc.qty += qty_[i];
      acc.cents += cents_[i];
    }
    if (q.out.size() != want.size()) {
      return std::to_string(q.out.size()) + " groups, expected " +
             std::to_string(want.size());
    }
    for (const Row& r : q.out) {
      auto it = want.find(r.GetString(0));
      if (it == want.end() || r.Get(1).AsInt64() != it->second.count ||
          r.Get(2).AsInt64() != it->second.qty ||
          r.Get(3).AsInt64() != it->second.cents) {
        return "wrong aggregates for region '" + r.GetString(0) + "'";
      }
    }
    return "";
  }

  std::vector<int> region_;
  std::vector<int32_t> item_;
  std::vector<int32_t> qty_;
  std::vector<int32_t> cents_;
  double cache_build_s_ = 0;

  std::array<Query, kQueriesPerRequest> queries_;
};

// ---- etl_spill --------------------------------------------------------------

class EtlSpill : public Workload {
 public:
  static constexpr size_t kOrders = 100000;
  static constexpr size_t kCustomers = 10000;
  static constexpr int kSegments = 5;
  /// Small enough that the join, both aggregate stages and the sort all
  /// spill. Smaller budgets multiply the spill files, and with them the
  /// share of the request spent creating and deleting files, whose cost
  /// on a virtual machine's file system grows with sustained file churn.
  static constexpr int64_t kMemoryLimit = 1024 * 1024;

  std::string Describe() const override {
    return "orders " + std::to_string(kOrders) + " rows + customers " +
           std::to_string(kCustomers) + " rows as CSV (" +
           std::to_string(input_bytes_ / 1024) + " KiB), memory budget " +
           std::to_string(kMemoryLimit / 1024) + " KiB";
  }

  void Configure(ssql::EngineConfig& config) const override {
    config.query_memory_limit_bytes = kMemoryLimit;
    // The planner sizes the customers side by its CSV bytes, several times
    // below its in-memory size; a broadcast build cannot spill, so keep the
    // join a shuffle join that can.
    config.broadcast_threshold_bytes = 64 * 1024;
  }

  void Setup(uint64_t seed, SqlContext& ctx, const std::string& dir) override {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 3);
    cust_.resize(kOrders);
    cents_.resize(kOrders);
    segment_.resize(kCustomers);
    const std::string orders_path = dir + "/orders.csv";
    const std::string customers_path = dir + "/customers.csv";
    {
      std::ofstream out(orders_path);
      out << "o_id,o_cust,o_cents\n";
      for (size_t i = 0; i < kOrders; ++i) {
        cust_[i] = static_cast<int32_t>(rng() % kCustomers);
        cents_[i] = 100 + static_cast<int32_t>(rng() % 50000);
        out << i << ',' << cust_[i] << ',' << cents_[i] << '\n';
      }
      if (!out) throw std::runtime_error("cannot write " + orders_path);
      input_bytes_ = static_cast<int64_t>(out.tellp());
    }
    {
      std::ofstream out(customers_path);
      out << "c_id,c_segment,c_nation\n";
      for (size_t i = 0; i < kCustomers; ++i) {
        segment_[i] = static_cast<int>(rng() % kSegments);
        out << i << ',' << SegmentName(segment_[i]) << ',' << rng() % 25
            << '\n';
      }
      if (!out) throw std::runtime_error("cannot write " + customers_path);
      input_bytes_ += static_cast<int64_t>(out.tellp());
    }
    ctx.ReadCsv(orders_path, {{"schema", "o_id int, o_cust int, o_cents int"}})
        .RegisterTempTable("orders");
    ctx.ReadCsv(customers_path,
                {{"schema", "c_id int, c_segment string, c_nation int"}})
        .RegisterTempTable("customers");
    output_dir_ = dir;
  }

  void PrepareOracle() override {
    want_.assign(kCustomers, Acc{});
    for (size_t i = 0; i < kOrders; ++i) {
      want_[cust_[i]].total += cents_[i];
      want_[cust_[i]].orders += 1;
    }
    want_groups_ = 0;
    for (const Acc& a : want_) want_groups_ += a.orders > 0 ? 1 : 0;
  }

  int64_t InputRowsPerRequest() const override {
    return static_cast<int64_t>(kOrders + kCustomers);
  }

  void Run(Engine& engine, std::mt19937_64&) override {
    // Each job writes a new output, as a scheduled job writes a new
    // partition; Release deletes it.
    output_path_ =
        output_dir_ + "/etl_out-" + std::to_string(++jobs_) + ".colf";
    engine.SaveColf(
        "SELECT o_cust, c_segment, sum(o_cents) AS total, count(*) AS n "
        "FROM orders JOIN customers ON o_cust = c_id "
        "GROUP BY o_cust, c_segment ORDER BY total DESC, o_cust",
        output_path_);
    out_ = engine.ReadColf(output_path_);
  }

  void Release() override {
    out_.clear();
    std::remove(output_path_.c_str());
  }

  std::string Verify() const override {
    if (out_.size() != want_groups_) {
      return "read back " + std::to_string(out_.size()) + " rows, expected " +
             std::to_string(want_groups_);
    }
    for (size_t i = 0; i < out_.size(); ++i) {
      const Row& r = out_[i];
      const int64_t cust = r.Get(0).AsInt64();
      if (cust < 0 || cust >= static_cast<int64_t>(kCustomers)) {
        return "unknown customer " + std::to_string(cust);
      }
      const Acc& a = want_[cust];
      if (r.GetString(1) != SegmentName(segment_[cust]) ||
          r.Get(2).AsInt64() != a.total || r.Get(3).AsInt64() != a.orders) {
        return "wrong row for customer " + std::to_string(cust);
      }
      if (i > 0) {
        const int64_t prev_total = out_[i - 1].Get(2).AsInt64();
        const int64_t prev_cust = out_[i - 1].Get(0).AsInt64();
        if (prev_total < a.total ||
            (prev_total == a.total && prev_cust > cust)) {
          return "rows out of order at " + std::to_string(i);
        }
      }
    }
    return "";
  }

 private:
  struct Acc {
    int64_t total = 0;
    int64_t orders = 0;
  };

  static std::string SegmentName(int s) {
    static const char* kNames[kSegments] = {"AUTOMOBILE", "BUILDING",
                                            "FURNITURE", "HOUSEHOLD",
                                            "MACHINERY"};
    return kNames[s];
  }

  std::vector<int32_t> cust_;
  std::vector<int32_t> cents_;
  std::vector<int> segment_;
  int64_t input_bytes_ = 0;
  std::string output_dir_;
  std::string output_path_;
  int64_t jobs_ = 0;

  std::vector<Acc> want_;
  size_t want_groups_ = 0;
  std::vector<Row> out_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "amplab_colf") return std::make_unique<AmplabColf>();
  if (name == "cached_interactive") {
    return std::make_unique<CachedInteractive>();
  }
  if (name == "etl_spill") return std::make_unique<EtlSpill>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// The closed loop.

struct PhaseResult {
  std::vector<double> latency_ms;
  int64_t cpu_ns = 0;
  int64_t sys_ns = 0;
  int64_t busy_ns = 0;  // summed request wall time
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, int64_t> layer_ns;  // traced only
  int64_t unbalanced = 0;  // traced requests whose layers miss the wall time
  std::string first_error;
};

/// Sends requests back to back until `seconds` have passed (at least
/// `min_requests`), timing each and checking its answer outside the timed
/// window. With a trace, requests alternate between untraced (into `plain`)
/// and traced (into `traced`), so the tracing overhead is measured on the
/// same machine state.
void RunPhase(Workload& w, SqlContext& ctx, std::mt19937_64& rng,
              double seconds, int64_t min_requests, Trace* trace,
              ProfileCounts* counts, PhaseResult* plain,
              PhaseResult* traced) {
  Engine untraced_engine(ctx, nullptr, counts);
  Engine traced_engine(ctx, trace, counts);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int64_t done = 0; done < min_requests || NowNs() < deadline; ++done) {
    const bool traced_request = trace != nullptr && done % 2 == 1;
    Engine& engine = traced_request ? traced_engine : untraced_engine;
    PhaseResult* out = traced_request ? traced : plain;
    std::string error;
    engine.BeginRequest();
    const CpuNs cpu0 = ProcessCpu();
    const int64_t t0 = NowNs();
    try {
      w.Run(engine, rng);
    } catch (const std::exception& e) {
      error = std::string("request threw: ") + e.what();
    }
    const int64_t t1 = NowNs();
    const CpuNs cpu1 = ProcessCpu();
    if (traced_request) {
      const std::map<std::string, int64_t> layers = engine.EndRequest();
      int64_t sum = 0;
      for (const auto& [layer, ns] : layers) sum += ns;
      if (error.empty()) {
        for (const auto& [layer, ns] : layers) out->layer_ns[layer] += ns;
        if (sum != engine.request_wall_ns()) ++out->unbalanced;
      }
    }
    if (error.empty()) error = w.Verify();
    w.Release();
    out->latency_ms.push_back(Millis(t1 - t0));
    out->cpu_ns += (cpu1.user - cpu0.user) + (cpu1.sys - cpu0.sys);
    out->sys_ns += cpu1.sys - cpu0.sys;
    out->busy_ns += t1 - t0;
    ++out->attempted;
    if (!error.empty()) {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = error;
    }
  }
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

/// Set-up runs from scratch at least this often and until it has taken this
/// long in total (a short set-up repeats more), up to a cap; setup_s is the
/// median. The first set-up serves the requests.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 10;
constexpr double kMinSetupTotalS = 1.0;

std::string Num(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

int Main(const Options& opt) {
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  MakeDir(opt.dir);
  const std::string spill_dir = opt.dir + "/spill";
  MakeDir(spill_dir);

  ssql::EngineConfig config;
  config.num_threads = 2;  // leaves cores for the client and engine threads
  config.default_parallelism = 4;
  config.spill_dir = spill_dir;
  w->Configure(config);

  std::vector<double> setup_s;
  std::vector<double> cache_build_s;
  auto set_up = [&](int rep) {
    const std::string dir = opt.dir + "/setup" + std::to_string(rep);
    MakeDir(dir);
    const int64_t start = NowNs();
    auto ctx = std::make_unique<SqlContext>(config);
    w->Setup(opt.seed, *ctx, dir);
    setup_s.push_back(Seconds(NowNs() - start));
    cache_build_s.push_back(w->cache_build_s());
    return ctx;
  };
  std::unique_ptr<SqlContext> ctx = set_up(0);
  w->PrepareOracle();

  std::mt19937_64 rng(opt.seed * 0x2545F4914F6CDD1Dull + 7);
  ProfileCounts counts;
  // Warm-up: lazy set-up and caches settle before timing; answers checked.
  PhaseResult warmup;
  RunPhase(*w, *ctx, rng, 0, 2, nullptr, &counts, &warmup, nullptr);

  const bool rss_reset = ResetPeakRss();
  PhaseResult plain;
  PhaseResult traced;
  Trace trace;
  RunPhase(*w, *ctx, rng, opt.seconds, 2, opt.trace ? &trace : nullptr,
           &counts, &plain, &traced);
  const double peak_rss_mb = PeakRssMb();
  const double cache_mb =
      static_cast<double>(ctx->cache_manager().TotalMemoryBytes()) / kMiB;

  // More set-ups from scratch, after the timed phase so that memory a
  // discarded context leaves behind never counts toward peak RSS.
  ctx.reset();
  double setup_total_s = setup_s[0];
  for (int rep = 1; rep < kMaxSetups &&
                    (rep < kMinSetups || setup_total_s < kMinSetupTotalS);
       ++rep) {
    set_up(rep).reset();
    setup_total_s += setup_s.back();
  }

  const int64_t attempted =
      warmup.attempted + plain.attempted + traced.attempted;
  const int64_t failed = warmup.failed + plain.failed + traced.failed;
  const bool correct = failed == 0;
  const PhaseResult& main_phase = opt.trace ? traced : plain;
  const size_t n = main_phase.latency_ms.size();
  const int tail_pct = SupportedTailPercentile(n);

  std::cout << "workload " << opt.workload << " seed " << opt.seed << ": "
            << w->Describe() << "\n";
  std::cout << "closed loop, 1 client, engine num_threads=2 "
               "default_parallelism=4; "
            << n << " timed requests, tail percentile p" << tail_pct
            << " (>= 10 samples above it)\n";
  std::cout << "error_rate " << ErrorRate(failed, attempted) << " (" << failed
            << " of " << attempted << " requests incl. 2 warm-up)";
  for (const PhaseResult* p : {&warmup, &plain, &traced}) {
    if (!p->first_error.empty()) {
      std::cout << "; first error: " << p->first_error;
    }
  }
  std::cout << "\n";
  std::cout << "cpu per request "
            << Millis(main_phase.cpu_ns) / static_cast<double>(n) << " ms, "
            << 100.0 * static_cast<double>(main_phase.sys_ns) /
                   static_cast<double>(std::max<int64_t>(1, main_phase.cpu_ns))
            << "% of it system time\n";
  if (!rss_reset) std::cout << "peak RSS is the process lifetime peak\n";

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  auto put = [&](const std::string& name, double value,
                 const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  };
  if (!opt.trace) {
    put("latency_p50_ms", Percentile(plain.latency_ms, 50), "ms");
    put("latency_p90_ms", Percentile(plain.latency_ms, tail_pct), "ms");
    put("rows_per_s",
        static_cast<double>(w->InputRowsPerRequest()) *
            static_cast<double>(plain.attempted) / Seconds(plain.busy_ns),
        "1/s");
    put("cpu_ms_per_request",
        Millis(plain.cpu_ns) / static_cast<double>(plain.attempted), "ms");
    put("peak_rss_mb", peak_rss_mb, "MiB");
    put("setup_s", Median(setup_s), "s");
    put("success_rate", 1.0 - ErrorRate(failed, attempted), "ratio");
  } else {
    const double reqs = static_cast<double>(traced.attempted);
    auto layer_ms = [&](const std::string& layer) {
      auto it = traced.layer_ns.find(layer);
      return it == traced.layer_ns.end() ? 0.0 : Millis(it->second) / reqs;
    };
    auto per_req = [&](int64_t v) { return static_cast<double>(v) / reqs; };
    put("sql.parse_ms", layer_ms("sql.parse"), "ms");
    put("catalyst.analyze_ms", layer_ms("catalyst.analyze"), "ms");
    put("catalyst.optimize_ms", layer_ms("catalyst.optimize"), "ms");
    put("catalyst.plan_ms", layer_ms("catalyst.plan"), "ms");
    put("catalyst.rule_invocations", per_req(counts.rule_invocations), "count");
    put("engine.unattributed_ms", layer_ms("engine.unattributed"), "ms");
    put("engine.task_attempts", per_req(counts.task_attempts), "count");
    put("engine.retry_ratio",
        counts.task_attempts == 0
            ? 0.0
            : static_cast<double>(counts.task_retries) /
                  static_cast<double>(counts.task_attempts),
        "ratio");
    put("engine.spill_bytes", per_req(counts.spill_bytes), "bytes");
    put("engine.spill_files", per_req(counts.spill_files), "count");
    put("engine.peak_reserved_mb", per_req(counts.peak_reserved_bytes) / kMiB,
        "MiB");
    for (const char* family : {"scan", "filter_project", "aggregate", "join",
                               "exchange", "sort_limit", "other"}) {
      put(std::string("exec.") + family + ".self_ms",
          layer_ms(std::string("exec.") + family), "ms");
    }
    put("exec.shuffle_rows", per_req(counts.shuffle_rows), "count");
    put("exec.broadcast_rows", per_req(counts.broadcast_rows), "count");
    put("exec.build_rows", per_req(counts.build_rows), "count");
    put("exec.probe_rows", per_req(counts.probe_rows), "count");
    put("datasources.rows_scanned", per_req(counts.rows_scanned), "count");
    put("datasources.pushdown_ratio",
        counts.rows_scanned == 0
            ? 0.0
            : static_cast<double>(counts.rows_returned) /
                  static_cast<double>(counts.rows_scanned),
        "ratio");
    put("datasources.save_ms", layer_ms("datasources.save"), "ms");
    put("datasources.open_ms", layer_ms("datasources.open"), "ms");
    put("columnar.cache_build_s", Median(cache_build_s), "s");
    put("columnar.cache_mb", cache_mb, "MiB");
    const double plain_p50 = Percentile(plain.latency_ms, 50);
    const double traced_p50 = Percentile(traced.latency_ms, 50);
    put("trace.read_ms", layer_ms("trace.read"), "ms");
    put("trace.request_p50_ms", traced_p50, "ms");
    put("trace.overhead_ms", traced_p50 - plain_p50, "ms");
    put("trace.overhead_pct", 100.0 * (traced_p50 - plain_p50) / plain_p50,
        "%");
    put("trace.unbalanced_requests", static_cast<double>(traced.unbalanced),
        "count");

    std::cout << "traced " << traced.attempted << " requests interleaved with "
              << plain.attempted << " untraced; median request "
              << traced_p50 << " ms traced vs " << plain_p50
              << " ms untraced\n";
    std::cout << "per-request self time by layer (ms), summing to the "
                 "request wall time:\n";
    for (const auto& [layer, ns] : traced.layer_ns) {
      std::cout << "  " << layer << " " << Millis(ns) / reqs << "\n";
    }
    if (!opt.trace_out.empty()) {
      if (trace.WriteChromeJson(opt.trace_out)) {
        std::cout << "chrome trace: " << opt.trace_out << "\n";
      } else {
        std::cout << "could not write chrome trace " << opt.trace_out << "\n";
      }
    }
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].first
         << "\": {\"value\": " << Num(metrics[i].second.first)
         << ", \"unit\": \"" << metrics[i].second.second << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--dir") {
      opt.dir = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return 2;
    }
  }
  if (opt.workload.empty() || opt.dir.empty() || opt.seconds <= 0) {
    std::cerr << "usage: perfbench_client --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --dir <scratch> "
                 "[--trace-out <file>]\n";
    return 2;
  }
  try {
    return perfbench::Main(opt);
  } catch (const std::exception& e) {
    std::cerr << "benchmark failed: " << e.what() << "\n";
    return 1;
  }
}
