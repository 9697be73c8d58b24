#include "engine/diagnostics.h"

#include <filesystem>
#include <sstream>

#include "engine/exec_context.h"
#include "util/log.h"
#include "util/trace.h"

namespace ssql {

namespace {

// One file inside the bundle; failures are logged and skipped so a full
// disk can never turn a diagnostics dump into a second failure.
void WriteBundleFile(const std::string& dir, const std::string& name,
                     const std::string& content) {
  if (content.empty()) return;
  try {
    WriteTextFile((std::filesystem::path(dir) / name).string(), content);
  } catch (const std::exception& e) {
    LogEvent(LogLevel::kWarn, "diag.file_failed",
             {{"file", name}, {"error", e.what()}});
  }
}

}  // namespace

std::string RenderEventsJsonl(const std::vector<EngineEvent>& events) {
  std::ostringstream out;
  for (const EngineEvent& event : events) {
    out << "{\"seq\":" << event.seq << ",\"unix_ms\":" << event.unix_ms
        << ",\"query_id\":" << event.query_id << ",\"kind\":\""
        << EngineEventKindName(event.kind) << "\",\"severity\":\""
        << EventSeverityName(event.severity) << "\",\"value\":" << event.value
        << ",\"detail\":\"" << JsonEscape(event.detail) << "\"}\n";
  }
  return out.str();
}

std::string RenderEngineConfig(const EngineConfig& config) {
  std::ostringstream out;
  out << "num_threads=" << config.num_threads << "\n"
      << "default_parallelism=" << config.default_parallelism << "\n"
      << "broadcast_threshold_bytes=" << config.broadcast_threshold_bytes
      << "\n"
      << "codegen_enabled=" << config.codegen_enabled << "\n"
      << "vectorized_enabled=" << config.vectorized_enabled << "\n"
      << "batch_size=" << config.batch_size << "\n"
      << "pushdown_enabled=" << config.pushdown_enabled << "\n"
      << "join_selection_enabled=" << config.join_selection_enabled << "\n"
      << "operator_fusion_enabled=" << config.operator_fusion_enabled << "\n"
      << "range_join_enabled=" << config.range_join_enabled << "\n"
      << "cbo_filter_selectivity=" << config.cbo_filter_selectivity << "\n"
      << "task_max_retries=" << config.task_max_retries << "\n"
      << "task_retry_backoff_ms=" << config.task_retry_backoff_ms << "\n"
      << "speculation_multiplier=" << config.speculation_multiplier << "\n"
      << "speculation_quantile=" << config.speculation_quantile << "\n"
      << "task_timeout_ms=" << config.task_timeout_ms << "\n"
      << "watchdog_interval_ms=" << config.watchdog_interval_ms << "\n"
      << "stuck_task_timeout_ms=" << config.stuck_task_timeout_ms << "\n"
      << "query_timeout_ms=" << config.query_timeout_ms << "\n"
      << "io_max_retries=" << config.io_max_retries << "\n"
      << "io_retry_backoff_ms=" << config.io_retry_backoff_ms << "\n"
      << "fault_injection_spec=" << config.fault_injection_spec << "\n"
      << "query_memory_limit_bytes=" << config.query_memory_limit_bytes << "\n"
      << "total_memory_limit_bytes=" << config.total_memory_limit_bytes << "\n"
      << "max_concurrent_queries=" << config.max_concurrent_queries << "\n"
      << "admission_timeout_ms=" << config.admission_timeout_ms << "\n"
      << "max_queued_queries=" << config.max_queued_queries << "\n"
      << "spill_disk_limit_bytes=" << config.spill_disk_limit_bytes << "\n"
      << "spill_enabled=" << config.spill_enabled << "\n"
      << "spill_dir=" << config.spill_dir << "\n"
      << "profiling_enabled=" << config.profiling_enabled << "\n"
      << "trace_path=" << config.trace_path << "\n"
      << "slow_query_threshold_ms=" << config.slow_query_threshold_ms << "\n"
      << "log_level=" << config.log_level << "\n"
      << "metrics_path=" << config.metrics_path << "\n"
      << "finished_query_retention=" << config.finished_query_retention << "\n"
      << "event_journal_capacity=" << config.event_journal_capacity << "\n"
      << "metrics_sample_interval_ms=" << config.metrics_sample_interval_ms
      << "\n"
      << "diag_dir=" << config.diag_dir << "\n"
      << "diag_on_failure=" << config.diag_on_failure << "\n";
  return out.str();
}

std::string WriteDiagnosticsBundle(const DiagBundleInput& input) {
  try {
    std::filesystem::create_directories(input.dir);
  } catch (const std::exception& e) {
    LogEvent(LogLevel::kWarn, "diag.bundle_failed",
             {{"dir", input.dir}, {"error", e.what()}});
    return "";
  }

  std::ostringstream manifest;
  manifest << "reason=" << input.reason << "\n"
           << "status=" << input.status << "\n"
           << "query_id=" << input.query_id << "\n"
           << "duration_ms=" << input.duration_ms << "\n"
           << "error_code="
           << (input.error_code.empty() ? "OK" : input.error_code) << "\n"
           << "events=" << input.events.size() << "\n";
  WriteBundleFile(input.dir, "MANIFEST.txt", manifest.str());
  WriteBundleFile(input.dir, "events.jsonl", RenderEventsJsonl(input.events));
  WriteBundleFile(input.dir, "profile.json", input.profile_json);
  WriteBundleFile(input.dir, "plan.txt", input.plan_text);
  WriteBundleFile(input.dir, "metrics.prom", input.metrics_text);
  WriteBundleFile(input.dir, "config.txt", input.config_text);
  WriteBundleFile(input.dir, "error.txt", input.error);
  LogEvent(LogLevel::kInfo, "diag.bundle_written",
           {{"dir", input.dir},
            {"reason", input.reason},
            {"query", input.query_id}});
  return input.dir;
}

}  // namespace ssql
