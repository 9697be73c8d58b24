#include "exec/scan_exec.h"

#include "util/string_util.h"

namespace ssql {

BoundCompiled BindAndCompile(const ExprPtr& expr, const AttributeVector& input,
                             bool codegen_enabled) {
  ExprPtr bound = BindReferences(expr, input);
  return {bound, CompiledExpression::Compile(bound, codegen_enabled)};
}

RowDataset LocalTableScanExec::ExecuteImpl(QueryContext& ctx) const {
  return rows_->Partitioned(ctx.config().default_parallelism);
}

DataSourceScanExec::DataSourceScanExec(std::shared_ptr<SourceRelation> source,
                                       AttributeVector full_output,
                                       std::vector<int> required_columns,
                                       ExprVector pushed_filters)
    : source_(std::move(source)),
      full_output_(std::move(full_output)),
      required_columns_(std::move(required_columns)),
      pushed_filters_(std::move(pushed_filters)) {}

AttributeVector DataSourceScanExec::Output() const {
  AttributeVector out;
  out.reserve(required_columns_.size());
  for (int i : required_columns_) out.push_back(full_output_[i]);
  return out;
}

RowDataset DataSourceScanExec::ExecuteImpl(QueryContext& ctx) const {
  if (dynamic_cast<const BatchedScan*>(source_.get()) != nullptr) {
    return ExecuteBatchesImpl(ctx).ToRowDataset(ctx);
  }
  std::vector<Row> rows;
  bool need_recheck = false;

  // Translate pushed filters to FilterSpecs where possible.
  std::vector<FilterSpec> specs;
  bool all_translated = true;
  for (const auto& f : pushed_filters_) {
    auto spec = TranslateFilter(*f);
    if (spec.has_value()) {
      specs.push_back(std::move(*spec));
    } else {
      all_translated = false;
    }
  }

  const auto* pruned_filtered = dynamic_cast<const PrunedFilteredScan*>(source_.get());
  const auto* catalyst_scan = dynamic_cast<const CatalystScan*>(source_.get());
  const auto* pruned = dynamic_cast<const PrunedScan*>(source_.get());
  const auto* table_scan = dynamic_cast<const TableScan*>(source_.get());

  if (catalyst_scan != nullptr && (!all_translated || pruned_filtered == nullptr)) {
    // Most capable interface: ship the bound expression trees.
    ExprVector bound;
    bound.reserve(pushed_filters_.size());
    for (const auto& f : pushed_filters_) {
      bound.push_back(BindReferences(f, full_output_));
    }
    rows = catalyst_scan->ScanCatalyst(ctx, required_columns_, bound);
  } else if (pruned_filtered != nullptr && all_translated) {
    rows = pruned_filtered->ScanFiltered(ctx, required_columns_, specs);
    need_recheck = !pruned_filtered->FiltersAreExact();
  } else if (pruned != nullptr) {
    rows = pruned->ScanColumns(ctx, required_columns_);
    need_recheck = !pushed_filters_.empty();
  } else if (table_scan != nullptr) {
    std::vector<Row> full = table_scan->ScanAll(ctx);
    rows.reserve(full.size());
    for (Row& row : full) {
      Row projected;
      projected.Reserve(required_columns_.size());
      for (int c : required_columns_) projected.Append(row.Get(c));
      rows.push_back(std::move(projected));
    }
    need_recheck = !pushed_filters_.empty();
  } else {
    throw ExecutionError("data source " + source_->name() +
                         " implements no scan interface");
  }

  if (need_recheck && !pushed_filters_.empty()) {
    // Filters were advisory (or not pushable after all): re-check against
    // the *output* attribute layout.
    AttributeVector out_attrs = Output();
    ExprVector bound;
    for (const auto& f : pushed_filters_) {
      bound.push_back(BindReferences(f, out_attrs));
    }
    std::vector<Row> kept;
    kept.reserve(rows.size());
    size_t cancel_check = 0;
    for (Row& row : rows) {
      ctx.CheckCancelledEvery(&cancel_check);
      bool pass = true;
      for (const auto& p : bound) {
        if (!EvalPredicate(*p, row)) {
          pass = false;
          break;
        }
      }
      if (pass) kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }

  return RowDataset::FromRows(std::move(rows), ctx.config().default_parallelism);
}

bool DataSourceScanExec::ProducesBatches(const EngineConfig& config) const {
  return config.vectorized_enabled &&
         dynamic_cast<const BatchedScan*>(source_.get()) != nullptr;
}

BatchDataset DataSourceScanExec::ExecuteBatchesImpl(QueryContext& ctx) const {
  const auto& batched = dynamic_cast<const BatchedScan&>(*source_);
  // A BatchedScan source accepts only translatable filters (see
  // BaseRelation::CanHandleFilter) and evaluates them exactly.
  std::vector<FilterSpec> specs;
  specs.reserve(pushed_filters_.size());
  for (const auto& f : pushed_filters_) {
    auto spec = TranslateFilter(*f);
    if (!spec.has_value()) {
      throw ExecutionError(source_->name() + " cannot evaluate pushed filter " +
                           f->ToString());
    }
    specs.push_back(std::move(*spec));
  }
  return batched.ScanBatches(ctx, required_columns_, specs,
                             ctx.config().batch_size);
}

std::string DataSourceScanExec::Describe() const {
  std::string s = "Scan " + source_->name() + " " + FormatAttributes(Output());
  if (!pushed_filters_.empty()) {
    s += " PushedFilters: [";
    for (size_t i = 0; i < pushed_filters_.size(); ++i) {
      if (i > 0) s += ", ";
      s += pushed_filters_[i]->ToString();
    }
    s += "]";
  }
  return s;
}

ProjectFilterExec::ProjectFilterExec(std::vector<NamedExprPtr> projections,
                                     ExprPtr condition, PhysPtr child)
    : projections_(std::move(projections)),
      condition_(std::move(condition)),
      child_(std::move(child)) {
  if (projections_.empty()) {
    output_ = child_->Output();
  } else {
    output_.reserve(projections_.size());
    for (const auto& p : projections_) output_.push_back(p->ToAttribute());
  }
}

AttributeVector ProjectFilterExec::Output() const { return output_; }

ProjectFilterExec::Programs ProjectFilterExec::Compile(bool codegen) const {
  const AttributeVector child_out = child_->Output();
  Programs programs;
  if (condition_) {
    programs.condition =
        BindAndCompile(condition_, child_out, codegen).compiled;
  }
  for (const auto& p : projections_) {
    // Strip the top-level alias: only the value matters positionally.
    ExprPtr value = p;
    if (const auto* alias = As<Alias>(value)) value = alias->child();
    programs.projections.push_back(
        BindAndCompile(value, child_out, codegen).compiled);
  }
  return programs;
}

RowDataset ProjectFilterExec::ExecuteImpl(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  const Programs programs = Compile(ctx.config().codegen_enabled);

  return input.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
    auto out = std::make_shared<RowPartition>();
    out->rows.reserve(part.rows.size());
    // Per-task evaluators: the lane banks are scratch, not shareable.
    std::optional<CompiledExpression::VectorEvaluator> cond_eval;
    if (programs.condition) {
      cond_eval.emplace(programs.condition->NewVectorEvaluator());
    }
    std::vector<CompiledExpression::VectorEvaluator> proj_evals;
    for (const auto& p : programs.projections) {
      proj_evals.push_back(p.NewVectorEvaluator());
    }
    std::vector<const Row*> chunk;
    std::vector<uint32_t> sel;
    size_t cancel_rows = 0;
    for (size_t start = 0; start < part.rows.size(); start += kChunkRows) {
      const size_t n = std::min(kChunkRows, part.rows.size() - start);
      ctx.CheckCancelledEveryRows(&cancel_rows, n);
      chunk.clear();
      for (size_t r = start; r < start + n; ++r) chunk.push_back(&part.rows[r]);
      if (cond_eval) {
        // Keep the survivors; the projections run at them only.
        sel.clear();
        cond_eval->EvaluateSelection(chunk, &sel);
        for (size_t k = 0; k < sel.size(); ++k) chunk[k] = chunk[sel[k]];
        chunk.resize(sel.size());
      }
      if (projections_.empty()) {
        for (const Row* row : chunk) out->rows.push_back(*row);
        continue;
      }
      // Box the output rows straight from each projection's result lanes.
      const size_t base = out->rows.size();
      out->rows.resize(base + chunk.size());
      for (size_t k = base; k < out->rows.size(); ++k) {
        out->rows[k].Reserve(proj_evals.size());
      }
      for (auto& ev : proj_evals) ev.EvaluateAppend(chunk, &out->rows[base]);
    }
    return out;
  }, "project");
}

BatchDataset ProjectFilterExec::ExecuteBatchesImpl(QueryContext& ctx) const {
  BatchDataset input = child_->ExecuteBatches(ctx);
  const Programs programs = Compile(ctx.config().codegen_enabled);

  return input.MapPartitions(ctx, [&](size_t, const BatchPartition& part) {
    auto out = std::make_shared<BatchPartition>();
    out->batches.reserve(part.batches.size());
    size_t cancel_rows = 0;
    // Per-task evaluators (lane banks are scratch, not shareable).
    std::optional<CompiledExpression::VectorEvaluator> cond_eval;
    if (programs.condition) {
      cond_eval.emplace(programs.condition->NewVectorEvaluator());
    }
    std::vector<CompiledExpression::VectorEvaluator> proj_evals;
    for (const auto& p : programs.projections) {
      proj_evals.push_back(p.NewVectorEvaluator());
    }

    for (const RowBatchPtr& batch : part.batches) {
      ctx.CheckCancelledEveryRows(&cancel_rows, batch->ActiveRows());
      RowBatchPtr cur = batch;
      if (cond_eval) {
        std::vector<uint32_t> sel;
        cond_eval->EvaluateSelection(*cur, &sel);
        if (sel.empty()) continue;  // fully filtered: emit no batch
        cur = RowBatch::FilterView(cur, std::move(sel));
      }
      if (cur->ActiveRows() == 0) continue;
      if (projections_.empty()) {
        // Pure filter: the view shares the input columns — zero copies.
        out->batches.push_back(std::move(cur));
        continue;
      }
      // Projection: evaluate one dense output column per expression.
      std::vector<std::shared_ptr<ColumnVector>> cols;
      cols.reserve(proj_evals.size());
      for (size_t i = 0; i < proj_evals.size(); ++i) {
        auto col = std::make_shared<ColumnVector>(output_[i]->data_type());
        proj_evals[i].EvaluateColumn(*cur, col.get());
        cols.push_back(std::move(col));
      }
      out->batches.push_back(
          std::make_shared<const RowBatch>(std::move(cols)));
    }
    return out;
  }, "project");
}

std::string ProjectFilterExec::Describe() const {
  std::string s = NodeName();
  if (!projections_.empty()) {
    s += " [";
    for (size_t i = 0; i < projections_.size(); ++i) {
      if (i > 0) s += ", ";
      s += projections_[i]->ToString();
    }
    s += "]";
  }
  if (condition_) s += " condition: " + condition_->ToString();
  return s;
}

RowDataset SampleExec::ExecuteImpl(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  double fraction = fraction_;
  uint64_t seed = seed_;
  return input.MapPartitions(ctx, [&, fraction, seed](size_t p,
                                                      const RowPartition& part) {
    auto out = std::make_shared<RowPartition>();
    // Deterministic per-row hash-based Bernoulli draw.
    uint64_t threshold =
        static_cast<uint64_t>(fraction * static_cast<double>(UINT64_MAX));
    uint64_t state = seed * 0x9e3779b97f4a7c15ULL + p;
    for (const Row& row : part.rows) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      if (state <= threshold) out->rows.push_back(row);
    }
    return out;
  }, "sample");
}

RowDataset UnionExec::ExecuteImpl(QueryContext& ctx) const {
  std::vector<RowPartitionPtr> parts;
  for (const auto& child : children_) {
    RowDataset d = child->Execute(ctx);
    for (const auto& p : d.partitions()) parts.push_back(p);
  }
  return RowDataset(std::move(parts));
}

}  // namespace ssql
