#include "exec/scan_exec.h"

#include "util/string_util.h"

namespace ssql {

BoundCompiled BindAndCompile(const ExprPtr& expr, const AttributeVector& input,
                             bool codegen_enabled) {
  BoundCompiled out;
  out.bound = BindReferences(expr, input);
  if (codegen_enabled) {
    out.compiled = CompiledExpression::Compile(out.bound);
  }
  return out;
}

namespace {

/// Small LRU of partitioned local tables. The backing row vectors are
/// immutable and shared by every plan over the same DataFrame, so the
/// partitioning (which copies every boxed row) should happen once per
/// dataset, not once per query — the engine-side analogue of Spark keeping
/// parallelized data resident on the executors.
class LocalPartitionCache {
 public:
  static LocalPartitionCache& Global() {
    static LocalPartitionCache* cache = new LocalPartitionCache();
    return *cache;
  }

  std::shared_ptr<const RowDataset> Get(
      const std::shared_ptr<const std::vector<Row>>& rows, size_t parts) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].rows.get() == rows.get() && entries_[i].parts == parts) {
        Entry hit = entries_[i];
        entries_.erase(entries_.begin() + static_cast<long>(i));
        entries_.push_back(hit);  // move to MRU position
        return hit.dataset;
      }
    }
    auto dataset = std::make_shared<const RowDataset>(
        RowDataset::FromRows(*rows, parts));
    entries_.push_back({rows, parts, dataset});
    if (entries_.size() > kCapacity) entries_.erase(entries_.begin());
    return dataset;
  }

 private:
  struct Entry {
    std::shared_ptr<const std::vector<Row>> rows;
    size_t parts;
    std::shared_ptr<const RowDataset> dataset;
  };
  static constexpr size_t kCapacity = 16;
  std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace

RowDataset LocalTableScanExec::ExecuteImpl(QueryContext& ctx) const {
  size_t parts = ctx.config().default_parallelism;
  return *LocalPartitionCache::Global().Get(rows_, parts);
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

  // Partition-preserving fast path (in-memory columnar cache): the
  // pre-partitioned dataset flows through untouched, filters applied
  // exactly inside the source.
  if (all_translated) {
    if (const auto* partitioned =
            dynamic_cast<const PartitionedScan*>(source_.get())) {
      return partitioned->ScanPartitions(ctx, required_columns_, specs);
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

bool DataSourceScanExec::SupportsBatches() const {
  if (required_columns_.empty()) return false;
  if (dynamic_cast<const BatchedScan*>(source_.get()) == nullptr) return false;
  for (const auto& f : pushed_filters_) {
    if (!TranslateFilter(*f).has_value()) return false;
  }
  return true;
}

BatchDataset DataSourceScanExec::ExecuteBatchesImpl(QueryContext& ctx) const {
  const auto* batched = dynamic_cast<const BatchedScan*>(source_.get());
  std::vector<FilterSpec> specs;
  specs.reserve(pushed_filters_.size());
  for (const auto& f : pushed_filters_) {
    specs.push_back(*TranslateFilter(*f));  // checked by SupportsBatches()
  }
  return batched->ScanBatches(ctx, required_columns_, specs,
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

RowDataset ProjectFilterExec::ExecuteImpl(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  AttributeVector child_out = child_->Output();
  bool codegen = ctx.config().codegen_enabled;

  // Bind once; compile once. Evaluators are created per partition task so
  // the scratch register state is never shared across threads.
  std::optional<BoundCompiled> cond;
  if (condition_) cond = BindAndCompile(condition_, child_out, codegen);
  std::vector<BoundCompiled> projs;
  projs.reserve(projections_.size());
  for (const auto& p : projections_) {
    // Strip the top-level alias: only the value matters positionally.
    ExprPtr value = p;
    if (const auto* alias = As<Alias>(value)) value = alias->child();
    projs.push_back(BindAndCompile(value, child_out, codegen));
  }

  return input.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
    auto out = std::make_shared<RowPartition>();
    out->rows.reserve(part.rows.size());
    size_t cancel_check = 0;
    std::optional<CompiledExpression::Evaluator> cond_eval;
    if (cond && cond->compiled) cond_eval.emplace(cond->compiled->NewEvaluator());
    std::vector<CompiledExpression::Evaluator> proj_evals;
    for (auto& p : projs) {
      if (p.compiled) proj_evals.push_back(p.compiled->NewEvaluator());
    }
    bool all_compiled = proj_evals.size() == projs.size();

    for (const Row& row : part.rows) {
      ctx.CheckCancelledEvery(&cancel_check);
      if (cond) {
        bool pass;
        if (cond_eval) {
          bool is_null = false;
          pass = cond_eval->EvaluateBool(row, &is_null) && !is_null;
        } else {
          pass = EvalPredicate(*cond->bound, row);
        }
        if (!pass) continue;
      }
      if (projections_.empty()) {
        out->rows.push_back(row);
        continue;
      }
      Row result;
      result.Reserve(projs.size());
      if (all_compiled) {
        for (auto& ev : proj_evals) result.Append(ev.Evaluate(row));
      } else {
        size_t ev_idx = 0;
        for (auto& p : projs) {
          if (p.compiled) {
            result.Append(proj_evals[ev_idx++].Evaluate(row));
          } else {
            result.Append(p.bound->Eval(row));
          }
        }
      }
      out->rows.push_back(std::move(result));
    }
    return out;
  }, "project");
}

BatchDataset ProjectFilterExec::ExecuteBatchesImpl(QueryContext& ctx) const {
  BatchDataset input = child_->ExecuteBatches(ctx);
  AttributeVector child_out = child_->Output();
  bool codegen = ctx.config().codegen_enabled;

  // Bind once; compile once — exactly the row path's programs, evaluated
  // with the vector evaluator instead (one lane loop per instruction).
  std::optional<BoundCompiled> cond;
  if (condition_) cond = BindAndCompile(condition_, child_out, codegen);
  std::vector<BoundCompiled> projs;
  projs.reserve(projections_.size());
  for (const auto& p : projections_) {
    ExprPtr value = p;
    if (const auto* alias = As<Alias>(value)) value = alias->child();
    projs.push_back(BindAndCompile(value, child_out, codegen));
  }
  std::vector<DataTypePtr> out_types = OutputTypes();

  return input.MapPartitions(ctx, [&](size_t, const BatchPartition& part) {
    auto out = std::make_shared<BatchPartition>();
    out->batches.reserve(part.batches.size());
    size_t cancel_rows = 0;
    // Per-task evaluators (lane banks are scratch, not shareable).
    std::optional<CompiledExpression::VectorEvaluator> cond_eval;
    if (cond && cond->compiled) {
      cond_eval.emplace(cond->compiled->NewVectorEvaluator());
    }
    std::vector<std::optional<CompiledExpression::VectorEvaluator>> proj_evals(
        projs.size());
    for (size_t i = 0; i < projs.size(); ++i) {
      if (projs[i].compiled) {
        proj_evals[i].emplace(projs[i].compiled->NewVectorEvaluator());
      }
    }

    for (const RowBatchPtr& batch : part.batches) {
      ctx.CheckCancelledEveryRows(&cancel_rows, batch->ActiveRows());
      RowBatchPtr cur = batch;
      if (cond) {
        std::vector<uint32_t> sel;
        if (cond_eval) {
          cond_eval->EvaluateSelection(*cur, &sel);
        } else {
          // Interpreted predicate: box each live row, keep survivors'
          // physical indices (same WHERE semantics: true-and-not-null).
          sel.reserve(cur->ActiveRows());
          for (size_t k = 0; k < cur->ActiveRows(); ++k) {
            size_t i = cur->ActiveIndex(k);
            if (EvalPredicate(*cond->bound, cur->BoxRow(i))) {
              sel.push_back(static_cast<uint32_t>(i));
            }
          }
        }
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
      cols.reserve(projs.size());
      for (size_t i = 0; i < projs.size(); ++i) {
        auto col = std::make_shared<ColumnVector>(out_types[i]);
        col->Reserve(cur->ActiveRows());
        if (proj_evals[i]) {
          proj_evals[i]->EvaluateColumn(*cur, col.get());
        } else {
          for (size_t k = 0; k < cur->ActiveRows(); ++k) {
            col->Append(projs[i].bound->Eval(cur->BoxRow(cur->ActiveIndex(k))));
          }
        }
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
