#include "exec/aggregate_exec.h"

#include "columnar/row_batch.h"

namespace ssql {

namespace {

std::vector<DataTypePtr> KeyTypes(const ExprVector& groupings) {
  std::vector<DataTypePtr> types;
  for (const auto& g : groupings) types.push_back(g->data_type());
  return types;
}

/// The partial stage's inputs (grouping keys, then every aggregate's
/// arguments in slot order) bound to the child's output, compiled when
/// codegen is on.
std::vector<BoundCompiled> BindInputs(const ExprVector& groupings,
                                      const std::vector<AggSlot>& slots,
                                      const AttributeVector& child_out,
                                      bool codegen) {
  std::vector<BoundCompiled> inputs;
  for (const auto& g : groupings) {
    inputs.push_back(BindAndCompile(g, child_out, codegen));
  }
  for (const AggSlot& slot : slots) {
    for (const auto& a : slot.args) {
      inputs.push_back(BindAndCompile(a, child_out, codegen));
    }
  }
  return inputs;
}

}  // namespace

HashAggregateExec::HashAggregateExec(ExprVector groupings,
                                     std::vector<NamedExprPtr> aggregates,
                                     AggregateMode mode, PhysPtr child)
    : groupings_(std::move(groupings)),
      aggregates_(std::move(aggregates)),
      mode_(mode),
      child_(std::move(child)) {
  // Collect distinct aggregate functions in first-appearance order.
  std::vector<std::string> seen;
  for (const auto& out : aggregates_) {
    out->Foreach([this, &seen](const Expression& e) {
      const auto* agg = dynamic_cast<const AggregateFunction*>(&e);
      if (agg == nullptr) return;
      std::string key = agg->ToString();
      for (const auto& s : seen) {
        if (s == key) return;
      }
      seen.push_back(key);
      agg_functions_.push_back(
          std::static_pointer_cast<const AggregateFunction>(agg->self()));
    });
  }
  for (const auto& fn : agg_functions_) slots_.push_back(MakeAggSlot(fn));
  // Synthesized partial output attributes.
  for (size_t i = 0; i < groupings_.size(); ++i) {
    partial_output_.push_back(AttributeReference::Make(
        "group_" + std::to_string(i), groupings_[i]->data_type(), true));
  }
  for (size_t j = 0; j < agg_functions_.size(); ++j) {
    partial_output_.push_back(AttributeReference::Make(
        "acc_" + std::to_string(j), agg_functions_[j]->data_type(), true));
  }
}

AttributeVector HashAggregateExec::Output() const {
  if (mode_ == AggregateMode::kPartial) return partial_output_;
  AttributeVector out;
  out.reserve(aggregates_.size());
  for (const auto& a : aggregates_) out.push_back(a->ToAttribute());
  return out;
}

RowDataset HashAggregateExec::ExecuteImpl(QueryContext& ctx) const {
  return mode_ == AggregateMode::kPartial ? ExecutePartial(ctx)
                                          : ExecuteFinal(ctx);
}

RowDataset HashAggregateExec::ExecutePartial(QueryContext& ctx) const {
  const std::vector<BoundCompiled> inputs = BindInputs(
      groupings_, slots_, child_->Output(), ctx.config().codegen_enabled);
  const std::vector<DataTypePtr> key_types = KeyTypes(groupings_);
  auto drain = [](GroupTable& table) {
    auto out = std::make_shared<RowPartition>();
    table.Drain(false, [&](Row&& row) { out->rows.push_back(std::move(row)); });
    return out;
  };
  if (ReadsBatches(ctx.config())) {
    BatchDataset input = child_->ExecuteBatches(ctx);
    return input.MapToRows(ctx, [&](size_t, const BatchPartition& part) {
      GroupTable table(ctx, "aggregate.partial", key_types, slots_);
      InputReader reader(inputs);
      size_t cancel_rows = 0;
      for (const RowBatchPtr& batch : part.batches) {
        const size_t n = batch->ActiveRows();
        if (n == 0) continue;
        ctx.CheckCancelledEveryRows(&cancel_rows, n);
        table.Update(reader.Read(*batch), n);
      }
      return drain(table);
    }, "aggregate.partial");
  }
  RowDataset input = child_->Execute(ctx);
  return input.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
    GroupTable table(ctx, "aggregate.partial", key_types, slots_);
    InputReader reader(inputs);
    size_t cancel_rows = 0;
    for (size_t start = 0; start < part.rows.size(); start += kChunkRows) {
      const size_t n = std::min(kChunkRows, part.rows.size() - start);
      ctx.CheckCancelledEveryRows(&cancel_rows, n);
      table.Update(reader.Read(&part.rows[start], n), n);
    }
    return drain(table);
  }, "aggregate.partial");
}

RowDataset HashAggregateExec::ExecuteFinal(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  size_t k = groupings_.size();
  size_t m = agg_functions_.size();

  // Rewrite the output expressions against the row layout
  // [group values..., finished aggregate values...].
  std::vector<std::string> grouping_keys;
  grouping_keys.reserve(k);
  for (const auto& g : groupings_) grouping_keys.push_back(g->ToString());
  std::vector<std::string> agg_keys;
  agg_keys.reserve(m);
  for (const auto& a : agg_functions_) agg_keys.push_back(a->ToString());

  ExprVector result_exprs;
  result_exprs.reserve(aggregates_.size());
  for (const auto& out : aggregates_) {
    ExprPtr value = out;
    if (const auto* alias = As<Alias>(value)) value = alias->child();
    ExprPtr rewritten = value->TransformDown([&](const ExprPtr& e) -> ExprPtr {
      std::string key = e->ToString();
      for (size_t i = 0; i < k; ++i) {
        if (key == grouping_keys[i]) {
          return BoundReference::Make(static_cast<int>(i),
                                      groupings_[i]->data_type(), true);
        }
      }
      if (dynamic_cast<const AggregateFunction*>(e.get()) != nullptr) {
        for (size_t j = 0; j < m; ++j) {
          if (key == agg_keys[j]) {
            return BoundReference::Make(static_cast<int>(k + j),
                                        agg_functions_[j]->data_type(), true);
          }
        }
      }
      return e;
    });
    result_exprs.push_back(std::move(rewritten));
  }

  const bool global = k == 0;
  const std::vector<DataTypePtr> key_types = KeyTypes(groupings_);
  RowDataset merged = input.MapPartitions(ctx, [&](size_t, const RowPartition&
                                                                part) {
    GroupTable table(ctx, "aggregate.final", key_types, slots_);
    size_t cancel_rows = 0;
    for (size_t start = 0; start < part.rows.size(); start += kChunkRows) {
      const size_t n = std::min(kChunkRows, part.rows.size() - start);
      ctx.CheckCancelledEveryRows(&cancel_rows, n);
      table.Merge(&part.rows[start], n);
    }
    auto out = std::make_shared<RowPartition>();
    table.Drain(true, [&](Row&& base) {
      Row result;
      result.Reserve(result_exprs.size());
      for (const auto& e : result_exprs) result.Append(e->Eval(base));
      out->rows.push_back(std::move(result));
    });
    return out;
  }, "aggregate.final");

  if (global && merged.TotalRows() == 0) {
    // Aggregates over an empty input still produce one row.
    Row base;
    base.Reserve(m);
    for (const auto& agg : agg_functions_) base.Append(agg->EmptyResult());
    Row result;
    result.Reserve(result_exprs.size());
    for (const auto& e : result_exprs) result.Append(e->Eval(base));
    return RowDataset::SinglePartition({std::move(result)});
  }
  return merged;
}

std::string HashAggregateExec::Describe() const {
  std::string s = NodeName() + " keys=[";
  for (size_t i = 0; i < groupings_.size(); ++i) {
    if (i > 0) s += ", ";
    s += groupings_[i]->ToString();
  }
  s += "], output=[";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) s += ", ";
    s += aggregates_[i]->ToString();
  }
  return s + "]";
}

}  // namespace ssql
