#include "exec/sort_limit_exec.h"

#include <algorithm>
#include <optional>

#include "util/spill_file.h"

namespace ssql {

RowDataset SortExec::ExecuteImpl(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  AttributeVector child_out = child_->Output();

  struct BoundOrder {
    ExprPtr expr;
    bool ascending;
  };
  std::vector<BoundOrder> bound;
  bound.reserve(orders_.size());
  for (const auto& o : orders_) {
    bound.push_back({BindReferences(o->child(), child_out), o->ascending()});
  }

  auto less = [&bound](const Row& a, const Row& b) {
    for (const auto& o : bound) {
      int c = CompareNanLast(o.expr->Eval(a), o.expr->Eval(b));
      if (c != 0) return o.ascending ? c < 0 : c > 0;
    }
    return false;
  };

  // Local sort per partition in parallel, then merge on the driver. The
  // comparator polls cancellation so a timed-out query aborts even inside
  // a large sort (std::stable_sort has no other exit point).
  size_t cancel_check = 0;
  auto checked_less = [&](const Row& a, const Row& b) {
    ctx.CheckCancelledEvery(&cancel_check);
    return less(a, b);
  };

  RowDataset locally_sorted =
      ctx.memory().limited()
          ? input.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
              return ExternalSortPartition(ctx, part, less);
            }, "sort")
          : input.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
              auto out = std::make_shared<RowPartition>();
              out->rows = part.rows;
              size_t task_check = 0;
              auto task_less = [&](const Row& a, const Row& b) {
                ctx.CheckCancelledEvery(&task_check);
                return less(a, b);
              };
              std::stable_sort(out->rows.begin(), out->rows.end(), task_less);
              return out;
            }, "sort");

  std::vector<Row> merged = locally_sorted.Collect();
  std::stable_sort(merged.begin(), merged.end(), checked_less);
  return RowDataset::SinglePartition(std::move(merged));
}

std::shared_ptr<RowPartition> SortExec::ExternalSortPartition(
    QueryContext& ctx, const RowPartition& part,
    const std::function<bool(const Row&, const Row&)>& less) const {
  size_t task_check = 0;
  auto task_less = [&](const Row& a, const Row& b) {
    ctx.CheckCancelledEvery(&task_check);
    return less(a, b);
  };

  // Phase 1: accumulate rows into a budgeted buffer; when a grant is denied
  // the buffer becomes a stable-sorted run on disk and the buffer restarts.
  MemoryReservation reservation = ctx.memory().CreateReservation();
  std::vector<SpillFile> runs;
  std::vector<Row> buffer;
  int64_t used = 0;
  auto spill_run = [&] {
    std::stable_sort(buffer.begin(), buffer.end(), task_less);
    SpillFile run = ctx.MakeSpillFile("sort");
    int64_t wrote = 0;
    for (const Row& r : buffer) wrote += run.Append(r);
    run.FinishWrites();
    ctx.RecordSpill(1, wrote);
    runs.push_back(std::move(run));
    buffer.clear();
    used = 0;
    reservation.Release();
  };
  for (const Row& row : part.rows) {
    ctx.CheckCancelledEvery(&task_check);
    int64_t row_bytes = EstimateRowBytes(row);
    if (!reservation.EnsureReserved(used + row_bytes)) {
      if (!ctx.memory().spill_enabled()) {
        throw ExecutionError(ctx.memory().OverBudgetMessage("sort"));
      }
      if (!buffer.empty()) spill_run();
      // A single row is the irreducible working set; admit it even when the
      // budget (shared with concurrent partitions) is still exhausted.
      if (!reservation.EnsureReserved(row_bytes)) {
        reservation.ForceGrow(row_bytes);
      }
    }
    used += row_bytes;
    buffer.push_back(row);
  }
  std::stable_sort(buffer.begin(), buffer.end(), task_less);

  auto out = std::make_shared<RowPartition>();
  if (runs.empty()) {
    out->rows = std::move(buffer);
    return out;
  }

  // Phase 2: k-way merge of the run files plus the in-memory tail run.
  // Sources are ordered oldest-run-first with the tail last, and ties keep
  // the lowest source index, so the merge is stable overall.
  for (auto& run : runs) run.FinishWrites();
  std::vector<SpillFile::Reader> readers;
  readers.reserve(runs.size());
  for (auto& run : runs) readers.emplace_back(run);
  size_t tail_pos = 0;
  std::vector<std::optional<Row>> heads(readers.size() + 1);
  auto advance = [&](size_t src) {
    heads[src].reset();
    if (src < readers.size()) {
      Row row;
      if (readers[src].Next(&row)) heads[src] = std::move(row);
    } else if (tail_pos < buffer.size()) {
      heads[src] = std::move(buffer[tail_pos++]);
    }
  };
  for (size_t s = 0; s < heads.size(); ++s) advance(s);
  out->rows.reserve(part.rows.size());
  while (true) {
    ctx.CheckCancelledEvery(&task_check);
    int best = -1;
    for (size_t s = 0; s < heads.size(); ++s) {
      if (!heads[s]) continue;
      if (best < 0 || task_less(*heads[s], *heads[best])) {
        best = static_cast<int>(s);
      }
    }
    if (best < 0) break;
    out->rows.push_back(std::move(*heads[best]));
    advance(static_cast<size_t>(best));
  }
  return out;  // `runs` goes out of scope here, deleting the spill files
}

std::string SortExec::Describe() const {
  std::string s = "Sort [";
  for (size_t i = 0; i < orders_.size(); ++i) {
    if (i > 0) s += ", ";
    s += orders_[i]->ToString();
  }
  return s + "]";
}

RowDataset LimitExec::ExecuteImpl(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  size_t limit = n_ < 0 ? 0 : static_cast<size_t>(n_);

  // Local limit bounds what each partition ships to the driver.
  RowDataset local = input.MapPartitions(ctx, [&](size_t, const RowPartition&
                                                              part) {
    auto out = std::make_shared<RowPartition>();
    size_t take = std::min(part.rows.size(), limit);
    out->rows.assign(part.rows.begin(), part.rows.begin() + take);
    return out;
  }, "limit");

  std::vector<Row> all = local.Collect();
  if (all.size() > limit) all.resize(limit);
  return RowDataset::SinglePartition(std::move(all));
}

}  // namespace ssql
