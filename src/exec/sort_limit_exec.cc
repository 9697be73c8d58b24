#include "exec/sort_limit_exec.h"

#include <algorithm>
#include <iterator>

#include "exec/scan_exec.h"
#include "util/spill_file.h"

namespace ssql {
namespace {

/// The order of keyed rows: an input row with its sort keys, evaluated
/// once, appended after its columns. Value::Compare per key (nulls first
/// and NaN after every number under ASC), reversed under DESC.
struct KeyOrder {
  std::vector<bool> ascending;

  int Compare(const Row& a, const Row& b) const {
    const size_t a_keys = a.size() - ascending.size();
    const size_t b_keys = b.size() - ascending.size();
    for (size_t i = 0; i < ascending.size(); ++i) {
      const int c = a.Get(a_keys + i).Compare(b.Get(b_keys + i));
      if (c != 0) return ascending[i] ? c : -c;
    }
    return 0;
  }
};

/// Merges sorted sources of keyed rows: `next(s, &row)` yields source s's
/// next row, false once it is exhausted, and `emit` takes the rows in
/// order. Ties go to the lowest source index, so merging stable-sorted
/// runs given in input order is itself stable. One routine serves a
/// partition's spilled runs and the driver's merge of the partitions.
template <typename Next, typename Emit>
void MergeSorted(QueryContext& ctx, const KeyOrder& order, size_t num_sources,
                 Next next, Emit emit) {
  std::vector<Row> heads(num_sources);
  std::vector<size_t> heap;  // sources holding a head; the next out on top
  for (size_t s = 0; s < num_sources; ++s) {
    if (next(s, &heads[s])) heap.push_back(s);
  }
  // std heaps put the greatest on top, so "greater" means "goes out first".
  auto later = [&](size_t a, size_t b) {
    const int c = order.Compare(heads[a], heads[b]);
    return c > 0 || (c == 0 && a > b);
  };
  std::make_heap(heap.begin(), heap.end(), later);
  size_t cancel_check = 0;
  while (!heap.empty()) {
    ctx.CheckCancelledEvery(&cancel_check);
    std::pop_heap(heap.begin(), heap.end(), later);
    const size_t s = heap.back();
    emit(std::move(heads[s]));
    if (next(s, &heads[s])) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
}

/// Sorts one partition into keyed rows. Each row is copied with its keys
/// appended into a buffer charged to the query's memory budget; when a
/// grant is denied the buffer is stable-sorted and spilled as a run, keys
/// included, and the runs and the in-memory tail are merged at the end.
RowPartitionPtr SortPartition(QueryContext& ctx, const RowPartition& part,
                              const std::vector<BoundCompiled>& keys,
                              const KeyOrder& order) {
  std::vector<CompiledExpression::VectorEvaluator> evals;
  for (const BoundCompiled& key : keys) {
    evals.push_back(key.compiled.NewVectorEvaluator());
  }
  // The comparator polls cancellation so a timed-out query aborts even
  // inside a large sort (std::stable_sort has no other exit point).
  size_t cancel_check = 0;
  auto less = [&](const Row& a, const Row& b) {
    ctx.CheckCancelledEvery(&cancel_check);
    return order.Compare(a, b) < 0;
  };

  MemoryReservation reservation = ctx.memory().CreateReservation();
  std::vector<SpillFile> runs;
  std::vector<Row> buffer;
  int64_t used = 0;
  auto spill_run = [&] {
    std::stable_sort(buffer.begin(), buffer.end(), less);
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
  std::vector<const Row*> chunk;
  std::vector<Row> keyed;
  for (size_t start = 0; start < part.rows.size(); start += kChunkRows) {
    const size_t n = std::min(kChunkRows, part.rows.size() - start);
    chunk.clear();
    keyed.clear();
    keyed.resize(n);
    for (size_t r = 0; r < n; ++r) {
      const Row& row = part.rows[start + r];
      chunk.push_back(&row);
      keyed[r].Reserve(row.size() + evals.size());
      keyed[r].values().assign(row.values().begin(), row.values().end());
    }
    for (auto& eval : evals) eval.EvaluateAppend(chunk, keyed.data());
    for (Row& row : keyed) {
      ctx.CheckCancelledEvery(&cancel_check);
      const int64_t row_bytes = EstimateRowBytes(row);
      if (!reservation.EnsureReserved(used + row_bytes)) {
        if (!ctx.memory().spill_enabled()) {
          throw ExecutionError(ctx.memory().OverBudgetMessage("sort"));
        }
        if (!buffer.empty()) spill_run();
        // A single row is the irreducible working set; admit it even when
        // the budget (shared with concurrent partitions) is still exhausted.
        if (!reservation.EnsureReserved(row_bytes)) {
          reservation.ForceGrow(row_bytes);
        }
      }
      used += row_bytes;
      buffer.push_back(std::move(row));
    }
  }
  std::stable_sort(buffer.begin(), buffer.end(), less);

  auto out = std::make_shared<RowPartition>();
  if (runs.empty()) {
    out->rows = std::move(buffer);
    return out;
  }
  // The runs oldest first, then the in-memory tail.
  std::vector<SpillFile::Reader> readers;
  readers.reserve(runs.size());
  for (const SpillFile& run : runs) readers.emplace_back(run);
  size_t tail = 0;
  out->rows.reserve(part.rows.size());
  MergeSorted(
      ctx, order, readers.size() + 1,
      [&](size_t s, Row* row) {
        if (s < readers.size()) return readers[s].Next(row);
        if (tail == buffer.size()) return false;
        *row = std::move(buffer[tail++]);
        return true;
      },
      [&](Row&& row) { out->rows.push_back(std::move(row)); });
  return out;  // `runs` goes out of scope here, deleting the spill files
}

}  // namespace

RowDataset SortExec::ExecuteImpl(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  const AttributeVector child_out = child_->Output();
  std::vector<BoundCompiled> keys;
  KeyOrder order;
  for (const auto& o : orders_) {
    keys.push_back(BindAndCompile(o->child(), child_out,
                                  ctx.config().codegen_enabled));
    order.ascending.push_back(o->ascending());
  }

  RowDataset sorted = input.MapPartitions(
      ctx,
      [&](size_t, const RowPartition& part) {
        return SortPartition(ctx, part, keys, order);
      },
      "sort");

  // Merge the sorted partitions on the driver, dropping the keys.
  size_t total = 0;
  for (const RowPartitionPtr& part : sorted.partitions()) {
    total += part->rows.size();
  }
  std::vector<Row> merged;
  merged.reserve(total);
  std::vector<size_t> pos(sorted.num_partitions(), 0);
  MergeSorted(
      ctx, order, sorted.num_partitions(),
      [&](size_t p, Row* row) {
        std::vector<Row>& rows = sorted.partition(p)->rows;
        if (pos[p] == rows.size()) return false;
        *row = std::move(rows[pos[p]++]);
        return true;
      },
      [&](Row&& keyed) {
        auto& values = keyed.values();
        merged.emplace_back(std::vector<Value>(
            std::make_move_iterator(values.begin()),
            std::make_move_iterator(values.end() - keys.size())));
      });
  return RowDataset::SinglePartition(std::move(merged));
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
