#include "exec/group_table.h"

#include "catalyst/expr/expression.h"
#include "engine/query_context.h"

namespace ssql {

namespace {

/// Number of hash buckets a spilled table is scattered into; the drain
/// phase needs only one bucket's groups in memory at a time.
constexpr size_t kAggSpillFanout = 16;

/// Rows per chunk when draining a spill bucket.
constexpr size_t kChunkRows = 1024;

/// InitAccumulator() of each kBoxed slot, in slot order.
std::vector<Value> BoxedInits(const std::vector<AggSlot>& aggs) {
  std::vector<Value> inits;
  for (const AggSlot& slot : aggs) {
    if (slot.kind == AccKind::kBoxed) {
      inits.push_back(slot.fn->InitAccumulator());
    }
  }
  return inits;
}

int64_t ValuesBytes(const std::vector<Value>& values) {
  int64_t bytes = 0;
  for (const Value& v : values) bytes += EstimateValueBytes(v);
  return bytes;
}

}  // namespace

AggSlot MakeAggSlot(const AggregatePtr& fn) {
  AggSlot slot;
  slot.fn = fn;
  ExprPtr child;
  if (const auto* count = dynamic_cast<const Count*>(fn.get())) {
    slot.kind = count->is_star() ? AccKind::kCountStar : AccKind::kCount;
    if (!count->is_star()) child = count->Children()[0];
  } else if (const auto* sum = dynamic_cast<const Sum*>(fn.get())) {
    TypeId rt = sum->data_type()->id();
    if (rt == TypeId::kInt64) slot.kind = AccKind::kSumI64;
    if (rt == TypeId::kDouble) slot.kind = AccKind::kSumF64;
    child = sum->child();
  } else if (const auto* avg = dynamic_cast<const Average*>(fn.get())) {
    Lane lane = LaneFor(avg->child()->data_type()->id());
    if (lane == Lane::kInt || lane == Lane::kDouble) slot.kind = AccKind::kAvg;
    child = avg->child();
  } else if (const auto* mm = dynamic_cast<const MinMax*>(fn.get())) {
    slot.type = mm->child()->data_type()->id();
    slot.is_min = mm->is_min();
    if (LaneFor(slot.type) == Lane::kInt) slot.kind = AccKind::kMinMaxI64;
    if (LaneFor(slot.type) == Lane::kDouble) slot.kind = AccKind::kMinMaxF64;
    child = mm->child();
  }
  if (slot.kind != AccKind::kBoxed) {
    if (child) slot.args.push_back(child);
    return slot;
  }
  // Boxed: Update reads a row holding just the evaluated children.
  ExprVector refs;
  for (const auto& c : fn->Children()) {
    refs.push_back(BoundReference::Make(static_cast<int>(refs.size()),
                                        c->data_type(), true));
    slot.args.push_back(c);
  }
  slot.fn = std::static_pointer_cast<const AggregateFunction>(
      fn->WithNewChildren(std::move(refs)));
  return slot;
}

GroupTable::GroupTable(QueryContext& ctx, std::string consumer,
                       const std::vector<DataTypePtr>& key_types,
                       const std::vector<AggSlot>& aggs)
    : ctx_(ctx),
      consumer_(std::move(consumer)),
      aggs_(aggs),
      boxed_init_(BoxedInits(aggs)),
      keys_(ctx.memory(), key_types, /*nulls_match=*/true,
            static_cast<int64_t>(aggs.size() * sizeof(Acc) +
                                 boxed_init_.size() * sizeof(Value)),
            ValuesBytes(boxed_init_)) {
  size_t args = 0, boxed = 0;
  for (const AggSlot& slot : aggs) {
    arg_offset_.push_back(args);
    args += slot.args.size();
    boxed_index_.push_back(boxed);
    if (slot.kind == AccKind::kBoxed) ++boxed;
  }
}

void GroupTable::Update(const Columns& cols, size_t n) {
  keys_.Hash(cols.data(), n, &chunk_);
  const ColumnVector* const* args = cols.data() + keys_.types().size();
  for (size_t begin = 0; begin < n;) {
    size_t end = Resolve(begin, n);
    for (size_t j = 0; j < aggs_.size(); ++j) {
      FoldColumns(j, args + arg_offset_[j], begin, end);
    }
    if (end < n) Spill();
    begin = end;
  }
}

void GroupTable::Merge(const Row* rows, size_t n) {
  const size_t width = keys_.types().size();
  std::vector<ColumnVector> cols;
  cols.reserve(width);
  Columns keys;
  for (size_t c = 0; c < width; ++c) {
    cols.emplace_back(keys_.types()[c]);
    cols.back().Reserve(n);
    for (size_t r = 0; r < n; ++r) cols.back().Append(rows[r].Get(c));
    keys.push_back(&cols.back());
  }
  keys_.Hash(keys.data(), n, &chunk_);
  for (size_t begin = 0; begin < n;) {
    size_t end = Resolve(begin, n);
    for (size_t j = 0; j < aggs_.size(); ++j) {
      FoldValues(j, rows, width + j, begin, end);
    }
    if (end < n) Spill();
    begin = end;
  }
}

size_t GroupTable::Resolve(size_t begin, size_t n) {
  chunk_gids_.resize(n);
  const size_t end = keys_.Resolve(
      chunk_, begin, n, chunk_gids_.data(), [this](int64_t) {
        if (!draining_ && !ctx_.memory().spill_enabled()) {
          throw ExecutionError(ctx_.memory().OverBudgetMessage(consumer_));
        }
        // Spill first when there is anything to spill. The irreducible
        // working set (one group in an empty table, or a drained bucket
        // that still exceeds the budget) is admitted over budget.
        return draining_ || keys_.size() == 0;
      });
  // New groups start from fresh accumulators. The banks grow with the key
  // table's capacity, which is what it charged for them.
  const size_t groups = keys_.size(), capacity = keys_.capacity();
  accs_.reserve(capacity * aggs_.size());
  boxed_.reserve(capacity * boxed_init_.size());
  accs_.resize(groups * aggs_.size());
  while (boxed_.size() < groups * boxed_init_.size()) {
    boxed_.insert(boxed_.end(), boxed_init_.begin(), boxed_init_.end());
  }
  return end;
}

void GroupTable::FoldColumns(size_t j, const ColumnVector* const* args,
                             size_t begin, size_t end) {
  const AggSlot& slot = aggs_[j];
  const size_t m = aggs_.size();
  const uint32_t* gid = chunk_gids_.data();
  Acc* acc = accs_.data() + j;  // group g's slot: acc[g * m]
  if (slot.kind == AccKind::kCountStar) {
    for (size_t r = begin; r < end; ++r) acc[gid[r] * m].n += 1;
    return;
  }
  if (slot.kind == AccKind::kBoxed) {
    const size_t nb = boxed_init_.size();
    for (size_t r = begin; r < end; ++r) {
      scratch_args_.values().clear();
      for (size_t c = 0; c < slot.args.size(); ++c) {
        scratch_args_.Append(args[c]->GetValue(r));
      }
      slot.fn->Update(&boxed_[gid[r] * nb + boxed_index_[j]], scratch_args_);
    }
    return;
  }
  // One tight loop per kind over the non-null rows.
  const ColumnVector& col = *args[0];
  const uint8_t* nulls = col.nulls().data();
  const int64_t* ints = col.ints().data();
  const double* dbls = col.doubles().data();
  auto each = [&](auto&& fold) {
    for (size_t r = begin; r < end; ++r) {
      if (nulls[r] == 0) fold(acc[gid[r] * m], r);
    }
  };
  const bool min = slot.is_min;
  switch (slot.kind) {
    case AccKind::kCount:
      each([](Acc& a, size_t) { a.n += 1; });
      break;
    case AccKind::kSumI64:
      each([&](Acc& a, size_t r) { a.i += ints[r], a.n = 1; });
      break;
    case AccKind::kSumF64:
      each([&](Acc& a, size_t r) { a.d += dbls[r], a.n = 1; });
      break;
    case AccKind::kAvg:
      // Average's accumulator sums as double regardless of input.
      if (LaneFor(col.type()->id()) == Lane::kDouble) {
        each([&](Acc& a, size_t r) { a.d += dbls[r], a.n += 1; });
      } else {
        each([&](Acc& a, size_t r) {
          a.d += static_cast<double>(ints[r]), a.n += 1;
        });
      }
      break;
    case AccKind::kMinMaxI64:
      each([&](Acc& a, size_t r) {
        if (a.n == 0 || (min ? ints[r] < a.i : ints[r] > a.i)) a.i = ints[r];
        a.n = 1;
      });
      break;
    case AccKind::kMinMaxF64:
      each([&](Acc& a, size_t r) {
        if (a.n == 0 || (min ? dbls[r] < a.d : dbls[r] > a.d)) a.d = dbls[r];
        a.n = 1;
      });
      break;
    default:
      break;
  }
}

void GroupTable::FoldValues(size_t j, const Row* rows, size_t col,
                            size_t begin, size_t end) {
  const AggSlot& slot = aggs_[j];
  for (size_t r = begin; r < end; ++r) {
    const uint32_t g = chunk_gids_[r];
    const Value& v = rows[r].Get(col);
    Acc& a = accs_[g * aggs_.size() + j];
    if (slot.kind == AccKind::kBoxed) {
      slot.fn->Merge(&boxed_[g * boxed_init_.size() + boxed_index_[j]], v);
    } else if (slot.kind == AccKind::kAvg) {
      a.d += v.struct_data().fields[0].f64();
      a.n += v.struct_data().fields[1].i64();
    } else if (slot.kind == AccKind::kCountStar ||
               slot.kind == AccKind::kCount) {
      a.n += v.i64();
    } else if (!v.is_null()) {
      // A partial sum, min or max folds like one more input value.
      const int64_t i = v.AsInt64();
      const double d = v.AsDouble();
      if (slot.kind == AccKind::kSumI64) a.i += i;
      if (slot.kind == AccKind::kSumF64) a.d += d;
      if (slot.kind == AccKind::kMinMaxI64 &&
          (a.n == 0 || (slot.is_min ? i < a.i : i > a.i))) {
        a.i = i;
      }
      if (slot.kind == AccKind::kMinMaxF64 &&
          (a.n == 0 || (slot.is_min ? d < a.d : d > a.d))) {
        a.d = d;
      }
      a.n = 1;
    }
  }
}

Row GroupTable::GroupRow(uint32_t g, bool finish) {
  Row row;
  row.Reserve(keys_.types().size() + aggs_.size());
  keys_.AppendKey(g, &row);
  const Acc* bank = accs_.data() + static_cast<size_t>(g) * aggs_.size();
  for (size_t j = 0; j < aggs_.size(); ++j) {
    const AggSlot& slot = aggs_[j];
    const Acc& a = bank[j];
    switch (slot.kind) {
      case AccKind::kCountStar:
      case AccKind::kCount:
        row.Append(Value(a.n));
        break;
      case AccKind::kSumI64:
        row.Append(a.n != 0 ? Value(a.i) : Value::Null());
        break;
      case AccKind::kSumF64:
      case AccKind::kMinMaxF64:
        row.Append(a.n != 0 ? Value(a.d) : Value::Null());
        break;
      case AccKind::kMinMaxI64:
        row.Append(a.n != 0 ? BoxIntLike(a.i, slot.type) : Value::Null());
        break;
      case AccKind::kAvg:
        if (!finish) {
          row.Append(Value::Struct({Value(a.d), Value(a.n)}));
        } else {
          row.Append(a.n != 0 ? Value(a.d / static_cast<double>(a.n))
                              : Value::Null());
        }
        break;
      case AccKind::kBoxed: {
        Value& box = boxed_[g * boxed_init_.size() + boxed_index_[j]];
        row.Append(finish ? slot.fn->Finish(box) : std::move(box));
        break;
      }
    }
  }
  return row;
}

void GroupTable::Drain(bool finish, const std::function<void(Row&&)>& sink) {
  auto emit = [&] {
    for (uint32_t g = 0; g < keys_.size(); ++g) sink(GroupRow(g, finish));
    Reset();
  };
  if (spill_buckets_.empty()) return emit();
  // Uniform handling: push the in-memory remainder to disk too, then
  // re-aggregate bucket by bucket.
  Spill();
  draining_ = true;
  for (auto& bucket : spill_buckets_) {
    if (!bucket) continue;
    bucket->FinishWrites();
    SpillFile::Reader reader(*bucket);
    std::vector<Row> rows(kChunkRows);
    size_t n = 0;
    size_t cancel_check = 0;
    while (reader.Next(&rows[n])) {
      ctx_.CheckCancelledEvery(&cancel_check);
      if (++n == rows.size()) {
        Merge(rows.data(), n);
        n = 0;
      }
    }
    Merge(rows.data(), n);
    emit();
    bucket.reset();  // deletes the file as soon as its bucket is done
  }
  draining_ = false;
}

void GroupTable::Spill() {
  if (spill_buckets_.empty()) spill_buckets_.resize(kAggSpillFanout);
  int64_t wrote = 0;
  size_t cancel_check = 0;
  int64_t files_created = 0;
  for (uint32_t g = 0; g < keys_.size(); ++g) {
    ctx_.CheckCancelledEvery(&cancel_check);
    size_t b = MixHash64(keys_.hash(g)) % kAggSpillFanout;
    if (!spill_buckets_[b]) {
      spill_buckets_[b].emplace(ctx_.MakeSpillFile(consumer_));
      ++files_created;
    }
    wrote += spill_buckets_[b]->Append(GroupRow(g, false));
  }
  ctx_.RecordSpill(files_created, wrote);
  Reset();
}

void GroupTable::Reset() {
  keys_.Reset();
  std::vector<Acc>().swap(accs_);
  std::vector<Value>().swap(boxed_);
}

}  // namespace ssql
