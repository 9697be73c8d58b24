#include "exec/group_table.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "catalyst/expr/expression.h"
#include "engine/query_context.h"

namespace ssql {

namespace {

/// Number of hash buckets a spilled table is scattered into; the drain
/// phase needs only one bucket's groups in memory at a time.
constexpr size_t kAggSpillFanout = 16;

/// Group capacity of a fresh table (doubles on demand) and the first and
/// largest arena blocks: starting small keeps a tiny budget's irreducible
/// working set small. The index never has fewer slots than kMinIndexSlots,
/// so small tables rarely probe past a collision.
constexpr uint32_t kInitialGroups = 16;
constexpr size_t kMinIndexSlots = 256;
constexpr size_t kFirstArenaChunk = 1024;
constexpr size_t kMaxArenaChunk = 64 * 1024;

/// What a null key cell contributes to the group hash.
constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;

/// Rows per chunk when draining a spill bucket.
constexpr size_t kChunkRows = 1024;

uint64_t HashString(std::string_view s) {
  uint64_t h = s.size();
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = MixHash64(h ^ w);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, s.data() + i, s.size() - i);
  return MixHash64(h ^ tail);
}

/// Boxes an int64 lane value back into its logical type.
Value BoxIntLike(int64_t v, TypeId id) {
  switch (id) {
    case TypeId::kInt32:
      return Value(static_cast<int32_t>(v));
    case TypeId::kDate:
      return Value(DateValue{static_cast<int32_t>(v)});
    case TypeId::kTimestamp:
      return Value(TimestampValue{v});
    case TypeId::kBoolean:
      return Value(v != 0);
    default:
      return Value(v);
  }
}

template <typename T>
void Free(std::vector<T>* v) {
  std::vector<T>().swap(*v);
}

}  // namespace

Lane LaneFor(TypeId id) {
  if (id == TypeId::kInt32 || id == TypeId::kInt64 || id == TypeId::kDate ||
      id == TypeId::kTimestamp || id == TypeId::kBoolean) {
    return Lane::kInt;
  }
  if (id == TypeId::kDouble) return Lane::kDouble;
  if (id == TypeId::kString) return Lane::kString;
  return Lane::kBoxed;
}

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
      arena_chunk_(kFirstArenaChunk),
      reservation_(ctx.memory().CreateReservation()) {
  group_bytes_ = static_cast<int64_t>(sizeof(uint64_t) + 2 * sizeof(Slot) +
                                      aggs.size() * sizeof(Acc));
  for (const DataTypePtr& t : key_types) {
    Lane lane = keys_.emplace_back(t).lane;
    group_bytes_ += 1 + (lane == Lane::kString  ? sizeof(std::string_view)
                         : lane == Lane::kBoxed ? sizeof(Value)
                                                : sizeof(int64_t));
  }
  size_t args = 0;
  for (const AggSlot& slot : aggs) {
    arg_offset_.push_back(args);
    args += slot.args.size();
    boxed_index_.push_back(boxed_init_.size());
    if (slot.kind != AccKind::kBoxed) continue;
    boxed_init_.push_back(slot.fn->InitAccumulator());
    boxed_init_bytes_ += EstimateValueBytes(boxed_init_.back());
    group_bytes_ += sizeof(Value);
  }
}

void GroupTable::Update(const Columns& cols, size_t n) {
  BindKeys(cols.data(), n);
  const ColumnVector* const* args = cols.data() + keys_.size();
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
  std::vector<ColumnVector> cols;
  cols.reserve(keys_.size());
  Columns keys;
  for (size_t c = 0; c < keys_.size(); ++c) {
    cols.emplace_back(keys_[c].type);
    cols.back().Reserve(n);
    for (size_t r = 0; r < n; ++r) cols.back().Append(rows[r].Get(c));
    keys.push_back(&cols.back());
  }
  BindKeys(keys.data(), n);
  for (size_t begin = 0; begin < n;) {
    size_t end = Resolve(begin, n);
    for (size_t j = 0; j < aggs_.size(); ++j) {
      FoldValues(j, rows, keys_.size() + j, begin, end);
    }
    if (end < n) Spill();
    begin = end;
  }
}

void GroupTable::BindKeys(const ColumnVector* const* keys, size_t n) {
  chunk_hashes_.assign(n, 0x243f6a8885a308d3ULL);
  chunk_gids_.resize(n);
  uint64_t* h = chunk_hashes_.data();
  for (size_t c = 0; c < keys_.size(); ++c) {
    const ColumnVector& col = *keys[c];
    KeyColumn& key = keys_[c];
    key.in = &col;
    key.in_nulls = col.nulls().data();
    key.in_ints = col.ints().data();
    key.in_doubles = col.doubles().data();
    const uint8_t* nulls = key.in_nulls;
    auto mix = [&](auto&& bits) {
      for (size_t r = 0; r < n; ++r) {
        h[r] = MixHash64(h[r] ^ (nulls[r] ? kNullHash : bits(r)));
      }
    };
    switch (key.lane) {
      case Lane::kInt:
        mix([&](size_t r) { return static_cast<uint64_t>(col.ints()[r]); });
        break;
      case Lane::kDouble:
        mix([&](size_t r) {
          // Value::Equals semantics: -0.0 equals 0.0, and NaN equals NaN.
          double d = col.doubles()[r];
          d = d == 0.0 ? 0.0 : std::isnan(d) ? NAN : d;
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          return bits;
        });
        break;
      case Lane::kString:
        mix([&](size_t r) { return HashString(col.strings()[r]); });
        break;
      case Lane::kBoxed:
        mix([&](size_t r) { return col.GetValue(r).Hash(); });
        break;
    }
  }
}

// Null slots hold defined zeros on both sides (ColumnVector's convention,
// kept by Insert), so comparing the null flags and the lane values decides
// equality without a branch on null.
inline bool GroupTable::KeyEquals(uint32_t g, size_t r) const {
  for (const KeyColumn& key : keys_) {
    bool same = key.nulls[g] == key.in_nulls[r];
    switch (key.lane) {
      case Lane::kInt:
        same = same && key.ints[g] == key.in_ints[r];
        break;
      case Lane::kDouble: {
        double a = key.doubles[g], b = key.in_doubles[r];
        same = same && (a == b || (std::isnan(a) && std::isnan(b)));
        break;
      }
      case Lane::kString:
        same = same && key.strings[g] == key.in->strings()[r];
        break;
      case Lane::kBoxed:
        same = same && key.boxed[g].Equals(key.in->GetValue(r));
        break;
    }
    if (!same) return false;
  }
  return true;
}

size_t GroupTable::Resolve(size_t begin, size_t n) {
  for (size_t r = begin; r < n; ++r) {
    const uint64_t h = chunk_hashes_[r];
    if (capacity_ > 0) {
      const size_t mask = index_.size() - 1;
      const auto tag = static_cast<uint32_t>(h >> 32);
      size_t p = h & mask;
      while (index_[p].gid != 0 &&
             !(index_[p].tag == tag && KeyEquals(index_[p].gid - 1, r))) {
        p = (p + 1) & mask;
      }
      if (index_[p].gid != 0) {
        chunk_gids_[r] = index_[p].gid - 1;
        continue;
      }
    }
    const int64_t bytes = InsertBytes(r);
    if (!reservation_.EnsureReserved(used_bytes_ + bytes)) {
      if (!draining_ && !ctx_.memory().spill_enabled()) {
        throw ExecutionError(ctx_.memory().OverBudgetMessage(consumer_));
      }
      // Spill first when there is anything to spill. The irreducible
      // working set (one group in an empty table, or a drained bucket that
      // still exceeds the budget) is admitted over budget.
      if (!draining_ && num_groups_ > 0) return r;
      reservation_.ForceGrow(used_bytes_ + bytes - reservation_.reserved());
    }
    used_bytes_ += bytes;
    chunk_gids_[r] = Insert(r, h);
  }
  return n;
}

/// Bytes a new group for row `r` adds: lane and index growth, a new arena
/// block for its string keys, its boxed keys and accumulators.
int64_t GroupTable::InsertBytes(size_t r) const {
  int64_t bytes = boxed_init_bytes_;
  if (num_groups_ == capacity_) {
    bytes += std::max(capacity_, kInitialGroups) * group_bytes_;
    if (capacity_ == 0) bytes += kMinIndexSlots * sizeof(Slot);
  }
  size_t str = 0;
  for (const KeyColumn& key : keys_) {
    if (key.in->nulls()[r] != 0) continue;
    if (key.lane == Lane::kString) str += key.in->strings()[r].size();
    if (key.lane == Lane::kBoxed) {
      bytes += EstimateValueBytes(key.in->GetValue(r));
    }
  }
  if (str > arena_left_) bytes += std::max(str, arena_chunk_);
  return bytes;
}

uint32_t GroupTable::Insert(size_t r, uint64_t h) {
  if (num_groups_ == capacity_) Grow();
  const uint32_t g = num_groups_++;
  hashes_.push_back(h);
  for (KeyColumn& key : keys_) {
    const ColumnVector& col = *key.in;
    const bool null = col.nulls()[r] != 0;
    key.nulls.push_back(null ? 1 : 0);
    switch (key.lane) {
      case Lane::kInt:
        key.ints.push_back(col.ints()[r]);
        break;
      case Lane::kDouble:
        key.doubles.push_back(col.doubles()[r]);
        break;
      case Lane::kString: {
        const std::string& s = col.strings()[r];
        if (s.size() > arena_left_) {
          // One chunk per new arena block; a key longer than the block
          // size gets a block of its own.
          size_t block = std::max(s.size(), arena_chunk_);
          arena_.push_back(std::make_unique<char[]>(block));
          arena_next_ = arena_.back().get();
          arena_left_ = block;
          arena_chunk_ = std::min(arena_chunk_ * 2, kMaxArenaChunk);
        }
        if (!s.empty()) std::memcpy(arena_next_, s.data(), s.size());
        key.strings.emplace_back(arena_next_, s.size());
        arena_next_ += s.size();
        arena_left_ -= s.size();
        break;
      }
      case Lane::kBoxed:
        key.boxed.push_back(null ? Value::Null() : col.GetValue(r));
        break;
    }
  }
  accs_.resize(accs_.size() + aggs_.size());
  boxed_.insert(boxed_.end(), boxed_init_.begin(), boxed_init_.end());
  const size_t mask = index_.size() - 1;
  size_t p = h & mask;
  while (index_[p].gid != 0) p = (p + 1) & mask;
  index_[p] = Slot{static_cast<uint32_t>(h >> 32), g + 1};
  return g;
}

void GroupTable::Grow() {
  capacity_ = std::max(capacity_ * 2, kInitialGroups);
  hashes_.reserve(capacity_);
  accs_.reserve(static_cast<size_t>(capacity_) * aggs_.size());
  boxed_.reserve(static_cast<size_t>(capacity_) * boxed_init_.size());
  for (KeyColumn& key : keys_) {
    key.nulls.reserve(capacity_);
    if (key.lane == Lane::kInt) key.ints.reserve(capacity_);
    if (key.lane == Lane::kDouble) key.doubles.reserve(capacity_);
    if (key.lane == Lane::kString) key.strings.reserve(capacity_);
    if (key.lane == Lane::kBoxed) key.boxed.reserve(capacity_);
  }
  // Load factor at most 1/2 (lower while small, where collisions cost
  // more than the slots); rebuilt from the stored hashes.
  index_.assign(std::max<size_t>(capacity_ * 2, kMinIndexSlots), Slot{0, 0});
  const size_t mask = index_.size() - 1;
  for (uint32_t g = 0; g < num_groups_; ++g) {
    size_t p = hashes_[g] & mask;
    while (index_[p].gid != 0) p = (p + 1) & mask;
    index_[p] = Slot{static_cast<uint32_t>(hashes_[g] >> 32), g + 1};
  }
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
  row.Reserve(keys_.size() + aggs_.size());
  for (KeyColumn& key : keys_) {
    if (key.nulls[g] != 0) {
      row.Append(Value::Null());
    } else if (key.lane == Lane::kInt) {
      row.Append(BoxIntLike(key.ints[g], key.type->id()));
    } else if (key.lane == Lane::kDouble) {
      row.Append(Value(key.doubles[g]));
    } else if (key.lane == Lane::kString) {
      row.Append(Value(std::string(key.strings[g])));
    } else {
      row.Append(std::move(key.boxed[g]));
    }
  }
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
    for (uint32_t g = 0; g < num_groups_; ++g) sink(GroupRow(g, finish));
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
  size_t files_created = 0;
  for (uint32_t g = 0; g < num_groups_; ++g) {
    ctx_.CheckCancelledEvery(&cancel_check);
    size_t b = MixHash64(hashes_[g]) % kAggSpillFanout;
    if (!spill_buckets_[b]) {
      spill_buckets_[b].emplace(ctx_.MakeSpillFile(consumer_));
      ++files_created;
    }
    wrote += spill_buckets_[b]->Append(GroupRow(g, false));
  }
  if (files_created > 0) {
    ctx_.profile().Add(nullptr, ProfileCounter::kSpillFiles,
                       static_cast<int64_t>(files_created));
  }
  if (wrote > 0) {
    ctx_.profile().Add(nullptr, ProfileCounter::kSpillBytes, wrote);
    ctx_.engine()
        .registry()
        .Histogram("ssql_spill_write_bytes", "Bytes written per spill event")
        .Record(wrote);
  }
  Reset();
}

void GroupTable::Reset() {
  num_groups_ = 0;
  capacity_ = 0;
  Free(&index_);
  Free(&hashes_);
  Free(&accs_);
  Free(&boxed_);
  for (KeyColumn& key : keys_) {  // the chunk binding stays
    Free(&key.nulls);
    Free(&key.ints);
    Free(&key.doubles);
    Free(&key.strings);
    Free(&key.boxed);
  }
  arena_.clear();
  arena_next_ = nullptr;
  arena_left_ = 0;
  arena_chunk_ = kFirstArenaChunk;
  used_bytes_ = 0;
  reservation_.Release();
}

}  // namespace ssql
