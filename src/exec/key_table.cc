#include "exec/key_table.h"

#include <algorithm>
#include <cstring>

#include "util/spill_file.h"

namespace ssql {

namespace {

/// Key capacity of a fresh table (doubles on demand) and the first and
/// largest arena blocks: starting small keeps a tiny budget's irreducible
/// working set small. The index never has fewer slots than kMinIndexSlots,
/// so small tables rarely probe past a collision.
constexpr uint32_t kInitialKeys = 16;
constexpr size_t kMinIndexSlots = 256;
constexpr size_t kFirstArenaBlock = 1024;
constexpr size_t kMaxArenaBlock = 64 * 1024;

/// What a null key cell contributes to the key hash.
constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;

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

std::string_view Text(const Value& v) {
  return v.is_null() ? std::string_view() : std::string_view(v.str());
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

KeyTable::KeyTable(MemoryManager& memory, std::vector<DataTypePtr> types,
                   bool nulls_match, int64_t owner_key_bytes,
                   int64_t owner_insert_bytes)
    : types_(std::move(types)),
      nulls_match_(nulls_match),
      insert_bytes_(owner_insert_bytes),
      arena_block_(kFirstArenaBlock),
      reservation_(memory.CreateReservation()) {
  key_bytes_ = static_cast<int64_t>(sizeof(uint64_t) + 2 * sizeof(Slot)) +
               owner_key_bytes;
  for (const DataTypePtr& t : types_) {
    const Lane lane = LaneFor(t->id());
    lanes_.push_back(KeyLane{lane, {}, {}, {}, {}, {}});
    key_bytes_ += 1 + (lane == Lane::kString  ? sizeof(std::string_view)
                       : lane == Lane::kBoxed ? sizeof(Value)
                                              : sizeof(int64_t));
  }
}

void KeyTable::Hash(const ColumnVector* const* cols, size_t n,
                    KeyChunk* chunk) const {
  chunk->cols.resize(lanes_.size());
  chunk->hashes.assign(n, 0x243f6a8885a308d3ULL);
  if (!nulls_match_) chunk->has_null.assign(n, 0);
  uint64_t* h = chunk->hashes.data();
  for (size_t c = 0; c < lanes_.size(); ++c) {
    const ColumnVector& col = *cols[c];
    const uint8_t* nulls = col.nulls().data();
    chunk->cols[c] = KeyChunk::Column{&col, nulls, col.ints().data(),
                                      col.doubles().data(),
                                      col.strings().data()};
    auto mix = [&](auto&& bits) {
      for (size_t r = 0; r < n; ++r) {
        h[r] = MixHash64(h[r] ^ (nulls[r] ? kNullHash : bits(r)));
      }
    };
    switch (lanes_[c].lane) {
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
    if (!nulls_match_) {
      for (size_t r = 0; r < n; ++r) chunk->has_null[r] |= nulls[r];
    }
  }
}

size_t KeyTable::Resolve(const KeyChunk& chunk, size_t begin, size_t n,
                         uint32_t* ids, const Admit& admit) {
  for (size_t r = begin; r < n; ++r) {
    uint32_t id = Find(chunk, r);
    if (id == kNone && (nulls_match_ || chunk.has_null[r] == 0)) {
      if (!Charge(InsertBytes(chunk, r), admit)) return r;
      id = Insert(chunk, r);
    }
    ids[r] = id;
  }
  return n;
}

bool KeyTable::Charge(int64_t bytes, const Admit& admit) {
  if (!reservation_.EnsureReserved(bytes_ + bytes)) {
    if (!admit(bytes)) return false;
    reservation_.ForceGrow(bytes_ + bytes - reservation_.reserved());
  }
  bytes_ += bytes;
  return true;
}

/// Bytes a new key for row `r` adds: lane and index growth, a new arena
/// block for its string cells, its boxed cells and the owner's share.
int64_t KeyTable::InsertBytes(const KeyChunk& chunk, size_t r) const {
  int64_t bytes = insert_bytes_;
  if (size_ == capacity_) {
    bytes += std::max(capacity_, kInitialKeys) * key_bytes_;
    if (capacity_ == 0) bytes += kMinIndexSlots * sizeof(Slot);
  }
  size_t str = 0;
  for (size_t c = 0; c < lanes_.size(); ++c) {
    const KeyChunk::Column& in = chunk.cols[c];
    if (in.nulls[r] != 0) continue;
    if (lanes_[c].lane == Lane::kString) str += in.strings[r].size();
    if (lanes_[c].lane == Lane::kBoxed) {
      bytes += EstimateValueBytes(in.col->GetValue(r));
    }
  }
  if (str > arena_left_) bytes += std::max(str, arena_block_);
  return bytes;
}

uint32_t KeyTable::Insert(const KeyChunk& chunk, size_t r) {
  if (size_ == capacity_) Grow();
  const uint32_t id = size_++;
  const uint64_t h = chunk.hashes[r];
  hashes_.push_back(h);
  for (size_t c = 0; c < lanes_.size(); ++c) {
    KeyLane& key = lanes_[c];
    const KeyChunk::Column& in = chunk.cols[c];
    const bool null = in.nulls[r] != 0;
    key.nulls.push_back(null ? 1 : 0);
    switch (key.lane) {
      case Lane::kInt:
        key.ints.push_back(in.ints[r]);
        break;
      case Lane::kDouble:
        key.doubles.push_back(in.doubles[r]);
        break;
      case Lane::kString: {
        const std::string& s = in.strings[r];
        if (s.size() > arena_left_) {
          // One new block; a key longer than the block size gets a block
          // of its own.
          size_t block = std::max(s.size(), arena_block_);
          arena_.push_back(std::make_unique<char[]>(block));
          arena_next_ = arena_.back().get();
          arena_left_ = block;
          arena_block_ = std::min(arena_block_ * 2, kMaxArenaBlock);
        }
        if (!s.empty()) std::memcpy(arena_next_, s.data(), s.size());
        key.strings.emplace_back(arena_next_, s.size());
        arena_next_ += s.size();
        arena_left_ -= s.size();
        break;
      }
      case Lane::kBoxed:
        key.boxed.push_back(null ? Value::Null() : in.col->GetValue(r));
        break;
    }
  }
  const size_t mask = index_.size() - 1;
  size_t p = h & mask;
  while (index_[p].id != 0) p = (p + 1) & mask;
  index_[p] = Slot{static_cast<uint32_t>(h >> 32), id + 1};
  return id;
}

void KeyTable::Grow() {
  capacity_ = std::max(capacity_ * 2, kInitialKeys);
  hashes_.reserve(capacity_);
  for (KeyLane& key : lanes_) {
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
  for (uint32_t id = 0; id < size_; ++id) {
    size_t p = hashes_[id] & mask;
    while (index_[p].id != 0) p = (p + 1) & mask;
    index_[p] = Slot{static_cast<uint32_t>(hashes_[id] >> 32), id + 1};
  }
}

void KeyTable::AppendKey(uint32_t id, Row* row) {
  for (size_t c = 0; c < lanes_.size(); ++c) {
    KeyLane& key = lanes_[c];
    if (key.nulls[id] != 0) {
      row->Append(Value::Null());
    } else if (key.lane == Lane::kInt) {
      row->Append(BoxIntLike(key.ints[id], types_[c]->id()));
    } else if (key.lane == Lane::kDouble) {
      row->Append(Value(key.doubles[id]));
    } else if (key.lane == Lane::kString) {
      row->Append(Value(std::string(key.strings[id])));
    } else {
      row->Append(std::move(key.boxed[id]));
    }
  }
}

void KeyTable::Reset() {
  size_ = 0;
  capacity_ = 0;
  Free(&index_);
  Free(&hashes_);
  for (KeyLane& key : lanes_) key = KeyLane{key.lane, {}, {}, {}, {}, {}};
  arena_.clear();
  arena_next_ = nullptr;
  arena_left_ = 0;
  arena_block_ = kFirstArenaBlock;
  bytes_ = 0;
  reservation_.Release();
}

InputReader::InputReader(const std::vector<BoundCompiled>& inputs,
                         bool batched)
    : inputs_(inputs),
      row_evals_(inputs.size()),
      vec_evals_(inputs.size()),
      cols_(inputs.size()),
      views_(inputs.size()) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    const auto& compiled = inputs[i].compiled;
    if (!compiled) continue;
    if (batched) vec_evals_[i].emplace(compiled->NewVectorEvaluator());
    if (!batched) row_evals_[i].emplace(compiled->NewEvaluator());
  }
}

const KeyTable::Columns& InputReader::Read(const Row* rows, size_t n) {
  for (size_t i = 0; i < cols_.size(); ++i) {
    ColumnVector& col = Fresh(i, n);
    auto& eval = row_evals_[i];
    // One loop per lane, each a typed register read per row.
    auto fill = [&](auto&& read) {
      for (size_t r = 0; r < n; ++r) {
        bool null = false;
        read(rows[r], &null);
        if (null) col.AppendNull();
      }
    };
    // A compiled bare column is a typed load: read the row's value in
    // place instead of running the one-instruction program.
    const auto* ref = eval ? As<BoundReference>(inputs_[i].bound) : nullptr;
    auto column = [&](const Row& row, bool* null) -> const Value& {
      const Value& v = row.Get(ref->ordinal());
      *null = v.is_null();
      return v;
    };
    switch (eval ? LaneFor(col.type()->id()) : Lane::kBoxed) {
      case Lane::kInt:
        fill([&](const Row& row, bool* null) {
          int64_t v = ref ? column(row, null).AsInt64()
                          : eval->EvaluateInt64(row, null);
          if (!*null) col.AppendInt64(v);
        });
        break;
      case Lane::kDouble:
        fill([&](const Row& row, bool* null) {
          double v = ref ? column(row, null).AsDouble()
                         : eval->EvaluateDouble(row, null);
          if (!*null) col.AppendDouble(v);
        });
        break;
      case Lane::kString:
        fill([&](const Row& row, bool* null) {
          std::string_view v = ref ? Text(column(row, null))
                                   : eval->EvaluateString(row, null);
          if (!*null) col.AppendString(std::string(v));
        });
        break;
      case Lane::kBoxed:
        fill([&](const Row& row, bool*) {
          col.Append(eval ? eval->Evaluate(row) : inputs_[i].bound->Eval(row));
        });
        break;
    }
  }
  return views_;
}

const KeyTable::Columns& InputReader::Read(const RowBatch& batch) {
  const size_t n = batch.ActiveRows();
  bool interpreted = false;
  for (size_t i = 0; i < cols_.size(); ++i) {
    ColumnVector& col = Fresh(i, n);
    if (vec_evals_[i]) vec_evals_[i]->EvaluateColumn(batch, &col);
    interpreted = interpreted || !vec_evals_[i];
  }
  for (size_t k = 0; interpreted && k < n; ++k) {
    Row row = batch.BoxRow(batch.ActiveIndex(k));
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (!vec_evals_[i]) cols_[i]->Append(inputs_[i].bound->Eval(row));
    }
  }
  return views_;
}

ColumnVector& InputReader::Fresh(size_t i, size_t n) {
  cols_[i].emplace(inputs_[i].bound->data_type());
  cols_[i]->Reserve(n);
  views_[i] = &*cols_[i];
  return *cols_[i];
}

}  // namespace ssql
