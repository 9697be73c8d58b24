#include "datasources/chunk_reader.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string_view>

#include "engine/task_runner.h"

namespace ssql {

namespace {

using Op = FilterSpec::Op;

bool IsNumeric(TypeId t) {
  return t == TypeId::kInt32 || t == TypeId::kInt64 || t == TypeId::kDouble ||
         t == TypeId::kDecimal;
}

/// pass[s] = the slot is non-null and comparison `op` holds for cmp(s), the
/// slot's three-way compare (-1, 0 or 1) with the literal.
template <typename Cmp>
void CompareSlots(Op op, const uint8_t* nulls, size_t n, uint8_t* pass,
                  Cmp cmp) {
  for (size_t s = 0; s < n; ++s) {
    pass[s] = (nulls[s] == 0) & FilterSpec::Holds(op, cmp(s));
  }
}

/// Keeps the entries `r` of `sel` for which `pred(r)` holds, in order.
template <typename Pred>
void KeepIf(std::vector<uint32_t>* sel, Pred pred) {
  size_t kept = 0;
  for (const uint32_t r : *sel) {
    if (pred(r)) (*sel)[kept++] = r;
  }
  sel->resize(kept);
}

}  // namespace

ChunkFilter::ChunkFilter(FilterSpec spec, const DataTypePtr& column_type)
    : spec_(std::move(spec)), type_(column_type) {
  const TypeId c = type_->id();
  auto mismatch = [&](const Value& lit) {
    return ExecutionError("pushed filter " + spec_.ToString() + " compares a " +
                          type_->ToString() + " column with the literal " +
                          lit.ToString() + " of another type");
  };
  switch (spec_.op) {
    case Op::kIsNull:
    case Op::kIsNotNull:
      return;
    case Op::kIn:
      break;
    default:
      if (spec_.values.size() != 1) {
        throw ExecutionError("pushed filter " + spec_.ToString() +
                             " needs exactly one literal");
      }
  }
  if (c != TypeId::kBoolean && c != TypeId::kDate && c != TypeId::kTimestamp &&
      c != TypeId::kString && !IsNumeric(c)) {
    return;  // complex types are stored boxed and run Matches
  }
  for (const Value& lit : spec_.values) {
    const TypeId l = lit.type_id();
    Operand op;
    if (spec_.op == Op::kStartsWith || spec_.op == Op::kContains) {
      if (c != TypeId::kString || l != TypeId::kString) throw mismatch(lit);
      op.kind = Operand::Kind::kString;
      op.s = lit.str();
    } else if (lit.is_null()) {
      op.constant = 1;  // Value::Compare orders null before everything
    } else if (IsNumeric(c) && IsNumeric(l)) {
      // Value::Compare's numeric cases: as doubles against a double,
      // exactly between decimals and integers.
      if (c == TypeId::kDouble || l == TypeId::kDouble) {
        op.kind = Operand::Kind::kDouble;
        op.d = lit.AsDouble();
      } else if (c == TypeId::kDecimal || l == TypeId::kDecimal) {
        op.kind = Operand::Kind::kDecimal;
        op.dec = l == TypeId::kDecimal
                     ? lit.decimal()
                     : Decimal(lit.AsInt64(), Decimal::kMaxLongDigits, 0);
      } else {
        op.kind = Operand::Kind::kInt;
        op.i = lit.AsInt64();
      }
    } else if (IsNumeric(c)) {
      op.constant = 0;  // a number against a non-number compares equal
    } else if (c != l) {
      throw mismatch(lit);
    } else if (c == TypeId::kString) {
      op.kind = Operand::Kind::kString;
      op.s = lit.str();
    } else {
      op.kind = Operand::Kind::kInt;
      op.i = c == TypeId::kBoolean ? (lit.bool_value() ? 1 : 0)
             : c == TypeId::kDate  ? lit.date().days
                                   : lit.timestamp().micros;
    }
    operands_.push_back(std::move(op));
  }
}

void ChunkFilter::EvalSlots(const ChunkValues& values, uint8_t* pass) const {
  const size_t n = values.num_slots();
  const uint8_t* nulls = values.nulls.data();
  switch (spec_.op) {
    case Op::kIsNull:
      for (size_t s = 0; s < n; ++s) pass[s] = nulls[s] != 0;
      return;
    case Op::kIsNotNull:
      for (size_t s = 0; s < n; ++s) pass[s] = nulls[s] == 0;
      return;
    case Op::kStartsWith: {
      const std::string_view p = operands_[0].s;
      for (size_t s = 0; s < n; ++s) {
        pass[s] = nulls[s] == 0 && values.strings[s].starts_with(p);
      }
      return;
    }
    case Op::kContains: {
      const std::string_view p = operands_[0].s;
      for (size_t s = 0; s < n; ++s) {
        pass[s] = nulls[s] == 0 && values.strings[s].find(p) != p.npos;
      }
      return;
    }
    default:
      break;
  }
  // A comparison has one operand; IN is an OR of equalities.
  const Op op = spec_.op == Op::kIn ? Op::kEq : spec_.op;
  const int64_t* ints = values.ints.data();
  // An int-like lane holds a decimal column's unscaled values; an integer
  // is a decimal of scale 0.
  const bool is_decimal = type_->id() == TypeId::kDecimal;
  const int precision = is_decimal ? AsDecimal(*type_).precision() : 0;
  const int scale = is_decimal ? AsDecimal(*type_).scale() : 0;
  std::vector<uint8_t> scratch;
  for (size_t k = 0; k < operands_.size(); ++k) {
    const Operand& operand = operands_[k];
    uint8_t* out = pass;
    if (k > 0) {
      scratch.resize(n);
      out = scratch.data();
    }
    const int64_t i = operand.i;
    const double d = operand.d;
    const std::string_view str = operand.s;
    switch (operand.kind) {
      case Operand::Kind::kConstant:
        CompareSlots(op, nulls, n, out,
                     [&](size_t) { return operand.constant; });
        break;
      case Operand::Kind::kInt:
        CompareSlots(op, nulls, n, out,
                     [&](size_t s) { return (ints[s] > i) - (ints[s] < i); });
        break;
      case Operand::Kind::kDouble:
        if (type_->id() == TypeId::kDouble) {
          const double* x = values.doubles.data();
          CompareSlots(op, nulls, n, out,
                       [&](size_t s) { return CompareDoubles(x[s], d); });
        } else {
          CompareSlots(op, nulls, n, out, [&](size_t s) {
            const Decimal x(ints[s], precision, scale);
            return CompareDoubles(x.ToDouble(), d);
          });
        }
        break;
      case Operand::Kind::kDecimal:
        CompareSlots(op, nulls, n, out, [&](size_t s) {
          return Decimal(ints[s], precision, scale).Compare(operand.dec);
        });
        break;
      case Operand::Kind::kString:
        CompareSlots(op, nulls, n, out, [&](size_t s) {
          const int c = values.strings[s].compare(str);
          return (c > 0) - (c < 0);
        });
        break;
    }
    if (k > 0) {
      for (size_t s = 0; s < n; ++s) pass[s] |= out[s];
    }
  }
}

void ChunkFilter::Refine(const ChunkValues& values,
                         std::vector<uint32_t>* sel) const {
  const EncodedColumn& col = *values.column;
  if (col.encoding == ColumnEncoding::kBoxed) {
    KeepIf(sel, [&](uint32_t r) { return spec_.Matches(col.boxed[r]); });
    return;
  }
  std::vector<uint8_t> pass(values.num_slots());
  EvalSlots(values, pass.data());
  switch (col.encoding) {
    case ColumnEncoding::kPlain:
      KeepIf(sel, [&](uint32_t r) { return pass[r] != 0; });
      break;
    case ColumnEncoding::kDictionary:
      KeepIf(sel, [&](uint32_t r) { return pass[values.codes[r]] != 0; });
      break;
    case ColumnEncoding::kRunLength: {
      size_t run = 0;
      KeepIf(sel, [&](uint32_t r) {
        while (values.run_ends[run] <= r) ++run;
        return pass[run] != 0;
      });
      break;
    }
    case ColumnEncoding::kBoxed:
      break;
  }
}

ChunkReader::ChunkReader(const StructType& schema, std::vector<int> columns,
                         const std::vector<FilterSpec>& filters,
                         std::string source)
    : columns_(std::move(columns)), source_(std::move(source)) {
  filters_.reserve(filters.size());
  for (const FilterSpec& f : filters) {
    const int idx = schema.FieldIndex(f.column);
    if (idx < 0) {
      throw ExecutionError(source_ + ": unknown filter column " + f.column);
    }
    filters_.emplace_back(idx, ChunkFilter(f, schema.field(idx).type));
  }
}

bool ChunkReader::Read(const std::vector<EncodedColumn>& chunk,
                       uint32_t num_rows, size_t batch_size,
                       std::vector<RowBatchPtr>* out) const {
  for (const EncodedColumn& col : chunk) {
    if (col.num_rows != num_rows) {
      throw IoError(source_ + ": a column chunk holds " +
                    std::to_string(col.num_rows) + " rows where its chunk has " +
                    std::to_string(num_rows));
    }
  }
  for (const auto& [c, filter] : filters_) {
    if (!ColumnChunkMayMatch(chunk[c], filter.spec())) return false;
  }
  // Each column is parsed at most once, and only if a filter or the
  // projection reaches it.
  std::vector<std::optional<ChunkValues>> parsed(chunk.size());
  auto values_of = [&](int c) -> const ChunkValues& {
    if (!parsed[c]) parsed[c] = ReadChunkValues(chunk[c]);
    return *parsed[c];
  };
  ReadValues(num_rows, values_of, batch_size, out);
  return true;
}

void ChunkReader::ReadValues(
    uint32_t num_rows, const std::function<const ChunkValues&(int)>& values_of,
    size_t batch_size, std::vector<RowBatchPtr>* out) const {
  std::vector<uint32_t> sel(num_rows);
  std::iota(sel.begin(), sel.end(), 0u);
  for (const auto& [c, filter] : filters_) {
    if (sel.empty()) return;
    filter.Refine(values_of(c), &sel);
  }
  if (batch_size == 0) batch_size = 1;
  for (size_t start = 0; start < sel.size(); start += batch_size) {
    const size_t n = std::min(batch_size, sel.size() - start);
    if (columns_.empty()) {
      out->push_back(RowBatch::NoColumns(n));
      continue;
    }
    std::vector<std::shared_ptr<ColumnVector>> cols;
    cols.reserve(columns_.size());
    for (const int c : columns_) {
      const ChunkValues& values = values_of(c);
      auto col = std::make_shared<ColumnVector>(values.column->type);
      GatherRows(values, sel.data() + start, n, col.get());
      cols.push_back(std::move(col));
    }
    out->push_back(std::make_shared<const RowBatch>(std::move(cols)));
  }
}

BatchDataset CachedTableSource::ScanBatches(
    QueryContext& ctx, const std::vector<int>& columns,
    const std::vector<FilterSpec>& filters, size_t batch_size) const {
  const ChunkReader reader(*table_->schema(), columns, filters, "cache");
  const size_t chunks = table_->num_chunks();
  std::vector<BatchPartitionPtr> partitions(chunks);
  // Each chunk read is idempotent (it rebuilds its partition from the
  // immutable cached columns), so failed chunks can be retried, and the
  // two-phase shape lets a straggling chunk race a speculative duplicate,
  // with only the winner's commit publishing into `partitions`.
  TaskRunner(ctx).RunStageSpeculatable(
      "scan", chunks, [&](size_t idx) -> TaskRunner::TaskCommitFn {
        auto part = std::make_shared<BatchPartition>();
        reader.Read(table_->chunk_columns(idx), table_->chunk_rows(idx),
                    batch_size, &part->batches);
        return [&partitions, idx, part]() { partitions[idx] = part; };
      });
  return BatchDataset(std::move(partitions));
}

}  // namespace ssql
