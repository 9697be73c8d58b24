#include <algorithm>
#include <cctype>

#include "catalyst/codegen/compiled_expression.h"
#include "columnar/row_batch.h"
#include "util/string_util.h"

namespace ssql {

CompiledExpression::VectorEvaluator::VectorEvaluator(
    const CompiledExpression* program)
    : program_(program),
      i64_(program->num_regs_),
      f64_(program->num_regs_),
      str_(program->num_regs_),
      scratch_(program->num_regs_),
      null_(program->num_regs_),
      boxed_(program->num_regs_) {}

void CompiledExpression::VectorEvaluator::EnsureRowsBoxed(
    const RowBatch& batch) {
  if (rows_boxed_) return;
  boxed_rows_.clear();
  boxed_rows_.reserve(n_);
  for (size_t k = 0; k < n_; ++k) {
    std::vector<Value> cells(batch.num_columns());
    for (int c : program_->fallback_columns_) {
      cells[c] = batch.column(c).GetValue(batch.ActiveIndex(k));
    }
    boxed_rows_.emplace_back(std::move(cells));
  }
  rows_boxed_ = true;
}

void CompiledExpression::VectorEvaluator::Run(const RowBatch* batch,
                                              RowSpan row_span) {
  n_ = batch != nullptr ? batch->ActiveRows() : row_span.size();
  rows_boxed_ = false;
  const Row* const* rows = batch != nullptr ? nullptr : row_span.data();
  const uint32_t* sel = batch != nullptr && batch->has_selection()
                            ? batch->selection().data()
                            : nullptr;
  const size_t n = n_;

  // Lane accessors: grow a register's lane vector on first touch this Run.
  // Operand lanes a correct program always defines before use; going
  // through the same accessors for reads keeps even degenerate programs
  // (e.g. a null literal's untouched value bank) in bounds — the lanes
  // value-initialize and the null mask makes them unobservable.
  auto lanes_i64 = [&](uint16_t r) -> int64_t* {
    if (i64_[r].size() < n) i64_[r].resize(n);
    return i64_[r].data();
  };
  auto lanes_f64 = [&](uint16_t r) -> double* {
    if (f64_[r].size() < n) f64_[r].resize(n);
    return f64_[r].data();
  };
  auto lanes_str = [&](uint16_t r) -> const std::string** {
    if (str_[r].size() < n) str_[r].resize(n, nullptr);
    return str_[r].data();
  };
  auto lanes_scratch = [&](uint16_t r) -> std::string* {
    if (scratch_[r].size() < n) scratch_[r].resize(n);
    return scratch_[r].data();
  };
  auto lanes_null = [&](uint16_t r) -> uint8_t* {
    if (null_[r].size() < n) null_[r].resize(n);
    return null_[r].data();
  };
  auto lanes_boxed = [&](uint16_t r) -> Value* {
    if (boxed_[r].size() < n) boxed_[r].resize(n);
    return boxed_[r].data();
  };

  // Row loads: lane k unboxes rows[k]'s cell `aux`.
  auto read = [&](const Instr& in, auto* d, uint8_t* dn, auto unbox) {
    for (size_t k = 0; k < n; ++k) {
      const Value& v = rows[k]->Get(static_cast<size_t>(in.aux));
      dn[k] = v.is_null();
      d[k] = dn[k] ? decltype(unbox(v)){} : unbox(v);
    }
  };

  for (const Instr& in : program_->instrs_) {
    switch (in.op) {
      // ---- column loads: lane k reads rows[k]'s cell, or gathers through
      // the selection. Null bank slots hold defined zeros, so the gather is
      // unconditional; a null cell's lane holds zero too.
      case Op::kLoadColI64: {
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        if (rows != nullptr) {
          read(in, d, dn, [](const Value& v) { return v.AsInt64(); });
          break;
        }
        const ColumnVector& col = batch->column(static_cast<size_t>(in.aux));
        const int64_t* vals = col.ints().data();
        const uint8_t* nulls = col.nulls().data();
        for (size_t k = 0; k < n; ++k) {
          size_t i = sel ? sel[k] : k;
          d[k] = vals[i];
          dn[k] = nulls[i];
        }
        break;
      }
      case Op::kLoadColF64: {
        double* d = lanes_f64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        if (rows != nullptr) {
          read(in, d, dn, [](const Value& v) { return v.AsDouble(); });
          break;
        }
        const ColumnVector& col = batch->column(static_cast<size_t>(in.aux));
        const double* vals = col.doubles().data();
        const uint8_t* nulls = col.nulls().data();
        for (size_t k = 0; k < n; ++k) {
          size_t i = sel ? sel[k] : k;
          d[k] = vals[i];
          dn[k] = nulls[i];
        }
        break;
      }
      case Op::kLoadColStr: {
        const std::string** d = lanes_str(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        if (rows != nullptr) {
          read(in, d, dn, [](const Value& v) { return &v.str(); });
          break;
        }
        const ColumnVector& col = batch->column(static_cast<size_t>(in.aux));
        const std::string* vals = col.strings().data();
        const uint8_t* nulls = col.nulls().data();
        for (size_t k = 0; k < n; ++k) {
          size_t i = sel ? sel[k] : k;
          d[k] = &vals[i];
          dn[k] = nulls[i];
        }
        break;
      }
      // ---- constants: broadcast.
      case Op::kLoadConstI64: {
        int64_t c = program_->iconsts_[in.aux];
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          d[k] = c;
          dn[k] = 0;
        }
        break;
      }
      case Op::kLoadConstF64: {
        double c = program_->fconsts_[in.aux];
        double* d = lanes_f64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          d[k] = c;
          dn[k] = 0;
        }
        break;
      }
      case Op::kLoadConstStr: {
        const std::string* c = &program_->sconsts_[in.aux];
        const std::string** d = lanes_str(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          d[k] = c;
          dn[k] = 0;
        }
        break;
      }
      case Op::kLoadConstBool: {
        int64_t c = in.aux;
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          d[k] = c;
          dn[k] = 0;
        }
        break;
      }
      case Op::kLoadNull: {
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) dn[k] = 1;
        break;
      }
      // ---- int64 arithmetic: value computed unconditionally, null is the
      // OR of the operand nulls.
      case Op::kAddI64:
      case Op::kSubI64:
      case Op::kMulI64: {
        const int64_t* a = lanes_i64(in.a);
        const int64_t* b = lanes_i64(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        switch (in.op) {
          case Op::kAddI64:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k] | nb[k];
              d[k] = a[k] + b[k];
            }
            break;
          case Op::kSubI64:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k] | nb[k];
              d[k] = a[k] - b[k];
            }
            break;
          default:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k] | nb[k];
              d[k] = a[k] * b[k];
            }
            break;
        }
        break;
      }
      case Op::kDivI64:
      case Op::kRemI64: {
        const int64_t* a = lanes_i64(in.a);
        const int64_t* b = lanes_i64(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          // As the interpreter: x/0 and x%0 yield NULL, not a fault.
          dn[k] = (na[k] | nb[k]) != 0 || b[k] == 0;
          if (!dn[k]) {
            d[k] = in.op == Op::kDivI64 ? a[k] / b[k] : a[k] % b[k];
          }
        }
        break;
      }
      case Op::kNegI64: {
        const int64_t* a = lanes_i64(in.a);
        const uint8_t* na = lanes_null(in.a);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k];
          d[k] = -a[k];
        }
        break;
      }
      // ---- double arithmetic.
      case Op::kAddF64:
      case Op::kSubF64:
      case Op::kMulF64: {
        const double* a = lanes_f64(in.a);
        const double* b = lanes_f64(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        double* d = lanes_f64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        switch (in.op) {
          case Op::kAddF64:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k] | nb[k];
              d[k] = a[k] + b[k];
            }
            break;
          case Op::kSubF64:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k] | nb[k];
              d[k] = a[k] - b[k];
            }
            break;
          default:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k] | nb[k];
              d[k] = a[k] * b[k];
            }
            break;
        }
        break;
      }
      case Op::kDivF64: {
        const double* a = lanes_f64(in.a);
        const double* b = lanes_f64(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        double* d = lanes_f64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = (na[k] | nb[k]) != 0 || b[k] == 0.0;
          if (!dn[k]) d[k] = a[k] / b[k];
        }
        break;
      }
      case Op::kNegF64: {
        const double* a = lanes_f64(in.a);
        const uint8_t* na = lanes_null(in.a);
        double* d = lanes_f64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k];
          d[k] = -a[k];
        }
        break;
      }
      case Op::kI64ToF64: {
        const int64_t* a = lanes_i64(in.a);
        const uint8_t* na = lanes_null(in.a);
        double* d = lanes_f64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k];
          d[k] = static_cast<double>(a[k]);
        }
        break;
      }
      case Op::kF64ToI64: {
        const double* a = lanes_f64(in.a);
        const uint8_t* na = lanes_null(in.a);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k];
          d[k] = static_cast<int64_t>(a[k]);
        }
        break;
      }
      // ---- comparisons.
      case Op::kCmpI64: {
        const int64_t* a = lanes_i64(in.a);
        const int64_t* b = lanes_i64(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k] | nb[k];
          d[k] = a[k] < b[k] ? -1 : (a[k] > b[k] ? 1 : 0);
        }
        break;
      }
      case Op::kCmpF64: {
        const double* a = lanes_f64(in.a);
        const double* b = lanes_f64(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k] | nb[k];
          d[k] = CompareDoubles(a[k], b[k]);
        }
        break;
      }
      case Op::kCmpStr: {
        const std::string** a = lanes_str(in.a);
        const std::string** b = lanes_str(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k] | nb[k];
          if (!dn[k]) {
            int c = a[k]->compare(*b[k]);
            d[k] = c < 0 ? -1 : (c > 0 ? 1 : 0);
          }
        }
        break;
      }
      case Op::kCmpBool: {
        const int64_t* a = lanes_i64(in.a);
        const int64_t* b = lanes_i64(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k] | nb[k];
          d[k] = a[k] - b[k];
        }
        break;
      }
      case Op::kEqFrom: {
        const int64_t* a = lanes_i64(in.a);
        const uint8_t* na = lanes_null(in.a);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        switch (in.aux) {
          case kCmpEq:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k];
              d[k] = a[k] == 0 ? 1 : 0;
            }
            break;
          case kCmpNe:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k];
              d[k] = a[k] != 0 ? 1 : 0;
            }
            break;
          case kCmpLt:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k];
              d[k] = a[k] < 0 ? 1 : 0;
            }
            break;
          case kCmpLe:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k];
              d[k] = a[k] <= 0 ? 1 : 0;
            }
            break;
          case kCmpGt:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k];
              d[k] = a[k] > 0 ? 1 : 0;
            }
            break;
          default:
            for (size_t k = 0; k < n; ++k) {
              dn[k] = na[k];
              d[k] = a[k] >= 0 ? 1 : 0;
            }
            break;
        }
        break;
      }
      // ---- three-valued connectives.
      case Op::kAnd: {
        const int64_t* a = lanes_i64(in.a);
        const int64_t* b = lanes_i64(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          bool la = na[k] == 0;
          bool lb = nb[k] == 0;
          bool va = la && a[k] != 0;
          bool vb = lb && b[k] != 0;
          if ((la && !va) || (lb && !vb)) {
            d[k] = 0;
            dn[k] = 0;
          } else if (!la || !lb) {
            dn[k] = 1;
          } else {
            d[k] = 1;
            dn[k] = 0;
          }
        }
        break;
      }
      case Op::kOr: {
        const int64_t* a = lanes_i64(in.a);
        const int64_t* b = lanes_i64(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          bool la = na[k] == 0;
          bool lb = nb[k] == 0;
          bool va = la && a[k] != 0;
          bool vb = lb && b[k] != 0;
          if (va || vb) {
            d[k] = 1;
            dn[k] = 0;
          } else if (!la || !lb) {
            dn[k] = 1;
          } else {
            d[k] = 0;
            dn[k] = 0;
          }
        }
        break;
      }
      case Op::kNot: {
        const int64_t* a = lanes_i64(in.a);
        const uint8_t* na = lanes_null(in.a);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k];
          d[k] = a[k] != 0 ? 0 : 1;
        }
        break;
      }
      case Op::kIsNull: {
        const uint8_t* na = lanes_null(in.a);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          d[k] = na[k] ? 1 : 0;
          dn[k] = 0;
        }
        break;
      }
      case Op::kIsNotNull: {
        const uint8_t* na = lanes_null(in.a);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          d[k] = na[k] ? 0 : 1;
          dn[k] = 0;
        }
        break;
      }
      // ---- string predicates and functions.
      case Op::kStartsWith:
      case Op::kEndsWith:
      case Op::kContains:
      case Op::kLike: {
        const std::string** a = lanes_str(in.a);
        const std::string** b = lanes_str(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k] | nb[k];
          if (dn[k]) continue;
          const std::string& s = *a[k];
          const std::string& p = *b[k];
          switch (in.op) {
            case Op::kStartsWith:
              d[k] = s.size() >= p.size() && s.compare(0, p.size(), p) == 0
                         ? 1
                         : 0;
              break;
            case Op::kEndsWith:
              d[k] = s.size() >= p.size() &&
                             s.compare(s.size() - p.size(), p.size(), p) == 0
                         ? 1
                         : 0;
              break;
            case Op::kContains:
              d[k] = s.find(p) != std::string::npos ? 1 : 0;
              break;
            default:
              d[k] = LikeMatch(s, p) ? 1 : 0;
              break;
          }
        }
        break;
      }
      case Op::kUpper:
      case Op::kLower: {
        const std::string** a = lanes_str(in.a);
        const uint8_t* na = lanes_null(in.a);
        const std::string** d = lanes_str(in.dst);
        std::string* sc = lanes_scratch(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k];
          if (dn[k]) continue;
          std::string& out = sc[k];
          out = *a[k];
          for (char& c : out) {
            c = in.op == Op::kUpper
                    ? static_cast<char>(
                          std::toupper(static_cast<unsigned char>(c)))
                    : static_cast<char>(
                          std::tolower(static_cast<unsigned char>(c)));
          }
          d[k] = &out;
        }
        break;
      }
      case Op::kSubstr: {
        const std::string** a = lanes_str(in.a);
        const int64_t* pos = lanes_i64(in.b);
        const int64_t* len = lanes_i64(static_cast<uint16_t>(in.aux));
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        const uint8_t* nc = lanes_null(static_cast<uint16_t>(in.aux));
        const std::string** d = lanes_str(in.dst);
        std::string* sc = lanes_scratch(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k] | nb[k] | nc[k];
          if (dn[k]) continue;
          const std::string& s = *a[k];
          int64_t p = pos[k];
          int64_t m = len[k];
          if (m < 0) m = 0;
          int64_t start = p > 0 ? p - 1
                          : p < 0 ? std::max<int64_t>(
                                        0, static_cast<int64_t>(s.size()) + p)
                                  : 0;
          std::string& out = sc[k];
          if (start >= static_cast<int64_t>(s.size())) {
            out.clear();
          } else {
            out = s.substr(static_cast<size_t>(start), static_cast<size_t>(m));
          }
          d[k] = &out;
        }
        break;
      }
      case Op::kLength: {
        const std::string** a = lanes_str(in.a);
        const uint8_t* na = lanes_null(in.a);
        int64_t* d = lanes_i64(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k];
          if (!dn[k]) d[k] = static_cast<int64_t>(a[k]->size());
        }
        break;
      }
      case Op::kConcat2: {
        const std::string** a = lanes_str(in.a);
        const std::string** b = lanes_str(in.b);
        const uint8_t* na = lanes_null(in.a);
        const uint8_t* nb = lanes_null(in.b);
        const std::string** d = lanes_str(in.dst);
        std::string* sc = lanes_scratch(in.dst);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          dn[k] = na[k] | nb[k];
          if (dn[k]) continue;
          std::string& out = sc[k];
          out = *a[k];
          out += *b[k];
          d[k] = &out;
        }
        break;
      }
      // ---- interpreter fallback: evaluate the subtree row-at-a-time into
      // this register's lanes, over the rows in place or a batch's live
      // rows boxed once per Run. A string stays in its boxed Value.
      case Op::kCallExpr: {
        if (batch != nullptr) EnsureRowsBoxed(*batch);
        const Expression& fn = *program_->fallbacks_[in.aux];
        Kind kind = static_cast<Kind>(in.b);
        uint8_t* dn = lanes_null(in.dst);
        for (size_t k = 0; k < n; ++k) {
          Value v = fn.Eval(rows != nullptr ? *rows[k] : boxed_rows_[k]);
          dn[k] = v.is_null();
          switch (kind) {
            case Kind::kBool:
            case Kind::kI64:
              lanes_i64(in.dst)[k] = dn[k] ? 0 : v.AsInt64();
              break;
            case Kind::kF64:
              lanes_f64(in.dst)[k] = dn[k] ? 0.0 : v.AsDouble();
              break;
            case Kind::kStr:
            case Kind::kBoxed: {
              Value& slot = lanes_boxed(in.dst)[k];
              slot = std::move(v);
              if (kind == Kind::kStr) {
                lanes_str(in.dst)[k] = dn[k] ? nullptr : &slot.str();
              }
              break;
            }
          }
        }
        break;
      }
    }
  }
}

void CompiledExpression::VectorEvaluator::AppendColumn(ColumnVector* out) {
  const size_t n = n_;
  uint16_t r = program_->result_reg_;
  // Result lanes exist whenever the program emitted at least one
  // instruction; null-literal-only programs may have left value banks
  // untouched, so go through the sized null bank first.
  if (null_[r].size() < n) null_[r].resize(n, 1);
  const uint8_t* nulls = null_[r].data();
  out->Reserve(out->size() + n);
  switch (program_->result_kind_) {
    case Kind::kBool:  // bool lanes hold 0 or 1
    case Kind::kI64: {
      if (i64_[r].size() < n) i64_[r].resize(n);
      const int64_t* vals = i64_[r].data();
      for (size_t k = 0; k < n; ++k) {
        if (nulls[k]) {
          out->AppendNull();
        } else {
          out->AppendInt64(vals[k]);
        }
      }
      break;
    }
    case Kind::kF64: {
      if (f64_[r].size() < n) f64_[r].resize(n);
      const double* vals = f64_[r].data();
      for (size_t k = 0; k < n; ++k) {
        if (nulls[k]) {
          out->AppendNull();
        } else {
          out->AppendDouble(vals[k]);
        }
      }
      break;
    }
    case Kind::kStr: {
      if (str_[r].size() < n) str_[r].resize(n, nullptr);
      const std::string** vals = str_[r].data();
      for (size_t k = 0; k < n; ++k) {
        if (nulls[k]) {
          out->AppendNull();
        } else {
          out->AppendString(*vals[k]);
        }
      }
      break;
    }
    case Kind::kBoxed: {
      if (boxed_[r].size() < n) boxed_[r].resize(n);
      const Value* vals = boxed_[r].data();
      for (size_t k = 0; k < n; ++k) {
        out->Append(nulls[k] ? Value::Null() : vals[k]);
      }
      break;
    }
  }
}

void CompiledExpression::VectorEvaluator::Select(
    const RowBatch* batch, std::vector<uint32_t>* sel_out) {
  const size_t n = n_;
  uint16_t r = program_->result_reg_;
  if (null_[r].size() < n) null_[r].resize(n, 1);
  if (i64_[r].size() < n) i64_[r].resize(n);
  const uint8_t* nulls = null_[r].data();
  const int64_t* vals = i64_[r].data();
  // WHERE semantics: a row passes only when the predicate is true AND not
  // null.
  for (size_t k = 0; k < n; ++k) {
    if (!nulls[k] && vals[k] != 0) {
      sel_out->push_back(static_cast<uint32_t>(
          batch != nullptr ? batch->ActiveIndex(k) : k));
    }
  }
}

void CompiledExpression::VectorEvaluator::EvaluateAppend(RowSpan rows,
                                                         Row* out) {
  Run(nullptr, rows);
  const uint16_t r = program_->result_reg_;
  const TypeId type = program_->result_type_->id();
  for (size_t k = 0; k < n_; ++k) {
    if (null_[r][k]) {
      out[k].Append(Value::Null());
      continue;
    }
    switch (program_->result_kind_) {
      case Kind::kBool:
      case Kind::kI64:
        out[k].Append(BoxIntLike(i64_[r][k], type));
        break;
      case Kind::kF64:
        out[k].Append(Value(f64_[r][k]));
        break;
      case Kind::kStr:
        // A string this register owns moves out (the next Run rewrites
        // it); a column's or constant's is copied.
        if (!boxed_[r].empty()) {
          out[k].Append(std::move(boxed_[r][k]));
        } else if (!scratch_[r].empty()) {
          out[k].Append(Value(std::move(scratch_[r][k])));
        } else {
          out[k].Append(Value(*str_[r][k]));
        }
        break;
      case Kind::kBoxed:
        out[k].Append(std::move(boxed_[r][k]));
        break;
    }
  }
}

}  // namespace ssql
