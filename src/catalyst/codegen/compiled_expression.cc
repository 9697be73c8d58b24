#include "catalyst/codegen/compiled_expression.h"

#include <cctype>
#include <cmath>

#include "catalyst/expr/arithmetic.h"
#include "catalyst/expr/cast.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "catalyst/expr/string_ops.h"
#include "util/string_util.h"

namespace ssql {

namespace {

// Comparison codes for kEqFrom's aux operand.
constexpr int kCmpEq = 0;
constexpr int kCmpNe = 1;
constexpr int kCmpLt = 2;
constexpr int kCmpLe = 3;
constexpr int kCmpGt = 4;
constexpr int kCmpGe = 5;

bool IsIntLike(TypeId id) {
  return id == TypeId::kInt32 || id == TypeId::kInt64 || id == TypeId::kDate ||
         id == TypeId::kTimestamp || id == TypeId::kBoolean;
}

}  // namespace

struct CompiledExpression::CompileState {
  CompiledExpression* program;
  uint16_t NewReg() { return program->num_regs_++; }
  void Emit(Op op, uint16_t dst, uint16_t a = 0, uint16_t b = 0, int32_t aux = 0) {
    program->instrs_.push_back(Instr{op, dst, a, b, aux});
  }
};

CompiledExpression::Slot CompiledExpression::CompileNode(const ExprPtr& e,
                                                         CompileState* state) {
  CompiledExpression* prog = state->program;
  ++prog->total_nodes_;

  auto fallback = [&]() -> Slot {
    ++prog->fallback_nodes_;
    uint16_t dst = state->NewReg();
    int idx = static_cast<int>(prog->fallbacks_.size());
    prog->fallbacks_.push_back(e);
    TypeId id = e->data_type()->id();
    Kind kind;
    if (IsIntLike(id)) {
      kind = id == TypeId::kBoolean ? Kind::kBool : Kind::kI64;
    } else if (id == TypeId::kDouble) {
      kind = Kind::kF64;
    } else if (id == TypeId::kString) {
      kind = Kind::kStr;
    } else {
      kind = Kind::kBoxed;
    }
    state->Emit(Op::kCallExpr, dst, 0, static_cast<uint16_t>(kind), idx);
    return Slot{kind, dst};
  };

  // Column loads.
  if (const auto* ref = As<BoundReference>(e)) {
    TypeId id = ref->data_type()->id();
    uint16_t dst = state->NewReg();
    if (id == TypeId::kBoolean) {
      state->Emit(Op::kLoadColBool, dst, 0, 0, ref->ordinal());
      return Slot{Kind::kBool, dst};
    }
    if (IsIntLike(id)) {
      state->Emit(Op::kLoadColI64, dst, 0, 0, ref->ordinal());
      return Slot{Kind::kI64, dst};
    }
    if (id == TypeId::kDouble) {
      state->Emit(Op::kLoadColF64, dst, 0, 0, ref->ordinal());
      return Slot{Kind::kF64, dst};
    }
    if (id == TypeId::kString) {
      state->Emit(Op::kLoadColStr, dst, 0, 0, ref->ordinal());
      return Slot{Kind::kStr, dst};
    }
    return fallback();
  }

  // Literals.
  if (const auto* lit = As<Literal>(e)) {
    uint16_t dst = state->NewReg();
    const Value& v = lit->value();
    TypeId id = lit->data_type()->id();
    if (v.is_null()) {
      Kind kind = id == TypeId::kBoolean ? Kind::kBool
                  : IsIntLike(id)        ? Kind::kI64
                  : id == TypeId::kDouble ? Kind::kF64
                  : id == TypeId::kString ? Kind::kStr
                                          : Kind::kBoxed;
      state->Emit(Op::kLoadNull, dst, 0, static_cast<uint16_t>(kind));
      return Slot{kind, dst};
    }
    if (id == TypeId::kBoolean) {
      state->Emit(Op::kLoadConstBool, dst, 0, 0, v.bool_value() ? 1 : 0);
      return Slot{Kind::kBool, dst};
    }
    if (IsIntLike(id)) {
      int idx = static_cast<int>(prog->iconsts_.size());
      prog->iconsts_.push_back(v.AsInt64());
      state->Emit(Op::kLoadConstI64, dst, 0, 0, idx);
      return Slot{Kind::kI64, dst};
    }
    if (id == TypeId::kDouble) {
      int idx = static_cast<int>(prog->fconsts_.size());
      prog->fconsts_.push_back(v.f64());
      state->Emit(Op::kLoadConstF64, dst, 0, 0, idx);
      return Slot{Kind::kF64, dst};
    }
    if (id == TypeId::kString) {
      int idx = static_cast<int>(prog->sconsts_.size());
      prog->sconsts_.push_back(v.str());
      state->Emit(Op::kLoadConstStr, dst, 0, 0, idx);
      return Slot{Kind::kStr, dst};
    }
    return fallback();
  }

  // Numeric binary arithmetic.
  if (const auto* arith = As<BinaryArithmetic>(e)) {
    TypeId out = e->data_type()->id();
    if (out != TypeId::kInt32 && out != TypeId::kInt64 && out != TypeId::kDouble) {
      return fallback();
    }
    Slot l = CompileNode(arith->left(), state);
    Slot r = CompileNode(arith->right(), state);
    if ((l.kind != Kind::kI64 && l.kind != Kind::kF64) ||
        (r.kind != Kind::kI64 && r.kind != Kind::kF64)) {
      return fallback();
    }
    bool is_f64 = out == TypeId::kDouble;
    // Promote mixed operands.
    if (is_f64 && l.kind == Kind::kI64) {
      uint16_t p = state->NewReg();
      state->Emit(Op::kI64ToF64, p, l.reg);
      l = Slot{Kind::kF64, p};
    }
    if (is_f64 && r.kind == Kind::kI64) {
      uint16_t p = state->NewReg();
      state->Emit(Op::kI64ToF64, p, r.reg);
      r = Slot{Kind::kF64, p};
    }
    uint16_t dst = state->NewReg();
    Op op;
    if (As<Add>(e)) {
      op = is_f64 ? Op::kAddF64 : Op::kAddI64;
    } else if (As<Subtract>(e)) {
      op = is_f64 ? Op::kSubF64 : Op::kSubI64;
    } else if (As<Multiply>(e)) {
      op = is_f64 ? Op::kMulF64 : Op::kMulI64;
    } else if (As<Divide>(e)) {
      op = is_f64 ? Op::kDivF64 : Op::kDivI64;
    } else if (As<Remainder>(e) && !is_f64) {
      op = Op::kRemI64;
    } else {
      return fallback();
    }
    state->Emit(op, dst, l.reg, r.reg);
    return Slot{is_f64 ? Kind::kF64 : Kind::kI64, dst};
  }

  if (const auto* neg = As<UnaryMinus>(e)) {
    Slot c = CompileNode(neg->Children()[0], state);
    if (c.kind == Kind::kI64) {
      uint16_t dst = state->NewReg();
      state->Emit(Op::kNegI64, dst, c.reg);
      return Slot{Kind::kI64, dst};
    }
    if (c.kind == Kind::kF64) {
      uint16_t dst = state->NewReg();
      state->Emit(Op::kNegF64, dst, c.reg);
      return Slot{Kind::kF64, dst};
    }
    return fallback();
  }

  // Comparisons.
  if (const auto* cmp = As<BinaryComparison>(e)) {
    Slot l = CompileNode(cmp->left(), state);
    Slot r = CompileNode(cmp->right(), state);
    Op cmp_op;
    if (l.kind == Kind::kI64 && r.kind == Kind::kI64) {
      cmp_op = Op::kCmpI64;
    } else if ((l.kind == Kind::kF64 || l.kind == Kind::kI64) &&
               (r.kind == Kind::kF64 || r.kind == Kind::kI64)) {
      if (l.kind == Kind::kI64) {
        uint16_t p = state->NewReg();
        state->Emit(Op::kI64ToF64, p, l.reg);
        l = Slot{Kind::kF64, p};
      }
      if (r.kind == Kind::kI64) {
        uint16_t p = state->NewReg();
        state->Emit(Op::kI64ToF64, p, r.reg);
        r = Slot{Kind::kF64, p};
      }
      cmp_op = Op::kCmpF64;
    } else if (l.kind == Kind::kStr && r.kind == Kind::kStr) {
      cmp_op = Op::kCmpStr;
    } else if (l.kind == Kind::kBool && r.kind == Kind::kBool) {
      cmp_op = Op::kCmpBool;
    } else {
      return fallback();
    }
    uint16_t sign = state->NewReg();
    state->Emit(cmp_op, sign, l.reg, r.reg);
    int code;
    if (As<EqualTo>(e)) {
      code = kCmpEq;
    } else if (As<NotEqualTo>(e)) {
      code = kCmpNe;
    } else if (As<LessThan>(e)) {
      code = kCmpLt;
    } else if (As<LessThanOrEqual>(e)) {
      code = kCmpLe;
    } else if (As<GreaterThan>(e)) {
      code = kCmpGt;
    } else {
      code = kCmpGe;
    }
    uint16_t dst = state->NewReg();
    state->Emit(Op::kEqFrom, dst, sign, 0, code);
    return Slot{Kind::kBool, dst};
  }

  // Boolean connectives.
  if (As<And>(e) != nullptr || As<Or>(e) != nullptr) {
    const auto* bin = As<BinaryExpression>(e);
    Slot l = CompileNode(bin->left(), state);
    Slot r = CompileNode(bin->right(), state);
    if (l.kind != Kind::kBool || r.kind != Kind::kBool) {
      return fallback();
    }
    uint16_t dst = state->NewReg();
    state->Emit(As<And>(e) != nullptr ? Op::kAnd : Op::kOr, dst, l.reg, r.reg);
    return Slot{Kind::kBool, dst};
  }
  if (const auto* n = As<Not>(e)) {
    Slot c = CompileNode(n->child(), state);
    if (c.kind != Kind::kBool) {
      return fallback();
    }
    uint16_t dst = state->NewReg();
    state->Emit(Op::kNot, dst, c.reg);
    return Slot{Kind::kBool, dst};
  }

  // Null checks work on every register kind.
  if (const auto* isnull = As<IsNull>(e)) {
    Slot c = CompileNode(isnull->child(), state);
    uint16_t dst = state->NewReg();
    state->Emit(Op::kIsNull, dst, c.reg);
    return Slot{Kind::kBool, dst};
  }
  if (const auto* isnotnull = As<IsNotNull>(e)) {
    Slot c = CompileNode(isnotnull->child(), state);
    uint16_t dst = state->NewReg();
    state->Emit(Op::kIsNotNull, dst, c.reg);
    return Slot{Kind::kBool, dst};
  }

  // String predicates and functions.
  auto binary_str = [&](const BinaryExpression* bin, Op op) -> Slot {
    Slot l = CompileNode(bin->left(), state);
    Slot r = CompileNode(bin->right(), state);
    if (l.kind != Kind::kStr || r.kind != Kind::kStr) {
      return fallback();
    }
    uint16_t dst = state->NewReg();
    state->Emit(op, dst, l.reg, r.reg);
    return Slot{Kind::kBool, dst};
  };
  if (const auto* sw = As<StartsWith>(e)) return binary_str(sw, Op::kStartsWith);
  if (const auto* ew = As<EndsWith>(e)) return binary_str(ew, Op::kEndsWith);
  if (const auto* sc = As<StringContains>(e)) return binary_str(sc, Op::kContains);
  if (const auto* lk = As<Like>(e)) return binary_str(lk, Op::kLike);

  if (As<Upper>(e) != nullptr || As<Lower>(e) != nullptr) {
    Slot c = CompileNode(e->Children()[0], state);
    if (c.kind != Kind::kStr) {
      return fallback();
    }
    uint16_t dst = state->NewReg();
    state->Emit(As<Upper>(e) != nullptr ? Op::kUpper : Op::kLower, dst, c.reg);
    return Slot{Kind::kStr, dst};
  }
  if (const auto* len = As<StringLength>(e)) {
    Slot c = CompileNode(len->Children()[0], state);
    if (c.kind != Kind::kStr) {
      return fallback();
    }
    uint16_t dst = state->NewReg();
    state->Emit(Op::kLength, dst, c.reg);
    return Slot{Kind::kI64, dst};
  }
  if (const auto* sub = As<Substring>(e)) {
    ExprVector children = sub->Children();
    Slot s = CompileNode(children[0], state);
    Slot pos = CompileNode(children[1], state);
    Slot n = CompileNode(children[2], state);
    if (s.kind != Kind::kStr || pos.kind != Kind::kI64 || n.kind != Kind::kI64) {
      return fallback();
    }
    uint16_t dst = state->NewReg();
    state->Emit(Op::kSubstr, dst, s.reg, pos.reg, n.reg);
    return Slot{Kind::kStr, dst};
  }
  if (const auto* concat = As<Concat>(e)) {
    ExprVector children = concat->Children();
    if (children.size() == 2) {
      Slot l = CompileNode(children[0], state);
      Slot r = CompileNode(children[1], state);
      if (l.kind == Kind::kStr && r.kind == Kind::kStr) {
        uint16_t dst = state->NewReg();
        state->Emit(Op::kConcat2, dst, l.reg, r.reg);
        return Slot{Kind::kStr, dst};
      }
    }
    return fallback();
  }

  // Casts between numeric register kinds compile to conversions; identity
  // casts are free.
  if (const auto* cast = As<Cast>(e)) {
    TypeId to = cast->data_type()->id();
    TypeId from = cast->child()->data_type()->id();
    if (IsIntLike(from) && IsIntLike(to)) {
      return CompileNode(cast->child(), state);
    }
    if (IsIntLike(from) && to == TypeId::kDouble) {
      Slot c = CompileNode(cast->child(), state);
      if (c.kind == Kind::kI64 || c.kind == Kind::kBool) {
        uint16_t dst = state->NewReg();
        state->Emit(Op::kI64ToF64, dst, c.reg);
        return Slot{Kind::kF64, dst};
      }
      return fallback();
    }
    if (from == TypeId::kDouble && IsIntLike(to)) {
      Slot c = CompileNode(cast->child(), state);
      if (c.kind == Kind::kF64) {
        uint16_t dst = state->NewReg();
        state->Emit(Op::kF64ToI64, dst, c.reg);
        return Slot{Kind::kI64, dst};
      }
      return fallback();
    }
    return fallback();
  }

  return fallback();
}

std::optional<CompiledExpression> CompiledExpression::Compile(const ExprPtr& expr) {
  CompiledExpression prog;
  prog.result_type_ = expr->data_type();
  CompileState state{&prog};
  Slot result = CompileNode(expr, &state);
  prog.result_reg_ = result.reg;
  prog.result_kind_ = result.kind;
  prog.compiled_fraction_ =
      prog.total_nodes_ == 0
          ? 1.0
          : 1.0 - static_cast<double>(prog.fallback_nodes_) / prog.total_nodes_;
  return prog;
}

CompiledExpression::Evaluator::Evaluator(const CompiledExpression* program)
    : program_(program),
      i64_(program->num_regs_, 0),
      f64_(program->num_regs_, 0.0),
      str_(program->num_regs_, nullptr),
      scratch_(program->num_regs_),
      null_(program->num_regs_, 0),
      boxed_(program->num_regs_) {}

void CompiledExpression::Evaluator::Run(const Row& row) {
  const auto& instrs = program_->instrs_;
  for (const Instr& in : instrs) {
    switch (in.op) {
      case Op::kLoadColI64: {
        const Value& v = row.Get(in.aux);
        null_[in.dst] = v.is_null();
        if (!null_[in.dst]) i64_[in.dst] = v.AsInt64();
        break;
      }
      case Op::kLoadColF64: {
        const Value& v = row.Get(in.aux);
        null_[in.dst] = v.is_null();
        if (!null_[in.dst]) f64_[in.dst] = v.f64();
        break;
      }
      case Op::kLoadColStr: {
        const Value& v = row.Get(in.aux);
        null_[in.dst] = v.is_null();
        if (!null_[in.dst]) str_[in.dst] = &v.str();
        break;
      }
      case Op::kLoadColBool: {
        const Value& v = row.Get(in.aux);
        null_[in.dst] = v.is_null();
        if (!null_[in.dst]) i64_[in.dst] = v.bool_value() ? 1 : 0;
        break;
      }
      case Op::kLoadConstI64:
        i64_[in.dst] = program_->iconsts_[in.aux];
        null_[in.dst] = 0;
        break;
      case Op::kLoadConstF64:
        f64_[in.dst] = program_->fconsts_[in.aux];
        null_[in.dst] = 0;
        break;
      case Op::kLoadConstStr:
        str_[in.dst] = &program_->sconsts_[in.aux];
        null_[in.dst] = 0;
        break;
      case Op::kLoadConstBool:
        i64_[in.dst] = in.aux;
        null_[in.dst] = 0;
        break;
      case Op::kLoadNull:
        null_[in.dst] = 1;
        break;
      case Op::kAddI64:
        null_[in.dst] = null_[in.a] | null_[in.b];
        i64_[in.dst] = i64_[in.a] + i64_[in.b];
        break;
      case Op::kSubI64:
        null_[in.dst] = null_[in.a] | null_[in.b];
        i64_[in.dst] = i64_[in.a] - i64_[in.b];
        break;
      case Op::kMulI64:
        null_[in.dst] = null_[in.a] | null_[in.b];
        i64_[in.dst] = i64_[in.a] * i64_[in.b];
        break;
      case Op::kDivI64:
        null_[in.dst] = null_[in.a] | null_[in.b] || i64_[in.b] == 0;
        if (!null_[in.dst]) i64_[in.dst] = i64_[in.a] / i64_[in.b];
        break;
      case Op::kRemI64:
        null_[in.dst] = null_[in.a] | null_[in.b] || i64_[in.b] == 0;
        if (!null_[in.dst]) i64_[in.dst] = i64_[in.a] % i64_[in.b];
        break;
      case Op::kNegI64:
        null_[in.dst] = null_[in.a];
        i64_[in.dst] = -i64_[in.a];
        break;
      case Op::kAddF64:
        null_[in.dst] = null_[in.a] | null_[in.b];
        f64_[in.dst] = f64_[in.a] + f64_[in.b];
        break;
      case Op::kSubF64:
        null_[in.dst] = null_[in.a] | null_[in.b];
        f64_[in.dst] = f64_[in.a] - f64_[in.b];
        break;
      case Op::kMulF64:
        null_[in.dst] = null_[in.a] | null_[in.b];
        f64_[in.dst] = f64_[in.a] * f64_[in.b];
        break;
      case Op::kDivF64:
        null_[in.dst] = null_[in.a] | null_[in.b] || f64_[in.b] == 0.0;
        if (!null_[in.dst]) f64_[in.dst] = f64_[in.a] / f64_[in.b];
        break;
      case Op::kNegF64:
        null_[in.dst] = null_[in.a];
        f64_[in.dst] = -f64_[in.a];
        break;
      case Op::kI64ToF64:
        null_[in.dst] = null_[in.a];
        f64_[in.dst] = static_cast<double>(i64_[in.a]);
        break;
      case Op::kF64ToI64:
        null_[in.dst] = null_[in.a];
        i64_[in.dst] = static_cast<int64_t>(f64_[in.a]);
        break;
      case Op::kCmpI64:
        null_[in.dst] = null_[in.a] | null_[in.b];
        i64_[in.dst] = i64_[in.a] < i64_[in.b] ? -1 : (i64_[in.a] > i64_[in.b] ? 1 : 0);
        break;
      case Op::kCmpF64:
        null_[in.dst] = null_[in.a] | null_[in.b];
        i64_[in.dst] = f64_[in.a] < f64_[in.b] ? -1 : (f64_[in.a] > f64_[in.b] ? 1 : 0);
        break;
      case Op::kCmpStr:
        null_[in.dst] = null_[in.a] | null_[in.b];
        if (!null_[in.dst]) {
          int c = str_[in.a]->compare(*str_[in.b]);
          i64_[in.dst] = c < 0 ? -1 : (c > 0 ? 1 : 0);
        }
        break;
      case Op::kCmpBool:
        null_[in.dst] = null_[in.a] | null_[in.b];
        i64_[in.dst] = i64_[in.a] - i64_[in.b];
        break;
      case Op::kEqFrom: {
        null_[in.dst] = null_[in.a];
        int64_t s = i64_[in.a];
        bool r = false;
        switch (in.aux) {
          case kCmpEq:
            r = s == 0;
            break;
          case kCmpNe:
            r = s != 0;
            break;
          case kCmpLt:
            r = s < 0;
            break;
          case kCmpLe:
            r = s <= 0;
            break;
          case kCmpGt:
            r = s > 0;
            break;
          case kCmpGe:
            r = s >= 0;
            break;
        }
        i64_[in.dst] = r ? 1 : 0;
        break;
      }
      case Op::kAnd: {
        // 3-valued logic over (value, null) pairs.
        bool la = null_[in.a] == 0;
        bool lb = null_[in.b] == 0;
        bool va = la && i64_[in.a] != 0;
        bool vb = lb && i64_[in.b] != 0;
        if ((la && !va) || (lb && !vb)) {
          i64_[in.dst] = 0;
          null_[in.dst] = 0;
        } else if (!la || !lb) {
          null_[in.dst] = 1;
        } else {
          i64_[in.dst] = 1;
          null_[in.dst] = 0;
        }
        break;
      }
      case Op::kOr: {
        bool la = null_[in.a] == 0;
        bool lb = null_[in.b] == 0;
        bool va = la && i64_[in.a] != 0;
        bool vb = lb && i64_[in.b] != 0;
        if (va || vb) {
          i64_[in.dst] = 1;
          null_[in.dst] = 0;
        } else if (!la || !lb) {
          null_[in.dst] = 1;
        } else {
          i64_[in.dst] = 0;
          null_[in.dst] = 0;
        }
        break;
      }
      case Op::kNot:
        null_[in.dst] = null_[in.a];
        i64_[in.dst] = i64_[in.a] != 0 ? 0 : 1;
        break;
      case Op::kIsNull:
        i64_[in.dst] = null_[in.a] ? 1 : 0;
        null_[in.dst] = 0;
        break;
      case Op::kIsNotNull:
        i64_[in.dst] = null_[in.a] ? 0 : 1;
        null_[in.dst] = 0;
        break;
      case Op::kStartsWith:
        null_[in.dst] = null_[in.a] | null_[in.b];
        if (!null_[in.dst]) {
          const std::string& s = *str_[in.a];
          const std::string& p = *str_[in.b];
          i64_[in.dst] =
              s.size() >= p.size() && s.compare(0, p.size(), p) == 0 ? 1 : 0;
        }
        break;
      case Op::kEndsWith:
        null_[in.dst] = null_[in.a] | null_[in.b];
        if (!null_[in.dst]) {
          const std::string& s = *str_[in.a];
          const std::string& p = *str_[in.b];
          i64_[in.dst] = s.size() >= p.size() &&
                                 s.compare(s.size() - p.size(), p.size(), p) == 0
                             ? 1
                             : 0;
        }
        break;
      case Op::kContains:
        null_[in.dst] = null_[in.a] | null_[in.b];
        if (!null_[in.dst]) {
          i64_[in.dst] = str_[in.a]->find(*str_[in.b]) != std::string::npos ? 1 : 0;
        }
        break;
      case Op::kLike:
        null_[in.dst] = null_[in.a] | null_[in.b];
        if (!null_[in.dst]) {
          i64_[in.dst] = LikeMatch(*str_[in.a], *str_[in.b]) ? 1 : 0;
        }
        break;
      case Op::kUpper:
      case Op::kLower: {
        null_[in.dst] = null_[in.a];
        if (!null_[in.dst]) {
          std::string& out = scratch_[in.dst];
          out = *str_[in.a];
          for (char& c : out) {
            c = in.op == Op::kUpper
                    ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                    : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
          }
          str_[in.dst] = &out;
        }
        break;
      }
      case Op::kSubstr: {
        null_[in.dst] = null_[in.a] | null_[in.b] | null_[in.aux];
        if (!null_[in.dst]) {
          const std::string& s = *str_[in.a];
          int64_t p = i64_[in.b];
          int64_t n = i64_[static_cast<uint16_t>(in.aux)];
          if (n < 0) n = 0;
          int64_t start = p > 0 ? p - 1
                          : p < 0 ? std::max<int64_t>(
                                        0, static_cast<int64_t>(s.size()) + p)
                                  : 0;
          std::string& out = scratch_[in.dst];
          if (start >= static_cast<int64_t>(s.size())) {
            out.clear();
          } else {
            out = s.substr(static_cast<size_t>(start), static_cast<size_t>(n));
          }
          str_[in.dst] = &out;
        }
        break;
      }
      case Op::kLength:
        null_[in.dst] = null_[in.a];
        if (!null_[in.dst]) i64_[in.dst] = static_cast<int64_t>(str_[in.a]->size());
        break;
      case Op::kConcat2:
        null_[in.dst] = null_[in.a] | null_[in.b];
        if (!null_[in.dst]) {
          std::string& out = scratch_[in.dst];
          out = *str_[in.a];
          out += *str_[in.b];
          str_[in.dst] = &out;
        }
        break;
      case Op::kCallExpr: {
        Value v = program_->fallbacks_[in.aux]->Eval(row);
        null_[in.dst] = v.is_null();
        Kind kind = static_cast<Kind>(in.b);
        if (!v.is_null()) {
          switch (kind) {
            case Kind::kBool:
              i64_[in.dst] = v.bool_value() ? 1 : 0;
              break;
            case Kind::kI64:
              i64_[in.dst] = v.AsInt64();
              break;
            case Kind::kF64:
              f64_[in.dst] = v.AsDouble();
              break;
            case Kind::kStr:
              scratch_[in.dst] = v.str();
              str_[in.dst] = &scratch_[in.dst];
              break;
            case Kind::kBoxed:
              boxed_[in.dst] = std::move(v);
              break;
          }
        } else if (kind == Kind::kBoxed) {
          boxed_[in.dst] = Value::Null();
        }
        break;
      }
    }
  }
}

Value CompiledExpression::Evaluator::Evaluate(const Row& row) {
  Run(row);
  uint16_t r = program_->result_reg_;
  if (null_[r] && program_->result_kind_ != Kind::kBoxed) return Value::Null();
  switch (program_->result_kind_) {
    case Kind::kBool:
      return Value(i64_[r] != 0);
    case Kind::kI64:
      switch (program_->result_type_->id()) {
        case TypeId::kInt32:
          return Value(static_cast<int32_t>(i64_[r]));
        case TypeId::kDate:
          return Value(DateValue{static_cast<int32_t>(i64_[r])});
        case TypeId::kTimestamp:
          return Value(TimestampValue{i64_[r]});
        default:
          return Value(i64_[r]);
      }
    case Kind::kF64:
      return Value(f64_[r]);
    case Kind::kStr:
      return Value(*str_[r]);
    case Kind::kBoxed:
      return boxed_[r];
  }
  return Value::Null();
}

bool CompiledExpression::Evaluator::EvaluateBool(const Row& row, bool* is_null) {
  Run(row);
  uint16_t r = program_->result_reg_;
  *is_null = null_[r] != 0;
  return i64_[r] != 0;
}

int64_t CompiledExpression::Evaluator::EvaluateInt64(const Row& row,
                                                     bool* is_null) {
  Run(row);
  uint16_t r = program_->result_reg_;
  *is_null = null_[r] != 0;
  return i64_[r];
}

double CompiledExpression::Evaluator::EvaluateDouble(const Row& row,
                                                     bool* is_null) {
  Run(row);
  uint16_t r = program_->result_reg_;
  *is_null = null_[r] != 0;
  return f64_[r];
}

std::string_view CompiledExpression::Evaluator::EvaluateString(const Row& row,
                                                               bool* is_null) {
  Run(row);
  uint16_t r = program_->result_reg_;
  *is_null = null_[r] != 0;
  return *is_null ? std::string_view() : std::string_view(*str_[r]);
}

}  // namespace ssql
