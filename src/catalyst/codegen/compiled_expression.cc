#include "catalyst/codegen/compiled_expression.h"

#include <algorithm>

#include "catalyst/expr/arithmetic.h"
#include "catalyst/expr/cast.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "catalyst/expr/string_ops.h"
#include "util/string_util.h"

namespace ssql {

namespace {

bool IsIntLike(TypeId id) {
  return id == TypeId::kInt32 || id == TypeId::kInt64 || id == TypeId::kDate ||
         id == TypeId::kTimestamp || id == TypeId::kBoolean;
}

}  // namespace

CompiledExpression::Kind CompiledExpression::KindFor(TypeId id) {
  if (id == TypeId::kBoolean) return Kind::kBool;
  if (IsIntLike(id)) return Kind::kI64;
  if (id == TypeId::kDouble) return Kind::kF64;
  return id == TypeId::kString ? Kind::kStr : Kind::kBoxed;
}

struct CompiledExpression::CompileState {
  CompiledExpression* program;
  bool codegen;  // false: the root is one interpreter call
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
    e->Foreach([&](const Expression& node) {
      if (const auto* ref = dynamic_cast<const BoundReference*>(&node)) {
        prog->fallback_columns_.push_back(ref->ordinal());
      }
    });
    Kind kind = KindFor(e->data_type()->id());
    state->Emit(Op::kCallExpr, dst, 0, static_cast<uint16_t>(kind), idx);
    return Slot{kind, dst};
  };
  if (!state->codegen) return fallback();

  // Column loads.
  if (const auto* ref = As<BoundReference>(e)) {
    const Kind kind = KindFor(ref->data_type()->id());
    if (kind == Kind::kBoxed) return fallback();
    // Indexed by Kind: kBool, kI64, kF64, kStr.
    constexpr Op kLoad[] = {Op::kLoadColI64, Op::kLoadColI64, Op::kLoadColF64,
                            Op::kLoadColStr};
    uint16_t dst = state->NewReg();
    state->Emit(kLoad[static_cast<int>(kind)], dst, 0, 0, ref->ordinal());
    return Slot{kind, dst};
  }

  // Literals.
  if (const auto* lit = As<Literal>(e)) {
    uint16_t dst = state->NewReg();
    const Value& v = lit->value();
    TypeId id = lit->data_type()->id();
    if (v.is_null()) {
      Kind kind = KindFor(id);
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

CompiledExpression CompiledExpression::Compile(const ExprPtr& expr,
                                               bool codegen) {
  CompiledExpression prog;
  prog.result_type_ = expr->data_type();
  CompileState state{&prog, codegen};
  Slot result = CompileNode(expr, &state);
  prog.result_reg_ = result.reg;
  prog.result_kind_ = result.kind;
  auto& cols = prog.fallback_columns_;
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  prog.compiled_fraction_ =
      1.0 - static_cast<double>(prog.fallback_nodes_) / prog.total_nodes_;
  return prog;
}

}  // namespace ssql
