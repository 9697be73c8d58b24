#ifndef SSQL_CATALYST_CODEGEN_COMPILED_EXPRESSION_H_
#define SSQL_CATALYST_CODEGEN_COMPILED_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalyst/expr/expression.h"

namespace ssql {

class ColumnVector;
class RowBatch;

/// The code-generation phase (Section 4.3.4), transposed to C++.
///
/// The paper lowers expression trees to Scala ASTs via quasiquotes and
/// compiles them to JVM bytecode, eliminating the per-row cost of walking
/// an interpreted tree (virtual dispatch, branches, boxed values). Without
/// a JIT we lower to the closest C++ analogue: a flat, typed register
/// program executed by a tight dispatch loop. Operands live in primitive
/// register banks (int64/double/string-ref) with separate null flags, so
/// row evaluation performs no allocation and no virtual calls.
///
/// Mirroring the paper's mixed mode ("it was straightforward to combine
/// code-generated evaluation with interpreted evaluation"), any
/// subexpression the compiler does not understand — UDFs, complex types,
/// decimals — compiles to a kCallExpr instruction that invokes the tree
/// interpreter for just that subtree.
class CompiledExpression {
 public:
  /// Compiles a *bound* expression (no AttributeReferences; use
  /// BindReferences first). Returns std::nullopt only if the root type is
  /// unsupported even via fallback (never, in practice).
  static std::optional<CompiledExpression> Compile(const ExprPtr& expr);

  /// Fraction of tree nodes lowered to native instructions (1.0 = fully
  /// compiled, no interpreter fallbacks). Exposed for tests/EXPLAIN.
  double compiled_fraction() const { return compiled_fraction_; }

  /// Per-thread evaluation state: register banks + scratch strings.
  /// Create one Evaluator per worker; Evaluate() does not allocate on the
  /// steady state path.
  class Evaluator {
   public:
    /// Evaluates the program against `row`, returning a boxed result.
    Value Evaluate(const Row& row);

    /// Typed fast paths for hot loops (predicates / numeric projections).
    bool EvaluateBool(const Row& row, bool* is_null);
    int64_t EvaluateInt64(const Row& row, bool* is_null);
    double EvaluateDouble(const Row& row, bool* is_null);
    /// String result without a copy: the view points into `row` or this
    /// evaluator's scratch and stays valid until the next evaluation.
    std::string_view EvaluateString(const Row& row, bool* is_null);

   private:
    friend class CompiledExpression;
    explicit Evaluator(const CompiledExpression* program);
    void Run(const Row& row);

    const CompiledExpression* program_;
    std::vector<int64_t> i64_;
    std::vector<double> f64_;
    std::vector<const std::string*> str_;
    std::vector<std::string> scratch_;
    std::vector<uint8_t> null_;
    std::vector<Value> boxed_;  // results of fallback calls with complex types
  };

  Evaluator NewEvaluator() const { return Evaluator(this); }

  /// Per-thread vectorized evaluation state: one dense lane-vector per
  /// register, evaluated with one tight loop per instruction over the live
  /// rows of a RowBatch instead of re-entering the program per row. Null
  /// semantics mirror Evaluator op for op (same three-valued logic, same
  /// division-by-zero nulling), so batched and row execution produce
  /// bit-identical results. Column loads gather from the ColumnVector banks
  /// unconditionally — legal because null bank slots hold defined zeros —
  /// and interpreter fallbacks (kCallExpr) box the live rows lazily, once
  /// per batch.
  class VectorEvaluator {
   public:
    /// Evaluates the program over the live rows of `batch`, appending one
    /// value per live row to `out` (whose type must be result_type()).
    void EvaluateColumn(const RowBatch& batch, ColumnVector* out);

    /// Predicate form: appends the physical indices of live rows where the
    /// program yields true-and-not-null (SQL WHERE semantics) to
    /// `sel_out`. Requires result_kind() == kBool.
    void EvaluateSelection(const RowBatch& batch,
                           std::vector<uint32_t>* sel_out);

   private:
    friend class CompiledExpression;
    explicit VectorEvaluator(const CompiledExpression* program);
    void Run(const RowBatch& batch);
    /// Boxes the batch's live rows into rows_ for interpreter fallbacks
    /// (at most once per Run).
    void EnsureRowsBoxed(const RowBatch& batch);

    const CompiledExpression* program_;
    size_t n_ = 0;  // live rows in the current Run
    // Register banks, register-major: bank[reg][lane].
    std::vector<std::vector<int64_t>> i64_;
    std::vector<std::vector<double>> f64_;
    std::vector<std::vector<const std::string*>> str_;
    std::vector<std::vector<std::string>> scratch_;
    std::vector<std::vector<uint8_t>> null_;
    std::vector<std::vector<Value>> boxed_;
    std::vector<Row> rows_;  // boxed live rows for fallbacks
    bool rows_boxed_ = false;
  };

  VectorEvaluator NewVectorEvaluator() const { return VectorEvaluator(this); }

  /// Result type classes of the register program.
  enum class Kind : uint8_t { kBool, kI64, kF64, kStr, kBoxed };
  Kind result_kind() const { return result_kind_; }
  DataTypePtr result_type() const { return result_type_; }

 private:
  enum class Op : uint8_t {
    kLoadColI64,   // i64[dst] = row[aux] as int-like
    kLoadColF64,
    kLoadColStr,
    kLoadColBool,
    kLoadConstI64,  // i64[dst] = iconst[aux]
    kLoadConstF64,
    kLoadConstStr,
    kLoadConstBool,
    kLoadNull,  // null[dst] = 1
    kAddI64,
    kSubI64,
    kMulI64,
    kDivI64,
    kRemI64,
    kNegI64,
    kAddF64,
    kSubF64,
    kMulF64,
    kDivF64,
    kNegF64,
    kI64ToF64,
    kF64ToI64,
    kCmpI64,  // i64[dst] = sign(i64[a] - i64[b]); then k*From ops
    kCmpF64,
    kCmpStr,
    kCmpBool,
    kEqFrom,  // bool from comparison result in i64[a], aux = op
    kAnd,     // 3-valued
    kOr,
    kNot,
    kIsNull,
    kIsNotNull,
    kStartsWith,
    kEndsWith,
    kContains,
    kLike,
    kUpper,
    kLower,
    kSubstr,  // str[dst] = substr(str[a], i64[b], i64[aux2]) -- via regs
    kLength,
    kConcat2,
    kCallExpr,  // boxed[dst] = fallback_exprs[aux]->Eval(row)
  };

  /// One instruction; `aux` meaning depends on the opcode (constant index,
  /// comparison code, fallback index).
  struct Instr {
    Op op;
    uint16_t dst;
    uint16_t a;
    uint16_t b;
    int32_t aux;
  };

  struct CompileState;
  struct Slot {
    Kind kind;
    uint16_t reg;
  };
  static Slot CompileNode(const ExprPtr& e, CompileState* state);

  std::vector<Instr> instrs_;
  std::vector<int64_t> iconsts_;
  std::vector<double> fconsts_;
  std::vector<std::string> sconsts_;
  std::vector<ExprPtr> fallbacks_;
  uint16_t num_regs_ = 0;
  uint16_t result_reg_ = 0;
  Kind result_kind_ = Kind::kBoxed;
  DataTypePtr result_type_;
  double compiled_fraction_ = 1.0;
  int total_nodes_ = 0;
  int fallback_nodes_ = 0;
};

}  // namespace ssql

#endif  // SSQL_CATALYST_CODEGEN_COMPILED_EXPRESSION_H_
