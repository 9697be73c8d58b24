#ifndef SSQL_CATALYST_CODEGEN_COMPILED_EXPRESSION_H_
#define SSQL_CATALYST_CODEGEN_COMPILED_EXPRESSION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "catalyst/expr/expression.h"

namespace ssql {

class ColumnVector;
class RowBatch;

/// Rows a row-reading operator hands to one program run (and to the key
/// table): each chunk is one pass of every lane kernel.
constexpr size_t kChunkRows = 1024;

/// The code-generation phase (Section 4.3.4), transposed to C++.
///
/// The paper lowers expression trees to Scala ASTs via quasiquotes and
/// compiles them to JVM bytecode, eliminating the per-row cost of walking
/// an interpreted tree (virtual dispatch, branches, boxed values). Without
/// a JIT we lower to the closest C++ analogue: a flat, typed register
/// program. One VectorEvaluator runs it, one tight loop per instruction
/// over the lanes of a whole chunk of rows, whether those rows are the
/// live rows of a RowBatch or a span of boxed Rows. Only the column loads
/// and the interpreter fallback look at the input; every arithmetic,
/// comparison, connective and string kernel is shared.
///
/// Mirroring the paper's mixed mode ("it was straightforward to combine
/// code-generated evaluation with interpreted evaluation"), any
/// subexpression the compiler does not understand — UDFs, complex types,
/// decimals — compiles to a kCallExpr instruction that invokes the tree
/// interpreter for just that subtree. With codegen off the whole tree is
/// one such instruction: the per-row tree interpreter over boxed values.
class CompiledExpression {
 public:
  /// Compiles a *bound* expression (no AttributeReferences; use
  /// BindReferences first). With `codegen` false the program is a single
  /// interpreter call over the whole tree (compiled_fraction() 0).
  static CompiledExpression Compile(const ExprPtr& expr, bool codegen = true);

  /// Fraction of tree nodes lowered to native instructions (1.0 = fully
  /// compiled, no interpreter fallbacks). Exposed for tests/EXPLAIN.
  double compiled_fraction() const { return compiled_fraction_; }

  /// Per-task evaluation state: one lane vector per register, grown to the
  /// largest input seen; create one per worker. Null semantics:
  /// three-valued logic, division by zero yields null. Batch column loads gather from the ColumnVector banks
  /// unconditionally (null bank slots hold defined zeros); row loads read
  /// each row's cell, a null cell's lane holding zero too. Interpreter
  /// fallbacks evaluate rows in place, and box a batch's live rows once
  /// per run.
  class VectorEvaluator {
   public:
    using RowSpan = std::span<const Row* const>;

    /// Evaluates the program over the live rows of `batch` (or `rows`),
    /// appending one value per row to `out` (whose type must be
    /// result_type()).
    void EvaluateColumn(const RowBatch& batch, ColumnVector* out) {
      Run(&batch, {});
      AppendColumn(out);
    }
    void EvaluateColumn(RowSpan rows, ColumnVector* out) {
      Run(nullptr, rows);
      AppendColumn(out);
    }

    /// Predicate form: appends the rows where the program yields
    /// true-and-not-null (SQL WHERE semantics) to `sel_out` — physical
    /// indices into `batch`, or positions in `rows`. Requires
    /// result_kind() == kBool.
    void EvaluateSelection(const RowBatch& batch,
                           std::vector<uint32_t>* sel_out) {
      Run(&batch, {});
      Select(&batch, sel_out);
    }
    void EvaluateSelection(RowSpan rows, std::vector<uint32_t>* sel_out) {
      Run(nullptr, rows);
      Select(nullptr, sel_out);
    }

    /// Evaluates the program over `rows`, appending row k's value, boxed,
    /// to out[k]: a string the program computed moves into its Value, a
    /// column's string is copied once.
    void EvaluateAppend(RowSpan rows, Row* out);

   private:
    friend class CompiledExpression;
    explicit VectorEvaluator(const CompiledExpression* program);
    /// Runs every instruction over the live rows of `batch`, or over
    /// `rows` when `batch` is null.
    void Run(const RowBatch* batch, RowSpan rows);
    void AppendColumn(ColumnVector* out);
    void Select(const RowBatch* batch, std::vector<uint32_t>* sel_out);
    /// Boxes the batch's live rows into boxed_rows_ for interpreter
    /// fallbacks (at most once per Run): only the columns they read, the
    /// other cells null.
    void EnsureRowsBoxed(const RowBatch& batch);

    const CompiledExpression* program_;
    size_t n_ = 0;  // rows in the current Run
    // Register banks, register-major: bank[reg][lane]. Each register is
    // written by one instruction; a fallback's string lanes point into its
    // boxed lanes, a computed string's into its scratch lanes.
    std::vector<std::vector<int64_t>> i64_;
    std::vector<std::vector<double>> f64_;
    std::vector<std::vector<const std::string*>> str_;
    std::vector<std::vector<std::string>> scratch_;
    std::vector<std::vector<uint8_t>> null_;
    std::vector<std::vector<Value>> boxed_;
    std::vector<Row> boxed_rows_;  // a batch's live rows, for fallbacks
    bool rows_boxed_ = false;
  };

  VectorEvaluator NewVectorEvaluator() const { return VectorEvaluator(this); }

  /// Result type classes of the register program.
  enum class Kind : uint8_t { kBool, kI64, kF64, kStr, kBoxed };
  Kind result_kind() const { return result_kind_; }
  DataTypePtr result_type() const { return result_type_; }

 private:
  enum class Op : uint8_t {
    kLoadColI64,   // i64[dst] = row[aux] as int-like (booleans as 0/1)
    kLoadColF64,
    kLoadColStr,
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

  /// Comparison codes: kEqFrom's aux operand.
  enum CmpCode : int32_t { kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe };

  struct CompileState;
  struct Slot {
    Kind kind;
    uint16_t reg;
  };
  /// The register kind holding values of type `id`.
  static Kind KindFor(TypeId id);
  static Slot CompileNode(const ExprPtr& e, CompileState* state);

  std::vector<Instr> instrs_;
  std::vector<int64_t> iconsts_;
  std::vector<double> fconsts_;
  std::vector<std::string> sconsts_;
  std::vector<ExprPtr> fallbacks_;
  std::vector<int> fallback_columns_;  // ordinals the fallbacks read
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
