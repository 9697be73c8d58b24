// Figure 4: "A comparison of the performance evaluating the expression
// x+x+x, where x is an integer, 1 billion times."
//
// The paper compares: intepreted (tree-walking) evaluation, hand-written
// code, and quasiquote-generated code — showing generated code matches
// hand-written. Here: the Catalyst tree interpreter over boxed Values, the
// compiled register program (our codegen analogue) over the same boxed rows
// and over a column batch, and a raw C++ loop.
// The iteration count is scaled; google-benchmark reports per-item time,
// so the *ratios* are directly comparable to Figure 4's bar heights.

#include <benchmark/benchmark.h>

#include "catalyst/codegen/compiled_expression.h"
#include "catalyst/expr/arithmetic.h"
#include "catalyst/expr/expression.h"
#include "columnar/row_batch.h"

namespace ssql {
namespace {

// x + x + x over the single int column of the input row.
ExprPtr BuildXPlusXPlusX() {
  ExprPtr x = BoundReference::Make(0, DataType::Int32(), false);
  return Add::Make(Add::Make(x, x), x);
}

void BM_Fig4_Interpreted(benchmark::State& state) {
  ExprPtr expr = BuildXPlusXPlusX();
  Row row({Value(int32_t{7})});
  int64_t sink = 0;
  for (auto _ : state) {
    Value v = expr->Eval(row);
    sink += v.AsInt64();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("tree-walking interpreter over boxed values");
}
BENCHMARK(BM_Fig4_Interpreted);

void BM_Fig4_Compiled(benchmark::State& state) {
  // The register program over the same boxed rows the interpreter reads,
  // a chunk at a time as the row operators run it: one lane loop per
  // instruction, each column load a typed read of the row's Value.
  ExprPtr expr = BuildXPlusXPlusX();
  auto compiled = CompiledExpression::Compile(expr);
  auto evaluator = compiled.NewVectorEvaluator();
  std::vector<Row> rows(kChunkRows, Row({Value(int32_t{7})}));
  std::vector<const Row*> chunk;
  for (const Row& row : rows) chunk.push_back(&row);
  int64_t sink = 0;
  for (auto _ : state) {
    ColumnVector out(compiled.result_type());
    evaluator.EvaluateColumn(chunk, &out);
    sink += out.ints().back();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kChunkRows));
  state.SetLabel("code generation (register program) over 1K boxed rows");
}
BENCHMARK(BM_Fig4_Compiled);

void BM_Fig4_Vectorized(benchmark::State& state) {
  // The same register program evaluated over a RowBatch: the column loads
  // gather from typed banks instead of boxed rows. Per-item time is
  // directly comparable to the other bars.
  ExprPtr expr = BuildXPlusXPlusX();
  auto compiled = CompiledExpression::Compile(expr);
  auto evaluator = compiled.NewVectorEvaluator();
  auto col = std::make_shared<ColumnVector>(DataType::Int32());
  col->Reserve(kChunkRows);
  for (size_t i = 0; i < kChunkRows; ++i) {
    col->Append(Value(static_cast<int32_t>(7)));
  }
  RowBatch batch({col});
  int64_t sink = 0;
  for (auto _ : state) {
    ColumnVector out(compiled.result_type());
    evaluator.EvaluateColumn(batch, &out);
    sink += out.ints().back();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kChunkRows));
  state.SetLabel("vectorized register program over a 1K-row batch");
}
BENCHMARK(BM_Fig4_Vectorized);

void BM_Fig4_HandWritten(benchmark::State& state) {
  // A hand-written program over the same record layout: one direct field
  // load, then x+x+x — no tree walk, no dispatch.
  Row row({Value(int32_t{7})});
  int64_t sink = 0;
  for (auto _ : state) {
    int32_t v = row.GetInt32(0);
    benchmark::DoNotOptimize(v);
    sink += v + v + v;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("hand-written C++ loop over the same row");
}
BENCHMARK(BM_Fig4_HandWritten);

}  // namespace
}  // namespace ssql

BENCHMARK_MAIN();
