// Section 5.2 tests: the vector UDT (exactly the paper's 4-field layout),
// pipeline stages exchanging DataFrames, logistic regression learning a
// separable problem, the prediction UDF exposed to SQL (Section 3.7's
// model.predict example), and UDT round-trips through the columnar cache.

#include <gtest/gtest.h>

#include "api/sql_context.h"
#include "columnar/columnar_cache.h"
#include "datasources/chunk_reader.h"
#include "ml/hashing_tf.h"
#include "ml/logistic_regression.h"
#include "ml/pipeline.h"
#include "ml/tokenizer.h"
#include "ml/vector_udt.h"

namespace ssql {
namespace {

TEST(MlVectorTest, DenseSparseAccessors) {
  MlVector dense = MlVector::Dense({1.0, 0.0, 3.0});
  EXPECT_TRUE(dense.dense());
  EXPECT_EQ(dense.size(), 3);
  EXPECT_DOUBLE_EQ(dense.Get(2), 3.0);

  MlVector sparse = MlVector::Sparse(5, {1, 4}, {2.0, 7.0});
  EXPECT_FALSE(sparse.dense());
  EXPECT_DOUBLE_EQ(sparse.Get(1), 2.0);
  EXPECT_DOUBLE_EQ(sparse.Get(0), 0.0);
  EXPECT_DOUBLE_EQ(sparse.Get(4), 7.0);
}

TEST(MlVectorTest, DotAndAddTo) {
  std::vector<double> w = {1.0, 2.0, 3.0, 4.0, 5.0};
  MlVector dense = MlVector::Dense({1, 1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(dense.Dot(w), 15.0);
  MlVector sparse = MlVector::Sparse(5, {0, 4}, {2.0, 1.0});
  EXPECT_DOUBLE_EQ(sparse.Dot(w), 2.0 + 5.0);

  std::vector<double> acc(5, 0.0);
  sparse.AddTo(2.0, &acc);
  EXPECT_DOUBLE_EQ(acc[0], 4.0);
  EXPECT_DOUBLE_EQ(acc[4], 2.0);
  EXPECT_DOUBLE_EQ(acc[2], 0.0);
}

TEST(VectorUdtTest, PaperFourFieldLayout) {
  // "four primitive fields: a boolean for the type, a size, an array of
  // indices, and an array of double values".
  const auto& sql_type = VectorUDT::Instance()->sql_type();
  ASSERT_EQ(sql_type->id(), TypeId::kStruct);
  const auto& st = AsStruct(*sql_type);
  ASSERT_EQ(st.num_fields(), 4u);
  EXPECT_EQ(st.field(0).type->id(), TypeId::kBoolean);
  EXPECT_EQ(st.field(1).type->id(), TypeId::kInt32);
  EXPECT_EQ(st.field(2).type->id(), TypeId::kArray);
  EXPECT_EQ(st.field(3).type->id(), TypeId::kArray);
  EXPECT_EQ(AsArray(*st.field(3).type).element_type()->id(), TypeId::kDouble);
}

TEST(VectorUdtTest, SerializeDeserializeRoundTrip) {
  MlVector sparse = MlVector::Sparse(100, {5, 50}, {1.5, -2.5});
  Value obj = VectorUDT::ToObject(sparse);
  Value serialized = VectorUDT::Instance()->Serialize(obj);
  ASSERT_EQ(serialized.type_id(), TypeId::kStruct);
  Value back = VectorUDT::Instance()->Deserialize(serialized);
  const auto* restored = static_cast<const MlVector*>(back.object().ptr.get());
  EXPECT_TRUE(*restored == sparse);
}

TEST(VectorUdtTest, StoredColumnarAndCompressed) {
  // Section 4.4.2: UDT values are stored via built-in types, so the
  // columnar cache can hold them (as boxed structs here).
  auto schema = StructType::Make(
      {Field("features", VectorUDT::Instance()->sql_type(), true)});
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(
        Row({VectorUDT::ToStruct(MlVector::Dense({double(i), double(i * 2)}))}));
  }
  CachedTableSource cache(
      CachedTable::Build(schema, RowDataset::FromRows(rows, 2)), "udt");
  ExecContext engine{EngineConfig()};
  QueryContextPtr query = engine.BeginQuery();
  auto out =
      cache.ScanBatches(*query, {0}, {}, 1024).ToRowDataset(*query).Collect();
  ASSERT_EQ(out.size(), 10u);
  MlVector v = VectorUDT::FromStruct(out[3].Get(0));
  EXPECT_DOUBLE_EQ(v.Get(1), 6.0);
}

TEST(TokenizerTest, SplitsAndLowercases) {
  SqlContext ctx;
  auto schema = StructType::Make({Field("text", DataType::String(), true)});
  DataFrame df = ctx.CreateDataFrame(
      schema, {Row({Value("Hello Spark World")}), Row({Value::Null()})});
  DataFrame out = Tokenizer("text", "words").Transform(df);
  auto rows = out.Collect();
  ASSERT_EQ(rows.size(), 2u);
  const auto& words = rows[0].Get(1).array().elements;
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0].str(), "hello");
  EXPECT_EQ(words[1].str(), "spark");
  EXPECT_TRUE(rows[1].IsNullAt(1));
}

TEST(HashingTFTest, CountsTermFrequencies) {
  MlVector v = HashingTF::HashWords({"a", "b", "a", "c", "a"}, 32);
  EXPECT_FALSE(v.dense());
  EXPECT_EQ(v.size(), 32);
  double total = 0;
  double max_count = 0;
  for (double x : v.values()) {
    total += x;
    max_count = std::max(max_count, x);
  }
  EXPECT_DOUBLE_EQ(total, 5.0);
  EXPECT_DOUBLE_EQ(max_count, 3.0);  // "a" appears 3 times
}

/// The Figure 7 fixture: (text, label) rows where the word "spark"
/// determines the label.
DataFrame MakeTrainingData(SqlContext* ctx, int n) {
  auto schema = StructType::Make({
      Field("text", DataType::String(), false),
      Field("label", DataType::Double(), false),
  });
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      rows.push_back(Row({Value("spark is fast and great number" +
                                std::to_string(i)),
                          Value(1.0)}));
    } else {
      rows.push_back(Row({Value("slow boring system number" +
                                std::to_string(i)),
                          Value(0.0)}));
    }
  }
  return ctx->CreateDataFrame(schema, rows);
}

TEST(LogisticRegressionTest, LearnsSeparableProblem) {
  SqlContext ctx;
  DataFrame train = MakeTrainingData(&ctx, 40);
  DataFrame tokenized = Tokenizer("text", "words").Transform(train);
  DataFrame featurized =
      HashingTF("words", "features", 64).Transform(tokenized);
  auto model = LogisticRegression("features", "label").FitModel(featurized);

  DataFrame predictions = model->Transform(featurized);
  auto rows = predictions
                  .Select(std::vector<std::string>{"label", "prediction"})
                  .Collect();
  int correct = 0;
  for (const Row& r : rows) {
    if (r.GetDouble(0) == r.GetDouble(1)) ++correct;
  }
  EXPECT_EQ(correct, 40);  // linearly separable: perfect fit expected
}

TEST(PipelineTest, Figure7PipelineFitsAndTransforms) {
  // Figure 7: tokenizer -> HashingTF -> LogisticRegression, exchanging
  // DataFrames between stages.
  SqlContext ctx;
  DataFrame train = MakeTrainingData(&ctx, 30);
  Pipeline pipeline({
      PipelineStage::Of(Tokenizer::Make("text", "words")),
      PipelineStage::Of(HashingTF::Make("words", "features", 64)),
      PipelineStage::Of(LogisticRegression::Make("features", "label")),
  });
  auto model = pipeline.Fit(train);
  ASSERT_EQ(model->stages().size(), 3u);

  // Score fresh data through the fitted pipeline.
  auto schema = StructType::Make({
      Field("text", DataType::String(), false),
      Field("label", DataType::Double(), false),
  });
  DataFrame test = ctx.CreateDataFrame(
      schema, {Row({Value("spark great"), Value(1.0)}),
               Row({Value("boring slow"), Value(0.0)})});
  auto rows = model->Transform(test)
                  .Select(std::vector<std::string>{"label", "prediction"})
                  .Collect();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].GetDouble(1), 1.0);
  EXPECT_DOUBLE_EQ(rows[1].GetDouble(1), 0.0);
}

TEST(PipelineTest, PredictionUdfInSql) {
  // Section 3.7's pattern: register the fitted model's prediction function
  // as a UDF and call it from SQL.
  SqlContext ctx;
  DataFrame train = MakeTrainingData(&ctx, 30);
  DataFrame prepared = HashingTF("words", "features", 64)
                           .Transform(Tokenizer("text", "words").Transform(train));
  auto model = LogisticRegression("features", "label").FitModel(prepared);

  ctx.RegisterUdf("predict", DataType::Double(),
                  [model](const std::vector<Value>& args) -> Value {
                    if (args[0].is_null()) return Value::Null();
                    return Value(model->Predict(VectorUDT::FromStruct(args[0])));
                  });
  prepared.RegisterTempTable("train");
  auto rows = ctx.Sql(
                     "SELECT count(*) FROM train WHERE predict(features) = label")
                  .Collect();
  EXPECT_EQ(rows[0].GetInt64(0), 30);
}

TEST(UdtRegistryTest, LookupByName) {
  SqlContext ctx;
  ctx.RegisterUdt(VectorUDT::Instance());
  auto udt = ctx.catalog().LookupUdt("vector");
  ASSERT_NE(udt, nullptr);
  EXPECT_EQ(udt->name(), "vector");
  EXPECT_EQ(ctx.catalog().LookupUdt("nope"), nullptr);
}

}  // namespace
}  // namespace ssql
