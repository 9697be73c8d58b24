#ifndef SSQL_API_NATIVE_OBJECTS_H_
#define SSQL_API_NATIVE_OBJECTS_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/sql_context.h"
#include "datasources/data_source.h"

namespace ssql {

/// Querying native datasets (Section 3.5): DataFrames constructed directly
/// against collections of host-language objects.
///
/// The paper extracts column names/types via Scala/Java reflection; C++
/// has none, so the substitute is an explicit field list — one (name,
/// type, extractor) per column. Everything else matches the paper:
/// "Spark SQL creates a logical data scan operator that points to the
/// RDD... accesses the native objects in-place, extracting only the
/// fields used in each query" — the relation implements PrunedScan, so
/// column pruning reaches into the objects and only the requested fields
/// are ever extracted (no up-front ORM-style conversion of whole objects).
template <typename T>
class ObjectSchema {
 public:
  using Extractor = std::function<Value(const T&)>;

  /// Adds a column backed by `extract` (e.g. a member pointer lambda).
  ObjectSchema& Add(std::string name, DataTypePtr type, Extractor extract,
                    bool nullable = false) {
    fields_.emplace_back(std::move(name), std::move(type), nullable);
    extractors_.push_back(std::move(extract));
    return *this;
  }

  const std::vector<Field>& fields() const { return fields_; }
  const std::vector<Extractor>& extractors() const { return extractors_; }

 private:
  std::vector<Field> fields_;
  std::vector<Extractor> extractors_;
};

/// The data-scan relation over a shared object collection.
template <typename T>
class ObjectRelation : public BaseRelation, public PrunedScan {
 public:
  ObjectRelation(std::string name,
                 std::shared_ptr<const std::vector<T>> objects,
                 ObjectSchema<T> schema)
      : name_(std::move(name)),
        objects_(std::move(objects)),
        object_schema_(std::move(schema)),
        schema_(StructType::Make(object_schema_.fields())) {}

  std::string name() const override { return "objects:" + name_; }
  SchemaPtr schema() const override { return schema_; }
  std::optional<uint64_t> EstimatedSizeBytes() const override {
    return objects_->size() * (sizeof(T) + 16);
  }

  std::vector<Row> ScanColumns(QueryContext& ctx,
                               const std::vector<int>& columns) const override {
    std::vector<Row> rows;
    rows.reserve(objects_->size());
    const auto& extractors = object_schema_.extractors();
    for (const T& object : *objects_) {
      Row row;
      row.Reserve(columns.size());
      // In-place access: only the requested fields are extracted.
      for (int c : columns) row.Append(extractors[c](object));
      rows.push_back(std::move(row));
    }
    ctx.profile().Add(nullptr, ProfileCounter::kRowsScanned,
                      static_cast<int64_t>(objects_->size()));
    return rows;
  }

 private:
  std::string name_;
  std::shared_ptr<const std::vector<T>> objects_;
  ObjectSchema<T> object_schema_;
  SchemaPtr schema_;
};

/// The paper's `usersRDD.toDF`: wraps native objects as a DataFrame.
/// The collection is shared, not copied; field values are extracted
/// lazily at scan time.
template <typename T>
DataFrame DataFrameFromObjects(SqlContext& ctx, std::string name,
                               std::vector<T> objects,
                               ObjectSchema<T> schema) {
  auto shared =
      std::make_shared<const std::vector<T>>(std::move(objects));
  auto relation = std::make_shared<ObjectRelation<T>>(
      std::move(name), std::move(shared), std::move(schema));
  return DataFrame(&ctx, LogicalRelation::Make(relation));
}

}  // namespace ssql

#endif  // SSQL_API_NATIVE_OBJECTS_H_
