#ifndef SSQL_DATASOURCES_COLF_FORMAT_H_
#define SSQL_DATASOURCES_COLF_FORMAT_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/encoding.h"
#include "datasources/data_source.h"

namespace ssql {

/// "colf" — a columnar binary file format playing Parquet's role from the
/// paper (Section 4.4.1: "a columnar file format for which we support
/// column pruning as well as filters"). Layout:
///
///   magic "COLF1"
///   schema string (length-prefixed, "name type, ...")
///   u32 row-group count
///   per row group: u32 row count, then one serialized EncodedColumn per
///   field (dictionary/RLE/plain chosen per chunk, with min/max zone maps)
///
/// Scans run one task per row group through the chunk reader
/// (datasources/chunk_reader.h), the same one the columnar cache uses:
/// zone maps skip row groups that cannot match the pushed filters, the
/// filters run on the encoded columns, and only the surviving rows of the
/// requested columns are decoded.
class ColfRelation : public BaseRelation, public BatchedScan {
 public:
  ColfRelation(std::string path, SchemaPtr schema);

  static std::shared_ptr<ColfRelation> Open(const DataSourceOptions& options);

  std::string name() const override { return "colf:" + path_; }
  SchemaPtr schema() const override { return schema_; }
  std::optional<uint64_t> EstimatedSizeBytes() const override;

  BatchDataset ScanBatches(QueryContext& ctx, const std::vector<int>& columns,
                           const std::vector<FilterSpec>& filters,
                           size_t batch_size) const override;

 private:
  std::string path_;
  SchemaPtr schema_;
};

/// Writes rows into a colf file with `row_group_size` rows per group.
void WriteColfFile(const std::string& path, const SchemaPtr& schema,
                   const std::vector<Row>& rows, size_t row_group_size = 4096);

/// Reads just the schema from a colf file header.
SchemaPtr ReadColfSchema(const std::string& path);

}  // namespace ssql

#endif  // SSQL_DATASOURCES_COLF_FORMAT_H_
