#ifndef SSQL_COLUMNAR_COLUMNAR_CACHE_H_
#define SSQL_COLUMNAR_COLUMNAR_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "columnar/batch_dataset.h"
#include "columnar/encoding.h"
#include "engine/dataset.h"
#include "types/schema.h"

namespace ssql {

/// An in-memory table materialized in compressed columnar form — the
/// cache() of Section 3.6. One chunk per engine partition; each chunk holds
/// one encoded column per field plus row count, so scans can prune columns
/// and decode only what a query touches.
class CachedTable {
 public:
  /// Builds from a row dataset. Encoding is chosen per column chunk.
  static std::shared_ptr<CachedTable> Build(const SchemaPtr& schema,
                                            const RowDataset& data);

  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_chunks() const { return chunks_.size(); }

  /// Total compressed footprint in bytes.
  size_t MemoryBytes() const;

  /// Footprint the same data would occupy as boxed rows (Spark's "native
  /// cache storing data as JVM objects" analogue), for the Section 3.6
  /// comparison.
  size_t EstimatedRowCacheBytes() const;

  /// Raw chunk access for the scans layered above: CachedTableSource
  /// (datasources/chunk_reader.h) reads the chunks through the chunk
  /// reader.
  uint32_t chunk_rows(size_t chunk) const { return chunks_[chunk].num_rows; }
  const std::vector<EncodedColumn>& chunk_columns(size_t chunk) const {
    return chunks_[chunk].columns;
  }

 private:
  struct Chunk {
    uint32_t num_rows = 0;
    std::vector<EncodedColumn> columns;
  };

  SchemaPtr schema_;
  size_t num_rows_ = 0;
  std::vector<Chunk> chunks_;
};

/// Keyed registry of cached tables; the SqlContext stores one entry per
/// cached DataFrame, keyed by the canonical string of its analyzed plan.
class CacheManager {
 public:
  void Put(const std::string& key, std::shared_ptr<const CachedTable> table);
  std::shared_ptr<const CachedTable> Get(const std::string& key) const;
  void Remove(const std::string& key);
  void Clear();
  size_t TotalMemoryBytes() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const CachedTable>> entries_;
};

}  // namespace ssql

#endif  // SSQL_COLUMNAR_COLUMNAR_CACHE_H_
