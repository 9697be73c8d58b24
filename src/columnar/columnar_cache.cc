#include "columnar/columnar_cache.h"

#include <algorithm>

namespace ssql {

std::shared_ptr<CachedTable> CachedTable::Build(const SchemaPtr& schema,
                                                const RowDataset& data) {
  auto table = std::make_shared<CachedTable>();
  table->schema_ = schema;
  for (const auto& partition : data.partitions()) {
    Chunk chunk;
    chunk.num_rows = static_cast<uint32_t>(partition->rows.size());
    table->num_rows_ += partition->rows.size();
    for (size_t c = 0; c < schema->num_fields(); ++c) {
      ColumnVector col(schema->field(c).type);
      col.Reserve(partition->rows.size());
      for (const Row& row : partition->rows) col.Append(row.Get(c));
      chunk.columns.push_back(EncodeColumn(col));
    }
    table->chunks_.push_back(std::move(chunk));
  }
  return table;
}

size_t CachedTable::MemoryBytes() const {
  size_t bytes = 0;
  for (const Chunk& chunk : chunks_) {
    for (const EncodedColumn& col : chunk.columns) bytes += col.MemoryBytes();
  }
  return bytes;
}

size_t CachedTable::EstimatedRowCacheBytes() const {
  return num_rows_ * EstimateBoxedRowBytes(*schema_);
}

void CacheManager::Put(const std::string& key,
                       std::shared_ptr<const CachedTable> table) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[key] = std::move(table);
}

std::shared_ptr<const CachedTable> CacheManager::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

void CacheManager::Remove(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(key);
}

void CacheManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t CacheManager::TotalMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& [key, table] : entries_) bytes += table->MemoryBytes();
  return bytes;
}

}  // namespace ssql
