#ifndef SSQL_DATASOURCES_KVDB_H_
#define SSQL_DATASOURCES_KVDB_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "datasources/data_source.h"

namespace ssql {

/// An embedded row-store database standing in for the external RDBMS of
/// the paper's JDBC data source and query-federation examples (Sections
/// 4.4.1, 5.3). Predicates pushed into it execute "inside the database";
/// the kvdb scan's profile counters (rows_scanned examined inside the
/// store vs rows_returned shipped out) make the communication saved by
/// pushdown measurable, standing in for the network traffic a real MySQL
/// would have avoided.
class KvdbDatabase {
 public:
  static KvdbDatabase& Global();

  struct Table {
    SchemaPtr schema;
    std::vector<Row> rows;
  };

  void CreateTable(const std::string& name, SchemaPtr schema,
                   std::vector<Row> rows);
  void DropTable(const std::string& name);
  std::shared_ptr<const Table> GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const Table>> tables_;
};

/// Relation over one kvdb table.
///
/// OPTIONS:
///   table (required) name of the table inside the embedded database
///
/// Implements both PrunedFilteredScan (FilterSpec pushdown, like the
/// paper's JDBC source) and CatalystScan (whole expression trees,
/// Section 4.4.1's most capable interface). Predicates arriving through
/// ScanCatalyst are bound against the table's full schema.
class KvdbRelation : public BaseRelation,
                     public PrunedFilteredScan,
                     public CatalystScan {
 public:
  explicit KvdbRelation(std::string table_name);

  static std::shared_ptr<KvdbRelation> Open(const DataSourceOptions& options);

  std::string name() const override { return "kvdb:" + table_name_; }
  SchemaPtr schema() const override;
  std::optional<uint64_t> EstimatedSizeBytes() const override;

  std::vector<Row> ScanFiltered(
      QueryContext& ctx, const std::vector<int>& columns,
      const std::vector<FilterSpec>& filters) const override;

  std::vector<Row> ScanCatalyst(QueryContext& ctx,
                                const std::vector<int>& columns,
                                const ExprVector& predicates) const override;

 private:
  std::string table_name_;
};

}  // namespace ssql

#endif  // SSQL_DATASOURCES_KVDB_H_
