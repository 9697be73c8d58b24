#ifndef SSQL_DATASOURCES_SYSTEM_TABLES_H_
#define SSQL_DATASOURCES_SYSTEM_TABLES_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "datasources/data_source.h"

namespace ssql {

class Catalog;

/// A virtual table over live engine state — the engine dogfoods its own
/// data source API (Section 4.4.1): each system table is a
/// PrunedFilteredScan relation whose rows are generated from a consistent
/// snapshot taken at scan time, so `SELECT * FROM system.queries` works
/// with the full SQL/DataFrame surface (filters, aggregates, joins)
/// while other queries run. Pushdown applies for real: pruned columns are
/// never materialized per row and filters are evaluated during generation
/// output — observable as the scan operator's column list in the query
/// profile.
class SystemTableRelation : public BaseRelation, public PrunedFilteredScan {
 public:
  /// Produces the full-width rows of one snapshot. Must be thread-safe:
  /// concurrent queries can scan the same system table simultaneously.
  using Generator = std::function<std::vector<Row>(QueryContext& ctx)>;

  SystemTableRelation(std::string name, SchemaPtr schema, Generator generator)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        generator_(std::move(generator)) {}

  std::string name() const override { return name_; }
  SchemaPtr schema() const override { return schema_; }

  std::vector<Row> ScanFiltered(
      QueryContext& ctx, const std::vector<int>& columns,
      const std::vector<FilterSpec>& filters) const override;

 private:
  std::string name_;
  SchemaPtr schema_;
  Generator generator_;
};

/// Registers the `system.` catalog over `engine` and `catalog`:
///
///   system.queries          running + retained finished queries
///   system.query_operators  per-operator actuals of retained queries
///   system.metrics          registry snapshot
///   system.metrics_history  sampler ring: registry snapshots over time
///   system.events           flight-recorder journal tail (seq order)
///   system.memory           engine pool and per-query reservations
///   system.tables           catalog table listing
///   system.columns          catalog column listing
///
/// Both references must outlive the catalog entries (SqlContext owns both,
/// so registering from its constructor satisfies this). Uses
/// Catalog::RegisterSystemTable — the only path into the reserved
/// namespace.
void RegisterSystemTables(Catalog& catalog, ExecContext& engine);

}  // namespace ssql

#endif  // SSQL_DATASOURCES_SYSTEM_TABLES_H_
