#ifndef SSQL_COLUMNAR_ENCODING_H_
#define SSQL_COLUMNAR_ENCODING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/column_vector.h"

namespace ssql {

/// Columnar compression schemes (Section 3.6: "columnar compression
/// schemes such as dictionary encoding and run-length encoding" reduce
/// memory footprint by an order of magnitude vs boxed objects).
enum class ColumnEncoding : uint8_t {
  kPlain = 0,
  kRunLength = 1,
  kDictionary = 2,
  kBoxed = 3,  // complex types kept as Values (cache only, not on disk)
};

/// An encoded column chunk with zone-map statistics; the unit stored by
/// both the in-memory cache and the colf file format.
struct EncodedColumn {
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  DataTypePtr type;
  uint32_t num_rows = 0;
  std::vector<uint8_t> data;   // encoded payload (atomic types)
  std::vector<Value> boxed;    // payload for kBoxed
  bool has_nulls = false;
  // Zone map over non-null values; unset for all-null or boxed columns.
  std::optional<Value> min;
  std::optional<Value> max;

  size_t MemoryBytes() const;
};

/// Encodes a column, choosing the cheapest of plain / RLE / dictionary by
/// measured payload size. Complex-typed columns become kBoxed.
EncodedColumn EncodeColumn(const ColumnVector& column);

/// Encodes with a specific scheme (exposed for tests and the encoding
/// ablation bench). Falls back to plain for unsupported combinations.
EncodedColumn EncodeColumnAs(const ColumnVector& column, ColumnEncoding scheme);

/// A parsed, validated view of one encoded chunk, with no value boxed.
/// Values live once per *slot*: one slot per row (plain), per run
/// (run-length), or per dictionary entry plus one null slot (dictionary).
/// Each slot's value sits in the lane of its type's bank, and every slot
/// of that lane is defined (0 / 0.0 / "" under a null). String slots view
/// the column's payload, so the EncodedColumn must outlive this view. A
/// kBoxed chunk has no slots; its rows are the column's own Values.
struct ChunkValues {
  const EncodedColumn* column = nullptr;
  std::vector<uint8_t> nulls;             // per slot
  std::vector<int64_t> ints;              // per slot: bool, int, date, ...
  std::vector<double> doubles;            // per slot: double
  std::vector<std::string_view> strings;  // per slot: string
  std::vector<uint32_t> codes;     // dictionary: the slot of each row
  std::vector<uint32_t> run_ends;  // run-length: one past each run's last row

  size_t num_slots() const { return nulls.size(); }
};

/// Parses `column`'s payload into slots. Throws IoError when the payload is
/// corrupt: a dictionary code past the dictionary, runs that do not sum to
/// num_rows, or a count larger than the payload can hold (checked before
/// anything is reserved).
ChunkValues ReadChunkValues(const EncodedColumn& column);

/// Appends the values of rows `rows[0..n)` (ascending) to `out`, straight
/// into its typed bank.
void GatherRows(const ChunkValues& values, const uint32_t* rows, size_t n,
                ColumnVector* out);

/// Decodes back to a ColumnVector; exact round-trip. Throws IoError on a
/// corrupt payload (see ReadChunkValues).
ColumnVector DecodeColumn(const EncodedColumn& column);

/// Serializes / deserializes an encoded column for the colf file format.
/// Boxed columns are not supported on disk.
void SerializeColumn(const EncodedColumn& column, std::string* out);
EncodedColumn DeserializeColumn(const std::string& in, size_t* offset,
                                const DataTypePtr& type);

}  // namespace ssql

#endif  // SSQL_COLUMNAR_ENCODING_H_
