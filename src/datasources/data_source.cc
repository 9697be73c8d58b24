#include "datasources/data_source.h"

#include "catalyst/expr/complex_types.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "catalyst/expr/string_ops.h"
#include "util/string_util.h"

namespace ssql {

bool FilterSpec::Matches(const Value& v) const {
  switch (op) {
    case Op::kIsNull:
      return v.is_null();
    case Op::kIsNotNull:
      return !v.is_null();
    default:
      break;
  }
  if (v.is_null()) return false;
  switch (op) {
    case Op::kEq:
      return v.Compare(values[0]) == 0;
    case Op::kLt:
      return v.Compare(values[0]) < 0;
    case Op::kLe:
      return v.Compare(values[0]) <= 0;
    case Op::kGt:
      return v.Compare(values[0]) > 0;
    case Op::kGe:
      return v.Compare(values[0]) >= 0;
    case Op::kIn:
      for (const auto& candidate : values) {
        if (v.Compare(candidate) == 0) return true;
      }
      return false;
    case Op::kStartsWith: {
      const std::string& s = v.str();
      const std::string& p = values[0].str();
      return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
    }
    case Op::kContains:
      return v.str().find(values[0].str()) != std::string::npos;
    default:
      return false;
  }
}

std::string FilterSpec::ToString() const {
  const char* op_name = "?";
  switch (op) {
    case Op::kEq:
      op_name = "=";
      break;
    case Op::kLt:
      op_name = "<";
      break;
    case Op::kLe:
      op_name = "<=";
      break;
    case Op::kGt:
      op_name = ">";
      break;
    case Op::kGe:
      op_name = ">=";
      break;
    case Op::kIn:
      op_name = "IN";
      break;
    case Op::kIsNull:
      op_name = "IS NULL";
      break;
    case Op::kIsNotNull:
      op_name = "IS NOT NULL";
      break;
    case Op::kStartsWith:
      op_name = "STARTSWITH";
      break;
    case Op::kContains:
      op_name = "CONTAINS";
      break;
  }
  std::string s = column + " " + op_name;
  if (!values.empty()) {
    s += " ";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) s += ",";
      s += values[i].ToString();
    }
  }
  return s;
}

namespace {

/// Matches `attr` or a cast of `attr`; returns the column name.
const AttributeReference* AsColumn(const ExprPtr& e) {
  return As<AttributeReference>(e);
}

const Literal* AsLiteralValue(const ExprPtr& e) {
  return As<Literal>(e);
}

FilterSpec::Op FlipOp(FilterSpec::Op op) {
  switch (op) {
    case FilterSpec::Op::kLt:
      return FilterSpec::Op::kGt;
    case FilterSpec::Op::kLe:
      return FilterSpec::Op::kGe;
    case FilterSpec::Op::kGt:
      return FilterSpec::Op::kLt;
    case FilterSpec::Op::kGe:
      return FilterSpec::Op::kLe;
    default:
      return op;
  }
}

}  // namespace

std::optional<FilterSpec> TranslateFilter(const Expression& conjunct) {
  // attr OP literal / literal OP attr
  if (const auto* cmp = dynamic_cast<const BinaryComparison*>(&conjunct)) {
    FilterSpec::Op op;
    if (dynamic_cast<const EqualTo*>(&conjunct) != nullptr) {
      op = FilterSpec::Op::kEq;
    } else if (dynamic_cast<const LessThan*>(&conjunct) != nullptr) {
      op = FilterSpec::Op::kLt;
    } else if (dynamic_cast<const LessThanOrEqual*>(&conjunct) != nullptr) {
      op = FilterSpec::Op::kLe;
    } else if (dynamic_cast<const GreaterThan*>(&conjunct) != nullptr) {
      op = FilterSpec::Op::kGt;
    } else if (dynamic_cast<const GreaterThanOrEqual*>(&conjunct) != nullptr) {
      op = FilterSpec::Op::kGe;
    } else {
      return std::nullopt;  // != not in the paper's Filter set
    }
    const auto* lattr = AsColumn(cmp->left());
    const auto* rlit = AsLiteralValue(cmp->right());
    if (lattr != nullptr && rlit != nullptr && !rlit->value().is_null()) {
      return FilterSpec{lattr->name(), op, {rlit->value()}};
    }
    const auto* llit = AsLiteralValue(cmp->left());
    const auto* rattr = AsColumn(cmp->right());
    if (llit != nullptr && rattr != nullptr && !llit->value().is_null()) {
      return FilterSpec{rattr->name(), FlipOp(op), {llit->value()}};
    }
    return std::nullopt;
  }

  if (const auto* in = dynamic_cast<const In*>(&conjunct)) {
    const auto* attr = AsColumn(in->value());
    if (attr == nullptr) return std::nullopt;
    std::vector<Value> values;
    auto children = in->Children();
    for (size_t i = 1; i < children.size(); ++i) {
      const auto* lit = AsLiteralValue(children[i]);
      if (lit == nullptr || lit->value().is_null()) return std::nullopt;
      values.push_back(lit->value());
    }
    return FilterSpec{attr->name(), FilterSpec::Op::kIn, std::move(values)};
  }

  if (const auto* isnull = dynamic_cast<const IsNull*>(&conjunct)) {
    const auto* attr = AsColumn(isnull->child());
    if (attr == nullptr) return std::nullopt;
    return FilterSpec{attr->name(), FilterSpec::Op::kIsNull, {}};
  }
  if (const auto* isnotnull = dynamic_cast<const IsNotNull*>(&conjunct)) {
    const auto* attr = AsColumn(isnotnull->child());
    if (attr == nullptr) return std::nullopt;
    return FilterSpec{attr->name(), FilterSpec::Op::kIsNotNull, {}};
  }

  if (const auto* sw = dynamic_cast<const StartsWith*>(&conjunct)) {
    const auto* attr = AsColumn(sw->left());
    const auto* lit = AsLiteralValue(sw->right());
    if (attr != nullptr && lit != nullptr && !lit->value().is_null()) {
      return FilterSpec{attr->name(), FilterSpec::Op::kStartsWith, {lit->value()}};
    }
    return std::nullopt;
  }
  if (const auto* sc = dynamic_cast<const StringContains*>(&conjunct)) {
    const auto* attr = AsColumn(sc->left());
    const auto* lit = AsLiteralValue(sc->right());
    if (attr != nullptr && lit != nullptr && !lit->value().is_null()) {
      return FilterSpec{attr->name(), FilterSpec::Op::kContains, {lit->value()}};
    }
    return std::nullopt;
  }

  return std::nullopt;
}

bool BaseRelation::CanHandleFilter(const Expression& conjunct) const {
  if (dynamic_cast<const CatalystScan*>(this) != nullptr) {
    // CatalystScan sources accept arbitrary deterministic predicates.
    return true;
  }
  if (dynamic_cast<const PrunedFilteredScan*>(this) == nullptr &&
      dynamic_cast<const BatchedScan*>(this) == nullptr) {
    return false;
  }
  return TranslateFilter(conjunct).has_value();
}

DataSourceRegistry::DataSourceRegistry() {
  RegisterCsvSource(*this);
  RegisterJsonSource(*this);
  RegisterColfSource(*this);
  RegisterKvdbSource(*this);
}

DataSourceRegistry& DataSourceRegistry::Global() {
  static DataSourceRegistry* registry = new DataSourceRegistry();
  return *registry;
}

void DataSourceRegistry::Register(const std::string& name,
                                  DataSourceFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  factories_[ToLower(name)] = std::move(factory);
}

void DataSourceRegistry::RegisterWriter(const std::string& name,
                                        DataSourceWriter writer) {
  std::lock_guard<std::mutex> lock(mu_);
  writers_[ToLower(name)] = std::move(writer);
}

void DataSourceRegistry::Write(const std::string& provider,
                               const DataSourceOptions& options,
                               const SchemaPtr& schema,
                               const std::vector<Row>& rows) {
  DataSourceWriter writer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = writers_.find(ToLower(provider));
    if (it == writers_.end()) {
      throw AnalysisError("data source provider '" + provider +
                          "' has no write support");
    }
    writer = it->second;
  }
  writer(options, schema, rows);
}

std::shared_ptr<BaseRelation> DataSourceRegistry::CreateRelation(
    const std::string& provider, const DataSourceOptions& options) {
  DataSourceFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(ToLower(provider));
    if (it == factories_.end()) {
      throw AnalysisError("unknown data source provider '" + provider + "'");
    }
    factory = it->second;
  }
  return factory(options);
}

std::vector<std::string> DataSourceRegistry::ProviderNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, f] : factories_) names.push_back(name);
  return names;
}

namespace {

/// Splits on top-level commas only, so "d decimal(7,2)" stays together.
std::vector<std::string> SplitSchemaPieces(const std::string& s) {
  std::vector<std::string> out;
  int depth = 0;
  std::string current;
  for (char c : s) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  out.push_back(current);
  return out;
}

/// "decimal", "decimal(p)" or "decimal(p,s)", lowercased with no spaces.
DataTypePtr ParseDecimalType(const std::string& type) {
  int64_t p = 10, s = 0;
  const std::string_view args = std::string_view(type).substr(7);
  if (!args.empty()) {
    std::vector<std::string> parts;
    if (args.size() >= 2 && args.front() == '(' && args.back() == ')') {
      parts = Split(args.substr(1, args.size() - 2), ',');
    }
    if (parts.empty() || parts.size() > 2 || !ParseInt64(parts[0], &p) ||
        (parts.size() == 2 && !ParseInt64(parts[1], &s))) {
      throw AnalysisError("malformed decimal type '" + type +
                          "' in schema string; expected decimal(p[,s])");
    }
  }
  const std::string bad = DecimalType::OutOfBounds(p, s);
  if (!bad.empty()) throw AnalysisError(bad + " in schema string");
  return DecimalType::Make(static_cast<int>(p), static_cast<int>(s));
}

}  // namespace

bool ColumnChunkMayMatch(const EncodedColumn& col, const FilterSpec& filter) {
  if (filter.op == FilterSpec::Op::kIsNull) return col.has_nulls;
  if (filter.op == FilterSpec::Op::kIsNotNull) {
    return col.min.has_value();  // some non-null value exists
  }
  if (!col.min || !col.max) return false;  // all null: comparisons never match
  switch (filter.op) {
    case FilterSpec::Op::kEq:
      return filter.values[0].Compare(*col.min) >= 0 &&
             filter.values[0].Compare(*col.max) <= 0;
    case FilterSpec::Op::kLt:
      return col.min->Compare(filter.values[0]) < 0;
    case FilterSpec::Op::kLe:
      return col.min->Compare(filter.values[0]) <= 0;
    case FilterSpec::Op::kGt:
      return col.max->Compare(filter.values[0]) > 0;
    case FilterSpec::Op::kGe:
      return col.max->Compare(filter.values[0]) >= 0;
    case FilterSpec::Op::kIn: {
      for (const auto& v : filter.values) {
        if (v.Compare(*col.min) >= 0 && v.Compare(*col.max) <= 0) return true;
      }
      return false;
    }
    case FilterSpec::Op::kStartsWith: {
      // Prefix comparison against the string zone map.
      const std::string& p = filter.values[0].str();
      std::string lo = col.min->str().substr(0, p.size());
      std::string hi = col.max->str().substr(0, p.size());
      return lo <= p && p <= hi;
    }
    default:
      return true;  // contains etc.: cannot prune
  }
}

ParseMode ParseModeFromString(const std::string& s) {
  if (EqualsIgnoreCase(s, "permissive")) return ParseMode::kPermissive;
  if (EqualsIgnoreCase(s, "dropmalformed")) return ParseMode::kDropMalformed;
  if (EqualsIgnoreCase(s, "failfast")) return ParseMode::kFailFast;
  throw IoError("unknown parse mode '" + s +
                "' (expected PERMISSIVE, DROPMALFORMED or FAILFAST)");
}

std::string FormatRecordError(const std::string& what, const std::string& path,
                              size_t line, const std::string& record) {
  constexpr size_t kMaxSnippet = 80;
  std::string snippet = record.substr(0, kMaxSnippet);
  if (record.size() > kMaxSnippet) snippet += "...";
  return what + " at " + path + ":" + std::to_string(line) + ": '" + snippet +
         "'";
}

SchemaPtr ParseSchemaString(const std::string& schema_str) {
  std::vector<Field> fields;
  for (const std::string& piece : SplitSchemaPieces(schema_str)) {
    auto parts = SplitWhitespace(piece);
    if (parts.size() < 2) {
      throw AnalysisError("bad schema fragment '" + piece +
                          "'; expected 'name type'");
    }
    const std::string& name = parts[0];
    // Re-join the remainder so "decimal(7, 2)" with internal spaces works.
    std::string type;
    for (size_t i = 1; i < parts.size(); ++i) type += ToLower(parts[i]);
    DataTypePtr t;
    if (type == "boolean" || type == "bool") {
      t = DataType::Boolean();
    } else if (type == "int" || type == "integer") {
      t = DataType::Int32();
    } else if (type == "bigint" || type == "long") {
      t = DataType::Int64();
    } else if (type == "double" || type == "float") {
      t = DataType::Double();
    } else if (type == "string" || type == "varchar") {
      t = DataType::String();
    } else if (type == "date") {
      t = DataType::Date();
    } else if (type == "timestamp") {
      t = DataType::Timestamp();
    } else if (type.rfind("decimal", 0) == 0) {
      t = ParseDecimalType(type);
    } else {
      throw AnalysisError("unknown type '" + type + "' in schema string");
    }
    fields.emplace_back(name, std::move(t));
  }
  return StructType::Make(std::move(fields));
}

}  // namespace ssql
