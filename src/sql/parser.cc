#include "sql/parser.h"

#include "catalyst/expr/aggregates.h"
#include "catalyst/expr/arithmetic.h"
#include "catalyst/expr/case_when.h"
#include "catalyst/expr/cast.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "catalyst/expr/string_ops.h"
#include "sql/lexer.h"
#include "util/string_util.h"

namespace ssql {

namespace {


/// Human-friendly derived column name for unaliased projections.
std::string PrettyName(const ExprPtr& e) {
  if (const auto* ua = As<UnresolvedAttribute>(e)) return ua->parts().back();
  if (const auto* uf = As<UnresolvedFunction>(e)) {
    std::string s = ToLower(uf->name()) + "(";
    auto args = uf->Children();
    if (args.empty()) s += "*";
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) s += ",";
      s += PrettyName(args[i]);
    }
    return s + ")";
  }
  return e->ToString();
}

class Parser {
 public:
  explicit Parser(const std::string& sql) : tokens_(Tokenize(sql)) {}

  ParsedStatement ParseStatement() {
    ParsedStatement stmt;
    if (Peek().IsKeyword("CREATE")) {
      ParseCreateTempTable(&stmt);
      ExpectEnd();
      return stmt;
    }
    if (AcceptKeyword("ANALYZE")) {
      ParseAnalyzeTable(&stmt);
      ExpectEnd();
      return stmt;
    }
    if (AcceptKeyword("EXPLAIN")) {
      stmt.kind = ParsedStatement::Kind::kExplain;
      if (AcceptKeyword("ANALYZE")) {
        stmt.explain_mode = ExplainMode::kAnalyze;
      } else if (AcceptKeyword("EXTENDED")) {
        stmt.explain_mode = ExplainMode::kExtended;
      } else {
        stmt.explain_mode = ExplainMode::kSimple;
      }
      stmt.plan = ParseQuery();
      ExpectEnd();
      return stmt;
    }
    stmt.kind = ParsedStatement::Kind::kQuery;
    stmt.plan = ParseQuery();
    ExpectEnd();
    return stmt;
  }

  ExprPtr ParseSingleExpression() {
    ExprPtr e = ParseExpr();
    ExpectEnd();
    return e;
  }

 private:
  // ---- token helpers ------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AcceptKeyword(const char* word) {
    if (Peek().IsKeyword(word)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const char* symbol) {
    if (Peek().IsSymbol(symbol)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void ExpectKeyword(const char* word) {
    if (!AcceptKeyword(word)) {
      throw ParseError(std::string("expected ") + word + " near '" +
                       Peek().text + "'");
    }
  }
  void ExpectSymbol(const char* symbol) {
    if (!AcceptSymbol(symbol)) {
      throw ParseError(std::string("expected '") + symbol + "' near '" +
                       Peek().text + "'");
    }
  }
  void ExpectEnd() {
    if (Peek().kind != TokenKind::kEnd) {
      throw ParseError("unexpected trailing input near '" + Peek().text + "'");
    }
  }
  std::string ExpectIdentifier() {
    if (Peek().kind != TokenKind::kIdentifier) {
      throw ParseError("expected identifier near '" + Peek().text + "'");
    }
    return Advance().text;
  }

  static bool IsReserved(const Token& t) {
    static const char* kReserved[] = {
        "SELECT", "FROM",  "WHERE", "GROUP", "HAVING", "ORDER",  "LIMIT",
        "UNION",  "JOIN",  "ON",    "LEFT",  "RIGHT",  "FULL",   "INNER",
        "OUTER",  "CROSS", "SEMI",  "AND",   "OR",     "NOT",    "AS",
        "BY",     "ASC",   "DESC",  "CASE",  "WHEN",   "THEN",   "ELSE",
        "END",    "IN",    "IS",    "NULL",  "LIKE",   "BETWEEN", "DISTINCT",
        "CAST",   "USING", "CREATE", "TEMPORARY", "TABLE", "OPTIONS", "ALL"};
    for (const char* w : kReserved) {
      if (t.IsKeyword(w)) return true;
    }
    return false;
  }

  // ---- statements ---------------------------------------------------------

  void ParseCreateTempTable(ParsedStatement* stmt) {
    stmt->kind = ParsedStatement::Kind::kCreateTempTable;
    ExpectKeyword("CREATE");
    ExpectKeyword("TEMPORARY");
    if (!AcceptKeyword("TABLE")) ExpectKeyword("VIEW");
    stmt->table_name = ExpectIdentifier();
    // CREATE TEMPORARY TABLE/VIEW name AS SELECT ... registers the query
    // as an unmaterialized view (the Section 3.3 temp-table semantics).
    if (AcceptKeyword("AS")) {
      stmt->kind = ParsedStatement::Kind::kCreateTempView;
      stmt->plan = ParseQuery();
      return;
    }
    ExpectKeyword("USING");
    // Provider names may be dotted (com.databricks.spark.avro style); the
    // last component selects the registered source.
    std::string provider = ExpectIdentifier();
    while (AcceptSymbol(".")) provider = ExpectIdentifier();
    stmt->provider = provider;
    if (AcceptKeyword("OPTIONS")) {
      ExpectSymbol("(");
      while (true) {
        std::string key = ExpectIdentifier();
        if (Peek().kind != TokenKind::kString) {
          throw ParseError("expected string value for option '" + key + "'");
        }
        stmt->options[key] = Advance().text;
        if (AcceptSymbol(",")) continue;
        break;
      }
      ExpectSymbol(")");
    }
  }

  // ANALYZE TABLE t[.part]* [COMPUTE STATISTICS [FOR COLUMNS c, ... |
  //                                              FOR ALL COLUMNS]]
  // Bare ANALYZE TABLE (or COMPUTE STATISTICS without FOR) records
  // table-level stats only, matching Spark's statement shape.
  void ParseAnalyzeTable(ParsedStatement* stmt) {
    stmt->kind = ParsedStatement::Kind::kAnalyzeTable;
    ExpectKeyword("TABLE");
    std::string name = ExpectIdentifier();
    while (AcceptSymbol(".")) name += "." + ExpectIdentifier();
    stmt->table_name = name;
    if (!AcceptKeyword("COMPUTE")) return;
    ExpectKeyword("STATISTICS");
    if (!AcceptKeyword("FOR")) return;
    if (AcceptKeyword("ALL")) {
      ExpectKeyword("COLUMNS");
      stmt->analyze_all_columns = true;
      return;
    }
    ExpectKeyword("COLUMNS");
    while (true) {
      stmt->analyze_columns.push_back(ExpectIdentifier());
      if (!AcceptSymbol(",")) break;
    }
  }

  // query := select_core (UNION [ALL] select_core)* [ORDER BY ...] [LIMIT n]
  PlanPtr ParseQuery() {
    PlanPtr plan = ParseSelectCore();
    while (Peek().IsKeyword("UNION")) {
      Advance();
      bool all = AcceptKeyword("ALL");
      PlanPtr rhs = ParseSelectCore();
      plan = Union::Make({plan, rhs});
      if (!all) plan = Distinct::Make(plan);
    }
    if (AcceptKeyword("ORDER")) {
      ExpectKeyword("BY");
      std::vector<std::shared_ptr<const SortOrder>> orders;
      while (true) {
        ExprPtr e = ParseExpr();
        bool asc = true;
        if (AcceptKeyword("DESC")) {
          asc = false;
        } else {
          AcceptKeyword("ASC");
        }
        orders.push_back(SortOrder::Make(std::move(e), asc));
        if (!AcceptSymbol(",")) break;
      }
      plan = Sort::Make(std::move(orders), plan);
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kNumber) {
        throw ParseError("expected number after LIMIT");
      }
      int64_t n = 0;
      ParseInt64(Advance().text, &n);
      plan = Limit::Make(n, plan);
    }
    return plan;
  }

  PlanPtr ParseSelectCore() {
    if (AcceptSymbol("(")) {
      PlanPtr inner = ParseQuery();
      ExpectSymbol(")");
      return inner;
    }
    ExpectKeyword("SELECT");
    bool distinct = AcceptKeyword("DISTINCT");

    std::vector<NamedExprPtr> projections;
    while (true) {
      projections.push_back(ParseProjection());
      if (!AcceptSymbol(",")) break;
    }

    PlanPtr plan;
    if (AcceptKeyword("FROM")) {
      plan = ParseFromClause();
    } else {
      // SELECT 1+1 — a single empty row.
      plan = LocalRelation::Make({}, {Row{}});
    }

    if (AcceptKeyword("WHERE")) {
      plan = Filter::Make(ParseExpr(), plan);
    }

    bool has_group_by = false;
    ExprVector groupings;
    if (AcceptKeyword("GROUP")) {
      ExpectKeyword("BY");
      has_group_by = true;
      while (true) {
        groupings.push_back(ParseExpr());
        if (!AcceptSymbol(",")) break;
      }
    }

    if (has_group_by) {
      plan = Aggregate::Make(std::move(groupings), std::move(projections), plan);
    } else {
      plan = Project::Make(std::move(projections), plan);
    }

    if (AcceptKeyword("HAVING")) {
      plan = Filter::Make(ParseExpr(), plan);
    }
    if (distinct) plan = Distinct::Make(plan);
    return plan;
  }

  NamedExprPtr ParseProjection() {
    // Star forms.
    if (Peek().IsSymbol("*")) {
      Advance();
      return std::static_pointer_cast<const NamedExpression>(
          UnresolvedStar::Make());
    }
    if (Peek().kind == TokenKind::kIdentifier && Peek(1).IsSymbol(".") &&
        Peek(2).IsSymbol("*")) {
      std::string qualifier = Advance().text;
      Advance();
      Advance();
      return std::static_pointer_cast<const NamedExpression>(
          UnresolvedStar::Make(qualifier));
    }
    ExprPtr e = ParseExpr();
    std::string alias;
    if (AcceptKeyword("AS")) {
      alias = ExpectIdentifier();
    } else if (Peek().kind == TokenKind::kIdentifier && !IsReserved(Peek())) {
      alias = Advance().text;
    }
    if (!alias.empty()) return Alias::Make(std::move(e), std::move(alias));
    if (auto named = std::dynamic_pointer_cast<const NamedExpression>(e)) {
      return named;
    }
    return Alias::Make(e, PrettyName(e));
  }

  // from := table_ref (join_clause)* [, table_ref ...] (implicit cross join)
  PlanPtr ParseFromClause() {
    PlanPtr plan = ParseTableRef();
    while (true) {
      if (AcceptSymbol(",")) {
        PlanPtr rhs = ParseTableRef();
        plan = Join::Make(plan, rhs, JoinType::kCross, nullptr);
        continue;
      }
      JoinType type;
      if (Peek().IsKeyword("JOIN")) {
        Advance();
        type = JoinType::kInner;
      } else if (Peek().IsKeyword("INNER") && Peek(1).IsKeyword("JOIN")) {
        Advance();
        Advance();
        type = JoinType::kInner;
      } else if (Peek().IsKeyword("CROSS") && Peek(1).IsKeyword("JOIN")) {
        Advance();
        Advance();
        type = JoinType::kCross;
      } else if (Peek().IsKeyword("LEFT") && Peek(1).IsKeyword("SEMI")) {
        Advance();
        Advance();
        ExpectKeyword("JOIN");
        type = JoinType::kLeftSemi;
      } else if (Peek().IsKeyword("LEFT")) {
        Advance();
        AcceptKeyword("OUTER");
        ExpectKeyword("JOIN");
        type = JoinType::kLeftOuter;
      } else if (Peek().IsKeyword("RIGHT")) {
        Advance();
        AcceptKeyword("OUTER");
        ExpectKeyword("JOIN");
        type = JoinType::kRightOuter;
      } else if (Peek().IsKeyword("FULL")) {
        Advance();
        AcceptKeyword("OUTER");
        ExpectKeyword("JOIN");
        type = JoinType::kFullOuter;
      } else {
        break;
      }
      PlanPtr rhs = ParseTableRef();
      ExprPtr condition;
      if (AcceptKeyword("ON")) condition = ParseExpr();
      plan = Join::Make(plan, rhs, type, condition);
    }
    return plan;
  }

  PlanPtr ParseTableRef() {
    PlanPtr plan;
    std::string default_alias;
    if (AcceptSymbol("(")) {
      plan = ParseQuery();
      ExpectSymbol(")");
    } else {
      // Dotted names ("system.queries") address namespaced tables; the
      // default qualifier is the last segment, so `queries.status` works
      // without an explicit alias (matching Spark's db.table behaviour).
      std::string name = ExpectIdentifier();
      default_alias = name;
      while (Peek().IsSymbol(".") && Peek(1).kind == TokenKind::kIdentifier) {
        Advance();
        default_alias = ExpectIdentifier();
        name += "." + default_alias;
      }
      plan = UnresolvedRelation::Make(name);
    }
    std::string alias = default_alias;
    if (AcceptKeyword("AS")) {
      alias = ExpectIdentifier();
    } else if (Peek().kind == TokenKind::kIdentifier && !IsReserved(Peek())) {
      alias = Advance().text;
    }
    if (!alias.empty() && !EqualsIgnoreCase(alias, default_alias)) {
      return SubqueryAlias::Make(alias, plan);
    }
    return plan;
  }

  // ---- expressions --------------------------------------------------------

  ExprPtr ParseExpr() { return ParseOr(); }

  ExprPtr ParseOr() {
    ExprPtr e = ParseAnd();
    while (AcceptKeyword("OR")) e = Or::Make(e, ParseAnd());
    return e;
  }

  ExprPtr ParseAnd() {
    ExprPtr e = ParseNot();
    while (AcceptKeyword("AND")) e = And::Make(e, ParseNot());
    return e;
  }

  ExprPtr ParseNot() {
    if (AcceptKeyword("NOT")) return Not::Make(ParseNot());
    return ParseComparison();
  }

  ExprPtr ParseComparison() {
    ExprPtr e = ParseAdditive();
    while (true) {
      if (AcceptSymbol("=")) {
        e = EqualTo::Make(e, ParseAdditive());
      } else if (AcceptSymbol("!=")) {
        e = NotEqualTo::Make(e, ParseAdditive());
      } else if (AcceptSymbol("<=")) {
        e = LessThanOrEqual::Make(e, ParseAdditive());
      } else if (AcceptSymbol(">=")) {
        e = GreaterThanOrEqual::Make(e, ParseAdditive());
      } else if (AcceptSymbol("<")) {
        e = LessThan::Make(e, ParseAdditive());
      } else if (AcceptSymbol(">")) {
        e = GreaterThan::Make(e, ParseAdditive());
      } else if (Peek().IsKeyword("IS")) {
        Advance();
        bool negated = AcceptKeyword("NOT");
        ExpectKeyword("NULL");
        e = negated ? IsNotNull::Make(e) : IsNull::Make(e);
      } else if (Peek().IsKeyword("NOT") &&
                 (Peek(1).IsKeyword("LIKE") || Peek(1).IsKeyword("IN") ||
                  Peek(1).IsKeyword("BETWEEN"))) {
        Advance();
        e = Not::Make(ParsePostfixPredicate(e));
      } else if (Peek().IsKeyword("LIKE") || Peek().IsKeyword("IN") ||
                 Peek().IsKeyword("BETWEEN")) {
        e = ParsePostfixPredicate(e);
      } else {
        return e;
      }
    }
  }

  ExprPtr ParsePostfixPredicate(ExprPtr e) {
    if (AcceptKeyword("LIKE")) {
      return Like::Make(std::move(e), ParseAdditive());
    }
    if (AcceptKeyword("IN")) {
      ExpectSymbol("(");
      if (Peek().IsKeyword("SELECT")) {
        PlanPtr subquery = ParseQuery();
        ExpectSymbol(")");
        return InSubquery::Make(std::move(e), std::move(subquery));
      }
      ExprVector list;
      while (true) {
        list.push_back(ParseExpr());
        if (!AcceptSymbol(",")) break;
      }
      ExpectSymbol(")");
      return In::Make(std::move(e), std::move(list));
    }
    ExpectKeyword("BETWEEN");
    ExprPtr lo = ParseAdditive();
    ExpectKeyword("AND");
    ExprPtr hi = ParseAdditive();
    return And::Make(GreaterThanOrEqual::Make(e, std::move(lo)),
                     LessThanOrEqual::Make(e, std::move(hi)));
  }

  ExprPtr ParseAdditive() {
    ExprPtr e = ParseMultiplicative();
    while (true) {
      if (AcceptSymbol("+")) {
        e = Add::Make(e, ParseMultiplicative());
      } else if (AcceptSymbol("-")) {
        e = Subtract::Make(e, ParseMultiplicative());
      } else {
        return e;
      }
    }
  }

  ExprPtr ParseMultiplicative() {
    ExprPtr e = ParseUnary();
    while (true) {
      if (AcceptSymbol("*")) {
        e = Multiply::Make(e, ParseUnary());
      } else if (AcceptSymbol("/")) {
        e = Divide::Make(e, ParseUnary());
      } else if (AcceptSymbol("%")) {
        e = Remainder::Make(e, ParseUnary());
      } else {
        return e;
      }
    }
  }

  ExprPtr ParseUnary() {
    if (AcceptSymbol("-")) return UnaryMinus::Make(ParseUnary());
    if (AcceptSymbol("+")) return ParseUnary();
    return ParsePrimary();
  }

  DataTypePtr ParseTypeName() {
    std::string name = ToLower(ExpectIdentifier());
    if (name == "boolean" || name == "bool") return DataType::Boolean();
    if (name == "int" || name == "integer") return DataType::Int32();
    if (name == "bigint" || name == "long") return DataType::Int64();
    if (name == "double" || name == "float") return DataType::Double();
    if (name == "string" || name == "varchar") return DataType::String();
    if (name == "date") return DataType::Date();
    if (name == "timestamp") return DataType::Timestamp();
    if (name == "decimal") {
      int64_t p = 10, s = 0;
      if (AcceptSymbol("(")) {
        if (Peek().kind != TokenKind::kNumber ||
            !ParseInt64(Advance().text, &p)) {
          throw ParseError("expected decimal precision");
        }
        if (AcceptSymbol(",") && (Peek().kind != TokenKind::kNumber ||
                                  !ParseInt64(Advance().text, &s))) {
          throw ParseError("expected decimal scale");
        }
        ExpectSymbol(")");
      }
      const std::string bad = DecimalType::OutOfBounds(p, s);
      if (!bad.empty()) throw ParseError(bad);
      return DecimalType::Make(static_cast<int>(p), static_cast<int>(s));
    }
    throw ParseError("unknown type name '" + name + "'");
  }

  ExprPtr ParsePrimary() {
    const Token& t = Peek();

    if (t.kind == TokenKind::kNumber) {
      Advance();
      int64_t i;
      if (ParseInt64(t.text, &i)) {
        if (i >= INT32_MIN && i <= INT32_MAX) {
          return Literal::Make(Value(static_cast<int32_t>(i)), DataType::Int32());
        }
        return Literal::Make(Value(i), DataType::Int64());
      }
      double d = 0;
      ParseDouble(t.text, &d);
      return Literal::Make(Value(d), DataType::Double());
    }
    if (t.kind == TokenKind::kString) {
      Advance();
      return Literal::Make(Value(t.text), DataType::String());
    }
    if (t.IsKeyword("NULL")) {
      Advance();
      return Literal::Null(DataType::Null());
    }
    if (t.IsKeyword("TRUE")) {
      Advance();
      return Literal::True();
    }
    if (t.IsKeyword("FALSE")) {
      Advance();
      return Literal::False();
    }
    if (t.IsKeyword("DATE") && Peek(1).kind == TokenKind::kString) {
      Advance();
      std::string text = Advance().text;
      DateValue d;
      if (!ParseDate(text, &d)) throw ParseError("bad DATE literal '" + text + "'");
      return Literal::Make(Value(d), DataType::Date());
    }
    if (t.IsKeyword("CAST")) {
      Advance();
      ExpectSymbol("(");
      ExprPtr e = ParseExpr();
      ExpectKeyword("AS");
      DataTypePtr type = ParseTypeName();
      ExpectSymbol(")");
      return Cast::Make(std::move(e), std::move(type));
    }
    if (t.IsKeyword("CASE")) {
      Advance();
      ExprVector children;
      // Optional operand form: CASE x WHEN v THEN r ...
      ExprPtr operand;
      if (!Peek().IsKeyword("WHEN")) operand = ParseExpr();
      while (AcceptKeyword("WHEN")) {
        ExprPtr cond = ParseExpr();
        if (operand) cond = EqualTo::Make(operand, cond);
        ExpectKeyword("THEN");
        children.push_back(std::move(cond));
        children.push_back(ParseExpr());
      }
      bool has_else = false;
      if (AcceptKeyword("ELSE")) {
        has_else = true;
        children.push_back(ParseExpr());
      }
      ExpectKeyword("END");
      if (children.size() < 2) throw ParseError("CASE requires a WHEN branch");
      return CaseWhen::Make(std::move(children), has_else);
    }
    if (AcceptSymbol("(")) {
      ExprPtr e = ParseExpr();
      ExpectSymbol(")");
      return e;
    }

    if (t.kind == TokenKind::kIdentifier) {
      // Function call?
      if (Peek(1).IsSymbol("(")) {
        std::string name = Advance().text;
        Advance();  // '('
        bool distinct = AcceptKeyword("DISTINCT");
        ExprVector args;
        if (!Peek().IsSymbol(")")) {
          if (Peek().IsSymbol("*")) {
            Advance();  // COUNT(*)
          } else {
            while (true) {
              args.push_back(ParseExpr());
              if (!AcceptSymbol(",")) break;
            }
          }
        }
        ExpectSymbol(")");
        return UnresolvedFunction::Make(std::move(name), std::move(args),
                                        distinct);
      }
      // Dotted column reference.
      std::vector<std::string> parts;
      parts.push_back(Advance().text);
      while (Peek().IsSymbol(".") && Peek(1).kind == TokenKind::kIdentifier) {
        Advance();
        parts.push_back(Advance().text);
      }
      return UnresolvedAttribute::Make(std::move(parts));
    }

    throw ParseError("unexpected token '" + t.text + "' in expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

ParsedStatement ParseSql(const std::string& sql) {
  Parser parser(sql);
  return parser.ParseStatement();
}

ExprPtr ParseSqlExpression(const std::string& sql) {
  Parser parser(sql);
  return parser.ParseSingleExpression();
}

}  // namespace ssql
