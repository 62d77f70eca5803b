#include "workload/query_parser.h"

#include <charconv>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

namespace mdw {

namespace {

/// ASCII character classes (the C locale's): the dialect is ASCII, so a
/// host program's setlocale() cannot change what parses.
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
char FoldCase(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Token stream over the SQL text: identifiers/keywords, integers, and
/// single-character punctuation ( ) , . = *. A token is a view into the
/// text, so lexing allocates nothing.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { Advance(); }

  std::string_view token() const { return token_; }
  bool at_end() const { return token_.empty(); }

  /// Case-insensitive keyword/identifier comparison.
  bool Is(std::string_view expected) const {
    if (token_.size() != expected.size()) return false;
    for (std::size_t i = 0; i < token_.size(); ++i) {
      if (FoldCase(token_[i]) != FoldCase(expected[i])) return false;
    }
    return true;
  }

  /// Consumes the current token if it matches.
  bool Accept(std::string_view expected) {
    if (!Is(expected)) return false;
    Advance();
    return true;
  }

  void Advance() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    const std::size_t start = pos_;
    if (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (IsAlpha(c) || c == '_') {
        while (pos_ < text_.size() &&
               (IsAlpha(text_[pos_]) || IsDigit(text_[pos_]) ||
                text_[pos_] == '_')) {
          ++pos_;
        }
      } else if (IsDigit(c)) {
        while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
      }
    }
    token_ = text_.substr(start, pos_ - start);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string_view token_;
};

bool IsInteger(std::string_view token) {
  if (token.empty()) return false;
  for (const char c : token) {
    if (!IsDigit(c)) return false;
  }
  return true;
}

/// The value of a token IsInteger accepts, or nullopt when it does not
/// fit in int64.
std::optional<std::int64_t> IntegerValue(std::string_view token) {
  std::int64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

Status Err(std::string message) {
  return Status::InvalidArgument(std::move(message));
}

/// Parses one aggregate expression SUM(m) | COUNT(*) | AVG(m) into `out`.
/// Returns false with `*error` set when the tokens are not one.
bool ParseAggExpr(Lexer& lex, AggItem* out, std::string* error) {
  AggFn fn;
  if (lex.Is("SUM")) {
    fn = AggFn::kSum;
  } else if (lex.Is("COUNT")) {
    fn = AggFn::kCount;
  } else if (lex.Is("AVG")) {
    fn = AggFn::kAvg;
  } else if (lex.Is("MIN") || lex.Is("MAX")) {
    *error = "MIN/MAX aggregates are not supported (use SUM, COUNT, AVG)";
    return false;
  } else {
    *error = "expected aggregate or * in the SELECT list, got '" +
             std::string(lex.token()) + "'";
    return false;
  }
  lex.Advance();
  if (!lex.Accept("(")) {
    *error = "expected ( after aggregate";
    return false;
  }
  if (lex.Is(")")) {
    *error = "empty aggregate argument";
    return false;
  }
  // DollarSales selects the dollar measure; every other argument reads
  // UnitsSold (COUNT ignores it entirely). Normalising COUNT's measure
  // keeps COUNT(*) == COUNT(UnitsSold) in the plan-cache signature.
  const MeasureId measure = fn != AggFn::kCount && lex.Is("DollarSales")
                                ? MeasureId::kDollarSales
                                : MeasureId::kUnitsSold;
  lex.Advance();  // measure name or *
  if (!lex.Accept(")")) {
    *error = "expected ) closing the aggregate";
    return false;
  }
  out->fn = fn;
  out->measure = measure;
  return true;
}

/// Parses <dimension> . <level> against the schema into (dim, depth).
Status ParseAttribute(const StarSchema& schema, Lexer& lex, DimId* dim,
                      Depth* depth) {
  const std::string_view dim_name = lex.token();
  *dim = schema.DimensionIdOf(dim_name);
  if (*dim < 0) {
    return Err("unknown dimension '" + std::string(dim_name) + "'");
  }
  lex.Advance();
  if (!lex.Accept(".")) return Err("expected . after dimension name");
  const std::string_view level_name = lex.token();
  *depth = schema.dimension(*dim).hierarchy().DepthOf(level_name);
  if (*depth < 0) {
    return Err("unknown level '" + std::string(level_name) +
               "' of dimension '" + std::string(dim_name) + "'");
  }
  lex.Advance();
  return Status::Ok();
}

}  // namespace

StatusOr<StarQuery> ParseSql(const StarSchema& schema, std::string_view sql) {
  Lexer lex(sql);

  // ---- SELECT list ----
  if (!lex.Accept("SELECT")) return Err("expected SELECT");
  std::vector<AggItem> items;
  bool any_item = false;
  while (!lex.at_end() && !lex.Is("FROM")) {
    if (lex.Accept("*")) {
      // SELECT * = the default measure list.
      for (const AggItem& item : AggregateSpec::Default().items) {
        items.push_back(item);
      }
    } else {
      AggItem item;
      std::string error;
      if (!ParseAggExpr(lex, &item, &error)) return Err(std::move(error));
      items.push_back(item);
    }
    any_item = true;
    if (!lex.Accept(",")) break;
  }
  if (!any_item) return Err("empty SELECT list");

  // ---- FROM ----
  if (!lex.Accept("FROM")) return Err("expected FROM");
  if (!lex.Is(schema.fact_table_name())) {
    return Err("unknown fact table '" + std::string(lex.token()) +
               "' (expected '" + schema.fact_table_name() + "')");
  }
  lex.Advance();

  // ---- WHERE ----
  std::vector<Predicate> predicates;
  if (lex.Accept("WHERE")) {
    do {
      DimId dim;
      Depth depth;
      if (Status s = ParseAttribute(schema, lex, &dim, &depth); !s.ok()) {
        return s;
      }

      // = value | IN (v, v, ...)
      Predicate predicate{dim, depth, {}};
      const std::int64_t card =
          schema.dimension(dim).hierarchy().Cardinality(depth);
      auto read_value = [&]() -> bool {
        if (!IsInteger(lex.token())) return false;
        const std::optional<std::int64_t> value = IntegerValue(lex.token());
        if (!value || *value >= card) return false;
        predicate.values.push_back(*value);
        lex.Advance();
        return true;
      };
      if (lex.Accept("=")) {
        if (!read_value()) {
          return Err("expected a value in [0, " + std::to_string(card) +
                     ") after =, got '" + std::string(lex.token()) + "'");
        }
      } else if (lex.Accept("IN")) {
        if (!lex.Accept("(")) return Err("expected ( after IN");
        do {
          if (!read_value()) {
            return Err("expected a value in [0, " + std::to_string(card) +
                       ") in the IN list, got '" + std::string(lex.token()) +
                       "'");
          }
        } while (lex.Accept(","));
        if (!lex.Accept(")")) return Err("expected ) closing the IN list");
      } else {
        return Err("expected = or IN after the attribute");
      }
      for (const auto& existing : predicates) {
        if (existing.dim == dim) {
          return Err("duplicate predicate on dimension '" +
                     schema.dimension(dim).name() + "'");
        }
      }
      predicates.push_back(std::move(predicate));
    } while (lex.Accept("AND"));
  }

  // ---- GROUP BY ----
  std::optional<GroupBy> group_by;
  if (lex.Accept("GROUP")) {
    if (!lex.Accept("BY")) return Err("expected BY after GROUP");
    DimId dim;
    Depth depth;
    if (Status s = ParseAttribute(schema, lex, &dim, &depth); !s.ok()) {
      return s;
    }
    group_by = GroupBy{dim, depth};
  }

  // ---- ORDER BY ... [LIMIT k] ----
  std::optional<OrderBy> order_by;
  if (lex.Accept("ORDER")) {
    if (!lex.Accept("BY")) return Err("expected BY after ORDER");
    OrderBy ob;
    if (IsInteger(lex.token())) {
      const std::optional<std::int64_t> position = IntegerValue(lex.token());
      if (!position || *position < 1 ||
          *position > static_cast<std::int64_t>(items.size())) {
        return Err("ORDER BY position " + std::string(lex.token()) +
                   " is outside the SELECT list (1.." +
                   std::to_string(items.size()) + ")");
      }
      ob.item = static_cast<int>(*position - 1);
      lex.Advance();
    } else {
      AggItem ref;
      std::string error;
      if (!ParseAggExpr(lex, &ref, &error)) return Err(std::move(error));
      int found = -1;
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i] == ref) {
          found = static_cast<int>(i);
          break;
        }
      }
      if (found < 0) {
        return Err("ORDER BY aggregate is not in the SELECT list");
      }
      ob.item = found;
    }
    if (lex.Accept("DESC")) {
      ob.descending = true;
    } else {
      lex.Accept("ASC");  // the default
    }
    if (lex.Accept("LIMIT")) {
      if (!IsInteger(lex.token())) {
        return Err("expected a row count after LIMIT, got '" +
                   std::string(lex.token()) + "'");
      }
      const std::optional<std::int64_t> limit = IntegerValue(lex.token());
      if (!limit) {
        return Err("LIMIT " + std::string(lex.token()) +
                   " does not fit in 64 bits");
      }
      ob.limit = *limit;
      lex.Advance();
      if (ob.limit < 1) return Err("LIMIT must be at least 1");
    }
    order_by = ob;
  }

  if (!lex.at_end()) {
    return Err("unexpected trailing input at '" + std::string(lex.token()) +
               "'");
  }
  return StarQuery("parsed", std::move(predicates), AggregateSpec{items},
                   group_by, order_by);
}

}  // namespace mdw
