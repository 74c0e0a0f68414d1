#include "dflow/plan/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <vector>

namespace dflow {

namespace {

/// Deepest expression the parser accepts. It caps both the parser's own
/// recursion (parentheses, NOT, unary minus) and the height of the Expr
/// tree it builds, which the recursive walkers (Resolve, Evaluate,
/// fingerprinting) descend — so hostile SQL is an InvalidArgument, never a
/// stack overflow.
constexpr size_t kMaxExprDepth = 256;

// ------------------------------------------------------------ tokenizer ----

enum class TokenType {
  kIdent,
  kKeyword,
  kInteger,
  kDecimal,
  kString,
  kSymbol,  // ( ) , * + - / = <> < <= > >=
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;   // keywords upper-cased; idents verbatim
  size_t position = 0;
};

bool IsKeyword(const std::string& upper) {
  static const char* kKeywords[] = {
      "SELECT", "FROM",  "WHERE", "GROUP",   "BY",    "ORDER", "LIMIT",
      "AND",    "OR",    "NOT",   "LIKE",    "BETWEEN", "AS",  "ASC",
      "DESC",   "COUNT", "SUM",   "MIN",     "MAX",   "AVG",   "TRUE",
      "FALSE",  "DATE",
  };
  for (const char* k : kKeywords) {
    if (upper == k) return true;
  }
  return false;
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespace();
      if (pos_ >= input_.size()) break;
      const size_t start = pos_;
      const char c = input_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::string word;
        while (pos_ < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
                input_[pos_] == '_')) {
          word += input_[pos_++];
        }
        std::string upper = word;
        for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
        if (IsKeyword(upper)) {
          tokens.push_back(Token{TokenType::kKeyword, upper, start});
        } else {
          tokens.push_back(Token{TokenType::kIdent, word, start});
        }
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        std::string num;
        bool decimal = false;
        while (pos_ < input_.size() &&
               (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
                input_[pos_] == '.')) {
          if (input_[pos_] == '.') {
            if (decimal) break;
            decimal = true;
          }
          num += input_[pos_++];
        }
        tokens.push_back(Token{
            decimal ? TokenType::kDecimal : TokenType::kInteger, num, start});
        continue;
      }
      if (c == '\'') {
        ++pos_;
        std::string text;
        while (true) {
          if (pos_ >= input_.size()) {
            return Status::InvalidArgument("unterminated string literal at " +
                                           std::to_string(start));
          }
          if (input_[pos_] == '\'') {
            // '' escapes a quote.
            if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
              text += '\'';
              pos_ += 2;
              continue;
            }
            ++pos_;
            break;
          }
          text += input_[pos_++];
        }
        tokens.push_back(Token{TokenType::kString, text, start});
        continue;
      }
      // Symbols, including two-char comparators.
      std::string sym(1, c);
      ++pos_;
      if ((c == '<' || c == '>') && pos_ < input_.size()) {
        const char next = input_[pos_];
        if (next == '=' || (c == '<' && next == '>')) {
          sym += next;
          ++pos_;
        }
      }
      static const std::string kSymbols = "(),*+-/=<>";
      if (kSymbols.find(c) == std::string::npos) {
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' at " + std::to_string(start));
      }
      tokens.push_back(Token{TokenType::kSymbol, sym, start});
    }
    tokens.push_back(Token{TokenType::kEnd, "", input_.size()});
    return tokens;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

// --------------------------------------------------------------- parser ----

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<QuerySpec> ParseQuery() {
    QuerySpec spec;
    DFLOW_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    DFLOW_RETURN_NOT_OK(ParseSelectList(&spec));
    DFLOW_RETURN_NOT_OK(ExpectKeyword("FROM"));
    DFLOW_ASSIGN_OR_RETURN(spec.table, ExpectIdent());
    if (AcceptKeyword("WHERE")) {
      DFLOW_ASSIGN_OR_RETURN(spec.filter, ParseExpr());
    }
    if (AcceptKeyword("GROUP")) {
      DFLOW_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        DFLOW_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        spec.group_by.push_back(std::move(col));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("ORDER")) {
      DFLOW_RETURN_NOT_OK(ExpectKeyword("BY"));
      SortSpec sort;
      DFLOW_ASSIGN_OR_RETURN(sort.column, ExpectIdent());
      if (AcceptKeyword("DESC")) {
        sort.descending = true;
      } else {
        (void)AcceptKeyword("ASC");
      }
      spec.order_by = std::move(sort);
    }
    if (AcceptKeyword("LIMIT")) {
      DFLOW_ASSIGN_OR_RETURN(int64_t n, ExpectInteger());
      if (n <= 0) return Error("LIMIT must be positive");
      if (spec.order_by.has_value()) {
        spec.order_by->limit = static_cast<uint64_t>(n);
      } else {
        spec.limit = static_cast<uint64_t>(n);
      }
    }
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input '" + Peek().text + "'");
    }
    DFLOW_RETURN_NOT_OK(ValidateSpec(&spec));
    return spec;
  }

  Result<ExprPtr> ParseOnlyExpression() {
    DFLOW_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input '" + Peek().text + "'");
    }
    return e;
  }

 private:
  // ---- select list --------------------------------------------------------
  struct SelectItem {
    bool is_aggregate = false;
    AggSpec agg;
    ExprPtr expr;  // non-aggregate
    std::string name;
  };

  Status ParseSelectList(QuerySpec* spec) {
    if (AcceptSymbol("*")) {
      return Status::OK();  // SELECT *: no projections, no aggregates
    }
    std::vector<SelectItem> items;
    do {
      SelectItem item;
      const Token& t = Peek();
      if (t.type == TokenType::kKeyword &&
          (t.text == "COUNT" || t.text == "SUM" || t.text == "MIN" ||
           t.text == "MAX" || t.text == "AVG")) {
        DFLOW_RETURN_NOT_OK(ParseAggregate(&item));
      } else {
        DFLOW_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("AS")) {
          DFLOW_ASSIGN_OR_RETURN(item.name, ExpectIdent());
        } else if (item.expr->kind() == Expr::Kind::kColumnRef) {
          item.name = item.expr->column_name();
        } else {
          item.name = "expr" + std::to_string(items.size());
        }
      }
      items.push_back(std::move(item));
    } while (AcceptSymbol(","));

    bool any_agg = false;
    for (const SelectItem& item : items) any_agg |= item.is_aggregate;
    if (!any_agg) {
      for (SelectItem& item : items) {
        spec->projections.push_back(std::move(item.expr));
        spec->projection_names.push_back(std::move(item.name));
      }
      return Status::OK();
    }
    // Aggregation query: plain items must be bare group-by columns; they
    // come back automatically as group columns of the aggregate output.
    for (SelectItem& item : items) {
      if (item.is_aggregate) {
        spec->aggregates.push_back(std::move(item.agg));
      } else if (item.expr->kind() != Expr::Kind::kColumnRef) {
        return Error(
            "non-aggregate select item must be a group-by column name");
      } else {
        plain_select_columns_.push_back(item.expr->column_name());
      }
    }
    return Status::OK();
  }

  Status ParseAggregate(SelectItem* item) {
    const std::string func = Peek().text;
    Advance();
    if (func == "AVG") {
      return Status::NotImplemented(
          "AVG is not supported; use SUM(col) and COUNT(col) and divide");
    }
    DFLOW_RETURN_NOT_OK(ExpectSymbol("("));
    AggSpec agg;
    if (func == "COUNT") {
      agg.func = AggFunc::kCount;
      if (!AcceptSymbol("*")) {
        DFLOW_ASSIGN_OR_RETURN(agg.input, ExpectIdent());
      }
    } else {
      agg.func = func == "SUM" ? AggFunc::kSum
                               : (func == "MIN" ? AggFunc::kMin : AggFunc::kMax);
      DFLOW_ASSIGN_OR_RETURN(agg.input, ExpectIdent());
    }
    DFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
    if (AcceptKeyword("AS")) {
      DFLOW_ASSIGN_OR_RETURN(agg.output_name, ExpectIdent());
    } else {
      std::string lower = func;
      for (char& c : lower) c = static_cast<char>(std::tolower(c));
      agg.output_name = agg.input.empty() ? lower : lower + "_" + agg.input;
    }
    item->is_aggregate = true;
    item->agg = std::move(agg);
    return Status::OK();
  }

  Status ValidateSpec(QuerySpec* spec) {
    // COUNT(*)-only queries take the counter fast path.
    if (spec->aggregates.size() == 1 && spec->group_by.empty() &&
        plain_select_columns_.empty() &&
        spec->aggregates[0].func == AggFunc::kCount &&
        spec->aggregates[0].input.empty()) {
      spec->aggregates.clear();
      spec->count_only = true;
      return Status::OK();
    }
    // Plain select columns alongside aggregates must appear in GROUP BY.
    for (const std::string& col : plain_select_columns_) {
      bool found = false;
      for (const std::string& g : spec->group_by) found |= g == col;
      if (!found) {
        return Error("column '" + col +
                     "' must appear in GROUP BY or an aggregate");
      }
    }
    return Status::OK();
  }

  // ---- expressions (precedence climbing) ----------------------------------
  Result<ExprPtr> ParseExpr() {
    return Nested([this] { return ParseOr(); });
  }

  // Every recursive descent (a parenthesized group, NOT, unary minus)
  // passes through here.
  template <typename ParseFn>
  Result<ExprPtr> Nested(ParseFn parse) {
    if (depth_ >= kMaxExprDepth) return TooDeep();
    ++depth_;
    Result<ExprPtr> inner = parse();
    --depth_;
    return inner;
  }

  // Records a freshly built node's height (its children were recorded when
  // they were built; leaves are 0) and refuses a tree taller than the cap.
  Result<ExprPtr> Node(ExprPtr e) {
    size_t height = 0;
    for (const ExprPtr& c : e->children()) {
      auto it = heights_.find(c);
      height = std::max(height, (it == heights_.end() ? 0 : it->second) + 1);
    }
    if (height > kMaxExprDepth) return TooDeep();
    heights_[e] = height;
    return e;
  }

  Status TooDeep() const {
    return Error("expression nested deeper than " +
                 std::to_string(kMaxExprDepth) + " levels");
  }

  Result<ExprPtr> ParseOr() {
    DFLOW_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    std::vector<ExprPtr> terms = {left};
    while (AcceptKeyword("OR")) {
      DFLOW_ASSIGN_OR_RETURN(ExprPtr next, ParseAnd());
      terms.push_back(std::move(next));
    }
    return terms.size() == 1 ? terms[0] : Node(Expr::Or(std::move(terms)));
  }

  Result<ExprPtr> ParseAnd() {
    DFLOW_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    std::vector<ExprPtr> terms = {left};
    while (AcceptKeyword("AND")) {
      DFLOW_ASSIGN_OR_RETURN(ExprPtr next, ParseNot());
      terms.push_back(std::move(next));
    }
    return terms.size() == 1 ? terms[0] : Node(Expr::And(std::move(terms)));
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      DFLOW_ASSIGN_OR_RETURN(ExprPtr inner,
                             Nested([this] { return ParseNot(); }));
      return Node(Expr::Not(std::move(inner)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    DFLOW_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    const Token& t = Peek();
    if (t.type == TokenType::kSymbol &&
        (t.text == "=" || t.text == "<>" || t.text == "<" || t.text == "<=" ||
         t.text == ">" || t.text == ">=")) {
      CompareOp op = CompareOp::kEq;
      if (t.text == "<>") op = CompareOp::kNe;
      if (t.text == "<") op = CompareOp::kLt;
      if (t.text == "<=") op = CompareOp::kLe;
      if (t.text == ">") op = CompareOp::kGt;
      if (t.text == ">=") op = CompareOp::kGe;
      Advance();
      DFLOW_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      return Node(Expr::Cmp(op, std::move(left), std::move(right)));
    }
    if (t.type == TokenType::kKeyword && t.text == "LIKE") {
      Advance();
      if (Peek().type != TokenType::kString) {
        return Error("LIKE requires a string pattern");
      }
      std::string pattern = Peek().text;
      Advance();
      return Node(Expr::Like(std::move(left), std::move(pattern)));
    }
    if (t.type == TokenType::kKeyword && t.text == "BETWEEN") {
      Advance();
      DFLOW_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      DFLOW_RETURN_NOT_OK(ExpectKeyword("AND"));
      DFLOW_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      // SQL BETWEEN is inclusive on both ends.
      DFLOW_ASSIGN_OR_RETURN(ExprPtr ge,
                             Node(Expr::Cmp(CompareOp::kGe, left, lo)));
      DFLOW_ASSIGN_OR_RETURN(ExprPtr le,
                             Node(Expr::Cmp(CompareOp::kLe, left, hi)));
      return Node(Expr::And({std::move(ge), std::move(le)}));
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    DFLOW_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      const Token& t = Peek();
      if (t.type != TokenType::kSymbol || (t.text != "+" && t.text != "-")) {
        return left;
      }
      const ArithOp op = t.text == "+" ? ArithOp::kAdd : ArithOp::kSub;
      Advance();
      DFLOW_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      DFLOW_ASSIGN_OR_RETURN(
          left, Node(Expr::Arith(op, std::move(left), std::move(right))));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    DFLOW_ASSIGN_OR_RETURN(ExprPtr left, ParsePrimary());
    while (true) {
      const Token& t = Peek();
      if (t.type != TokenType::kSymbol || (t.text != "*" && t.text != "/")) {
        return left;
      }
      const ArithOp op = t.text == "*" ? ArithOp::kMul : ArithOp::kDiv;
      Advance();
      DFLOW_ASSIGN_OR_RETURN(ExprPtr right, ParsePrimary());
      DFLOW_ASSIGN_OR_RETURN(
          left, Node(Expr::Arith(op, std::move(left), std::move(right))));
    }
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger: {
        const int64_t v = std::strtoll(t.text.c_str(), nullptr, 10);
        Advance();
        return Expr::Lit(Value::Int64(v));
      }
      case TokenType::kDecimal: {
        const double v = std::strtod(t.text.c_str(), nullptr);
        Advance();
        return Expr::Lit(Value::Double(v));
      }
      case TokenType::kString: {
        std::string s = t.text;
        Advance();
        return Expr::Lit(Value::String(std::move(s)));
      }
      case TokenType::kIdent: {
        std::string name = t.text;
        Advance();
        return Expr::Col(std::move(name));
      }
      case TokenType::kKeyword: {
        if (t.text == "TRUE" || t.text == "FALSE") {
          const bool v = t.text == "TRUE";
          Advance();
          return Expr::Lit(Value::Bool(v));
        }
        if (t.text == "DATE") {
          Advance();
          DFLOW_ASSIGN_OR_RETURN(int64_t days, ExpectInteger());
          return Expr::Lit(Value::Date32(static_cast<int32_t>(days)));
        }
        return Error("unexpected keyword '" + t.text + "' in expression");
      }
      case TokenType::kSymbol: {
        if (t.text == "(") {
          Advance();
          DFLOW_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          DFLOW_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        if (t.text == "-") {  // unary minus on literals
          Advance();
          DFLOW_ASSIGN_OR_RETURN(ExprPtr inner,
                                 Nested([this] { return ParsePrimary(); }));
          return Node(Expr::Arith(ArithOp::kSub, Expr::Lit(Value::Int64(0)),
                                  std::move(inner)));
        }
        return Error("unexpected symbol '" + t.text + "' in expression");
      }
      case TokenType::kEnd:
        return Error("unexpected end of input in expression");
    }
    return Error("unreachable");
  }

  // ---- token helpers -------------------------------------------------------
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool AcceptKeyword(const char* kw) {
    if (Peek().type == TokenType::kKeyword && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }

  bool AcceptSymbol(const char* sym) {
    if (Peek().type == TokenType::kSymbol && Peek().text == sym) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Error(std::string("expected ") + kw + ", found '" + Peek().text +
                   "'");
    }
    return Status::OK();
  }

  Status ExpectSymbol(const char* sym) {
    if (!AcceptSymbol(sym)) {
      return Error(std::string("expected '") + sym + "', found '" +
                   Peek().text + "'");
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (Peek().type != TokenType::kIdent) {
      return Error("expected identifier, found '" + Peek().text + "'");
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }

  Result<int64_t> ExpectInteger() {
    if (Peek().type != TokenType::kInteger) {
      return Error("expected integer, found '" + Peek().text + "'");
    }
    const int64_t v = std::strtoll(Peek().text.c_str(), nullptr, 10);
    Advance();
    return v;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("parse error at offset " +
                                   std::to_string(Peek().position) + ": " +
                                   message);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::vector<std::string> plain_select_columns_;
  size_t depth_ = 0;
  // Keyed by node, which also keeps every recorded node alive.
  std::map<ExprPtr, size_t> heights_;
};

}  // namespace

Result<QuerySpec> ParseQuery(std::string_view sql) {
  DFLOW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(sql).Tokenize());
  return Parser(std::move(tokens)).ParseQuery();
}

Result<ExprPtr> ParseExpression(std::string_view sql) {
  DFLOW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(sql).Tokenize());
  return Parser(std::move(tokens)).ParseOnlyExpression();
}

}  // namespace dflow
