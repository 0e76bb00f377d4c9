//===- ast/Parser.cpp - Statement-tree parser ------------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "ast/Parser.h"

#include "lexer/Lexer.h"

#include <cassert>

using namespace vega;

namespace {

/// Recursive-descent statement parser over a token buffer.
class StatementParser {
public:
  StatementParser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  const Token &peek(size_t Ahead = 0) const {
    static const Token Eof(TokenKind::EndOfFile, "");
    return Pos + Ahead < Tokens.size() ? Tokens[Pos + Ahead] : Eof;
  }
  bool atEnd() const { return Pos >= Tokens.size(); }
  Token take() { return Tokens[Pos++]; }

  /// Collects tokens until one of the terminators at bracket depth 0; the
  /// terminator is included in the result.
  std::vector<Token> takeUntilTerminator(bool StopAtColon) {
    std::vector<Token> Collected;
    int Depth = 0;
    while (!atEnd()) {
      const Token &T = peek();
      if (T.isPunct("(") || T.isPunct("["))
        ++Depth;
      else if (T.isPunct(")") || T.isPunct("]"))
        --Depth;
      Collected.push_back(take());
      const Token &Taken = Collected.back();
      if (Depth > 0)
        continue;
      if (Taken.isPunct(";") || Taken.isPunct("{"))
        break;
      if (StopAtColon && Taken.isPunct(":"))
        break;
    }
    return Collected;
  }

  /// Parses statements of a brace block; consumes the closing '}'. An
  /// "else" right after the '}' is left for the enclosing list, where it
  /// becomes a sibling of its if.
  std::vector<std::unique_ptr<Statement>> parseBlock() {
    std::vector<std::unique_ptr<Statement>> Stmts;
    while (!atEnd()) {
      if (peek().isPunct("}")) {
        take();
        return Stmts;
      }
      Stmts.push_back(parseStatement());
    }
    return Stmts;
  }

  std::unique_ptr<Statement> parseElse() {
    assert(peek().isKeyword("else") && "parseElse expects 'else'");
    std::vector<Token> Header = takeUntilTerminator(/*StopAtColon=*/false);
    StmtKind Kind = StmtKind::Else;
    for (const Token &T : Header)
      if (T.isKeyword("if")) {
        Kind = StmtKind::ElseIf;
        break;
      }
    auto Stmt = std::make_unique<Statement>(Kind, std::move(Header));
    if (!Stmt->Tokens.empty() && Stmt->Tokens.back().isPunct("{"))
      Stmt->Children = parseBlock();
    return Stmt;
  }

  std::unique_ptr<Statement> parseStatement() {
    if (peek().isKeyword("case") || peek().isKeyword("default"))
      return parseCaseLabel();
    if (peek().isKeyword("else"))
      return parseElse();

    std::vector<Token> Header = takeUntilTerminator(/*StopAtColon=*/false);
    StmtKind Kind = classifyStatement(Header);
    auto Stmt = std::make_unique<Statement>(Kind, std::move(Header));
    if (!Stmt->Tokens.empty() && Stmt->Tokens.back().isPunct("{"))
      Stmt->Children = parseBlock();
    return Stmt;
  }

  std::unique_ptr<Statement> parseCaseLabel() {
    bool IsDefault = peek().isKeyword("default");
    std::vector<Token> Header = takeUntilTerminator(/*StopAtColon=*/true);
    auto Stmt = std::make_unique<Statement>(
        IsDefault ? StmtKind::Default : StmtKind::Case, std::move(Header));
    // The label owns the statements until the next label or the switch's
    // closing brace (left unconsumed for the parseBlock above).
    while (!atEnd() && !peek().isPunct("}") && !peek().isKeyword("case") &&
           !peek().isKeyword("default"))
      Stmt->Children.push_back(parseStatement());
    return Stmt;
  }

private:
  std::vector<Token> Tokens;
  size_t Pos = 0;
};

bool isTypeToken(const Token &T) {
  if (T.Kind == TokenKind::Keyword)
    return T.Text == "unsigned" || T.Text == "signed" || T.Text == "int" ||
           T.Text == "bool" || T.Text == "char" || T.Text == "short" ||
           T.Text == "long" || T.Text == "float" || T.Text == "double" ||
           T.Text == "void" || T.Text == "auto" || T.Text == "const";
  return false;
}

} // namespace

StmtKind vega::classifyStatement(const std::vector<Token> &Tokens) {
  if (Tokens.empty())
    return StmtKind::Other;
  const Token &First = Tokens.front();
  if (First.isKeyword("if"))
    return StmtKind::If;
  if (First.isKeyword("else")) {
    for (const Token &T : Tokens)
      if (T.isKeyword("if"))
        return StmtKind::ElseIf;
    return StmtKind::Else;
  }
  if (First.isKeyword("switch"))
    return StmtKind::Switch;
  if (First.isKeyword("case"))
    return StmtKind::Case;
  if (First.isKeyword("default"))
    return StmtKind::Default;
  if (First.isKeyword("return"))
    return StmtKind::Return;
  if (First.isKeyword("break"))
    return StmtKind::Break;

  bool EndsWithSemicolon = Tokens.back().isPunct(";");
  bool HasTopLevelAssign = false;
  int Depth = 0;
  for (const Token &T : Tokens) {
    if (T.isPunct("(") || T.isPunct("["))
      ++Depth;
    else if (T.isPunct(")") || T.isPunct("]"))
      --Depth;
    else if (Depth == 0 && T.isPunct("="))
      HasTopLevelAssign = true;
  }
  if (EndsWithSemicolon) {
    if (HasTopLevelAssign) {
      // "unsigned Kind = ..." or "auto X = ..." is a declaration; a leading
      // identifier-identifier pair ("MCFixupKind Kind = ...") also declares.
      if (isTypeToken(First))
        return StmtKind::Decl;
      if (Tokens.size() >= 2 && First.Kind == TokenKind::Identifier &&
          Tokens[1].Kind == TokenKind::Identifier)
        return StmtKind::Decl;
      return StmtKind::Assign;
    }
    // "foo(...);" or "obj.method(...);" or "Ns::fn(...);"
    for (const Token &T : Tokens)
      if (T.isPunct("("))
        return StmtKind::Call;
  }
  // Function definition: "type qual::name(args) ... {"
  if (!Tokens.empty() && Tokens.back().isPunct("{")) {
    bool HasParens = false;
    for (const Token &T : Tokens)
      if (T.isPunct("(")) {
        HasParens = true;
        break;
      }
    if (HasParens && (isTypeToken(First) ||
                      First.Kind == TokenKind::Identifier))
      return StmtKind::FunctionDef;
  }
  return StmtKind::Other;
}

StatusOr<FunctionAST> vega::parseFunction(std::string_view Source) {
  std::vector<Token> Tokens = Lexer::tokenize(Source);
  if (Tokens.empty())
    return Status::invalidArgument("empty function source");

  // The definition statement runs to the first '{' at bracket depth 0.
  size_t DefEnd = 0;
  int Depth = 0;
  for (; DefEnd < Tokens.size(); ++DefEnd) {
    const Token &T = Tokens[DefEnd];
    if (T.isPunct("(") || T.isPunct("["))
      ++Depth;
    else if (T.isPunct(")") || T.isPunct("]"))
      --Depth;
    else if (Depth == 0 && T.isPunct("{"))
      break;
  }
  if (DefEnd == Tokens.size())
    return Status::invalidArgument("function has no body");

  FunctionAST Function;
  Function.Definition.Kind = StmtKind::FunctionDef;
  Function.Definition.Tokens.assign(Tokens.begin(),
                                    Tokens.begin() + DefEnd + 1);

  // Name: the identifier immediately before the first '(' of the signature;
  // qualifier: the identifier before the preceding '::'.
  for (size_t I = 0; I + 1 <= DefEnd; ++I) {
    if (!Tokens[I].isPunct("("))
      continue;
    if (I >= 1 && Tokens[I - 1].Kind == TokenKind::Identifier)
      Function.Name = Tokens[I - 1].Text;
    if (I >= 3 && Tokens[I - 2].isPunct("::") &&
        Tokens[I - 3].Kind == TokenKind::Identifier)
      Function.Qualifier = Tokens[I - 3].Text;
    break;
  }
  if (Function.Name.empty())
    return Status::invalidArgument(
        "cannot find function name in definition");

  StatementParser Parser(
      std::vector<Token>(Tokens.begin() + DefEnd + 1, Tokens.end()));
  Function.Body = Parser.parseBlock();
  return Function;
}

Statement vega::parseStatementLine(std::string_view Line) {
  std::vector<Token> Tokens = Lexer::tokenize(Line);
  // Classify before moving: argument evaluation order is unspecified.
  StmtKind Kind = classifyStatement(Tokens);
  return Statement(Kind, std::move(Tokens));
}
