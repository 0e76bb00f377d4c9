//===- ast/Parser.h - Statement-tree parser ----------------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses corpus function sources into statement trees (FunctionAST). The
/// grammar is the C++ subset the backend corpus is written in: declarations,
/// assignments, if/else, switch/case, return/break, and calls.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_AST_PARSER_H
#define VEGA_AST_PARSER_H

#include "ast/Statement.h"
#include "support/Status.h"

#include <string_view>

namespace vega {

/// Parses one function definition (text from the "ret Type qual::name(...) {"
/// line through its closing '}'). InvalidArgument when the source has no
/// tokens, no body, or no function name.
StatusOr<FunctionAST> parseFunction(std::string_view Source);

/// Parses a single statement line (no block body) into a Statement.
/// Used to reconstruct statements from model output.
Statement parseStatementLine(std::string_view Line);

/// Classifies a token sequence into a StmtKind (shared by the parser and by
/// statement reconstruction from generated text).
StmtKind classifyStatement(const std::vector<Token> &Tokens);

} // namespace vega

#endif // VEGA_AST_PARSER_H
