//===- corpus/Corpus.cpp - The backend corpus --------------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"

#include "ast/Normalize.h"
#include "ast/Parser.h"
#include "corpus/SynthFramework.h"
#include "corpus/SynthTargetDesc.h"
#include "lexer/Lexer.h"
#include "support/Error.h"

#include <cassert>

using namespace vega;

const BackendFunction *Backend::find(const std::string &InterfaceName) const {
  for (const auto &F : Functions)
    if (F->InterfaceName == InterfaceName)
      return F.get();
  return nullptr;
}

size_t Backend::statementCount() const {
  size_t N = 0;
  for (const auto &F : Functions)
    N += F->AST.size();
  return N;
}

std::vector<std::string> vega::splitFunctionSources(std::string_view Source) {
  Lexer L(Source);
  std::vector<Token> Tokens = L.lexAll();
  std::vector<std::string> Pieces;
  size_t I = 0;
  while (I < Tokens.size()) {
    size_t Start = I;
    // Scan to the first '{' at bracket depth 0, then to its matching '}'.
    int ParenDepth = 0;
    while (I < Tokens.size()) {
      const Token &T = Tokens[I];
      if (T.isPunct("(") || T.isPunct("["))
        ++ParenDepth;
      else if (T.isPunct(")") || T.isPunct("]"))
        --ParenDepth;
      else if (ParenDepth == 0 && T.isPunct("{"))
        break;
      ++I;
    }
    if (I == Tokens.size())
      break;
    int BraceDepth = 0;
    for (; I < Tokens.size(); ++I) {
      if (Tokens[I].isPunct("{"))
        ++BraceDepth;
      else if (Tokens[I].isPunct("}") && --BraceDepth == 0)
        break;
    }
    if (I == Tokens.size())
      break;
    size_t Begin = Tokens[Start].Offset;
    size_t End = Tokens[I].Offset + Tokens[I].Text.size();
    Pieces.emplace_back(Source.substr(Begin, End - Begin));
    ++I;
  }
  return Pieces;
}

namespace {

/// If \p Outer's whole body is "return Helper(...);" and \p Helper is
/// available, splice the helper's body in (the paper's §3.1 inlining,
/// e.g. GetRelocTypeInner into getRelocType).
void inlineForwardingHelper(FunctionAST &Outer,
                            const std::vector<FunctionAST> &Helpers) {
  if (Outer.Body.size() != 1 || Outer.Body[0]->Kind != StmtKind::Return)
    return;
  const std::vector<Token> &Toks = Outer.Body[0]->Tokens;
  // Shape: return <Identifier> ( ... ) ;
  if (Toks.size() < 5 || !Toks[0].isKeyword("return") ||
      Toks[1].Kind != TokenKind::Identifier || !Toks[2].isPunct("("))
    return;
  const std::string &CalleeName = Toks[1].Text;
  for (const FunctionAST &Helper : Helpers) {
    if (Helper.Name != CalleeName)
      continue;
    FunctionAST Clone = Helper.clone();
    Outer.Body = std::move(Clone.Body);
    return;
  }
}

} // namespace

StatusOr<FunctionAST> vega::preprocessFunctionSource(std::string_view Source) {
  std::vector<std::string> Pieces = splitFunctionSources(Source);
  if (Pieces.empty())
    return Status::invalidArgument(
        "no function definitions found in source");

  std::vector<FunctionAST> Parsed;
  for (const std::string &Piece : Pieces) {
    StatusOr<FunctionAST> F = parseFunction(Piece);
    if (!F.isOk())
      return F.status();
    Parsed.push_back(std::move(*F));
  }

  FunctionAST Interface = std::move(Parsed.front());
  if (Parsed.size() > 1) {
    std::vector<FunctionAST> Helpers;
    for (size_t I = 1; I < Parsed.size(); ++I)
      Helpers.push_back(std::move(Parsed[I]));
    inlineForwardingHelper(Interface, Helpers);
  }
  normalizeSelectionStatements(Interface);
  return Interface;
}

BackendCorpus BackendCorpus::build(const TargetDatabase &DB) {
  BackendCorpus Corpus;
  Corpus.DB = DB;
  renderFramework(Corpus.VFS);

  for (const TargetTraits &Traits : Corpus.DB.targets()) {
    renderTargetDescription(Corpus.VFS, Traits);

    auto B = std::make_unique<Backend>();
    B->TargetName = Traits.Name;
    for (const InterfaceFunctionSpec &Spec : interfaceFunctions()) {
      if (!Spec.AppliesTo(Traits))
        continue;
      auto F = std::make_unique<BackendFunction>();
      F->InterfaceName = Spec.Name;
      F->TargetName = Traits.Name;
      F->Module = Spec.Module;
      F->Source = Spec.Render(Traits);
      StatusOr<FunctionAST> AST = preprocessFunctionSource(F->Source);
      if (!AST.isOk())
        reportFatalError("golden source for " + Spec.Name + " on " +
                         Traits.Name +
                         " failed to parse: " + AST.status().message());
      F->AST = std::move(*AST);
      assert(F->AST.Name == Spec.Name &&
             "rendered function name must match its interface spec");
      B->Functions.push_back(std::move(F));
    }
    Corpus.Backends.push_back(std::move(B));
  }
  return Corpus;
}

const Backend *BackendCorpus::backend(const std::string &TargetName) const {
  for (const auto &B : Backends)
    if (B->TargetName == TargetName)
      return B.get();
  return nullptr;
}

std::vector<FunctionGroup> BackendCorpus::functionGroups(
    const std::vector<std::string> &TargetNames) const {
  std::vector<FunctionGroup> Groups;
  for (const InterfaceFunctionSpec &Spec : interfaceFunctions()) {
    FunctionGroup Group;
    Group.InterfaceName = Spec.Name;
    Group.Module = Spec.Module;
    for (const std::string &Name : TargetNames) {
      const Backend *B = backend(Name);
      if (!B)
        continue;
      if (const BackendFunction *F = B->find(Spec.Name))
        Group.Members.push_back(F);
    }
    if (!Group.Members.empty())
      Groups.push_back(std::move(Group));
  }
  return Groups;
}

std::vector<std::string> BackendCorpus::trainingTargetNames() const {
  std::vector<std::string> Names;
  for (const TargetTraits *T : DB.trainingTargets())
    Names.push_back(T->Name);
  return Names;
}

std::vector<FunctionGroup> BackendCorpus::trainingGroups() const {
  return functionGroups(trainingTargetNames());
}
