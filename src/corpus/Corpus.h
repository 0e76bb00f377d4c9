//===- corpus/Corpus.h - The backend corpus ----------------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The assembled corpus: the framework tree (LLVMDIRs), every target's
/// description files (TGTDIRs), and every target's golden backend functions,
/// preprocessed per §3.1 of the paper (helper inlining, statement
/// normalization) and organized into function groups.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_CORPUS_CORPUS_H
#define VEGA_CORPUS_CORPUS_H

#include "ast/Statement.h"
#include "support/Status.h"
#include "corpus/GoldenBackend.h"
#include "corpus/TargetTraits.h"
#include "support/VirtualFileSystem.h"

#include <map>
#include <memory>

namespace vega {

/// One target-specific implementation of an interface function.
struct BackendFunction {
  std::string InterfaceName;
  std::string TargetName;
  BackendModule Module = BackendModule::SEL;
  std::string Source;  ///< golden source text (pre-inlining)
  FunctionAST AST;     ///< preprocessed statement tree
};

/// All functions of one target.
struct Backend {
  std::string TargetName;
  std::vector<std::unique_ptr<BackendFunction>> Functions;

  /// Finds the implementation of \p InterfaceName, or nullptr.
  const BackendFunction *find(const std::string &InterfaceName) const;

  /// Number of statements across all functions.
  size_t statementCount() const;
};

/// All target-specific implementations of one interface function M
/// (the paper's FG_M).
struct FunctionGroup {
  std::string InterfaceName;
  BackendModule Module = BackendModule::SEL;
  std::vector<const BackendFunction *> Members;
};

/// Splits a source buffer containing several function definitions into
/// per-function sources (top-level brace matching).
std::vector<std::string> splitFunctionSources(std::string_view Source);

/// Parses \p Source (one or more functions), inlines single-call helper
/// forwarding ("return GetRelocTypeInner(...)"), normalizes selection
/// statements, and returns the interface function's AST. InvalidArgument
/// when the source holds no function or any function fails to parse.
StatusOr<FunctionAST> preprocessFunctionSource(std::string_view Source);

/// The assembled corpus.
class BackendCorpus {
public:
  /// Renders and preprocesses everything for \p DB. Expensive; build once.
  static BackendCorpus build(const TargetDatabase &DB);

  /// The file tree holding LLVMDIRs and every target's TGTDIRs.
  const VirtualFileSystem &vfs() const { return VFS; }

  /// The target database the corpus was built from.
  const TargetDatabase &targets() const { return DB; }

  /// The backend of \p TargetName, or nullptr.
  const Backend *backend(const std::string &TargetName) const;

  /// All backends, in target order.
  const std::vector<std::unique_ptr<Backend>> &backends() const {
    return Backends;
  }

  /// Function groups over the given target names (typically the training
  /// targets). Groups are returned in registry order.
  std::vector<FunctionGroup>
  functionGroups(const std::vector<std::string> &TargetNames) const;

  /// Function groups over all training targets.
  std::vector<FunctionGroup> trainingGroups() const;

  /// Names of all training targets.
  std::vector<std::string> trainingTargetNames() const;

private:
  TargetDatabase DB;
  VirtualFileSystem VFS;
  std::vector<std::unique_ptr<Backend>> Backends;
};

} // namespace vega

#endif // VEGA_CORPUS_CORPUS_H
