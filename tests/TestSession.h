//===- tests/TestSession.h - The tier-1 suite's trained model ----*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-epoch model the tier-1 tests share. Under ctest the
/// `tier1_session` fixture writes it fresh on every run
/// (`vega-cli build 1 --session=<build>/tests/tier1.vega`) and the tests
/// that depend on it find its path in VEGA_TEST_SESSION. A test binary run
/// by hand, without the variable, trains the same model in-process. Either
/// way no test reads weights older than its build, so the golden hashes
/// check this build's training as well as its decoding.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_TESTS_TESTSESSION_H
#define VEGA_TESTS_TESTSESSION_H

#include "core/Checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

namespace vega {
namespace test {

/// The fixture artifact named by VEGA_TEST_SESSION, or "" outside ctest.
inline std::string fixtureSessionPath() {
  const char *Path = std::getenv("VEGA_TEST_SESSION");
  return Path ? Path : "";
}

/// The options of the tier-1 model.
inline VegaOptions tier1Options() {
  VegaOptions Opts;
  Opts.Model.Epochs = 1;
  return Opts;
}

/// A system over \p Corpus that has run Stage 1 under tier1Options() and
/// holds the tier-1 model: the fixture's weights when ctest names them,
/// else fine-tuned in-process. Aborts on failure.
inline std::unique_ptr<VegaSystem> tier1System(const BackendCorpus &Corpus) {
  auto Sys = std::make_unique<VegaSystem>(Corpus, tier1Options());
  Sys->buildTemplates();
  Sys->buildDataset();
  const std::string Path = fixtureSessionPath();
  Status St = Path.empty() ? Sys->fineTune()
                           : SessionCheckpoint::loadWeights(*Sys, Path);
  if (!St.isOk()) {
    std::fprintf(stderr, "tier-1 model: %s\n", St.toString().c_str());
    std::abort();
  }
  return Sys;
}

} // namespace test
} // namespace vega

#endif // VEGA_TESTS_TESTSESSION_H
