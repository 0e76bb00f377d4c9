//===- support/Error.h - Fatal invariant violations -------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unrecoverable half of error handling. Library code never throws;
/// programmatic errors use assert(), invariant violations that must be
/// diagnosed even in release builds use reportFatalError(), and every
/// recoverable error is a typed Status (support/Status.h).
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_SUPPORT_ERROR_H
#define VEGA_SUPPORT_ERROR_H

#include <cstdio>
#include <cstdlib>
#include <string>

namespace vega {

/// Prints \p Message to stderr and aborts. Used for invariant violations that
/// must be diagnosed even in release builds.
[[noreturn]] inline void reportFatalError(const std::string &Message) {
  std::fprintf(stderr, "vega fatal error: %s\n", Message.c_str());
  std::abort();
}

} // namespace vega

#endif // VEGA_SUPPORT_ERROR_H
