//===- support/FileIO.h - Whole-file reads and atomic replaces --*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-file reads and writes for the artifacts other processes load:
/// `.vega` session checkpoints, the weight cache and flywheel reports.
/// writeFile() never exposes a partly written file: it writes a temporary
/// file beside the target and renames it over the target, so a concurrent
/// reader sees either the old bytes or the new ones.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_SUPPORT_FILEIO_H
#define VEGA_SUPPORT_FILEIO_H

#include "support/Status.h"

#include <string>

namespace vega {

/// The whole contents of \p Path. Unavailable when the file cannot be
/// opened or read.
StatusOr<std::string> readFile(const std::string &Path);

/// Replaces \p Path with \p Data atomically: writes "<Path>.<pid>.tmp",
/// checks every write and the close, then renames it over \p Path. The
/// process id keeps concurrent writers of one path off each other's
/// temporary file. Unavailable on any failure, with the temporary removed.
Status writeFile(const std::string &Path, const std::string &Data);

} // namespace vega

#endif // VEGA_SUPPORT_FILEIO_H
