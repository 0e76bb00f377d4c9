//===- serve/Transport.h - NDJSON transport helpers --------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket plumbing of the vega-serve daemon: a blocking NDJSON serve
/// loop over an AF_UNIX socket (VegaServer::serveSocket), and the matching
/// connect-per-call client (`vega-cli stats --socket`). Both sides speak
/// one line in, one line out.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_SERVE_TRANSPORT_H
#define VEGA_SERVE_TRANSPORT_H

#include "support/Status.h"

#include <functional>
#include <string>

namespace vega {
namespace serve {

/// Serves newline-delimited request lines at AF_UNIX socket \p Path
/// (created fresh; an existing file is replaced, and unlinked on return).
/// One thread per connection; \p Handler is called once per non-empty line
/// and must return one response line (no trailing newline). The accept
/// loop polls every 200ms and returns once \p ShutdownRequested() turns
/// true — e.g. after a `shutdown` request was processed on any connection.
Status serveSocketLines(const std::string &Path,
                        const std::function<std::string(const std::string &)>
                            &Handler,
                        const std::function<bool()> &ShutdownRequested);

/// One NDJSON round trip to the daemon at AF_UNIX socket \p Path: connect,
/// send \p Line (newline appended), read one response line, close. Returns
/// Unavailable when the daemon cannot be reached or hangs up early.
StatusOr<std::string> callSocketLine(const std::string &Path,
                                     const std::string &Line);

} // namespace serve
} // namespace vega

#endif // VEGA_SERVE_TRANSPORT_H
