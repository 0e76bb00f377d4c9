//===- serve/Protocol.h - JSON schemas and JSON-RPC framing ------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire vocabulary shared by `vega-cli --json` and the vega-serve
/// daemon: one deterministic JSON rendering of a generated backend
/// ("vega-backend-1") and of an evaluation report ("vega-eval-2"), plus the
/// newline-delimited JSON-RPC 2.0 framing the daemon speaks. Keeping both
/// consumers on these functions means a backend printed by the CLI is
/// byte-identical to the same backend inside a daemon response.
///
/// vega-eval-2 extends vega-eval-1 with the pluggable-oracle fields: a
/// top-level "oracle" name, per-function Div-Val/Div-Trap/Div-Eff entries
/// appended to "errors", a "txtOnly" flag, an optional per-function
/// "differential" verdict object, and (when a differential oracle ran)
/// summary divergence rates plus the text-vs-differential agreement
/// report. All vega-eval-1 fields are unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_SERVE_PROTOCOL_H
#define VEGA_SERVE_PROTOCOL_H

#include "core/Pipeline.h"
#include "eval/Harness.h"
#include "repair/RepairEngine.h"
#include "serve/Error.h"
#include "support/Json.h"
#include "support/Status.h"

#include <string>

namespace vega {
namespace serve {

/// Renders a generated backend as a "vega-backend-1" document. Fully
/// deterministic: no wall-clock fields — timing travels through vega_obs
/// (traces/metrics), never through result payloads, so identical backends
/// serialize identically across runs, job counts, and batch compositions.
Json backendToJson(const GeneratedBackend &Backend);

/// Renders an evaluation report as a "vega-eval-2" document (deterministic,
/// same reasoning).
Json evalToJson(const BackendEval &Eval);

/// Renders a repair report as a "vega-repair-1" document: options echo,
/// summary (baseline pass@1 vs per-round pass@k vs post-repair accuracy,
/// repair-hour deltas for both developer profiles), per-round stats, the
/// committed statement repairs, per-function outcomes, and the repaired
/// backend as a nested "vega-backend-1". Deterministic and timing-free like
/// the other schemas — byte-identical at any job count.
Json repairToJson(const repair::RepairReport &Report);

/// One parsed request line.
struct RpcRequest {
  Json Id; ///< echoed verbatim (null when the client sent none)
  std::string Method;
  Json Params; ///< object; empty object when the client sent none
};

/// Parses one NDJSON line into a request. InvalidArgument on JSON syntax
/// errors ("parse error"), non-object documents, or a missing/non-string
/// "method".
StatusOr<RpcRequest> parseRpcRequest(const std::string &Line);

/// {"jsonrpc":"2.0","id":...,"result":...}
Json makeRpcResult(const Json &Id, Json Result);

/// {"jsonrpc":"2.0","id":...,"error":{"code":...,"message":...,"data":...}}
/// The wire number comes from serve::toJsonRpc (serve/Error.h) — the single
/// code table of the daemon.
Json makeRpcError(const Json &Id, ErrorCode Code, const std::string &Message,
                  const std::string &StatusName = "");

/// makeRpcError from a failed Status (code via errorCodeFor).
Json makeRpcError(const Json &Id, const Status &St);

} // namespace serve
} // namespace vega

#endif // VEGA_SERVE_PROTOCOL_H
