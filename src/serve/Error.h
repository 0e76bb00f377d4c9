//===- serve/Error.h - Typed JSON-RPC serve error codes ----------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one table of JSON-RPC error codes vega-serve speaks. Every error
/// response goes through serve::ErrorCode + toJsonRpc(), so no two paths
/// can disagree on wire codes: a backpressure rejection from the
/// scheduler's admission queue is always -32005.
///
/// The spec-reserved codes (-32700..-32600 range) are used verbatim;
/// vega::Status codes map into the implementation-defined -320xx range via
/// errorCodeFor().
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_SERVE_ERROR_H
#define VEGA_SERVE_ERROR_H

#include "support/Status.h"

namespace vega {
namespace serve {

/// Every error code the daemon can put on the wire.
enum class ErrorCode {
  ParseError,         ///< -32700: request line is not valid JSON
  InvalidRequest,     ///< -32600: valid JSON, not a valid request object
  MethodNotFound,     ///< -32601: unknown method
  InvalidParams,      ///< -32602: missing/ill-typed params
  InternalError,      ///< -32603: invariant violation
  NotFound,           ///< -32001: unknown target / artifact
  FailedPrecondition, ///< -32002: wrong session state / fingerprint
  DataLoss,           ///< -32003: corrupted artifact
  Unavailable,        ///< -32004: I/O failure, deadline exceeded, shutdown
  Overloaded,         ///< -32005: admission window / queue full — retry later
  Unimplemented,      ///< -32006: known but unsupported operation
};

/// The wire number for a code — the only place numbers appear.
constexpr int toJsonRpc(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::ParseError:
    return -32700;
  case ErrorCode::InvalidRequest:
    return -32600;
  case ErrorCode::MethodNotFound:
    return -32601;
  case ErrorCode::InvalidParams:
    return -32602;
  case ErrorCode::InternalError:
    return -32603;
  case ErrorCode::NotFound:
    return -32001;
  case ErrorCode::FailedPrecondition:
    return -32002;
  case ErrorCode::DataLoss:
    return -32003;
  case ErrorCode::Unavailable:
    return -32004;
  case ErrorCode::Overloaded:
    return -32005;
  case ErrorCode::Unimplemented:
    return -32006;
  }
  return -32603;
}

/// The serve code for a failed vega::Status.
constexpr ErrorCode errorCodeFor(StatusCode Code) {
  switch (Code) {
  case StatusCode::Ok:
  case StatusCode::Internal:
    return ErrorCode::InternalError;
  case StatusCode::InvalidArgument:
    return ErrorCode::InvalidParams;
  case StatusCode::NotFound:
    return ErrorCode::NotFound;
  case StatusCode::FailedPrecondition:
    return ErrorCode::FailedPrecondition;
  case StatusCode::DataLoss:
    return ErrorCode::DataLoss;
  case StatusCode::Unavailable:
    return ErrorCode::Unavailable;
  case StatusCode::Unimplemented:
    return ErrorCode::Unimplemented;
  case StatusCode::ResourceExhausted:
    return ErrorCode::Overloaded;
  }
  return ErrorCode::InternalError;
}

} // namespace serve
} // namespace vega

#endif // VEGA_SERVE_ERROR_H
