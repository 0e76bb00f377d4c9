//===- support/Status.h - Status and StatusOr result types -------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result types of the session-level library API. Every VegaSession /
/// checkpoint / serving entry point reports failure through vega::Status
/// (code + human-readable message) instead of printing to stderr and falling
/// through; the CLI maps codes to process exit codes and the vega-serve
/// daemon maps them to JSON-RPC error codes, so one error travels unchanged
/// from the library to either consumer.
///
/// Status/StatusOr is the one recoverable-error carrier, down to the source
/// parser (parseFunction rejects with InvalidArgument); support/Error.h
/// keeps only the fatal path.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_SUPPORT_STATUS_H
#define VEGA_SUPPORT_STATUS_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace vega {

/// Canonical error space (a deliberately small subset of the gRPC codes).
enum class StatusCode : uint8_t {
  Ok = 0,
  InvalidArgument,    ///< malformed request / flag / parameter
  NotFound,           ///< unknown target, interface function, file, method
  FailedPrecondition, ///< fingerprint mismatch, wrong session state
  DataLoss,           ///< truncated or corrupted artifact / checksum failure
  Unavailable,        ///< I/O failure (cannot open, write, bind, ...)
  Internal,           ///< invariant violation surfaced as a recoverable error
  Unimplemented,      ///< known but unsupported operation
  ResourceExhausted,  ///< admission window / queue full — retry later
};

/// Short kebab-case name of a code ("invalid-argument", ...).
inline const char *statusCodeName(StatusCode Code) {
  switch (Code) {
  case StatusCode::Ok:
    return "ok";
  case StatusCode::InvalidArgument:
    return "invalid-argument";
  case StatusCode::NotFound:
    return "not-found";
  case StatusCode::FailedPrecondition:
    return "failed-precondition";
  case StatusCode::DataLoss:
    return "data-loss";
  case StatusCode::Unavailable:
    return "unavailable";
  case StatusCode::Internal:
    return "internal";
  case StatusCode::Unimplemented:
    return "unimplemented";
  case StatusCode::ResourceExhausted:
    return "resource-exhausted";
  }
  return "unknown";
}

/// A success-or-error result. Messages follow LLVM error style: lowercase
/// first word, no trailing period.
class Status {
public:
  Status() = default;
  Status(StatusCode Code, std::string Message)
      : Code(Code), Msg(std::move(Message)) {
    assert((Code != StatusCode::Ok || Msg.empty()) &&
           "ok status carries no message");
  }

  static Status ok() { return Status(); }
  static Status invalidArgument(std::string Msg) {
    return Status(StatusCode::InvalidArgument, std::move(Msg));
  }
  static Status notFound(std::string Msg) {
    return Status(StatusCode::NotFound, std::move(Msg));
  }
  static Status failedPrecondition(std::string Msg) {
    return Status(StatusCode::FailedPrecondition, std::move(Msg));
  }
  static Status dataLoss(std::string Msg) {
    return Status(StatusCode::DataLoss, std::move(Msg));
  }
  static Status unavailable(std::string Msg) {
    return Status(StatusCode::Unavailable, std::move(Msg));
  }
  static Status internal(std::string Msg) {
    return Status(StatusCode::Internal, std::move(Msg));
  }
  static Status unimplemented(std::string Msg) {
    return Status(StatusCode::Unimplemented, std::move(Msg));
  }
  static Status resourceExhausted(std::string Msg) {
    return Status(StatusCode::ResourceExhausted, std::move(Msg));
  }

  bool isOk() const { return Code == StatusCode::Ok; }
  StatusCode code() const { return Code; }
  const std::string &message() const { return Msg; }

  /// "data-loss: section checksum mismatch" (or "ok").
  std::string toString() const {
    if (isOk())
      return "ok";
    return std::string(statusCodeName(Code)) + ": " + Msg;
  }

  /// The CLI exit-code mapping (documented in README):
  /// 0 ok, 1 internal, 2 invalid-argument, 3 not-found,
  /// 4 failed-precondition, 5 data-loss, 6 unavailable, 7 unimplemented,
  /// 8 resource-exhausted.
  int toExitCode() const {
    switch (Code) {
    case StatusCode::Ok:
      return 0;
    case StatusCode::Internal:
      return 1;
    case StatusCode::InvalidArgument:
      return 2;
    case StatusCode::NotFound:
      return 3;
    case StatusCode::FailedPrecondition:
      return 4;
    case StatusCode::DataLoss:
      return 5;
    case StatusCode::Unavailable:
      return 6;
    case StatusCode::Unimplemented:
      return 7;
    case StatusCode::ResourceExhausted:
      return 8;
    }
    return 1;
  }

private:
  StatusCode Code = StatusCode::Ok;
  std::string Msg;
};

/// A value or a Status. Mirrors absl::StatusOr at the size this project
/// needs: implicit construction from either side, checked access.
template <typename T> class StatusOr {
public:
  StatusOr(T Value) : Value(std::move(Value)) {}
  StatusOr(Status St) : St(std::move(St)) {
    assert(!this->St.isOk() && "ok StatusOr must carry a value");
  }

  bool isOk() const { return Value.has_value(); }
  const Status &status() const { return St; }

  T &value() {
    assert(Value && "value() on an error StatusOr");
    return *Value;
  }
  const T &value() const {
    assert(Value && "value() on an error StatusOr");
    return *Value;
  }
  T &operator*() { return value(); }
  const T &operator*() const { return value(); }
  T *operator->() { return &value(); }
  const T *operator->() const { return &value(); }

private:
  Status St;
  std::optional<T> Value;
};

} // namespace vega

#endif // VEGA_SUPPORT_STATUS_H
