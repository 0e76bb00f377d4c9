//===- obs/Request.h - Request-scoped telemetry context ----------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-request identity for the serving layer: a RequestContext carries a
/// process-monotonic request ID, an optional deadline, and a bounded ring
/// buffer of the spans that closed while the request was current (the
/// "flight recorder" dumped for slow requests). A thread-local current
/// context is installed with RequestScope; Span picks it up automatically,
/// tagging every recorded trace event with its originating request ID and
/// appending a lightweight record to the ring buffer. The current context
/// hops across ThreadPool lanes via the pool's context propagator, which
/// this translation unit registers at static-init time.
///
/// Outside a request (every offline vega-cli / bench path) the only cost is
/// one thread-local load per span — the near-zero disabled path is intact.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_OBS_REQUEST_H
#define VEGA_OBS_REQUEST_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace vega {
namespace obs {

/// Identity + telemetry state for one in-flight request. Created once per
/// request (at submission, so elapsed time includes queue wait) and shared
/// by every thread that works on the request's behalf. Thread-safe.
class RequestContext {
public:
  /// One completed span, relative to the request epoch. Deliberately small:
  /// the ring holds the most recent kDefaultRingCapacity of them.
  struct SpanRecord {
    std::string Name;
    std::string Category;
    double StartUs = 0.0; ///< microseconds since the request was created
    double DurUs = 0.0;
    uint64_t ThreadId = 0;
  };

  static constexpr size_t kDefaultRingCapacity = 64;

  explicit RequestContext(std::string Method = "",
                          size_t RingCapacity = kDefaultRingCapacity);

  /// Process-monotonic ID (starts at 1; never reused within a process).
  uint64_t id() const { return Id; }

  const std::string &method() const { return Method; }
  void setMethod(std::string M) { Method = std::move(M); }

  /// Milliseconds since the context was created.
  double elapsedMs() const;

  /// Microseconds from the request epoch to \p T (the span-record timebase).
  double sinceStartUs(std::chrono::steady_clock::time_point T) const;

  /// Arms the deadline \p Ms milliseconds after the request was created
  /// (not after now). Non-positive \p Ms leaves the request deadline-free.
  void setDeadlineAfterMs(double Ms);
  bool hasDeadline() const { return HasDeadline; }
  bool expired() const;

  /// Appends one completed span to the ring buffer, evicting the oldest
  /// record once the ring is full.
  void recordSpan(SpanRecord Record);

  /// The ring contents in chronological (record) order.
  std::vector<SpanRecord> spans() const;

  /// Total spans ever recorded / evicted-because-full.
  uint64_t spansRecorded() const;
  uint64_t spansDropped() const;

  /// The calling thread's current request (nullptr outside a request).
  static RequestContext *current();

private:
  friend class RequestScope;

  uint64_t Id;
  std::string Method;
  std::chrono::steady_clock::time_point Start;
  std::chrono::steady_clock::time_point Deadline{};
  bool HasDeadline = false;

  mutable std::mutex Mu;
  std::vector<SpanRecord> Ring; ///< circular once Recorded >= capacity
  size_t RingCapacity;
  uint64_t Recorded = 0; ///< guarded by Mu
};

/// RAII installer for the thread-local current request. A null \p Ctx keeps
/// whatever context is already current, so code that rebinds to a possibly
/// absent owner (a generation handle opened outside any request) needs no
/// branch.
class RequestScope {
public:
  explicit RequestScope(RequestContext *Ctx);
  ~RequestScope();
  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

private:
  RequestContext *Prev = nullptr;
  bool Installed = false;
};

} // namespace obs
} // namespace vega

#endif // VEGA_OBS_REQUEST_H
