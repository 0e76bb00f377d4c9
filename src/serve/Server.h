//===- serve/Server.h - The vega-serve generation daemon ---------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-running generation daemon over one loaded VegaSession: the one
/// serving path of vega-serve, one per host (DESIGN §15). Requests arrive
/// as newline-delimited JSON-RPC 2.0 (over stdio or a local Unix socket)
/// and flow into the continuous-batching Scheduler: concurrent requests
/// are admitted mid-flight up to the admission window, share the pool's
/// lanes (which pull their units one at a time), attach-dedup onto an
/// in-flight generation of the same target, and retire independently as
/// soon as their own last unit has run. Merges are deterministic, so a response is byte-identical
/// whether its request ran alone or co-batched with seven neighbours.
///
/// Methods: ping, info, stats, generate {target}, evaluate {target},
/// repair {target}, shutdown. Every data method accepts an optional
/// `deadlineMs` (relative to submission); a request past its deadline is
/// answered Unavailable instead of doing work. When the admission queue is
/// full, submits are rejected with the typed Overloaded code (-32005) —
/// the backpressure signal callers react to.
///
/// Observability: each submitted line gets a RequestContext (monotonic id,
/// deadline, span flight-recorder ring) at submission time, so measured
/// latency includes queue wait. The scheduler opens each generation in
/// its first request's context, and the generation handle carries that
/// request to every lane that runs its units — a `gen.*` span recorded
/// while serving carries its originating request id. Counters/histograms
/// go to the process MetricsRegistry (serve.requests — total and labeled by
/// {method,code} — serve.errors, serve.batch_size, serve.queue_ms,
/// serve.request_ms, the serve.sched.* counters, and the
/// serve.queue_depth / serve.active gauges); the `stats` method returns a
/// live snapshot, and --metrics-out exports JSON or Prometheus text on
/// exit. Request completions are NDJSON-logged at info level; requests
/// slower than SlowMs dump their span ring at warn level.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_SERVE_SERVER_H
#define VEGA_SERVE_SERVER_H

#include "core/VegaSession.h"
#include "obs/Request.h"
#include "serve/Protocol.h"
#include "serve/Scheduler.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace vega {
namespace serve {

struct ServerOptions {
  /// Most generations decoding concurrently (the scheduler's admission
  /// window). Reported as `maxBatch` by `info` for vega-serve-1 wire
  /// compatibility.
  int Window = 8;
  /// Most requests waiting for admission before new generation requests
  /// are rejected with Overloaded (-32005). 0 means unbounded.
  int MaxQueue = 64;
  /// Requests slower than this (milliseconds, queue wait included) dump
  /// their flight-recorder span ring to the structured log at warn level.
  /// 0 disables the slow-request dump.
  double SlowMs = 0.0;
};

/// The generation daemon. One instance serves one session; serveStream()/
/// serveSocket() block until shutdown (the `shutdown` method or transport
/// EOF).
class VegaServer {
public:
  VegaServer(VegaSession &Session, ServerOptions Options);
  ~VegaServer();

  VegaServer(const VegaServer &) = delete;
  VegaServer &operator=(const VegaServer &) = delete;

  /// Dispatches one raw request line. Protocol-only methods are answered
  /// before this returns; generation methods resolve the future once the
  /// scheduler retires their generation. Thread-safe.
  std::future<std::string> submitLine(std::string Line);

  /// submitLine + wait. Thread-safe; concurrent callers co-batch in the
  /// scheduler.
  std::string handleLine(const std::string &Line);

  /// Submits \p Lines as one wave — their generations co-batch in the
  /// scheduler — and returns the responses in submission order. Used by
  /// tests to force a known co-batch composition.
  std::vector<std::string> handleLines(const std::vector<std::string> &Lines);

  /// NDJSON loop over a stream pair (the stdio transport). Returns after
  /// EOF or a `shutdown` request; every submitted request is answered, in
  /// submission order, before returning.
  Status serveStream(std::istream &In, std::ostream &Out);

  /// NDJSON loop over an AF_UNIX socket at \p Path (created fresh; an
  /// existing file is replaced). One thread per connection; concurrent
  /// connections co-batch in the scheduler. Returns after a `shutdown`
  /// request.
  Status serveSocket(const std::string &Path);

  /// True once a `shutdown` request was processed (or shutdown() called).
  bool shutdownRequested() const {
    return Shutdown.load(std::memory_order_relaxed);
  }

  /// Requests shutdown from outside a transport (tests, signal handlers).
  void shutdown();

  /// The continuous-batching scheduler (pause/resume test hooks, stats).
  Scheduler &scheduler() { return *Sched; }
  const Scheduler &scheduler() const { return *Sched; }

  /// Requests submitted and not yet answered (the `stats` inFlight field).
  uint64_t inFlight() const { return InFlight.load(std::memory_order_relaxed); }

private:
  /// Parses \p Line and either answers it inline (protocol methods, parse
  /// and validation errors) or hands it to the scheduler (generation
  /// methods). Resolves \p Promise exactly once either way.
  void dispatch(std::string Line, std::shared_ptr<obs::RequestContext> Ctx,
                std::shared_ptr<std::promise<std::string>> Promise);
  /// The shared request tail: serve.request span + counters + NDJSON log
  /// around \p Build, under \p Ctx's RequestScope. Returns the serialized
  /// response line.
  std::string runRequest(obs::RequestContext &Ctx,
                         const std::string &MethodLabel,
                         const std::string &Target,
                         const std::function<Json()> &Build);
  /// Resolves \p Promise with \p Response and drops the in-flight count.
  void resolve(const std::shared_ptr<std::promise<std::string>> &Promise,
               std::string Response);
  Json handleInfo() const;
  /// The `stats` RPC payload: schema vega-stats-1 with uptime, in-flight /
  /// queue depth, the serve counters, per-histogram quantiles, and the
  /// scheduler snapshot.
  Json handleStats();

  VegaSession &Session;
  ServerOptions Options;
  std::chrono::steady_clock::time_point StartTime;
  std::atomic<bool> Shutdown{false};
  /// Requests submitted via submitLine and not yet answered.
  std::atomic<uint64_t> InFlight{0};
  /// Declared last: its destructor fails pending waiters, whose callbacks
  /// touch the members above.
  std::unique_ptr<Scheduler> Sched;
};

} // namespace serve
} // namespace vega

#endif // VEGA_SERVE_SERVER_H
