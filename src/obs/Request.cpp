//===- obs/Request.cpp - Request-scoped telemetry context --------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "obs/Request.h"

#include "support/ThreadPool.h"

#include <atomic>
#include <memory>

using namespace vega;
using namespace vega::obs;

namespace {

std::atomic<uint64_t> NextRequestId{1};

thread_local RequestContext *CurrentRequestTL = nullptr;

/// Registers the obs propagator with the (lower-level) support ThreadPool:
/// the caller's current request hops to every lane of a fan-out. Runs at
/// static-init time of vega_obs, before any pool exists.
const bool PropagatorRegistered = [] {
  ThreadPool::ContextPropagator Propagator;
  Propagator.Capture = []() -> std::shared_ptr<void> {
    if (!CurrentRequestTL)
      return nullptr;
    return std::make_shared<RequestContext *>(CurrentRequestTL);
  };
  Propagator.Install =
      [](const std::shared_ptr<void> &Ctx) -> std::shared_ptr<void> {
    auto Prior = std::make_shared<RequestContext *>(CurrentRequestTL);
    CurrentRequestTL = *static_cast<RequestContext *const *>(Ctx.get());
    return Prior;
  };
  Propagator.Restore = [](const std::shared_ptr<void> &Prior) {
    CurrentRequestTL = *static_cast<RequestContext *const *>(Prior.get());
  };
  ThreadPool::setContextPropagator(std::move(Propagator));
  return true;
}();

} // namespace

RequestContext::RequestContext(std::string Method, size_t RingCapacity)
    : Id(NextRequestId.fetch_add(1, std::memory_order_relaxed)),
      Method(std::move(Method)), Start(std::chrono::steady_clock::now()),
      RingCapacity(RingCapacity ? RingCapacity : 1) {
  Ring.reserve(this->RingCapacity);
}

double RequestContext::elapsedMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

double RequestContext::sinceStartUs(
    std::chrono::steady_clock::time_point T) const {
  return std::chrono::duration<double, std::micro>(T - Start).count();
}

void RequestContext::setDeadlineAfterMs(double Ms) {
  if (Ms <= 0.0)
    return;
  Deadline = Start + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(Ms));
  HasDeadline = true;
}

bool RequestContext::expired() const {
  return HasDeadline && std::chrono::steady_clock::now() > Deadline;
}

void RequestContext::recordSpan(SpanRecord Record) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Ring.size() < RingCapacity) {
    Ring.push_back(std::move(Record));
  } else {
    Ring[Recorded % RingCapacity] = std::move(Record);
  }
  ++Recorded;
}

std::vector<RequestContext::SpanRecord> RequestContext::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Recorded <= RingCapacity)
    return Ring;
  std::vector<SpanRecord> Out;
  Out.reserve(RingCapacity);
  size_t Oldest = Recorded % RingCapacity;
  for (size_t I = 0; I < RingCapacity; ++I)
    Out.push_back(Ring[(Oldest + I) % RingCapacity]);
  return Out;
}

uint64_t RequestContext::spansRecorded() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Recorded;
}

uint64_t RequestContext::spansDropped() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Recorded > RingCapacity ? Recorded - RingCapacity : 0;
}

RequestContext *RequestContext::current() { return CurrentRequestTL; }

RequestScope::RequestScope(RequestContext *Ctx) {
  if (!Ctx)
    return;
  Prev = CurrentRequestTL;
  CurrentRequestTL = Ctx;
  Installed = true;
}

RequestScope::~RequestScope() {
  if (Installed)
    CurrentRequestTL = Prev;
}
