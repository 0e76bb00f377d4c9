//===- serve/Scheduler.h - Continuous decode-step batching -------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heart of the vega-serve daemon: a continuous-batching scheduler
/// over one VegaSession. The old daemon queued whole requests
/// behind a single batch worker — a request that arrived one tick after a
/// batch started waited for the entire batch to finish. This scheduler
/// instead runs a decode loop at generation-unit granularity:
///
///   * submit() parks a request on a bounded admission queue (a full queue
///     is a typed ResourceExhausted rejection — the backpressure signal
///     VegaServer answers with JSON-RPC -32005).
///   * Each loop iteration first ADMITS: pending requests join the active
///     set mid-flight, up to the admission window; a request whose target
///     is already generating attaches to that generation instead of opening
///     a second one (window-exempt — attaching adds no decode work).
///   * Then it STEPS: one pool fan-out claims up to a lane-count's worth of
///     generation units round-robin across every active request, so all
///     co-active requests advance every step and the pool stays saturated
///     even when one request has most of the remaining units.
///   * Then it RETIRES: completed generations leave the active set and a
///     separate completion worker folds the units (VegaSystem's
///     deterministic template-order merge) and invokes the submitter's
///     callback — response assembly never stalls the decode loop.
///
/// Determinism contract: a generation's bytes depend only on its target.
/// Units execute VegaSystem::assembleFunction() independently and merge in
/// template order, so a backend produced while co-batched with seven
/// neighbours is byte-identical to one produced solo by
/// VegaSession::generate(), which drives the same handle API. The loop
/// retires only complete handles. Admission order, window size, and
/// step composition affect timing ONLY; timing is visible through spans
/// and metrics, never through payloads.
///
/// pause()/resume() freeze the loop between steps — test hooks for staging
/// a known queue composition (mid-flight admission, backpressure).
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_SERVE_SCHEDULER_H
#define VEGA_SERVE_SCHEDULER_H

#include "core/VegaSession.h"
#include "obs/Request.h"
#include "support/Status.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vega {
namespace serve {

struct SchedulerOptions {
  /// Most generations decoding concurrently (the admission window).
  /// Requests beyond the window wait on the admission queue; attaches to an
  /// in-flight target are exempt.
  int Window = 8;
  /// Most requests waiting for admission before submit() rejects with
  /// ResourceExhausted. 0 means unbounded.
  int MaxQueue = 64;
};

/// A live snapshot of the scheduler's counters and occupancy.
struct SchedulerStats {
  uint64_t Steps = 0;      ///< decode-loop iterations that ran units
  uint64_t Admitted = 0;   ///< generations opened
  uint64_t Attached = 0;   ///< requests deduped onto an in-flight generation
  uint64_t Retired = 0;    ///< generations completed and folded
  uint64_t Rejected = 0;   ///< submits bounced off the full queue
  uint64_t Expired = 0;    ///< requests whose deadline passed while queued
  uint64_t MaxCoActive = 0; ///< high-water co-active generations
  uint64_t Active = 0;     ///< generations decoding right now
  uint64_t QueueDepth = 0; ///< requests waiting for admission right now
};

/// The continuous-batching decode loop. One instance per served session;
/// the constructor starts the loop and completion threads, the destructor
/// fails whatever is still pending with Unavailable and joins both.
class Scheduler {
public:
  /// Invoked on the completion worker once the request's generation folds.
  /// Exactly one of the two is meaningful: on success \p Backend points at
  /// the folded backend (shared by every attached request; valid only for
  /// the duration of the call), on failure it is null and \p St carries the
  /// error.
  using Completion =
      std::function<void(const GeneratedBackend *Backend, const Status &St)>;

  Scheduler(VegaSession &Session, SchedulerOptions Options);
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Queues \p Target for generation. \p Ctx is the submitting request's
  /// telemetry context (nullable); \p Done runs on the completion worker.
  /// Returns ResourceExhausted when the admission queue is full and
  /// Unavailable after shutdown began — in both cases \p Done is NOT
  /// invoked. The target must already be validated against the corpus.
  Status submit(const std::string &Target,
                std::shared_ptr<obs::RequestContext> Ctx, Completion Done);

  SchedulerStats stats() const;

  /// Freezes admission and stepping between loop iterations. In-flight
  /// pool fan-outs finish; nothing new starts until resume().
  void pause();
  void resume();

  /// Serializes heavy model work against the decode loop. The loop holds
  /// this across each step's pool fan-out; completion-side engines that
  /// re-enter the model (repair) must hold it too — the session's pool and
  /// decode path are not concurrency-safe across threads.
  std::mutex &engineMutex() { return EngineMu; }

private:
  struct Waiter {
    std::shared_ptr<obs::RequestContext> Ctx;
    Completion Done;
  };
  struct PendingAdmission {
    std::string Target;
    Waiter W;
  };
  /// One in-flight generation. The list node is created and erased only by
  /// the loop thread; Waiters is additionally appended by submit() under
  /// Mu (the attach path).
  struct ActiveGeneration {
    std::string Target;
    VegaSession::GenerationHandle Handle;
    std::vector<Waiter> Waiters;
  };
  /// One folded generation (or terminal failure) awaiting callbacks.
  struct CompletionItem {
    std::vector<Waiter> Waiters;
    std::shared_ptr<GeneratedBackend> Backend; ///< null => Error is terminal
    Status Error = Status::ok();
  };

  void loop();
  /// Admits from the queue under Mu: attach-dedup first (window-exempt),
  /// then open generations while the window has room.
  void admitLocked();
  /// Claims and runs one step's worth of units across the active set.
  void stepOnce();
  /// Folds completed generations off the active set onto the completion
  /// queue.
  void retireCompleted();
  void completionLoop();
  /// Routes \p W to the completion worker with a terminal \p St.
  void failWaiter(Waiter W, Status St);
  void pushCompletion(CompletionItem Item);
  void publishGauges();

  VegaSession &Session;
  SchedulerOptions Options;

  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::deque<PendingAdmission> Queue; ///< guarded by Mu
  std::list<ActiveGeneration> Active; ///< structure owned by the loop thread
  bool Paused = false;                ///< guarded by Mu
  bool Stop = false;                  ///< guarded by Mu

  std::mutex EngineMu;

  std::mutex CompMu;
  std::condition_variable CompCv;
  std::deque<CompletionItem> Completions; ///< guarded by CompMu
  bool CompStop = false;                  ///< guarded by CompMu

  std::atomic<uint64_t> Steps{0};
  std::atomic<uint64_t> Admitted{0};
  std::atomic<uint64_t> Attached{0};
  std::atomic<uint64_t> Retired{0};
  std::atomic<uint64_t> Rejected{0};
  std::atomic<uint64_t> Expired{0};
  std::atomic<uint64_t> MaxCoActive{0};

  std::thread LoopThread;
  std::thread CompletionThread;
};

} // namespace serve
} // namespace vega

#endif // VEGA_SERVE_SCHEDULER_H
