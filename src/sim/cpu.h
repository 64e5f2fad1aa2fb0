// CpuResource: a node's finite-core CPU. Work consumes a core for a modelled
// number of microseconds; when all cores are busy, work queues. Utilization
// is accounted exactly (busy core-microseconds / capacity) so the benches
// can report the paper's CPU% columns (Tables 2, 5, 7).
//
// Two classes of work share the cores. Consume is foreground: it queues
// FIFO behind other foreground work only. ConsumeBackground yields: a
// Consume that arrives and finds no free core takes one from the most
// recently started background job, which goes back to the head of the
// background queue with the rest of its work and resumes when a core
// frees up. Background jobs run FIFO among themselves, and a core runs one
// only while no foreground work waits.

#pragma once

#include <algorithm>
#include <coroutine>
#include <deque>
#include <iterator>
#include <vector>

#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace socrates {
namespace sim {

class CpuResource {
 public:
  CpuResource(Simulator& sim, int cores)
      : sim_(sim), cores_(cores), free_(cores) {}

  /// Consume `micros` of CPU on one core (queuing if all cores are busy
  /// with foreground work; background work gives its core up).
  Task<> Consume(SimTime micros) {
    co_await CoreAwaiter{*this};
    co_await Delay(sim_, micros);
    busy_micros_ += micros;
    ReleaseCore();
  }

  /// Consume `micros` of CPU on one core as background work: it runs only
  /// on a core no foreground work wants, and is preempted (not sliced)
  /// the moment a Consume arrives and finds no free core.
  Task<> ConsumeBackground(SimTime micros) {
    BackgroundJob job(sim_, micros);
    if (free_ > 0 && background_waiters_.empty()) {
      free_--;
      Start(&job);
    } else {
      background_waiters_.push_back(&job);
    }
    // ReleaseCore() and Preempt() move the job between queued and running
    // and do its accounting; each wakes the job, which re-reads its state.
    while (true) {
      if (!job.running) {
        co_await job.wake.Wait();
        job.wake.Reset();
        continue;
      }
      const SimTime left = job.started + job.remaining - sim_.now();
      if (!co_await job.wake.WaitFor(left)) break;  // ran to the end
      job.wake.Reset();
    }
    busy_micros_ += sim_.now() - job.started;
    running_.erase(std::find(running_.begin(), running_.end(), &job));
    ReleaseCore();
  }

  int cores() const { return cores_; }

  /// Total busy core-microseconds since the last ResetAccounting().
  SimTime busy_micros() const { return busy_micros_; }

  /// Begin a measurement window at the current virtual time.
  void ResetAccounting() {
    busy_micros_ = 0;
    window_start_ = sim_.now();
  }

  /// Utilization in [0,1] over the window since ResetAccounting().
  double Utilization() const {
    SimTime elapsed = sim_.now() - window_start_;
    if (elapsed <= 0) return 0.0;
    double cap = static_cast<double>(elapsed) * cores_;
    return std::min(1.0, static_cast<double>(busy_micros_) / cap);
  }

 private:
  struct BackgroundJob {
    BackgroundJob(Simulator& sim, SimTime micros)
        : remaining(micros), wake(sim) {}
    SimTime remaining;     // CPU still owed when last (re)started
    SimTime started = 0;   // when it last got a core
    bool running = false;  // holds a core
    Event wake;            // set on every running <-> queued change
  };

  // Foreground core acquisition. Fast path takes a free core in
  // await_ready; otherwise it preempts a background job, or queues FIFO
  // for ReleaseCore's direct hand-off.
  struct CoreAwaiter {
    CpuResource& c;
    bool await_ready() {
      if (c.free_ > 0) {
        c.free_--;
        return true;
      }
      return c.Preempt();
    }
    void await_suspend(std::coroutine_handle<> h) {
      c.foreground_waiters_.push_back(h);
    }
    void await_resume() const {}
  };

  void Start(BackgroundJob* job) {
    job->running = true;
    job->started = sim_.now();
    running_.push_back(job);
  }

  // Take the core of the most recently started background job that is
  // not finishing this instant; it rejoins the head of the queue.
  bool Preempt() {
    const SimTime now = sim_.now();
    for (auto it = running_.rbegin(); it != running_.rend(); ++it) {
      BackgroundJob* job = *it;
      const SimTime ran = now - job->started;
      if (ran >= job->remaining) continue;
      busy_micros_ += ran;
      job->remaining -= ran;
      job->running = false;
      running_.erase(std::next(it).base());
      background_waiters_.push_front(job);
      job->wake.Set();
      return true;
    }
    return false;
  }

  // Hand a freed core to waiting foreground work first, then to the head
  // of the background queue.
  void ReleaseCore() {
    if (!foreground_waiters_.empty()) {
      auto h = foreground_waiters_.front();
      foreground_waiters_.pop_front();
      sim_.ScheduleResume(0, h);
    } else if (!background_waiters_.empty()) {
      BackgroundJob* job = background_waiters_.front();
      background_waiters_.pop_front();
      Start(job);
      job->wake.Set();
    } else {
      free_++;
    }
  }

  Simulator& sim_;
  int cores_;
  int free_;
  std::deque<std::coroutine_handle<>> foreground_waiters_;
  std::deque<BackgroundJob*> background_waiters_;
  // Background jobs holding a core, in start order.
  std::vector<BackgroundJob*> running_;
  SimTime busy_micros_ = 0;
  SimTime window_start_ = 0;
};

}  // namespace sim
}  // namespace socrates
