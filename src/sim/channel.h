// Channel<T>: unbounded MPMC queue with awaitable Pop, the message-passing
// backbone between Socrates mini-services (log dissemination, RBIO-style
// request queues). Close() drains waiters with nullopt, which is how
// service loops observe shutdown.
//
// Substrate v2: a parked popper is an intrusive node embedded in the Pop
// awaiter (the coroutine frame is stable while suspended), so the wait
// path allocates nothing and wake-ups ride the simulator's handle fast
// path instead of a closure.

#pragma once

#include <coroutine>
#include <deque>
#include <optional>

#include "sim/simulator.h"

namespace socrates {
namespace sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueue an item. If a popper is waiting, the item is handed to it
  /// directly (FIFO).
  void Push(T item) {
    if (closed_) return;  // pushes after close are dropped
    if (!poppers_.empty()) {
      PopNode* w = poppers_.front();
      poppers_.pop_front();
      w->item.emplace(std::move(item));
      sim_.ScheduleResume(0, w->handle);
      return;
    }
    items_.push_back(std::move(item));
  }

  /// co_await ch.Pop() -> std::optional<T>; nullopt means closed and empty.
  auto Pop() {
    struct Awaiter {
      Channel& ch;
      PopNode node;

      bool await_ready() {
        if (!ch.items_.empty()) {
          node.item.emplace(std::move(ch.items_.front()));
          ch.items_.pop_front();
          return true;
        }
        return ch.closed_;  // closed + empty: resume with nullopt
      }
      void await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        ch.poppers_.push_back(&node);
      }
      std::optional<T> await_resume() { return std::move(node.item); }
    };
    return Awaiter{*this, {}};
  }

  /// Close the channel: queued items can still be popped; waiting poppers
  /// receive nullopt.
  void Close() {
    closed_ = true;
    for (PopNode* w : poppers_) {
      // item stays nullopt
      sim_.ScheduleResume(0, w->handle);
    }
    poppers_.clear();
  }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  struct PopNode {
    std::coroutine_handle<> handle;
    std::optional<T> item;
  };

  Simulator& sim_;
  std::deque<T> items_;
  std::deque<PopNode*> poppers_;
  bool closed_ = false;
};

}  // namespace sim
}  // namespace socrates
