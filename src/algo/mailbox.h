// Message demultiplexing for layered LogP protocols.
//
// A LogP processor has a single input buffer and `recv` yields messages in
// delivery order — but a protocol stack (e.g. Theorem 2's superstep
// simulation) interleaves barrier traffic, routing control, and data on the
// same processors, and deliveries from different layers can overtake each
// other in transit. A Mailbox wraps a Proc and lets each layer receive from
// its own logical channel: non-matching acquisitions are stashed (a local
// bookkeeping action, free in the model beyond the acquisition overhead the
// engine already charged) and handed to the layer that asks for them later.
//
// All layers on one processor must share one Mailbox; mixing raw
// `proc.recv()` with Mailbox receives would lose stashed messages.
#pragma once

#include <deque>
#include <vector>

#include "src/core/contracts.h"
#include "src/core/types.h"
#include "src/logp/machine.h"
#include "src/logp/task.h"

namespace bsplogp::algo {

/// Well-known channels used by the shipped protocols. User data should use
/// channels >= kUser.
struct Channel {
  static constexpr std::int32_t kCbUp = -1;
  static constexpr std::int32_t kCbDown = -2;
  static constexpr std::int32_t kScan = -3;
  static constexpr std::int32_t kBroadcast = -4;
  static constexpr std::int32_t kData = -5;
  static constexpr std::int32_t kControl = -6;
  static constexpr std::int32_t kUser = 0;
};

class Mailbox {
 public:
  explicit Mailbox(logp::Proc& proc) : proc_(proc) {}

  [[nodiscard]] logp::Proc& proc() { return proc_; }

  /// Receives the oldest message matching `pred`, acquiring (and stashing)
  /// non-matching messages as needed.
  template <typename Pred>
  [[nodiscard]] logp::Task<Message> recv_match(Pred pred) {
    for (std::size_t i = 0; i < stash_.size(); ++i) {
      if (pred(stash_[i])) {
        Message m = stash_[i];
        stash_.erase(stash_.begin() + static_cast<std::ptrdiff_t>(i));
        co_return m;
      }
    }
    for (;;) {
      Message m = co_await proc_.recv();
      if (pred(m)) co_return m;
      stash_.push_back(m);
    }
  }

  /// Receives the oldest message on `channel`.
  [[nodiscard]] logp::Task<Message> recv_channel(std::int32_t channel) {
    return recv_match(
        [channel](const Message& m) { return m.channel == channel; });
  }

  /// Receives the oldest message on `channel` with tag `tag`.
  [[nodiscard]] logp::Task<Message> recv_channel_tag(std::int32_t channel,
                                                     std::int32_t tag) {
    return recv_match([channel, tag](const Message& m) {
      return m.channel == channel && m.tag == tag;
    });
  }

  /// Receives the next n messages on `channel`, oldest first, passing each
  /// to `f`: stashed matches in FIFO order, then acquisitions until n have
  /// matched, stashing the rest. The same acquisitions in the same order
  /// as n recv_channel calls, but one coroutine frame for the batch.
  template <typename F>
  [[nodiscard]] logp::Task<> recv_each(std::int32_t channel, std::size_t n,
                                       F f) {
    std::size_t kept = 0;
    for (Message& m : stash_) {
      if (n > 0 && m.channel == channel) {
        f(m);
        --n;
      } else {
        stash_[kept++] = m;
      }
    }
    stash_.resize(kept);
    while (n > 0) {
      const Message& m = co_await proc_.recv();
      if (m.channel == channel) {
        f(m);
        --n;
      } else {
        stash_.push_back(m);
      }
    }
  }

  /// Acquires everything currently buffered in the processor's input
  /// buffer into the stash (paying the usual acquisition overhead and gap
  /// per message). Used by drain protocols that know, from a barrier
  /// argument, that all expected traffic has been delivered.
  [[nodiscard]] logp::Task<> acquire_pending() {
    std::size_t n = proc_.inbox_size();
    while (n-- > 0) stash_.push_back(co_await proc_.recv());
  }

  /// Removes and returns all stashed messages on `channel`, oldest first.
  [[nodiscard]] std::vector<Message> take_stashed(std::int32_t channel) {
    std::vector<Message> out;
    for (std::size_t i = 0; i < stash_.size();) {
      if (stash_[i].channel == channel) {
        out.push_back(stash_[i]);
        stash_.erase(stash_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    return out;
  }

  /// Messages already acquired but not yet claimed by any layer.
  [[nodiscard]] std::size_t stashed() const { return stash_.size(); }
  /// Stashed + buffered-but-unacquired messages (free local peek).
  [[nodiscard]] std::size_t available() const {
    return stash_.size() + proc_.inbox_size();
  }

 private:
  logp::Proc& proc_;
  std::deque<Message> stash_;
};

}  // namespace bsplogp::algo
