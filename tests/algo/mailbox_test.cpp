// Mailbox demultiplexing: layered protocols must be able to receive from
// their own channel even when deliveries interleave.
#include "src/algo/mailbox.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace bsplogp::algo {
namespace {

using logp::Machine;
using logp::Params;
using logp::Proc;
using logp::ProgramFn;
using logp::Task;

TEST(Mailbox, ChannelsReceiveIndependentlyOfArrivalOrder) {
  const Params prm{8, 1, 2};
  Machine m(3, prm);
  std::vector<Word> ch1_payloads, ch2_payloads;
  std::vector<ProgramFn> progs;
  // Proc 1 and 2 send to proc 0 on different channels, interleaved.
  progs.emplace_back([&](Proc& p) -> Task<> {
    Mailbox mb(p);
    // Ask for channel 2 first even though channel 1 traffic arrives too.
    for (int i = 0; i < 3; ++i)
      ch2_payloads.push_back((co_await mb.recv_channel(2)).payload);
    for (int i = 0; i < 3; ++i)
      ch1_payloads.push_back((co_await mb.recv_channel(1)).payload);
    EXPECT_EQ(mb.stashed(), 0u);
  });
  progs.emplace_back([](Proc& p) -> Task<> {
    for (Word i = 0; i < 3; ++i) co_await p.send(0, 10 + i, 0, 0, 1);
  });
  progs.emplace_back([](Proc& p) -> Task<> {
    for (Word i = 0; i < 3; ++i) co_await p.send(0, 20 + i, 0, 0, 2);
  });
  const auto st = m.run(progs);
  EXPECT_TRUE(st.completed());
  EXPECT_EQ(ch1_payloads, (std::vector<Word>{10, 11, 12}));
  EXPECT_EQ(ch2_payloads, (std::vector<Word>{20, 21, 22}));
}

TEST(Mailbox, TaggedReceiveSkipsOtherTags) {
  const Params prm{8, 1, 2};
  Machine m(2, prm);
  std::vector<Word> got;
  std::vector<ProgramFn> progs;
  progs.emplace_back([&](Proc& p) -> Task<> {
    Mailbox mb(p);
    // Receive tags in reverse order of sending.
    for (std::int32_t tag = 2; tag >= 0; --tag)
      got.push_back((co_await mb.recv_channel_tag(7, tag)).payload);
  });
  progs.emplace_back([](Proc& p) -> Task<> {
    for (std::int32_t tag = 0; tag < 3; ++tag)
      co_await p.send(0, 100 + tag, tag, 0, 7);
  });
  EXPECT_TRUE(m.run(progs).completed());
  EXPECT_EQ(got, (std::vector<Word>{102, 101, 100}));
}

TEST(Mailbox, StashPreservesFifoWithinChannel) {
  const Params prm{8, 1, 2};
  Machine m(2, prm);
  std::vector<Word> got;
  std::vector<ProgramFn> progs;
  progs.emplace_back([&](Proc& p) -> Task<> {
    Mailbox mb(p);
    // First drain channel 9 (arrives last), forcing channel 4 messages
    // through the stash; then read channel 4 — order must be preserved.
    (void)co_await mb.recv_channel(9);
    for (int i = 0; i < 4; ++i)
      got.push_back((co_await mb.recv_channel(4)).payload);
  });
  progs.emplace_back([](Proc& p) -> Task<> {
    for (Word i = 0; i < 4; ++i) co_await p.send(0, i, 0, 0, 4);
    co_await p.send(0, 99, 0, 0, 9);
  });
  EXPECT_TRUE(m.run(progs).completed());
  EXPECT_EQ(got, (std::vector<Word>{0, 1, 2, 3}));
}

TEST(Mailbox, RecvEachMatchesRepeatedRecvChannel) {
  // Proc 1 sends channel 4 twice, then 9, then 4 interleaved with 7.
  // Proc 0 takes channel 9 first (stashing both 4s), then five channel-4
  // messages — through recv_each (one message, then four: the first call
  // must leave the second stashed match alone) or through five
  // recv_channel calls — then the two channel-7 messages, which the
  // channel-4 receives must have stashed. Payload order, stash size and
  // the processor's clock must agree between the two, and so must the
  // engine's RunStats.
  struct Result {
    std::vector<Word> ch4, ch7;
    std::size_t stashed = 0;
    Time after_ch4 = 0;
    Time end = 0;
    logp::RunStats stats;
  };
  auto run = [](bool batched) {
    Result res;
    Machine m(2, Params{8, 1, 2});
    std::vector<ProgramFn> progs;
    progs.emplace_back([&res, batched](Proc& p) -> Task<> {
      Mailbox mb(p);
      (void)co_await mb.recv_channel(9);
      auto keep = [&res](const Message& msg) {
        res.ch4.push_back(msg.payload);
      };
      if (batched) {
        co_await mb.recv_each(4, 1, keep);
        EXPECT_EQ(mb.stashed(), 1u);
        co_await mb.recv_each(4, 4, keep);
      } else {
        for (int i = 0; i < 5; ++i) keep(co_await mb.recv_channel(4));
      }
      res.stashed = mb.stashed();
      res.after_ch4 = p.now();
      for (int i = 0; i < 2; ++i)
        res.ch7.push_back((co_await mb.recv_channel(7)).payload);
      res.end = p.now();
    });
    progs.emplace_back([](Proc& p) -> Task<> {
      for (const auto& [payload, channel] :
           {std::pair<Word, std::int32_t>{40, 4}, {41, 4}, {90, 9}, {42, 4},
            {70, 7}, {43, 4}, {71, 7}, {44, 4}})
        co_await p.send(0, payload, 0, 0, channel);
    });
    res.stats = m.run(progs);
    return res;
  };
  const Result batched = run(true);
  const Result single = run(false);
  EXPECT_TRUE(batched.stats.completed());
  EXPECT_EQ(batched.ch4, (std::vector<Word>{40, 41, 42, 43, 44}));
  EXPECT_EQ(batched.ch7, (std::vector<Word>{70, 71}));
  EXPECT_EQ(batched.stashed, 2u);
  EXPECT_EQ(batched.ch4, single.ch4);
  EXPECT_EQ(batched.ch7, single.ch7);
  EXPECT_EQ(batched.stashed, single.stashed);
  EXPECT_EQ(batched.after_ch4, single.after_ch4);
  EXPECT_EQ(batched.end, single.end);
  EXPECT_TRUE(batched.stats == single.stats);
}

TEST(Mailbox, AvailableCountsStashAndInbox) {
  const Params prm{8, 1, 2};
  Machine m(2, prm);
  std::vector<ProgramFn> progs;
  progs.emplace_back([](Proc& p) -> Task<> {
    Mailbox mb(p);
    // Wait until both messages have certainly been delivered.
    co_await p.wait_until(100);
    EXPECT_EQ(mb.available(), 2u);
    (void)co_await mb.recv_channel(2);  // stashes the channel-1 message
    EXPECT_EQ(mb.stashed(), 1u);
    EXPECT_EQ(mb.available(), 1u);
    (void)co_await mb.recv_channel(1);
    EXPECT_EQ(mb.available(), 0u);
  });
  progs.emplace_back([](Proc& p) -> Task<> {
    co_await p.send(0, 1, 0, 0, 1);
    co_await p.send(0, 2, 0, 0, 2);
  });
  EXPECT_TRUE(m.run(progs).completed());
}

}  // namespace
}  // namespace bsplogp::algo
