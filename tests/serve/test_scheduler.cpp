#include "serve/step_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace haan::serve {
namespace {

Request make_request(std::uint64_t id) {
  Request request;
  request.id = id;
  request.tokens = {0};
  request.enqueued_at = Clock::now();
  return request;
}

/// These tests pin the FIFO contract (strict arrival order across packs)
/// with whole-prompt steps (prefill_chunk = 0), so every prefill-only
/// request is a one-step session.
StepSchedulerConfig make_config(std::size_t max_batch,
                                std::int64_t max_wait_us) {
  StepSchedulerConfig config;
  config.batching.max_batch = max_batch;
  config.batching.max_wait = std::chrono::microseconds(max_wait_us);
  config.batching.policy.policy = SchedPolicy::kFifo;
  config.prefill_chunk = 0;
  return config;
}

/// A scheduler plus the queue and session table it admits into.
struct Harness {
  explicit Harness(StepSchedulerConfig config, std::size_t capacity = 16)
      : queue(capacity),
        sessions(model::tiny_test_model()),
        scheduler(queue, sessions, config) {}

  RequestQueue queue;
  SessionTable sessions;
  StepScheduler scheduler;
};

/// Request ids aboard `pack`, in entry order.
std::vector<std::uint64_t> ids_of(const StepPack& pack) {
  std::vector<std::uint64_t> ids;
  for (const StepEntry& entry : pack.entries) {
    ids.push_back(entry.session->request.id);
  }
  return ids;
}

/// Retires every session aboard `pack`, as a worker does after a pack of
/// one-step sessions.
void finish_all(StepScheduler& scheduler, const StepPack& pack) {
  for (const StepEntry& entry : pack.entries) scheduler.finish(entry.session);
}

TEST(StepScheduler, FormsFullPackFromBackloggedQueue) {
  Harness h(make_config(4, 100));
  for (std::uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(h.queue.push(make_request(i)));

  const auto pack = h.scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(pack->sequence, 0u);
  EXPECT_EQ(ids_of(*pack), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  for (const StepEntry& entry : pack->entries) {
    EXPECT_FALSE(entry.decode);
    EXPECT_EQ(entry.rows, 1u);  // the whole one-token prompt
  }
}

TEST(StepScheduler, MaxWaitDeadlineClosesPartialPack) {
  Harness h(make_config(8, 5000));
  ASSERT_TRUE(h.queue.push(make_request(0)));

  const auto t0 = Clock::now();
  const auto pack = h.scheduler.next_pack();  // nothing else arrives
  const double waited = elapsed_us(t0, Clock::now());
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(pack->entries.size(), 1u);
  // The scheduler held the pack open for the deadline, not forever.
  EXPECT_GE(waited, 4000.0);
  EXPECT_LT(waited, 2e6);
}

TEST(StepScheduler, CollectsLateArrivalsWithinDeadline) {
  Harness h(make_config(4, 200000));
  ASSERT_TRUE(h.queue.push(make_request(0)));

  std::thread late_producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(h.queue.push(make_request(1)));
    ASSERT_TRUE(h.queue.push(make_request(2)));
    ASSERT_TRUE(h.queue.push(make_request(3)));
  });
  const auto pack = h.scheduler.next_pack();
  late_producer.join();
  ASSERT_TRUE(pack.has_value());
  // Pack filled to max_batch from arrivals inside the wait window.
  EXPECT_EQ(ids_of(*pack), (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(StepScheduler, ContinuingSessionClosesPackWithoutBurningMaxWait) {
  // A requeued session's step (here a decode step) ships as soon as no other
  // work could join its pack: a lone decode stream is not charged max_wait
  // per token, even while the queue stays open.
  Harness h(make_config(2, 30000000));
  Request request = make_request(0);
  request.max_new_tokens = 2;
  ASSERT_TRUE(h.queue.push(request));
  ASSERT_TRUE(h.queue.push(make_request(1)));  // fills the first pack
  const auto prefill = h.scheduler.next_pack();
  ASSERT_TRUE(prefill.has_value());
  ASSERT_EQ(ids_of(*prefill), (std::vector<std::uint64_t>{0, 1}));
  // What a worker does after the prefill step: retire the one-step session,
  // and feed the other's prompt, emit its first token and requeue it.
  h.scheduler.finish(prefill->entries[1].session);
  Session* session = prefill->entries[0].session;
  session->fed = session->prompt_len();
  session->generated.push_back(0);
  h.scheduler.requeue(session);

  const auto t0 = Clock::now();
  const auto decode = h.scheduler.next_pack();
  ASSERT_TRUE(decode.has_value());
  ASSERT_EQ(decode->entries.size(), 1u);
  EXPECT_TRUE(decode->entries[0].decode);
  EXPECT_LT(elapsed_us(t0, Clock::now()), 10e6);  // << the 30 s max-wait
}

TEST(StepScheduler, FifoAcrossConsecutivePacks) {
  Harness h(make_config(5, 100), 32);
  for (std::uint64_t i = 0; i < 12; ++i) ASSERT_TRUE(h.queue.push(make_request(i)));
  h.queue.close();

  std::vector<std::uint64_t> order;
  std::uint64_t expected_sequence = 0;
  while (const auto pack = h.scheduler.next_pack()) {
    EXPECT_EQ(pack->sequence, expected_sequence++);
    for (const std::uint64_t id : ids_of(*pack)) order.push_back(id);
    finish_all(h.scheduler, *pack);
  }
  ASSERT_EQ(order.size(), 12u);
  for (std::uint64_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(h.scheduler.packs_formed(), 3u);  // 5 + 5 + 2
}

TEST(StepScheduler, EndOfStreamAfterDrain) {
  Harness h(make_config(2, 100), 4);
  ASSERT_TRUE(h.queue.push(make_request(0)));
  h.queue.close();

  const auto pack = h.scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  finish_all(h.scheduler, *pack);
  EXPECT_FALSE(h.scheduler.next_pack().has_value());
  EXPECT_FALSE(h.scheduler.next_pack().has_value());  // stays terminated
}

TEST(StepScheduler, StampsDequeueTimes) {
  Harness h(make_config(2, 100), 4);
  ASSERT_TRUE(h.queue.push(make_request(0)));
  ASSERT_TRUE(h.queue.push(make_request(1)));
  h.queue.close();

  const auto pack = h.scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  ASSERT_EQ(pack->entries.size(), 2u);
  for (const StepEntry& entry : pack->entries) {
    const Request& request = entry.session->request;
    EXPECT_GE(elapsed_us(request.enqueued_at, request.dequeued_at), 0.0);
    EXPECT_NE(request.dequeued_at, Clock::time_point{});
  }
}

TEST(StepScheduler, ZeroMaxWaitFormsSingletonPackFromEmptyQueue) {
  // max_wait=0: the deadline is already expired when the queue runs dry, so a
  // lone request forms a singleton pack immediately — the packed path must
  // handle these (a pack of one sequence).
  Harness h(make_config(8, 0), 4);
  ASSERT_TRUE(h.queue.push(make_request(0)));

  const auto t0 = Clock::now();
  const auto pack = h.scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(pack->entries.size(), 1u);
  EXPECT_LT(elapsed_us(t0, Clock::now()), 1e6);  // no wait burned
}

TEST(StepScheduler, ZeroMaxWaitStillDrainsBackloggedQueue) {
  // Already-queued requests are admitted regardless of the deadline;
  // max_wait only bounds *waiting* for more work.
  Harness h(make_config(8, 0));
  for (std::uint64_t i = 0; i < 6; ++i) ASSERT_TRUE(h.queue.push(make_request(i)));

  const auto pack = h.scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(pack->entries.size(), 6u);
}

TEST(StepScheduler, EndOfStreamClosesOpenPackWithoutBurningMaxWait) {
  // A pack held open under a long max-wait must close as soon as the stream
  // ends (the queue reports kDrained), not when the deadline expires.
  Harness h(make_config(8, 30000000), 4);
  ASSERT_TRUE(h.queue.push(make_request(0)));

  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(h.queue.push(make_request(1)));
    h.queue.close();
  });
  const auto t0 = Clock::now();
  const auto pack = h.scheduler.next_pack();
  closer.join();
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(ids_of(*pack), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_LT(elapsed_us(t0, Clock::now()), 10e6);  // << the 30 s max-wait
  finish_all(h.scheduler, *pack);
  EXPECT_FALSE(h.scheduler.next_pack().has_value());
}

TEST(StepScheduler, EndOfStreamDoesNotWaitForFinalStepsInFlight) {
  // Once the queue and pool are empty, sessions in their final step can never
  // come back, so an idle worker reaches end-of-stream (and releases its
  // scratch memory) while other workers still run those steps.
  Harness h(make_config(1, 100), 4);
  ASSERT_TRUE(h.queue.push(make_request(0)));
  ASSERT_TRUE(h.queue.push(make_request(1)));
  h.queue.close();
  const auto first = h.scheduler.next_pack();
  const auto second = h.scheduler.next_pack();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());

  auto end = std::async(std::launch::async,
                        [&] { return h.scheduler.next_pack(); });
  const bool prompt =
      end.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  finish_all(h.scheduler, *first);  // unblocks a waiting next_pack() if any
  finish_all(h.scheduler, *second);
  EXPECT_TRUE(prompt);
  EXPECT_FALSE(end.get().has_value());
}

TEST(StepScheduler, DrainedTailYieldsRaggedFinalPack) {
  // 7 requests into max_batch=4 -> a full pack and a ragged 3-request tail
  // (the packed path sees both a full and a partial pack).
  Harness h(make_config(4, 100));
  for (std::uint64_t i = 0; i < 7; ++i) ASSERT_TRUE(h.queue.push(make_request(i)));
  h.queue.close();

  const auto first = h.scheduler.next_pack();
  ASSERT_TRUE(first.has_value());
  finish_all(h.scheduler, *first);
  const auto second = h.scheduler.next_pack();
  ASSERT_TRUE(second.has_value());
  finish_all(h.scheduler, *second);
  EXPECT_EQ(first->entries.size(), 4u);
  EXPECT_EQ(second->entries.size(), 3u);
  EXPECT_FALSE(h.scheduler.next_pack().has_value());
}

TEST(StepScheduler, ConcurrentConsumersPartitionTheStream) {
  constexpr std::uint64_t kRequests = 40;
  Harness h(make_config(3, 100), 64);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(h.queue.push(make_request(i)));
  }
  h.queue.close();

  std::mutex mu;
  std::vector<std::uint64_t> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (const auto pack = h.scheduler.next_pack()) {
        {
          std::lock_guard<std::mutex> lock(mu);
          for (const std::uint64_t id : ids_of(*pack)) seen.push_back(id);
        }
        finish_all(h.scheduler, *pack);
      }
    });
  }
  for (auto& consumer : consumers) consumer.join();

  // No request lost, none duplicated.
  ASSERT_EQ(seen.size(), kRequests);
  std::sort(seen.begin(), seen.end());
  for (std::uint64_t i = 0; i < kRequests; ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace haan::serve
