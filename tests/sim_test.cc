// Tests for the discrete-event simulator and coroutine primitives: ordering,
// Task composition, Event/Mutex/Semaphore/WaitGroup semantics, Channel
// message passing, CPU accounting, latency model statistics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/histogram.h"
#include "sim/channel.h"
#include "sim/cpu.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace socrates {
namespace sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(30, [&] { order.push_back(3); });
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    s.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; i++) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator s;
  SimTime fired_at = -1;
  s.ScheduleAt(10, [&] {
    s.ScheduleAfter(15, [&] { fired_at = s.now(); });
  });
  s.Run();
  EXPECT_EQ(fired_at, 25);
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock) {
  Simulator s;
  int count = 0;
  s.ScheduleAt(10, [&] { count++; });
  s.ScheduleAt(100, [&] { count++; });
  s.RunUntil(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(s.pending_events(), 1u);
  s.Run();
  EXPECT_EQ(count, 2);
}

// ------------------------------------------------------------------ Task

Task<int> ReturnAfter(Simulator& s, SimTime d, int v) {
  co_await Delay(s, d);
  co_return v;
}

Task<int> SumOfTwo(Simulator& s) {
  int a = co_await ReturnAfter(s, 10, 1);
  int b = co_await ReturnAfter(s, 20, 2);
  co_return a + b;
}

TEST(TaskTest, NestedTasksComposeAndTimeAccumulates) {
  Simulator s;
  int result = 0;
  SimTime done_at = -1;
  Spawn(s, [](Simulator& sim, int* out, SimTime* when) -> Task<> {
    *out = co_await SumOfTwo(sim);
    *when = sim.now();
  }(s, &result, &done_at));
  s.Run();
  EXPECT_EQ(result, 3);
  EXPECT_EQ(done_at, 30);
}

TEST(TaskTest, SpawnRunsSynchronouslyUntilFirstSuspend) {
  Simulator s;
  int stage = 0;
  Spawn(s, [](Simulator& sim, int* st) -> Task<> {
    *st = 1;
    co_await Delay(sim, 5);
    *st = 2;
  }(s, &stage));
  EXPECT_EQ(stage, 1);  // ran to the first co_await synchronously
  s.Run();
  EXPECT_EQ(stage, 2);
}

TEST(TaskTest, ManySpawnedTasksInterleaveDeterministically) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    Spawn(s, [](Simulator& sim, std::vector<int>* ord, int id) -> Task<> {
      co_await Delay(sim, 10 * (5 - id));
      ord->push_back(id);
    }(s, &order, i));
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(TaskTest, YieldReschedulesAtSameTime) {
  Simulator s;
  std::vector<std::string> order;
  Spawn(s, [](Simulator& sim, std::vector<std::string>* ord) -> Task<> {
    ord->push_back("a1");
    co_await Yield(sim);
    ord->push_back("a2");
  }(s, &order));
  Spawn(s, [](Simulator& sim, std::vector<std::string>* ord) -> Task<> {
    ord->push_back("b1");
    co_await Yield(sim);
    ord->push_back("b2");
  }(s, &order));
  s.Run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
  EXPECT_EQ(s.now(), 0);
}

// ----------------------------------------------------------------- Event

TEST(EventTest, WaitersWakeOnSet) {
  Simulator s;
  Event e(s);
  int woken = 0;
  for (int i = 0; i < 3; i++) {
    Spawn(s, [](Event& ev, int* w) -> Task<> {
      co_await ev.Wait();
      (*w)++;
    }(e, &woken));
  }
  s.Run();
  EXPECT_EQ(woken, 0);  // nothing set yet, queue drained
  e.Set();
  s.Run();
  EXPECT_EQ(woken, 3);
}

TEST(EventTest, AlreadySetIsImmediate) {
  Simulator s;
  Event e(s);
  e.Set();
  bool done = false;
  Spawn(s, [](Event& ev, bool* d) -> Task<> {
    co_await ev.Wait();
    *d = true;
  }(e, &done));
  EXPECT_TRUE(done);  // no suspension needed
}

TEST(EventTest, WaitForTimesOut) {
  Simulator s;
  Event e(s);
  bool fired = true;
  Spawn(s, [](Event& ev, bool* f) -> Task<> {
    *f = co_await ev.WaitFor(100);
  }(e, &fired));
  s.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.now(), 100);
}

TEST(EventTest, WaitForSucceedsBeforeTimeout) {
  Simulator s;
  Event e(s);
  bool fired = false;
  SimTime when = -1;
  Spawn(s, [](Simulator& sim, Event& ev, bool* f, SimTime* w) -> Task<> {
    *f = co_await ev.WaitFor(1000);
    *w = sim.now();
  }(s, e, &fired, &when));
  s.ScheduleAt(50, [&] { e.Set(); });
  s.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(when, 50);
}

TEST(EventTest, ResetAllowsReuse) {
  Simulator s;
  Event e(s);
  e.Set();
  e.Reset();
  EXPECT_FALSE(e.is_set());
  bool done = false;
  Spawn(s, [](Event& ev, bool* d) -> Task<> {
    co_await ev.Wait();
    *d = true;
  }(e, &done));
  s.Run();
  EXPECT_FALSE(done);
  e.Set();
  s.Run();
  EXPECT_TRUE(done);
}

// ----------------------------------------------------------------- Mutex

TEST(MutexTest, MutualExclusionAndFifo) {
  Simulator s;
  Mutex mu(s);
  std::vector<int> order;
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 4; i++) {
    Spawn(s, [](Simulator& sim, Mutex& m, std::vector<int>* ord, int id,
                int* in, int* maxin) -> Task<> {
      auto g = co_await m.Acquire();
      (*in)++;
      *maxin = std::max(*maxin, *in);
      co_await Delay(sim, 10);
      ord->push_back(id);
      (*in)--;
    }(s, mu, &order, i, &inside, &max_inside));
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(max_inside, 1);
  EXPECT_FALSE(mu.locked());
  EXPECT_EQ(s.now(), 40);
}

TEST(MutexTest, GuardReleaseEarly) {
  Simulator s;
  Mutex mu(s);
  bool second_ran = false;
  Spawn(s, [](Simulator& sim, Mutex& m) -> Task<> {
    auto g = co_await m.Acquire();
    g.Release();
    co_await Delay(sim, 100);  // holds nothing now
  }(s, mu));
  Spawn(s, [](Mutex& m, bool* ran) -> Task<> {
    auto g = co_await m.Acquire();
    *ran = true;
  }(mu, &second_ran));
  s.RunUntil(1);
  EXPECT_TRUE(second_ran);
}

// -------------------------------------------------------------- Semaphore

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulator s;
  Semaphore sem(s, 2);
  int inside = 0, max_inside = 0, completed = 0;
  for (int i = 0; i < 6; i++) {
    Spawn(s, [](Simulator& sim, Semaphore& sm, int* in, int* maxin,
                int* comp) -> Task<> {
      co_await sm.Acquire();
      (*in)++;
      *maxin = std::max(*maxin, *in);
      co_await Delay(sim, 10);
      (*in)--;
      (*comp)++;
      sm.Release();
    }(s, sem, &inside, &max_inside, &completed));
  }
  s.Run();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(max_inside, 2);
  EXPECT_EQ(s.now(), 30);  // 6 jobs, 2 wide, 10us each
  EXPECT_EQ(sem.permits(), 2);
}

TEST(SemaphoreTest, ReleaseManyWakesMany) {
  Simulator s;
  Semaphore sem(s, 0);
  int woken = 0;
  for (int i = 0; i < 3; i++) {
    Spawn(s, [](Semaphore& sm, int* w) -> Task<> {
      co_await sm.Acquire();
      (*w)++;
    }(sem, &woken));
  }
  s.Run();
  EXPECT_EQ(woken, 0);
  sem.Release(3);
  s.Run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(sem.permits(), 0);
}

// -------------------------------------------------------------- WaitGroup

TEST(WaitGroupTest, QuorumStylePattern) {
  Simulator s;
  WaitGroup wg(s);
  wg.Add(2);  // wait for 2 of 3 replica writes (quorum)
  int acked = 0;
  SimTime quorum_at = -1;
  for (SimTime lat : {30, 10, 50}) {
    Spawn(s, [](Simulator& sim, WaitGroup& w, SimTime l, int* a) -> Task<> {
      co_await Delay(sim, l);
      (*a)++;
      if (w.count() > 0) w.Done();
    }(s, wg, lat, &acked));
  }
  Spawn(s, [](Simulator& sim, WaitGroup& w, SimTime* at) -> Task<> {
    co_await w.Wait();
    *at = sim.now();
  }(s, wg, &quorum_at));
  s.Run();
  EXPECT_EQ(acked, 3);
  EXPECT_EQ(quorum_at, 30);  // second-fastest replica defines quorum
}

namespace gather_detail {
Task<> Tick(Simulator& sim, SimTime delay, int* done) {
  co_await Delay(sim, delay);
  (*done)++;
}
Task<> JoinThree(Simulator& sim, int* done, SimTime* joined_at) {
  std::vector<Task<>> tasks;
  tasks.push_back(Tick(sim, 40, done));
  tasks.push_back(Tick(sim, 10, done));
  tasks.push_back(Tick(sim, 25, done));
  co_await Gather(sim, std::move(tasks));
  *joined_at = sim.now();
}
}  // namespace gather_detail

TEST(GatherTest, JoinsAllTasksAtSlowestFinish) {
  Simulator s;
  int done = 0;
  SimTime joined_at = -1;
  Spawn(s, gather_detail::JoinThree(s, &done, &joined_at));
  s.Run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(joined_at, 40);  // the join resumes with the slowest task
}

namespace gather_detail {
Task<> JoinEmpty(Simulator& sim, bool* resumed) {
  co_await Gather(sim, {});
  *resumed = true;
}
}  // namespace gather_detail

TEST(GatherTest, EmptyTaskListResumesImmediately) {
  Simulator s;
  bool resumed = false;
  Spawn(s, gather_detail::JoinEmpty(s, &resumed));
  s.Run();
  EXPECT_TRUE(resumed);
}

// ---------------------------------------------------------------- Channel

TEST(ChannelTest, PushThenPop) {
  Simulator s;
  Channel<int> ch(s);
  ch.Push(1);
  ch.Push(2);
  std::vector<int> got;
  Spawn(s, [](Channel<int>& c, std::vector<int>* g) -> Task<> {
    for (int i = 0; i < 2; i++) {
      auto v = co_await c.Pop();
      g->push_back(*v);
    }
  }(ch, &got));
  s.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(ChannelTest, PopBlocksUntilPush) {
  Simulator s;
  Channel<std::string> ch(s);
  std::string got;
  SimTime when = -1;
  Spawn(s, [](Simulator& sim, Channel<std::string>& c, std::string* g,
              SimTime* w) -> Task<> {
    auto v = co_await c.Pop();
    *g = *v;
    *w = sim.now();
  }(s, ch, &got, &when));
  s.ScheduleAt(42, [&] { ch.Push("hello"); });
  s.Run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(when, 42);
}

TEST(ChannelTest, CloseWakesWaitersWithNullopt) {
  Simulator s;
  Channel<int> ch(s);
  bool got_nullopt = false;
  Spawn(s, [](Channel<int>& c, bool* n) -> Task<> {
    auto v = co_await c.Pop();
    *n = !v.has_value();
  }(ch, &got_nullopt));
  s.ScheduleAt(10, [&] { ch.Close(); });
  s.Run();
  EXPECT_TRUE(got_nullopt);
}

TEST(ChannelTest, DrainAfterClose) {
  Simulator s;
  Channel<int> ch(s);
  ch.Push(7);
  ch.Close();
  ch.Push(8);  // dropped
  std::vector<int> got;
  bool closed_seen = false;
  Spawn(s, [](Channel<int>& c, std::vector<int>* g, bool* cl) -> Task<> {
    while (true) {
      auto v = co_await c.Pop();
      if (!v) {
        *cl = true;
        break;
      }
      g->push_back(*v);
    }
  }(ch, &got, &closed_seen));
  s.Run();
  EXPECT_EQ(got, (std::vector<int>{7}));
  EXPECT_TRUE(closed_seen);
}

TEST(ChannelTest, FifoAcrossManyProducersConsumers) {
  Simulator s;
  Channel<int> ch(s);
  std::vector<int> got;
  for (int c = 0; c < 3; c++) {
    Spawn(s, [](Channel<int>& chan, std::vector<int>* g) -> Task<> {
      while (true) {
        auto v = co_await chan.Pop();
        if (!v) break;
        g->push_back(*v);
      }
    }(ch, &got));
  }
  for (int i = 0; i < 9; i++) ch.Push(i);
  s.Run();
  ch.Close();
  s.Run();
  ASSERT_EQ(got.size(), 9u);
  // Order across consumers is not globally sorted, but every item is
  // delivered exactly once.
  std::vector<int> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

// ------------------------------------------------------------ CpuResource

TEST(CpuTest, SerializesBeyondCoreCount) {
  Simulator s;
  CpuResource cpu(s, 2);
  int done = 0;
  for (int i = 0; i < 4; i++) {
    Spawn(s, [](CpuResource& c, int* d) -> Task<> {
      co_await c.Consume(100);
      (*d)++;
    }(cpu, &done));
  }
  s.Run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(s.now(), 200);  // 4 x 100us on 2 cores
  EXPECT_EQ(cpu.busy_micros(), 400);
}

TEST(CpuTest, UtilizationAccounting) {
  Simulator s;
  CpuResource cpu(s, 4);
  cpu.ResetAccounting();
  Spawn(s, [](CpuResource& c) -> Task<> {
    co_await c.Consume(100);
  }(cpu));
  s.Run();
  s.RunUntil(1000);
  // 100 busy core-us over 4 cores * 1000us = 2.5%.
  EXPECT_NEAR(cpu.Utilization(), 0.025, 1e-9);
}

TEST(CpuTest, FullSaturationReads100Pct) {
  Simulator s;
  CpuResource cpu(s, 1);
  cpu.ResetAccounting();
  Spawn(s, [](Simulator& sim, CpuResource& c) -> Task<> {
    (void)sim;
    for (int i = 0; i < 10; i++) co_await c.Consume(50);
  }(s, cpu));
  s.Run();
  EXPECT_NEAR(cpu.Utilization(), 1.0, 1e-9);
}

// One core: a 100 us background job starts at 0 and a 20 us Consume
// arrives at 30. Records when each finished.
struct PreemptRun {
  SimTime consume_start = -1;
  SimTime consume_end = -1;
  SimTime background_end = -1;
};

PreemptRun RunPreemption(Simulator& s, CpuResource& cpu) {
  PreemptRun r;
  Spawn(s, [](Simulator& sim, CpuResource& c, PreemptRun* r) -> Task<> {
    co_await c.ConsumeBackground(100);
    r->background_end = sim.now();
  }(s, cpu, &r));
  Spawn(s, [](Simulator& sim, CpuResource& c, PreemptRun* r) -> Task<> {
    co_await Delay(sim, 30);
    r->consume_start = sim.now();
    co_await c.Consume(20);
    r->consume_end = sim.now();
  }(s, cpu, &r));
  s.Run();
  return r;
}

TEST(CpuTest, ConsumeTakesTheCoreOfBackgroundWorkAtOnce) {
  Simulator s;
  CpuResource cpu(s, 1);
  PreemptRun r = RunPreemption(s, cpu);
  EXPECT_EQ(r.consume_start, 30);
  EXPECT_EQ(r.consume_end, 50);  // no wait behind the background job
}

TEST(CpuTest, PreemptedBackgroundWorkFinishesThatMuchLater) {
  Simulator s;
  CpuResource cpu(s, 1);
  PreemptRun r = RunPreemption(s, cpu);
  EXPECT_EQ(r.background_end, 120);  // 100 us of work + 20 us preempted
}

TEST(CpuTest, BackgroundAccountingCountsEachMicroOnce) {
  Simulator s;
  CpuResource cpu(s, 1);
  cpu.ResetAccounting();
  RunPreemption(s, cpu);
  EXPECT_EQ(cpu.busy_micros(), 120);
  EXPECT_NEAR(cpu.Utilization(), 1.0, 1e-9);
  s.RunUntil(240);
  EXPECT_NEAR(cpu.Utilization(), 0.5, 1e-9);
}

TEST(CpuTest, BackgroundJobsOnOneCoreStayFifo) {
  Simulator s;
  CpuResource cpu(s, 1);
  std::vector<std::pair<int, SimTime>> ends;
  for (int i = 0; i < 2; i++) {
    Spawn(s, [](Simulator& sim, CpuResource& c, int id,
                std::vector<std::pair<int, SimTime>>* e) -> Task<> {
      co_await c.ConsumeBackground(id == 0 ? 100 : 50);
      e->emplace_back(id, sim.now());
    }(s, cpu, i, &ends));
  }
  Spawn(s, [](Simulator& sim, CpuResource& c) -> Task<> {
    co_await Delay(sim, 30);
    co_await c.Consume(20);
  }(s, cpu));
  s.Run();
  // The preempted first job resumes ahead of the queued second one.
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], std::make_pair(0, SimTime{120}));
  EXPECT_EQ(ends[1], std::make_pair(1, SimTime{170}));
  EXPECT_EQ(cpu.busy_micros(), 170);
}

// ---------------------------------------------------------- LatencyModel

TEST(LatencyModelTest, FixedAndZero) {
  Random rng(1);
  EXPECT_EQ(LatencyModel::Zero().Sample(rng), 0);
  EXPECT_EQ(LatencyModel::Fixed(123).Sample(rng), 123);
}

TEST(LatencyModelTest, UniformWithinBounds) {
  Random rng(2);
  auto m = LatencyModel::Uniform(100, 200);
  for (int i = 0; i < 1000; i++) {
    SimTime t = m.Sample(rng);
    EXPECT_GE(t, 100);
    EXPECT_LE(t, 200);
  }
}

TEST(LatencyModelTest, LogNormalMedianAndClamp) {
  Random rng(3);
  auto m = LatencyModel::LogNormal(1000, 0.2, 800, 5000);
  Histogram h;
  for (int i = 0; i < 20000; i++) {
    SimTime t = m.Sample(rng);
    EXPECT_GE(t, 800);
    EXPECT_LE(t, 5000);
    h.Add(static_cast<double>(t));
  }
  EXPECT_NEAR(h.Median(), 1000, 100);
}

TEST(DeviceProfileTest, HierarchyOrdering) {
  // Medians must respect the storage hierarchy the paper relies on:
  // local SSD << DirectDrive << XIO << XStore.
  Random rng(4);
  auto median = [&rng](const LatencyModel& m) {
    Histogram h;
    for (int i = 0; i < 5000; i++) {
      h.Add(static_cast<double>(m.Sample(rng)));
    }
    return h.Median();
  };
  double ssd = median(DeviceProfile::LocalSsd().write);
  double dd = median(DeviceProfile::DirectDrive().write);
  double xio = median(DeviceProfile::Xio().write);
  double xstore = median(DeviceProfile::XStore().write);
  EXPECT_LT(ssd, dd);
  EXPECT_LT(dd, xio);
  EXPECT_LT(xio, xstore);
  // And CPU-per-IO: XIO's REST path is much more expensive than DD's.
  EXPECT_GT(DeviceProfile::Xio().cpu_per_io_us,
            5 * DeviceProfile::DirectDrive().cpu_per_io_us);
}

// -------------------------------------------------- Event core substrate

TEST(TimerTest, CancelPreventsFire) {
  Simulator s;
  int fired = 0;
  auto id = s.ScheduleTimer(10, [&] { fired++; });
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));  // double cancel reports already-dead
  s.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(TimerTest, CancelAfterFireReturnsFalse) {
  Simulator s;
  int fired = 0;
  auto id = s.ScheduleTimer(10, [&] { fired++; });
  s.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.Cancel(id));
}

TEST(TimerTest, CancelBeyondWheelHorizon) {
  // Timers past the wheel's span land in the overflow heap; Cancel must
  // find and kill them there too.
  Simulator s;
  int fired = 0;
  auto far = s.ScheduleTimer(20000, [&] { fired++; });  // > wheel span
  (void)s.ScheduleTimer(5, [&] { fired += 10; });
  EXPECT_TRUE(s.Cancel(far));
  s.Run();
  EXPECT_EQ(fired, 10);  // near timer unaffected by the far cancel
}

TEST(TimerTest, CancelledTimerDoesNotBlockSlotNeighbors) {
  Simulator s;
  std::vector<int> order;
  auto a = s.ScheduleTimer(20, [&] { order.push_back(1); });
  s.ScheduleTimer(20, [&] { order.push_back(2); });
  s.ScheduleTimer(20, [&] { order.push_back(3); });
  EXPECT_TRUE(s.Cancel(a));
  s.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // survivors keep their FIFO order
  EXPECT_EQ(order[1], 3);
}

TEST(WatermarkTest, BatchResumeWakesEligibleWaitersInFifoOrder) {
  // Watermark::Advance wakes all satisfied waiters through one
  // ScheduleResumeBatch call; wake order must stay FIFO per threshold.
  Simulator s;
  Watermark w(s);
  std::vector<int> order;
  auto waiter = [](Watermark* w, uint64_t lsn, int tag,
                   std::vector<int>* order) -> Task<> {
    co_await w->WaitFor(lsn);
    order->push_back(tag);
  };
  Spawn(s, waiter(&w, 100, 1, &order));
  Spawn(s, waiter(&w, 50, 2, &order));
  Spawn(s, waiter(&w, 100, 3, &order));
  Spawn(s, waiter(&w, 200, 4, &order));
  s.Run();
  EXPECT_TRUE(order.empty());
  w.Advance(100);  // wakes 2, then 1 and 3 (registration order within 100)
  s.Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 3);
  w.Advance(500);
  s.Run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[3], 4);
}

TEST(TraceHashTest, SameScheduleSameHash) {
  auto run = [] {
    Simulator s;
    s.EnableTraceHash();
    int n = 0;
    for (int i = 0; i < 50; i++) {
      s.ScheduleAt(10 * (i % 7), [&n] { n++; });
    }
    s.Run();
    return s.trace_hash();
  };
  const uint64_t h1 = run();
  const uint64_t h2 = run();
  EXPECT_EQ(h1, h2);
}

}  // namespace
}  // namespace sim
}  // namespace socrates
