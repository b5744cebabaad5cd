// Discrete-event simulation kernel.
//
// All "concurrency" in the reproduced system — processes executing, pagers
// servicing faults, NetMsgServers shipping fragments, wires serialising
// bytes — is expressed as events on one priority queue ordered by simulated
// time. Events scheduled for the same instant run in FIFO order, which
// keeps trials deterministic.
//
// Hot-path notes: the queue is a binary heap laid out in a std::vector
// whose storage is reserved up front and retained across pops, and each
// event carries a small-buffer-optimised InlineEvent instead of a
// heap-allocated std::function, so steady-state scheduling performs no
// allocation.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/base/types.h"
#include "src/sim/event.h"
#include "src/trace/trace.h"

namespace accent {

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute simulated time `when` (>= Now()). Accepts any
  // void() callable; small captures are stored inline (see event.h).
  void ScheduleAt(SimTime when, InlineEvent fn);

  // Schedules `fn` after `delay` of simulated time.
  void ScheduleAfter(SimDuration delay, InlineEvent fn) {
    ScheduleAt(Now() + delay, std::move(fn));
  }

  // Runs until the event queue drains or Stop() is called. Returns the
  // number of events executed.
  std::uint64_t Run();

  // Runs until `deadline`; events at exactly `deadline` are executed.
  // Returns true if the queue drained before the deadline.
  bool RunUntil(SimTime deadline);

  // Makes Run() return after the current event completes.
  void Stop() { stopped_ = true; }

  bool empty() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }

  // Scheduled times of up to `limit` earliest pending events, ascending.
  // Diagnostic surface for watchdogs: a stuck simulation dumps what it was
  // still waiting on instead of timing out silently.
  std::vector<SimTime> PendingEventTimes(std::size_t limit) const;

  std::uint64_t events_executed() const { return events_executed_; }

  // Process/port/segment id allocator (ids are unique per simulation).
  std::uint64_t AllocateId() { return ++last_id_; }

  // Optional observability hook. The simulator does not own the tracer;
  // callers must keep it alive for the simulation's lifetime. Instrumented
  // subsystems reach it through here (sim.tracer()), so one assignment
  // enables tracing everywhere. Null (the default) disables all recording.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

 private:
  static constexpr std::size_t kInitialQueueCapacity = 1024;

  struct Event {
    SimTime when;
    std::uint64_t seq;
    InlineEvent fn;
  };
  // Heap comparator: the "largest" element (heap top) is the earliest event;
  // ties broken by sequence number for same-instant FIFO order.
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  void RunOne();

  // Binary heap over queue_ (std::push_heap/pop_heap with EventLater).
  std::vector<Event> queue_;
  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_id_ = 0;
  std::uint64_t events_executed_ = 0;
  bool stopped_ = false;
  Tracer* tracer_ = nullptr;  // not owned
};

}  // namespace accent

#endif  // SRC_SIM_SIMULATOR_H_
