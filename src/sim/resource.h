#ifndef MDW_SIM_RESOURCE_H_
#define MDW_SIM_RESOURCE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "sim/event_queue.h"

namespace mdw {

/// A single FCFS server over the event queue: requests queue up and are
/// served one at a time. The service demand is computed when service
/// *begins* (a function), because e.g. a disk's seek time depends on the
/// head position left by the previous request. Models CSIM's facility.
class FcfsServer {
 public:
  FcfsServer(EventQueue* queue, std::string name);

  /// Enqueues a request; `demand_ms` is evaluated at service start and
  /// `done` runs at service completion.
  void Request(std::function<double()> demand_ms, std::function<void()> done);

  const std::string& name() const { return name_; }
  double busy_ms() const { return busy_ms_; }
  std::int64_t completed() const { return completed_; }

  /// Utilisation over [0, horizon].
  double Utilization(SimTime horizon) const {
    return horizon <= 0 ? 0 : busy_ms_ / horizon;
  }

 private:
  struct Pending {
    std::function<double()> demand_ms;
    std::function<void()> done;
  };

  void StartNext();

  EventQueue* queue_;
  std::string name_;
  bool busy_ = false;
  double busy_ms_ = 0;
  std::int64_t completed_ = 0;
  std::deque<Pending> pending_;
};

}  // namespace mdw

#endif  // MDW_SIM_RESOURCE_H_
