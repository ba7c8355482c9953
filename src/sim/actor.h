// Actor base class: anything that receives messages from the network.
#pragma once

#include "src/sim/event_core.h"
#include "src/sim/message.h"
#include "src/sim/time.h"

namespace optilog {

// Actors are also timer targets so protocol replicas can arm typed timers
// (Simulator::ScheduleTimer) without allocating closures; the default
// ignores expirations for actors that never arm one.
class Actor : public TimerTarget {
 public:
  ~Actor() override = default;

  // Delivery of a message sent by `from`. `at` is the delivery time (equal
  // to Simulator::now() during the call).
  virtual void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) = 0;

  void OnTimer(uint64_t tag, SimTime at) override {
    (void)tag;
    (void)at;
  }
};

}  // namespace optilog
