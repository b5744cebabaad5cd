// Network fabric, in two wire models.
//
//  * kSharedBus (default): the testbed's 10 Mbit Ethernet. One shared
//    medium serialises transmissions FCFS at `wire_bytes_per_sec` and adds
//    a fixed propagation+driver latency. Exactly the paper's environment;
//    every two-Perq trial and the golden digest run through this path.
//
//  * kSwitched: a datacenter-row switch. Each host owns a private egress
//    port serialising its own transmissions; ports never contend with each
//    other. Fleet-scale cluster trials run on this model.
//
// CPU costs of handling messages belong to the NetMsgServers (src/netmsg)
// — the wire itself is fast; the paper's bottleneck is software, and the
// model keeps those costs separate on purpose so ablations can vary them
// independently.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/types.h"
#include "src/host/calibration.h"
#include "src/host/costs.h"
#include "src/net/fault.h"
#include "src/net/traffic.h"
#include "src/sim/simulator.h"

namespace accent {

enum class WireModel : int {
  kSharedBus = 0,  // one medium, FCFS — the paper's Ethernet
  kSwitched = 1,   // per-host egress ports — the datacenter row
};

class Network {
 public:
  Network(Simulator* sim, const CostTable* costs, TrafficRecorder* recorder)
      : sim_(*sim), costs_(*costs), recorder_(recorder) {
    ACCENT_EXPECTS(sim != nullptr && costs != nullptr);
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Ships `bytes` from `from` to `to`; `deliver` runs at the receiver once
  // the bytes have fully arrived. Bytes are recorded under `kind` at the
  // time transmission starts (matching how the paper's monitor counted).
  void Transmit(HostId from, HostId to, ByteCount bytes, TrafficKind kind,
                std::function<void()> deliver);

  // Switches to the kSwitched wire model with `host_count` egress ports.
  // Hosts must carry the dense ids 1..host_count (the Testbed/cluster
  // convention). Call before any transmission; incompatible with fault
  // injection (the switched fabric models a reliable datacenter row).
  void ConfigureSwitched(int host_count);
  WireModel wire_model() const { return model_; }

  // Per-host link calibrations, indexed by host id - 1 (the dense-id
  // convention). A transmission's serialization bandwidth and propagation
  // latency come from the *sender's* link — its egress NIC/driver in the
  // switched model, its transceiver on the shared bus. An empty vector (the
  // default) or all-identity entries keep the uncalibrated arithmetic
  // byte-for-byte. Call before any transmission.
  void SetHostCalibrations(const std::vector<HostCalibration>& calibrations);
  bool calibrated() const { return calibrated_; }

  // Attaches a fault injector consulted once per transmission. Null (the
  // default) keeps the wire perfectly reliable and the event schedule
  // bit-identical to the injector-free build; deliveries to a host inside a
  // crash window are additionally discarded at arrival time.
  void set_fault_injector(FaultInjector* injector) {
    ACCENT_EXPECTS(injector == nullptr || model_ == WireModel::kSharedBus);
    fault_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_; }

  std::uint64_t transmissions() const { return transmissions_; }
  ByteCount bytes_carried() const { return bytes_carried_; }
  std::uint64_t deliveries_lost() const { return deliveries_lost_; }
  TrafficRecorder* recorder() const { return recorder_; }

 private:
  Simulator& sim_;
  const CostTable& costs_;
  TrafficRecorder* recorder_;  // may be null (micro tests, fleet trials)
  FaultInjector* fault_ = nullptr;  // may be null (reliable wire)
  WireModel model_ = WireModel::kSharedBus;
  // Heterogeneous links: per-sender serialization bandwidth and latency,
  // precomputed from the calibrations (empty when uncalibrated).
  bool calibrated_ = false;
  std::vector<double> egress_bytes_per_sec_;
  std::vector<SimDuration> egress_latency_;
  SimTime wire_busy_until_{0};
  // kSwitched: per-host egress availability, indexed by host id - 1.
  std::vector<SimTime> egress_busy_until_;
  std::uint64_t transmissions_ = 0;
  ByteCount bytes_carried_ = 0;
  std::uint64_t deliveries_lost_ = 0;  // dropped, blocked, dead on arrival
};

}  // namespace accent

#endif  // SRC_NET_NETWORK_H_
