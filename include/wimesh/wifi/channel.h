#pragma once

// Shared-medium wireless channel.
//
// Default (protocol) model: a reception is lost if any other transmission
// audible at the receiver overlaps it in time (no capture effect), if the
// receiver itself transmits during it (half-duplex), or if the Bernoulli
// error process fires. Audibility is the binary RadioModel range test.
//
// With a physical radio environment attached (set_radio), reception turns
// probabilistic: concurrent transmitters accumulate interference power at
// each receiver, the frame survives iff its SINR clears the capture
// threshold and the per-rate SNR→PER curve's coin flip, carrier sense
// fires on received power crossing the CS threshold (so fading and walls
// shape who defers to whom), and unicast data may ride an adapted rate
// picked by the Minstrel-style controller. Half-duplex loss and the
// legacy Bernoulli/impairment stages behave identically in both models.
//
// Propagation delay is negligible at mesh ranges (< 2 µs) and is modelled
// as zero; carrier sensing is therefore instantaneous, which is the
// standard simplification for protocol-model simulators.

#include <cstdint>
#include <memory>
#include <vector>

#include "wimesh/common/rng.h"
#include "wimesh/des/simulator.h"
#include "wimesh/graph/topology.h"
#include "wimesh/phy/phy.h"
#include "wimesh/phy/radio_model.h"
#include "wimesh/radio/medium.h"
#include "wimesh/radio/minstrel.h"
#include "wimesh/wifi/packet.h"

namespace wimesh {

struct WifiFrame {
  enum class Type { kData, kAck, kRts, kCts };
  Type type = Type::kData;
  MacPacket packet;        // for control frames, packet.id ties the exchange
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;  // kInvalidNode = broadcast (data only)
  // NAV reservation carried by the frame (RTS/CTS/DATA duration field):
  // how long the medium stays reserved after this frame ends.
  SimTime nav{};
};

// Passive observer of every transmission the channel carries. Used by the
// runtime invariant auditor (wimesh/audit) to check the deployed schedule's
// conflict-freedom; the probe must not re-enter the channel.
class ChannelProbe {
 public:
  virtual ~ChannelProbe() = default;
  // `frame` just started transmitting; it leaves the air at `end`.
  virtual void on_transmission_start(const WifiFrame& frame, SimTime end) = 0;
};

// Per-reception impairment hook (fault injection: link outages, Gilbert–
// Elliott PER bursts — wimesh/faults). Consulted for every otherwise-clean
// reception; returning true corrupts it. May draw its own randomness, so
// the channel's Bernoulli error stream is untouched by its presence.
class ChannelImpairment {
 public:
  virtual ~ChannelImpairment() = default;
  virtual bool corrupts(NodeId tx, NodeId rx, SimTime now) = 0;
};

// The channel's view of a MAC.
class MacInterface {
 public:
  virtual ~MacInterface() = default;
  // Carrier-sense edge notifications; the channel may nest busy periods, so
  // implementations count (busy while count > 0).
  virtual void on_medium_busy() = 0;
  virtual void on_medium_idle() = 0;
  // A frame decoded successfully at this node.
  virtual void on_frame_received(const WifiFrame& frame) = 0;
};

class WifiChannel {
 public:
  // When `deliver_overheard` is set, unicast frames are decoded by every
  // node in range (not just the addressee) so MACs can honor NAV
  // reservations from overheard RTS/CTS. Off by default: overhearing costs
  // events and only the RTS/CTS mode needs it.
  WifiChannel(Simulator& sim, std::vector<Point> positions, RadioModel radio,
              PhyMode phy, ErrorModel error, Rng rng,
              bool deliver_overheard = false);

  // Registers the MAC entity for a node; required before it can transmit
  // or hear anything.
  void attach(NodeId node, MacInterface* mac);

  // Installs a transmission observer (nullptr to remove). Not owned.
  void set_probe(ChannelProbe* probe) { probe_ = probe; }

  // Installs a reception impairment (nullptr to remove). Not owned.
  void set_impairment(ChannelImpairment* impairment) {
    impairment_ = impairment;
  }

  // Attaches a physical radio environment (nullptr to detach; not owned;
  // must outlive the channel). Switches reception, carrier sense and — when
  // the environment enables it — rate adaptation to the physical model
  // described in the header comment. Call before any transmission.
  void set_radio(const radio::RadioEnvironment* env);

  // Node liveness (fault injection). A down node radiates nothing — its
  // transmissions neither occupy the medium nor reach any receiver — and
  // decodes nothing. All nodes start up.
  void set_node_up(NodeId node, bool up);
  bool node_up(NodeId node) const {
    return node_up_[static_cast<std::size_t>(node)] != 0;
  }

  // Starts a transmission now; the caller must itself respect CSMA timing.
  // Returns the on-air duration (caller schedules its own tx-end handling).
  SimTime transmit(const WifiFrame& frame);

  SimTime frame_airtime(const WifiFrame& frame) const;

  const PhyMode& phy() const { return phy_; }
  NodeId node_count() const {
    return static_cast<NodeId>(positions_.size());
  }

  // Diagnostics.
  std::uint64_t frames_transmitted() const { return frames_transmitted_; }
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t receptions_corrupted() const { return receptions_corrupted_; }

 private:
  struct Reception {
    WifiFrame frame;
    NodeId rx = kInvalidNode;
    bool corrupted = false;
    // Physical model only: signal power at reception start and the summed
    // power of every transmission that overlapped it (SINR denominator).
    double signal_dbm = 0.0;
    double interference_mw = 0.0;
    int interferers = 0;
  };
  struct ActiveTx {
    std::uint64_t key;
    NodeId tx;
    SimTime end;
    // Whether the transmitter was up at transmit start; fixed for the
    // transmission's lifetime so the busy/idle carrier-sense edges it
    // produced stay balanced even if liveness changes mid-air.
    bool radiated = true;
    // Rate-table index this frame went out at (physical model; control
    // frames and non-adapted data use the base rate).
    std::size_t rate_idx = 0;
    // Nodes whose carrier sense went busy at tx start, ascending; the idle
    // edges at tx end replay this list, so busy/idle stay balanced even
    // though fading varies between the two instants, and the protocol model
    // needs no second range scan.
    std::vector<NodeId> cs_nodes;
    std::vector<Reception> receptions;
  };

  // The three places where the protocol and physical models differ; each
  // branches once on radio_env_.
  //
  // Whether `n` senses `tx`'s carrier. Protocol: within interference
  // range. Physical: received power at or above the CS threshold.
  bool senses(NodeId tx, NodeId n, SimTime now) const;
  // Whether `rx` attempts to decode `frame`. Protocol: within
  // communication range. Physical: the addressee always tries, anyone
  // else when the signal crosses the CS threshold; fills `signal_dbm`.
  bool reaches(const WifiFrame& frame, NodeId rx, double* signal_dbm,
               SimTime now) const;
  // Applies `interferer`'s transmission to reception `r`; true when it
  // corrupts `r` now. Protocol: true iff within interference range of the
  // receiver. Physical: adds its power to the SINR denominator and returns
  // false, leaving the verdict to decode time.
  bool interfere(Reception& r, NodeId interferer, SimTime now) const;
  bool node_transmitting(NodeId n) const;
  void finish_transmission(std::uint64_t key);

  Simulator& sim_;
  std::vector<Point> positions_;
  RadioModel radio_;
  PhyMode phy_;
  ErrorModel error_;
  Rng rng_;
  bool deliver_overheard_ = false;
  ChannelProbe* probe_ = nullptr;
  ChannelImpairment* impairment_ = nullptr;
  const radio::RadioEnvironment* radio_env_ = nullptr;
  std::vector<PhyMode> rate_modes_;  // airtime per rate-table index
  std::unique_ptr<radio::RateController> rate_ctrl_;
  std::vector<MacInterface*> macs_;
  std::vector<char> node_up_;
  std::vector<ActiveTx> active_;
  std::uint64_t next_key_ = 1;
  std::uint64_t frames_transmitted_ = 0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t receptions_corrupted_ = 0;
};

}  // namespace wimesh
