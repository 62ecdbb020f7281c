#include "wimesh/wifi/channel.h"

#include <algorithm>

#include "wimesh/trace/trace.h"

namespace wimesh {
namespace {

constexpr std::size_t kAckBytes = 14;
constexpr std::size_t kRtsBytes = 20;
constexpr std::size_t kCtsBytes = 14;

// Fading this deep at reception start is worth flagging in the trace:
// -10 dB turns a 20 dB SNR margin into borderline decode territory.
constexpr double kDeepFadeDb = -10.0;

// On-air size per frame type — what the PER curves integrate over.
std::size_t frame_bytes(const WifiFrame& frame) {
  switch (frame.type) {
    case WifiFrame::Type::kAck:
      return kAckBytes;
    case WifiFrame::Type::kRts:
      return kRtsBytes;
    case WifiFrame::Type::kCts:
      return kCtsBytes;
    case WifiFrame::Type::kData:
      break;
  }
  return frame.packet.bytes + kMacOverheadBytes;
}

}  // namespace

WifiChannel::WifiChannel(Simulator& sim, std::vector<Point> positions,
                         RadioModel radio, PhyMode phy, ErrorModel error,
                         Rng rng, bool deliver_overheard)
    : sim_(sim),
      positions_(std::move(positions)),
      radio_(radio),
      phy_(std::move(phy)),
      error_(error),
      rng_(rng),
      deliver_overheard_(deliver_overheard),
      macs_(positions_.size(), nullptr),
      node_up_(positions_.size(), 1) {}

void WifiChannel::set_node_up(NodeId node, bool up) {
  WIMESH_ASSERT(node >= 0 && node < node_count());
  node_up_[static_cast<std::size_t>(node)] = up ? 1 : 0;
}

void WifiChannel::set_radio(const radio::RadioEnvironment* env) {
  radio_env_ = env;
  rate_ctrl_.reset();
  rate_modes_.clear();
  if (env == nullptr) return;
  WIMESH_ASSERT(env->node_count() == node_count());
  rate_modes_.reserve(env->rates().size());
  for (std::size_t i = 0; i < env->rates().size(); ++i) {
    rate_modes_.push_back(env->rates().phy_mode(i));
  }
  if (env->config().rate_adapt.enabled) {
    rate_ctrl_ = std::make_unique<radio::RateController>(
        &env->rates(), env->base_rate_index(), env->config().rate_adapt);
  }
}

void WifiChannel::attach(NodeId node, MacInterface* mac) {
  WIMESH_ASSERT(node >= 0 && node < node_count());
  WIMESH_ASSERT(mac != nullptr);
  WIMESH_ASSERT_MSG(macs_[static_cast<std::size_t>(node)] == nullptr,
                    "node already has a MAC attached");
  macs_[static_cast<std::size_t>(node)] = mac;
}

SimTime WifiChannel::frame_airtime(const WifiFrame& frame) const {
  switch (frame.type) {
    case WifiFrame::Type::kAck:
      return phy_.ack_airtime();
    case WifiFrame::Type::kRts:
      // Control frames go at the base rate; reuse the ACK path by size
      // ratio — RTS is 20 B vs ACK's 14 B, both a handful of OFDM symbols.
      return phy_.ack_airtime() +
             (phy_.airtime(kRtsBytes) - phy_.airtime(kCtsBytes));
    case WifiFrame::Type::kCts:
      return phy_.ack_airtime();
    case WifiFrame::Type::kData:
      break;
  }
  return phy_.airtime(frame.packet.bytes + kMacOverheadBytes);
}

bool WifiChannel::node_transmitting(NodeId n) const {
  return std::any_of(active_.begin(), active_.end(),
                     [n](const ActiveTx& t) { return t.tx == n; });
}

bool WifiChannel::senses(NodeId tx, NodeId n, SimTime now) const {
  if (radio_env_ == nullptr) {
    return radio_.interferes(positions_[static_cast<std::size_t>(tx)],
                             positions_[static_cast<std::size_t>(n)]);
  }
  return radio_env_->rx_power_dbm(tx, n, now) >=
         radio_env_->cs_threshold_dbm();
}

bool WifiChannel::reaches(const WifiFrame& frame, NodeId rx,
                          double* signal_dbm, SimTime now) const {
  if (radio_env_ == nullptr) {
    return radio_.can_communicate(
        positions_[static_cast<std::size_t>(frame.from)],
        positions_[static_cast<std::size_t>(rx)]);
  }
  // The addressee always attempts the decode (its PER verdict needs the
  // full power budget); other nodes only bother when the signal crosses
  // their detection (carrier-sense) threshold.
  *signal_dbm = radio_env_->rx_power_dbm(frame.from, rx, now);
  return frame.to == rx || *signal_dbm >= radio_env_->cs_threshold_dbm();
}

bool WifiChannel::interfere(Reception& r, NodeId interferer,
                            SimTime now) const {
  if (radio_env_ == nullptr) {
    return radio_.interferes(positions_[static_cast<std::size_t>(interferer)],
                             positions_[static_cast<std::size_t>(r.rx)]);
  }
  // Raises the reception's interference floor; whether that kills the
  // decode is settled by SINR at decode time.
  r.interference_mw +=
      radio::dbm_to_mw(radio_env_->rx_power_dbm(interferer, r.rx, now));
  ++r.interferers;
  return false;
}

SimTime WifiChannel::transmit(const WifiFrame& frame) {
  const NodeId tx = frame.from;
  WIMESH_ASSERT(tx >= 0 && tx < node_count());
  WIMESH_ASSERT_MSG(!node_transmitting(tx),
                    "node started a second simultaneous transmission");
  // Rate selection: unicast data may ride an adapted rate; everything else
  // (control frames, broadcast) stays at the base rate, exactly like real
  // 802.11. Adapted rates are never below the base rate (the controller's
  // floor), so the airtime can only shrink relative to what TDMA slot
  // sizing and DCF NAV estimates assumed.
  std::size_t rate_idx =
      radio_env_ != nullptr ? radio_env_->base_rate_index() : 0;
  if (rate_ctrl_ != nullptr && frame.type == WifiFrame::Type::kData &&
      frame.to != kInvalidNode) {
    rate_idx = rate_ctrl_->link(tx, frame.to).pick_rate();
  }
  const SimTime duration =
      (radio_env_ != nullptr && frame.type == WifiFrame::Type::kData &&
       rate_idx != radio_env_->base_rate_index())
          ? rate_modes_[rate_idx].airtime(frame.packet.bytes +
                                          kMacOverheadBytes)
          : frame_airtime(frame);
  const SimTime end = sim_.now() + duration;

  ActiveTx record;
  record.key = next_key_++;
  record.tx = tx;
  record.end = end;
  record.rate_idx = rate_idx;
  // A down transmitter's MAC still goes through the motions (it cannot know
  // it is dead), but nothing leaves the antenna: no interference, no
  // receptions, no carrier sense, and the auditor never sees the frame.
  record.radiated = node_up_[static_cast<std::size_t>(tx)] != 0;

  if (record.radiated) {
    const SimTime now = sim_.now();
    ++frames_transmitted_;
    trace::event(trace::EventType::kTxStart, now, tx, frame.to,
                 static_cast<std::int64_t>(frame.type), duration.ns(),
                 static_cast<std::int64_t>(frame.packet.bytes));
    if (probe_ != nullptr) probe_->on_transmission_start(frame, end);

    const auto corrupt = [&](Reception& r, trace::RxDropCause cause) {
      r.corrupted = true;
      ++receptions_corrupted_;
      trace::event(trace::EventType::kRxCorrupted, now, r.rx, r.frame.from,
                   static_cast<std::int64_t>(cause));
    };

    // The new transmission hits every ongoing reception: half-duplex loss
    // at its own antenna, the model's interference rule everywhere else.
    for (ActiveTx& ongoing : active_) {
      for (Reception& r : ongoing.receptions) {
        if (r.corrupted) continue;
        if (r.rx == tx) {
          corrupt(r, trace::RxDropCause::kHalfDuplex);
        } else if (interfere(r, tx, now)) {
          corrupt(r, trace::RxDropCause::kCollision);
        }
      }
    }

    // Receptions begin at every node the frame reaches. One starts
    // corrupted if the receiver is itself mid-transmission or an ongoing
    // transmission already ruins it; the first culprit names the cause.
    const auto begin_reception = [&](NodeId rx) {
      if (rx == tx) return;
      if (node_up_[static_cast<std::size_t>(rx)] == 0) return;
      if (macs_[static_cast<std::size_t>(rx)] == nullptr) return;
      double signal_dbm = 0.0;
      if (!reaches(frame, rx, &signal_dbm, now)) return;
      Reception r;
      r.frame = frame;
      r.rx = rx;
      r.signal_dbm = signal_dbm;
      for (const ActiveTx& ongoing : active_) {
        if (!ongoing.radiated) continue;
        if (ongoing.tx == rx) {
          corrupt(r, trace::RxDropCause::kHalfDuplex);
          break;
        }
        if (interfere(r, ongoing.tx, now)) {
          corrupt(r, trace::RxDropCause::kCollision);
          break;
        }
      }
      if (radio_env_ != nullptr && frame.to == rx) {
        const double fade = radio_env_->fading_gain_db(tx, rx, now);
        if (fade <= kDeepFadeDb) {
          trace::event(trace::EventType::kRadioFadeDeep, now, rx, tx,
                       static_cast<std::int64_t>(fade * 100.0));
        }
      }
      record.receptions.push_back(std::move(r));
    };

    if (frame.to == kInvalidNode || deliver_overheard_) {
      for (NodeId rx = 0; rx < node_count(); ++rx) begin_reception(rx);
    } else {
      begin_reception(frame.to);
    }

    // Carrier sense. The busy set is remembered so the idle edges at tx end
    // match it exactly, whatever fading or liveness does meanwhile.
    for (NodeId n = 0; n < node_count(); ++n) {
      if (n == tx || macs_[static_cast<std::size_t>(n)] == nullptr) continue;
      if (senses(tx, n, now)) {
        record.cs_nodes.push_back(n);
        macs_[static_cast<std::size_t>(n)]->on_medium_busy();
      }
    }
  }

  const std::uint64_t key = record.key;
  active_.push_back(std::move(record));
  sim_.schedule_at(end, [this, key] { finish_transmission(key); });
  return duration;
}

void WifiChannel::finish_transmission(std::uint64_t key) {
  const auto it =
      std::find_if(active_.begin(), active_.end(),
                   [key](const ActiveTx& t) { return t.key == key; });
  WIMESH_ASSERT(it != active_.end());
  ActiveTx done = std::move(*it);
  active_.erase(it);

  // Carrier sense falls first so MACs see a consistent idle medium when the
  // decode callbacks run. The idle edges replay the busy edges raised at
  // transmit start (none if the transmitter was down then).
  for (NodeId n : done.cs_nodes) {
    macs_[static_cast<std::size_t>(n)]->on_medium_idle();
  }

  // Decode arbitration for one reception. Stage order: in-flight
  // corruption, receiver liveness, injected impairments, then (physical
  // model) SINR capture + the per-rate PER coin, then the legacy Bernoulli
  // error process.
  const auto decodes = [&](const Reception& r) -> bool {
    if (r.corrupted) return false;
    // A receiver that crashed mid-reception decodes nothing.
    if (node_up_[static_cast<std::size_t>(r.rx)] == 0) return false;
    if (impairment_ != nullptr &&
        impairment_->corrupts(done.tx, r.rx, sim_.now())) {
      ++receptions_corrupted_;
      trace::event(trace::EventType::kRxCorrupted, sim_.now(), r.rx, done.tx,
                   static_cast<std::int64_t>(trace::RxDropCause::kImpairment));
      return false;
    }
    if (radio_env_ != nullptr) {
      const double sinr =
          radio_env_->sinr_db(r.signal_dbm, r.interference_mw);
      if (r.interference_mw > 0.0 &&
          sinr < radio_env_->capture_threshold_db()) {
        ++receptions_corrupted_;
        trace::event(
            trace::EventType::kRxCorrupted, sim_.now(), r.rx, done.tx,
            static_cast<std::int64_t>(trace::RxDropCause::kCollision));
        return false;
      }
      const double per = radio_env_->rates().per(done.rate_idx, sinr,
                                                 frame_bytes(r.frame));
      if (per > 0.0 && rng_.chance(per)) {
        ++receptions_corrupted_;
        trace::event(trace::EventType::kRxCorrupted, sim_.now(), r.rx,
                     done.tx,
                     static_cast<std::int64_t>(trace::RxDropCause::kSinr));
        return false;
      }
      if (r.interference_mw > 0.0) {
        // Survived concurrent interference: the capture effect the binary
        // protocol model cannot express.
        trace::event(trace::EventType::kRadioCapture, sim_.now(), r.rx,
                     done.tx, static_cast<std::int64_t>(sinr * 100.0),
                     r.interferers);
      }
    }
    if (error_.packet_error_rate > 0.0 &&
        rng_.chance(error_.packet_error_rate)) {
      ++receptions_corrupted_;
      trace::event(trace::EventType::kRxCorrupted, sim_.now(), r.rx, done.tx,
                   static_cast<std::int64_t>(trace::RxDropCause::kPer));
      return false;
    }
    return true;
  };

  for (const Reception& r : done.receptions) {
    const bool ok = decodes(r);
    if (ok) {
      // Overheard copies inform NAV but do not count as deliveries.
      if (r.frame.to == kInvalidNode || r.frame.to == r.rx) {
        ++frames_delivered_;
      }
      macs_[static_cast<std::size_t>(r.rx)]->on_frame_received(r.frame);
    }
    // Rate adaptation learns from the addressee's fate — a proxy for the
    // ACK feedback a real transmitter gets.
    if (rate_ctrl_ != nullptr && r.frame.type == WifiFrame::Type::kData &&
        r.frame.to == r.rx) {
      radio::MinstrelLink& link = rate_ctrl_->link(done.tx, r.rx);
      if (link.on_result(done.rate_idx, ok)) {
        const std::size_t best = link.best_rate();
        trace::event(
            trace::EventType::kRadioRateSwitch, sim_.now(), done.tx, r.rx,
            static_cast<std::int64_t>(best),
            radio_env_->rates().entry(best).rate_mbps);
      }
    }
  }
}

}  // namespace wimesh
