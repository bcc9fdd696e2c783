// GatewayCoalescer / GatewayMailbox — cross-datacenter mailbox routing at
// the top of the transport stack (the hive-style inter-cluster mailbox of
// ROADMAP's geo-replication item).
//
// With a two-level topology (topo::Topology) every cross-cell protocol
// message would otherwise pay its own WAN frame. This layer lets each cell
// designate a *gateway* site that aggregates its cell's outbound cross-DC
// traffic: a sender hands a cross-cell message to its own gateway (an
// intra-cell "enroute" hop, skipped when the sender is the gateway), the
// gateway appends it to a per-destination-cell mailbox, and the mailbox
// ships as one *mailbox frame* over the WAN link when a threshold trips —
// message count, accumulated bytes, or a flush timer. The receiving
// gateway validates the whole frame, then fans the messages out locally in
// frame order (direct handler delivery, like BatchingTransport unpacking).
//
// Wire format (all little-endian), reusing the 0xB4 coalescing layout with
// a cell-routing header:
//
//   mailbox frame:  [0xB5][origin_cell u16][dest_cell u16][count u32]
//                   then per message [len u32][from u16][to u16][payload]
//                   (len covers the 4 routing bytes + payload);
//   enroute frame:  [0xB6][to u16][payload] — sender -> own gateway.
//
// Both tags are disjoint from every other frame first byte on the wire
// (Envelope kinds 0–2, ReliableChannel 0xD1/0xA2/0xA3, BatchCoalescer
// 0xB4), so a mis-routed frame is detected rather than misparsed.
//
// FIFO per origin site is preserved end to end: a (s, t) cross-cell pair's
// messages all take the fixed route s -> gw(s) -> gw(t) -> t, and every
// stage keeps their relative order — the s -> gw(s) channel is FIFO, the
// mailbox appends in arrival order, the gw(s) -> gw(t) channel ships
// frames in flush order, and fan-out walks each frame in append order.
//
// With coalescing off (GatewayConfig::enabled = false) the layer is a
// counting pass-through: every send goes directly to its destination, but
// the scope-split msg.{lan,wan}.* accounting still runs — that is the
// A/B baseline lane of bench/ext_geo.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "net/timer.hpp"
#include "net/transport.hpp"
#include "serial/buffer_pool.hpp"

namespace causim::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace causim::obs

namespace causim::net {

/// Cross-DC mailbox thresholds, validated by engine::validate.
struct GatewayConfig {
  /// Coalesce cross-cell traffic through the cell gateways. Off (the
  /// default) keeps direct site-to-site delivery; the layer then only
  /// splits the msg.{lan,wan}.* accounting by scope.
  bool enabled = false;
  /// Ship a mailbox when it holds this many messages.
  std::uint32_t max_messages = 16;
  /// Ship when the accumulated frame reaches this many bytes (headers
  /// included). A single oversized message still ships as a frame of one.
  std::size_t max_bytes = 16 * 1024;
  /// Ship a non-empty mailbox this long after its first buffered message
  /// (µs, simulated or real per the TimerDriver).
  SimTime max_delay = 1 * kMillisecond;
};

/// Site → cell map plus per-cell gateway designation, precomputed from a
/// validated topo::Topology (see Topology::routing). Lives here so the
/// transport layer needs no dependency on causim_topo.
struct CellRouting {
  /// cell_of[site] — every site belongs to exactly one cell.
  std::vector<std::uint16_t> cell_of;
  /// gateways[cell] — the designated gateway site of each cell.
  std::vector<SiteId> gateways;

  std::size_t cells() const { return gateways.size(); }
  bool same_cell(SiteId a, SiteId b) const { return cell_of[a] == cell_of[b]; }
};

/// The pure per-mailbox state machine — no transport, no timers, no locks
/// — mirroring BatchCoalescer so property tests can drive the framing and
/// decode boundaries directly (tests/test_gateway.cpp).
class GatewayCoalescer {
 public:
  /// Mailbox frame tag (gateway -> gateway).
  static constexpr std::uint8_t kMailboxFrame = 0xB5;
  /// Enroute frame tag (sender -> own gateway).
  static constexpr std::uint8_t kEnrouteFrame = 0xB6;
  /// u8 tag + u16 origin cell + u16 dest cell + u32 message count.
  static constexpr std::size_t kFrameHeaderBytes = 9;
  /// u32 length prefix + u16 from + u16 to per mailbox message.
  static constexpr std::size_t kPerMessageBytes = 8;
  /// u8 tag + u16 final destination.
  static constexpr std::size_t kEnrouteHeaderBytes = 3;

  /// Why a mailbox shipped (same taxonomy as BatchCoalescer::Flush).
  enum class Flush : std::uint8_t {
    kCount = 0,  // max_messages reached
    kSize,       // max_bytes reached
    kTimer,      // flush timer fired
    kForced,     // explicit flush (drain/shutdown)
  };

  /// One mailbox aggregates origin_cell's traffic towards dest_cell.
  GatewayCoalescer(GatewayConfig config, std::uint16_t origin_cell,
                   std::uint16_t dest_cell);

  /// Frames are acquired from `pool` and consumed payloads released back to
  /// it; null falls back to plain allocation.
  void set_buffer_pool(serial::BufferPool* pool) { pool_ = pool; }

  struct Frame {
    serial::Bytes bytes;
    Flush reason = Flush::kForced;
    std::uint32_t messages = 0;
  };

  /// Appends one (from, to, payload) message to the pending frame (the
  /// payload buffer is consumed and recycled). Returns the completed frame
  /// when this append tripped the count or size threshold.
  std::optional<Frame> append(SiteId from, SiteId to, serial::Bytes&& payload);

  /// Ships the pending frame (timer fired or the stack is draining);
  /// nullopt when the mailbox is empty.
  std::optional<Frame> flush(Flush reason = Flush::kForced);

  std::uint32_t buffered_messages() const { return pending_messages_; }
  std::size_t buffered_bytes() const { return pending_.size(); }

  // -- lifetime counters --
  std::uint64_t frames() const { return frames_; }
  std::uint64_t messages() const { return messages_; }
  std::uint64_t flushes(Flush reason) const {
    return flushes_[static_cast<std::size_t>(reason)];
  }

  /// Validates a mailbox frame completely (tag, cells, count, every length
  /// prefix and routing header, exact trailing boundary) and then invokes
  /// `fn(from, to, data, len)` once per message in append order. Returns
  /// false — without invoking `fn` at all — on any violation: a truncated
  /// or corrupted frame must never deliver a partial mailbox.
  static bool try_decode(
      const serial::Bytes& frame, std::uint16_t& origin_cell,
      std::uint16_t& dest_cell,
      const std::function<void(SiteId from, SiteId to, const std::uint8_t* data,
                               std::size_t len)>& fn);

  /// Wraps `payload` for the sender -> gateway hop. Acquires from `pool`
  /// when non-null and consumes (recycles) the payload buffer.
  static serial::Bytes encode_enroute(SiteId to, serial::Bytes&& payload,
                                      serial::BufferPool* pool);

  /// Splits an enroute frame into its final destination and payload view
  /// (into `frame`'s storage — zero copy). False on truncation/bad tag.
  static bool try_decode_enroute(const serial::Bytes& frame, SiteId& to,
                                 const std::uint8_t*& data, std::size_t& len);

 private:
  serial::Bytes acquire();
  void recycle(serial::Bytes&& buffer);

  GatewayConfig config_;
  std::uint16_t origin_cell_;
  std::uint16_t dest_cell_;
  serial::BufferPool* pool_ = nullptr;
  /// The frame under construction: header written on the first append, the
  /// count patched in place at flush time.
  serial::Bytes pending_;
  std::uint32_t pending_messages_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t flushes_[4] = {0, 0, 0, 0};
};

/// Transport decorator routing cross-cell traffic through per-cell gateway
/// mailboxes. The topmost decorator — sites send through it, and it sits
/// above BatchingTransport so an intra-cell enroute hop can itself be
/// batch-coalesced. packets_sent()/packets_delivered() count app-level
/// messages, keeping the cluster quiescence invariant above the mailbox
/// boundary.
class GatewayMailbox final : public Transport, public PacketHandler {
 public:
  /// Attaches itself as the inner transport's handler for every site;
  /// construct the stack bottom-up and attach the real handlers here.
  /// `routing` must cover inner.size() sites across >= 2 cells.
  GatewayMailbox(Transport& inner, TimerDriver& timer, GatewayConfig config,
                 CellRouting routing);

  void attach(SiteId site, PacketHandler* handler) override;
  void send(SiteId from, SiteId to, serial::Bytes bytes) override;
  SiteId size() const override { return inner_.size(); }
  std::uint64_t packets_sent() const override;
  std::uint64_t packets_delivered() const override;
  /// Keeps the sink for kGatewayForward events, forwards it down the stack.
  void set_trace_sink(obs::TraceSink* sink) override;

  /// Wires `pool` into every mailbox and the fan-out copy path. Call
  /// before the first send; null disables pooling (the default).
  void set_buffer_pool(serial::BufferPool* pool);

  void on_packet(Packet packet) override;

  /// Ships every non-empty mailbox. Executors call this at the start of
  /// drain — note a flush can strand *new* enroute arrivals in a mailbox,
  /// so thread-path drains loop flush_all + inner quiescence until
  /// quiescent() (see PooledExecutor::drain).
  void flush_all();

  /// Nothing buffered in any mailbox and every accepted message delivered.
  bool quiescent() const;

  // -- whole-layer counters --
  /// App-level messages by scope of (from, to).
  std::uint64_t lan_messages() const;
  std::uint64_t wan_messages() const;
  std::uint64_t lan_bytes() const;
  std::uint64_t wan_bytes() const;
  /// Frames this layer put on a cross-cell channel: mailbox frames when
  /// coalescing, direct cross-cell sends when passing through — the
  /// denominator of the ext_geo A/B.
  std::uint64_t wan_frames() const;
  /// Mailbox frames shipped / messages inside them (0 when pass-through).
  std::uint64_t mailbox_frames() const;
  std::uint64_t mailbox_messages() const;
  /// Messages relayed through an enroute hop (sender was not its gateway).
  std::uint64_t enroute_messages() const;
  /// Wire frames dropped as syntactically invalid instead of crashing.
  std::uint64_t malformed() const;
  std::uint64_t buffered_messages() const;
  std::uint64_t flushes(GatewayCoalescer::Flush reason) const;

  const CellRouting& routing() const { return routing_; }
  bool coalescing() const { return config_.enabled; }

  /// Folds the layer's counters into `registry` under net.gateway.* plus
  /// the scope-split msg.{lan,wan}.* — both disjoint from the per-kind
  /// msg.SM/FM/RM namespace and from net.batch.*/net.reliable.*.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct Mailbox {
    std::mutex mutex;
    GatewayCoalescer coalescer;
    bool timer_armed = false;
    Mailbox(const GatewayConfig& config, std::uint16_t oc, std::uint16_t dc)
        : coalescer(config, oc, dc) {}
  };

  std::size_t mailbox_index(std::size_t oc, std::size_t dc) const {
    return oc * routing_.cells() + dc;
  }
  /// Appends to the (oc -> dc) mailbox and ships on threshold; arms the
  /// flush timer for a fresh frame.
  void mailbox_append(std::size_t oc, std::size_t dc, SiteId from, SiteId to,
                      serial::Bytes&& payload);
  /// Ships `frame` over the gateway -> gateway channel. Called with the
  /// mailbox mutex held (same FIFO rationale as BatchingTransport::ship).
  void ship(std::size_t oc, std::size_t dc, GatewayCoalescer::Frame&& frame);
  void on_flush_timer(std::size_t oc, std::size_t dc);
  void deliver(Packet&& packet);

  Transport& inner_;
  TimerDriver& timer_;
  const GatewayConfig config_;
  const CellRouting routing_;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<PacketHandler*> handlers_;

  mutable std::mutex stats_mutex_;
  std::uint64_t sent_ = 0;       // app-level messages accepted by send()
  std::uint64_t delivered_ = 0;  // app-level messages handed to handlers
  std::uint64_t lan_messages_ = 0;
  std::uint64_t wan_messages_ = 0;
  std::uint64_t lan_bytes_ = 0;
  std::uint64_t wan_bytes_ = 0;
  std::uint64_t wan_passthrough_ = 0;  // direct cross-cell frames (enabled off)
  std::uint64_t enroute_ = 0;
  std::uint64_t malformed_ = 0;

  obs::TraceSink* trace_ = nullptr;
  serial::BufferPool* pool_ = nullptr;
};

}  // namespace causim::net
